import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ardbscan.dataset import (
    Dataset,
    load_csv,
    normalize,
    sample_labeled_subset,
    split_blocks,
)


def zero_labeled(points):
    """A dataset over ``points`` whose labels are all 0."""
    points = np.asarray(points, dtype=float)
    return Dataset(points, np.zeros(len(points), dtype=int))


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_csv_with_labels(tmp_path):
    ds = load_csv(write(tmp_path, "0,0,1\n1,0,1\n0,1,2\n"))
    assert ds.n == 3 and ds.points.shape == (3, 2)
    assert ds.labels.tolist() == [1, 1, 2]
    assert ds.points[2].tolist() == [0.0, 1.0]


def test_load_csv_empty_file(tmp_path):
    with pytest.raises(ValueError, match="empty dataset"):
        load_csv(write(tmp_path, ""))


def test_load_csv_bad_feature_names_line(tmp_path):
    with pytest.raises(ValueError, match="line 1"):
        load_csv(write(tmp_path, "a,b,1\n"))


def test_load_csv_needs_a_feature_column(tmp_path):
    # the last column is always the label
    with pytest.raises(ValueError, match="line 1: need at least one feature"):
        load_csv(write(tmp_path, "1\n2\n"))


def test_load_csv_ragged_row(tmp_path):
    with pytest.raises(ValueError, match="line 2"):
        load_csv(write(tmp_path, "1,2\n1,2,3\n"))


def test_load_csv_float_integer_labels_ok(tmp_path):
    ds = load_csv(write(tmp_path, "0,0,2.0\n1,1,3\n"))
    assert ds.labels.tolist() == [2, 3]


def test_load_csv_fractional_label_rejected(tmp_path):
    with pytest.raises(ValueError, match="line 1"):
        load_csv(write(tmp_path, "0,0,2.5\n"))


@pytest.mark.parametrize("label", ["1e20", "-1e20", "9223372036854775808"])
def test_load_csv_label_outside_int64_rejected(tmp_path, label):
    with pytest.raises(ValueError, match="line 2: .*int64"):
        load_csv(write(tmp_path, f"0,0,1\n1,1,{label}\n"))


@pytest.mark.parametrize("text", [
    "0,0,1\n1,1,inf\n",
    "0,0,1\n1,1,nan\n",
    "0,0,1\nnan,1,1\n",
    "0,0,1\n1,-inf,1\n",
])
def test_load_csv_non_finite_rejected_with_line(tmp_path, text):
    with pytest.raises(ValueError, match="line 2: .*finite"):
        load_csv(write(tmp_path, text))


def test_points_are_immutable():
    ds = zero_labeled(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ds.points[0, 0] = 1.0


def test_normalize_linear_map():
    ds = normalize(zero_labeled([[2.0], [4.0], [6.0]]))
    assert ds.points[:, 0].tolist() == [0.0, 0.5, 1.0]


def test_normalize_constant_column():
    ds = normalize(zero_labeled([[5.0, 1.0], [5.0, 3.0]]))
    assert ds.points[:, 0].tolist() == [0.0, 0.0]


def test_normalize_rejects_an_overflowing_range():
    # both values are finite, but max - min is not: numpy used to warn and
    # return NaN points
    ds = zero_labeled([[0.5, 1.5e308], [0.25, -1.5e308], [0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="feature column 2 ranges from "
                           "-1.5e\\+308 to 1.5e\\+308"):
            normalize(ds)


def test_normalize_max_distance_is_sqrt_d():
    ds = normalize(zero_labeled([[0.0, 0.0], [1.0, 1.0]]))
    dist = np.linalg.norm(ds.points[0] - ds.points[1])
    assert dist == pytest.approx(np.sqrt(2))


@settings(max_examples=50)
@given(
    st.lists(
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=4),
        min_size=1,
        max_size=30,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_normalize_idempotent_and_bounded(rows):
    ds = normalize(zero_labeled(rows))
    assert ds.points.min() >= 0.0 and ds.points.max() <= 1.0
    again = normalize(ds)
    assert np.allclose(again.points, ds.points, atol=1e-12)


def labeled(n, d=2):
    rng = np.random.default_rng(0)
    return Dataset(rng.random((n, d)), rng.integers(0, 3, n))


def test_subset_size_rounding():
    sub = sample_labeled_subset(labeled(10), 0.2, seed=1)
    assert len(sub) == 2


def test_subset_full_proportion():
    sub = sample_labeled_subset(labeled(7), 1.0, seed=1)
    assert sub.tolist() == list(range(7))
    assert sub.dtype == np.int64 and not sub.flags.writeable


def test_subset_deterministic():
    a = sample_labeled_subset(labeled(50), 0.2, seed=9)
    b = sample_labeled_subset(labeled(50), 0.2, seed=9)
    assert a.tolist() == b.tolist()


def test_split_blocks_even():
    blocks = split_blocks(labeled(8), 8)
    assert [b.n for b in blocks] == [1] * 8


def test_split_blocks_remainder():
    blocks = split_blocks(labeled(10), 3)
    assert [b.n for b in blocks] == [4, 3, 3]


def test_split_blocks_stream_scale():
    blocks = split_blocks(zero_labeled(np.zeros((29928, 2))), 8)
    assert [b.n for b in blocks] == [3741] * 8


def test_split_blocks_too_many():
    with pytest.raises(ValueError):
        split_blocks(labeled(3), 4)


@settings(max_examples=50)
@given(n=st.integers(1, 200), blocks=st.integers(1, 12))
def test_split_blocks_partition_property(n, blocks):
    if blocks > n:
        return
    ds = Dataset(np.arange(n, dtype=float).reshape(-1, 1), np.arange(n))
    out = split_blocks(ds, blocks)
    assert sum(b.n for b in out) == n
    glued = np.concatenate([b.points[:, 0] for b in out])
    assert glued.tolist() == list(range(n))
    sizes = [b.n for b in out]
    assert max(sizes) - min(sizes) <= 1
    assert sorted(sizes, reverse=True) == sizes

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ardbscan.metrics import ari, contingency_table, nmi

from oracles import ari_pair_oracle, nmi_contingency_oracle

labelings = st.lists(st.integers(-1, 4), min_size=2, max_size=8)


def test_contingency_totals():
    counts = contingency_table([0, 0, 1, 1], [0, 1, 1, 1])
    assert counts.tolist() == [[1, 1], [0, 2]]
    assert counts.sum() == 4
    assert counts.sum(axis=1).tolist() == [2, 2]
    assert counts.sum(axis=0).tolist() == [1, 3]


def test_nmi_identity():
    assert nmi([0, 0, 1, 2], [0, 0, 1, 2]) == pytest.approx(1.0)


def test_nmi_permutation_invariance():
    assert nmi([1, 1, 0, 0], [0, 0, 1, 1]) == pytest.approx(1.0)


def test_nmi_against_oracle_example():
    pred, truth = [0, 0, 0, 1], [0, 0, 1, 1]
    assert nmi(pred, truth) == pytest.approx(nmi_contingency_oracle(pred, truth))


def test_nmi_single_cluster_conventions():
    assert nmi([3, 3, 3], [7, 7, 7]) == 1.0
    assert nmi([0, 0, 0], [0, 1, 2]) == 0.0
    assert nmi([0, 1, 2], [5, 5, 5]) == 0.0


def test_nmi_length_mismatch():
    with pytest.raises(ValueError):
        nmi([0, 1], [0, 1, 2])


def test_ari_identity():
    assert ari([0, 1, 1, 2], [0, 1, 1, 2]) == pytest.approx(1.0)


def test_ari_degenerate_agreement():
    assert ari([0, 0, 0], [4, 4, 4]) == 1.0


def test_ari_against_pair_oracle_example():
    pred, truth = [0, 0, 1, 1], [0, 1, 0, 1]
    assert ari(pred, truth) == pytest.approx(ari_pair_oracle(pred, truth))
    assert ari(pred, truth) == pytest.approx(-0.5)


def test_ari_length_mismatch():
    with pytest.raises(ValueError):
        ari([0, 1, 2], [0, 1])


def test_indices_refuse_too_few_points():
    for index in (nmi, ari):
        with pytest.raises(ValueError, match="need at least one point"):
            index([], [])
    with pytest.raises(ValueError, match="need at least two points"):
        ari([0], [0])
    assert nmi([0], [0]) == 1.0


@settings(max_examples=200)
@given(labelings, labelings)
def test_indices_symmetric_and_bounded(a, b):
    if len(a) != len(b):
        a, b = a[: min(len(a), len(b))], b[: min(len(a), len(b))]
        if len(a) < 2:
            return
    assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)
    assert ari(a, b) == pytest.approx(ari(b, a), abs=1e-12)
    assert 0.0 <= nmi(a, b) <= 1.0
    assert ari(a, b) <= 1.0 + 1e-12


@settings(max_examples=200)
@given(labelings, labelings, st.permutations(range(6)))
def test_label_permutation_invariance(a, b, perm):
    m = min(len(a), len(b))
    a, b = a[:m], b[:m]
    if m < 2:
        return
    a2 = [perm[x + 1] for x in a]  # shift so -1 maps through the permutation
    assert nmi(a2, b) == pytest.approx(nmi(a, b), abs=1e-12)
    assert ari(a2, b) == pytest.approx(ari(a, b), abs=1e-12)


@settings(max_examples=150)
@given(labelings, labelings)
def test_matches_oracles_on_random_pairs(a, b):
    m = min(len(a), len(b))
    a, b = a[:m], b[:m]
    if m < 2:
        return
    assert ari(a, b) == pytest.approx(ari_pair_oracle(a, b), abs=1e-12)
    assert nmi(a, b) == pytest.approx(nmi_contingency_oracle(a, b), abs=1e-9)


def test_noise_is_an_ordinary_label():
    # -1 must behave exactly like any other id
    a = [-1, -1, 0, 0]
    b = [5, 5, 6, 6]
    assert nmi(a, b) == pytest.approx(1.0)
    assert ari(a, b) == pytest.approx(1.0)

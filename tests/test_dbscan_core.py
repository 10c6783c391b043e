import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ardbscan import cpus, dbscan_core
from ardbscan.dbscan_core import (
    NOISE,
    ClusterResult,
    DbscanIndex,
    DbscanParams,
    cluster_centers,
    run_dbscan,
    sq_distances,
)
from ardbscan.structured_graph import select_k

from oracles import canonical_labels, core_distances_oracle, dbscan_bruteforce


def test_params_validation():
    with pytest.raises(ValueError):
        DbscanParams(eps=-0.1, min_pts=1)
    with pytest.raises(ValueError):
        DbscanParams(eps=0.5, min_pts=0)


def test_params_reject_nan_eps():
    # NaN fails no ordered comparison, so a plain ``eps < 0`` check let it
    # through, and every point came back as noise
    with pytest.raises(ValueError, match="eps must be >= 0, got nan"):
        DbscanParams(eps=float("nan"), min_pts=2)
    pts = np.random.default_rng(0).random((10, 2))
    res = run_dbscan(pts, DbscanParams(math.inf, 2))
    assert res.assignment.tolist() == [0] * 10


def test_empty_input():
    res = run_dbscan(np.zeros((0, 2)), DbscanParams(0.5, 1))
    assert res.assignment.size == 0 and res.num_clusters == 0


def test_single_point_is_core_of_itself():
    res = run_dbscan(np.zeros((1, 2)), DbscanParams(0.5, 1))
    assert res.assignment.tolist() == [0]
    assert res.num_clusters == 1


def test_min_pts_above_n_gives_all_noise():
    pts = np.random.default_rng(0).random((6, 2))
    res = run_dbscan(pts, DbscanParams(10.0, 7))
    assert res.assignment.tolist() == [NOISE] * 6
    assert res.num_clusters == 0


def test_two_separated_groups():
    pts = np.array(
        [[0, 0], [0.1, 0], [0, 0.1], [10, 10], [10.1, 10], [10, 10.1]], dtype=float
    )
    res = run_dbscan(pts, DbscanParams(0.5, 2))
    assert res.num_clusters == 2
    assert canonical_labels(res.assignment) == [0, 0, 0, 1, 1, 1]
    expected = dbscan_bruteforce(pts, 0.5, 2)
    assert canonical_labels(res.assignment) == canonical_labels(expected)


def test_zero_eps_separates_distinct_points():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    res = run_dbscan(pts, DbscanParams(0.0, 1))
    assert canonical_labels(res.assignment) == [0, 0, 1]


def test_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(2, 60))
        pts = rng.random((n, 2))
        eps = float(rng.uniform(0.01, 0.5))
        min_pts = int(rng.integers(1, 8))
        mine = run_dbscan(pts, DbscanParams(eps, min_pts))
        theirs = dbscan_bruteforce(pts, eps, min_pts)
        assert canonical_labels(mine.assignment) == canonical_labels(theirs), (
            n,
            eps,
            min_pts,
        )


@pytest.mark.parametrize("points", [
    [[0.0], [1e200], [2e200], [3e200]],  # squared distances overflow
    [[0.0, 0.0], [1e154, 1e154], [np.inf, 0.0]],
    [[0.0, 0.0], [np.nan, 1.0]],
])
@pytest.mark.parametrize("entry", [DbscanIndex,
                                   lambda pts: select_k(pts, 2048)],
                         ids=["DbscanIndex", "select_k"])
def test_index_rejects_overflowing_or_non_finite_points(entry, points):
    # k selection refuses the points the index refuses, with the same
    # check (warnings are errors here)
    with pytest.raises(ValueError, match="finite"):
        entry(np.array(points))


@pytest.mark.parametrize("eps", [1e149, 2e149, 3e149, 1e160])
def test_matches_bruteforce_near_the_overflow_bound(eps):
    # squared distances up to about 1e301 are finite; eps 1e160 squares to
    # inf, which every distance is within
    pts = np.random.default_rng(9).uniform(-1.0, 1.0, (40, 2)) * 1e150
    for min_pts in (1, 3):
        mine = run_dbscan(pts, DbscanParams(eps, min_pts))
        theirs = dbscan_bruteforce(pts, eps, min_pts)
        assert canonical_labels(mine.assignment) == canonical_labels(theirs)


def test_deterministic():
    rng = np.random.default_rng(3)
    pts = rng.random((80, 2))
    p = DbscanParams(0.08, 3)
    a = run_dbscan(pts, p).assignment
    b = run_dbscan(pts, p).assignment
    assert a.tolist() == b.tolist()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(0.02, 0.3),
    st.floats(0.02, 0.3),
    st.integers(1, 6),
)
def test_core_set_monotone_in_eps(seed, eps_a, eps_b, min_pts):
    pts = np.random.default_rng(seed).random((30, 2))
    lo, hi = sorted([eps_a, eps_b])

    def cores(eps):
        dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        return set(np.flatnonzero((dist <= eps).sum(1) >= min_pts))

    assert cores(lo) <= cores(hi)


def test_cluster_ids_are_contiguous_and_ordered_by_first_core():
    rng = np.random.default_rng(11)
    pts = rng.random((120, 2))
    res = run_dbscan(pts, DbscanParams(0.07, 4))
    ids = sorted(set(res.assignment.tolist()) - {NOISE})
    assert ids == list(range(res.num_clusters))
    assert res.num_clusters >= 2  # the instance is chosen to fragment
    # ids must ascend with each cluster's smallest core index
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    core = (dist <= 0.07).sum(1) >= 4
    first_core = [
        np.flatnonzero(core & (res.assignment == cid))[0]
        for cid in range(res.num_clusters)
    ]
    assert first_core == sorted(first_core)


def test_cluster_centers_tie_breaks_to_lowest_index():
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    res = ClusterResult(assignment=np.array([0, 0]), num_clusters=1)
    centers = cluster_centers(pts, res)
    assert len(centers) == 1
    feature, center_dist, size = centers[0]
    assert feature.tolist() == [0.0, 0.0]  # both are 1.0 from the centroid
    assert size == 2
    assert center_dist == 0.0  # cluster center and partition center coincide


def test_cluster_centers_distance_to_partition_center():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0]])
    res = ClusterResult(assignment=np.array([0, 0, 1]), num_clusters=2)
    centers = cluster_centers(pts, res)
    # partition centroid is ~(1.7, 0); the closest point is index 1
    assert centers[0][1] == pytest.approx(0.1)
    assert centers[1][1] == pytest.approx(4.9)
    assert centers[0][2] == 2 and centers[1][2] == 1


def _with_duplicates(seed):
    """600 random points plus exact copies of 500 of them (n = 1,100), in
    shuffled order; returns the points and the index pairs of the copies."""
    rng = np.random.default_rng(seed)
    base = rng.random((600, 2))
    copied = rng.choice(600, size=500, replace=False)
    pts = np.vstack([base, base[copied]])
    perm = rng.permutation(pts.shape[0])
    where = np.argsort(perm)  # where[i] is the new position of old row i
    pairs = np.column_stack([where[copied], where[600 + np.arange(500)]])
    return pts[perm], pairs


@pytest.mark.parametrize("seed", range(3))
def test_duplicates_co_cluster_at_zero_eps(seed):
    pts, pairs = _with_duplicates(seed)
    assert np.array_equal(pts[pairs[:, 0]], pts[pairs[:, 1]])
    labels = run_dbscan(pts, DbscanParams(0.0, 2)).assignment
    a, b = labels[pairs[:, 0]], labels[pairs[:, 1]]
    assert np.all(a != NOISE)
    assert np.array_equal(a, b)
    assert np.all(labels[np.setdiff1d(np.arange(pts.shape[0]), pairs)] == NOISE)


@pytest.mark.parametrize("eps, min_pts", [(0.0, 2), (0.03, 5)])
def test_matches_bruteforce_above_1024_points_with_duplicates(eps, min_pts):
    pts, _ = _with_duplicates(7)
    assert pts.shape[0] > 1024
    mine = run_dbscan(pts, DbscanParams(eps, min_pts))
    theirs = dbscan_bruteforce(pts.tolist(), eps, min_pts)
    assert canonical_labels(mine.assignment) == canonical_labels(theirs)


def _mixture_8d():
    rng = np.random.default_rng(8)
    centers = rng.random((3, 8))
    return np.vstack([rng.normal(c, 0.08, size=(80, 8)) for c in centers])


TABLE_INPUTS = {
    "duplicates": np.array([(0.1, 0.2), (0.8, 0.1), (0.3, 0.9),
                            (0.7, 0.7)] * 8),
    "lattice": np.array([(x, y) for x in range(30) for y in range(30)],
                        dtype=float),
    "mixture-8d": _mixture_8d(),
    "one point": np.array([[0.5, 0.5]]),
    "two points": np.array([[0.0, 0.0], [0.3, 0.4]]),
}


@pytest.mark.parametrize("name", list(TABLE_INPUTS))
def test_neighbour_table_columns_are_the_core_distances(name):
    # every column of the first table, every column of the table a query
    # past its width rebuilds, and min_pts = n, each bit for bit the core
    # distances of a full sort of every row
    points = TABLE_INPUTS[name]
    n = points.shape[0]
    want = core_distances_oracle(points, np.arange(1, n + 1))
    index = DbscanIndex(points)
    asked = max(1, n // 8)
    widths = []
    for _ in range(2):
        index._core(asked)
        widths.append(index._table.shape[1])
        for m in range(1, widths[-1] + 1):
            assert _bits(index._core(m)) == _bits(want[:, m - 1])
        assert index._table.shape[1] == widths[-1]  # no rebuild within it
        asked = min(n, widths[-1] + 1)
    first = min(n, 2 * max(1, n // 8))
    assert widths == [first, min(n, 2 * first)]
    assert _bits(index._core(n)) == _bits(want[:, n - 1])
    assert index._table.shape == (n, n)


def test_neighbour_table_stops_at_the_width_cap():
    # a query past half the cap builds the table to the cap, not to twice
    # the min_pts asked; a query past the cap builds to the min_pts asked.
    # Every column is the core distances of a full sort of every row
    points = np.random.default_rng(5).random((120, 2))
    want = core_distances_oracle(points, np.arange(1, 121))
    index = DbscanIndex(points, width_cap=40)
    widths = []
    for asked in (30, 35, 41, 50):
        index._core(asked)
        widths.append(index._table.shape[1])
        for m in range(1, widths[-1] + 1):
            assert _bits(index._core(m)) == _bits(want[:, m - 1])
    assert widths == [40, 40, 41, 50]
    # below half the cap the table doubles as it does uncapped
    index = DbscanIndex(points, width_cap=40)
    index._core(12)
    assert index._table.shape[1] == 24


def test_neighbour_table_is_checked_against_available_memory(monkeypatch):
    # a table of n * 2 * min_pts floats that just fits, or no MemAvailable
    # to compare with, clusters as before; one byte short refuses before
    # any distance is computed
    points = np.random.default_rng(0).random((100, 2))
    params = DbscanParams(0.1, 5)
    need = 8 * 100 * 10
    want = run_dbscan(points, params).assignment
    for avail in (need, None):
        monkeypatch.setattr(cpus, "_mem_available", lambda: avail)
        np.testing.assert_array_equal(run_dbscan(points, params).assignment,
                                      want)

    def no_distances(*args, **kwargs):
        raise AssertionError("distances computed after the guard refused")

    monkeypatch.setattr(dbscan_core, "sq_distances", no_distances)
    monkeypatch.setattr(cpus, "_mem_available", lambda: need - 1)
    with pytest.raises(cpus.InsufficientMemoryError,
                       match="the neighbour-distance table over 100 points "
                             "needs about"):
        run_dbscan(points, params)


def _kernel_points(d, scale, n=16, seed=0):
    """n random points in d dimensions times ``scale``, then copies of rows
    0, 3 and 3 again, so some pairs are exactly 0 apart."""
    pts = np.random.default_rng(seed + d).random((n, d)) * scale
    return np.vstack([pts, pts[[0, 3, 3]]])


def _all_sq_distances(pts):
    """Every pair's squared distance, as one block of rows and row by row
    (from a point's floats and from its array); all must agree bit for
    bit."""
    n = pts.shape[0]
    pts_t = np.ascontiguousarray(pts.T)
    block = sq_distances(pts.T[:, :, None], pts_t, np.empty((n, n)),
                         np.empty((n, n)))
    for i in range(n):
        for point in (pts[i].tolist(), pts[i]):
            row = sq_distances(point, pts_t, np.empty(n), np.empty(n))
            assert _bits(row) == _bits(block[i])
    return block


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_sq_distances_is_the_sequential_sum(scale):
    # (a_0 - b_0)^2 + (a_1 - b_1)^2 + ... added one at a time from 0.0
    for d in range(1, 10):
        pts = _kernel_points(d, scale)
        expected = []
        for p in pts.tolist():
            for q in pts.tolist():
                total = 0.0
                for a, b in zip(p, q):
                    total += (a - b) * (a - b)
                expected.append(total)
        got = _all_sq_distances(pts)
        assert _bits(got.ravel()) == _bits(expected), d
        # d(i, j) == d(j, i): select_k reads an edge's distance from
        # either endpoint's row
        assert _bits(got) == _bits(got.T), d
        assert not got[[0, 3, 3, 17, 18], [16, 17, 18, 18, 3]].any()


def test_sq_distances_without_coordinates_are_zero():
    out = np.full((3, 3), np.nan)
    sq_distances(np.zeros((0, 3, 1)), np.zeros((0, 3)), out, np.empty((3, 3)))
    assert not out.any()


def test_sq_distances_equals_cdist():
    distance = pytest.importorskip("scipy.spatial.distance")
    for d in [*range(1, 21), 32, 64]:
        for scale in (1e-8, 1.0, 1e8):
            pts = _kernel_points(d, scale, n=40)
            got = _all_sq_distances(pts)
            assert _bits(got) == _bits(distance.cdist(pts, pts, "sqeuclidean"))
            assert _bits(np.sqrt(got)) == _bits(distance.cdist(pts, pts))


def _growing_gaps(n):
    """n points on a line whose gaps grow by 3% each: Prim's tree from
    point 0 is the path 0-1-...-(n-1), of depth n - 1."""
    gaps = 1.03 ** np.arange(n - 1)
    return np.concatenate([[0.0], np.cumsum(gaps)])[:, None], gaps


@pytest.mark.parametrize("min_pts", [1, 2, 3, 5])
def test_deep_tree_matches_bruteforce(min_pts):
    pts, gaps = _growing_gaps(120)
    index = DbscanIndex(pts)
    # between two consecutive gaps (never on one), and above them all
    cuts = [0, 1, 30, 60, 117]
    for eps in [math.sqrt(gaps[j] * gaps[j + 1]) for j in cuts] + [2 * gaps[-1]]:
        res = run_dbscan(pts, DbscanParams(eps, min_pts), index)
        expected = dbscan_bruteforce(pts.tolist(), eps, min_pts)
        assert canonical_labels(res.assignment) == canonical_labels(expected)
        assert res.num_clusters == max(expected) + 1
    if min_pts == 1:
        _, src, dst, _ = index._trees[1]
        assert src.tolist() == list(range(119))
        assert dst.tolist() == list(range(1, 120))
        assert res.num_clusters == 1  # one component of depth 119


@st.composite
def point_sets(draw):
    """(points, on_grid): 1 to 40 points in 1 to 8 dimensions, picked with
    repetition from up to 40 distinct ones, so most sets hold exact
    duplicates. Grid points lie on multiples of 1/4 in [0, 1]; the others
    are seeded random floats."""
    d = draw(st.integers(1, 8))
    distinct = draw(st.integers(1, 40))
    grid = draw(st.booleans())
    if grid:
        quarters = st.lists(st.integers(0, 4), min_size=d, max_size=d)
        base = np.array(draw(st.lists(quarters, min_size=distinct,
                                      max_size=distinct))) / 4.0
    else:
        seed = draw(st.integers(0, 2**32 - 1))
        base = np.random.default_rng(seed).random((distinct, d))
    picks = draw(st.lists(st.integers(0, distinct - 1), min_size=1,
                          max_size=40))
    return base[picks], grid


# a point at 0.5 within 0.25 of two clusters it is not core of
_BORDER_OF_TWO = np.array([[0.5], [1.0], [1.0], [1.0], [0.75], [0.25], [0.0],
                           [0.0], [0.0]])


@settings(max_examples=150, deadline=None)
@given(
    point_set=point_sets(),
    queries=st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
                               st.integers(1, 45)),
                     min_size=1, max_size=8),
)
@example(point_set=(np.zeros((1, 3)), False),
         queries=[(0.0, 1), (0.5, 1), (0.5, 2)])
@example(point_set=(_BORDER_OF_TWO, True),
         queries=[(0.25, 4), (0.0, 3), (0.25, 10), (0.5, 4)])
def test_index_matches_bruteforce_over_query_sequences(point_set, queries):
    pts, grid = point_set
    index = DbscanIndex(pts)
    for eps, min_pts in queries:
        if grid:
            # on the 1/4 grid, squared distances and eps*eps are exact, so
            # the oracle's math.dist <= eps agrees with the squared predicate
            eps = round(eps * 4) / 4
        res = run_dbscan(pts, DbscanParams(eps, min_pts), index)
        expected = dbscan_bruteforce(pts.tolist(), eps, min_pts)
        assert canonical_labels(res.assignment) == canonical_labels(expected)
        assert res.num_clusters == max(expected) + 1
        # ids ascend with each cluster's smallest core index
        within = [[math.dist(p, q) <= eps for q in pts.tolist()]
                  for p in pts.tolist()]
        core = np.array([sum(row) >= min_pts for row in within])
        first_core = [int(np.flatnonzero(core & (res.assignment == cid))[0])
                      for cid in range(res.num_clusters)]
        assert first_core == sorted(first_core)

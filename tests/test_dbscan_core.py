import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ardbscan.dbscan_core import (
    NOISE,
    ClusterResult,
    DbscanIndex,
    DbscanParams,
    cluster_centers,
    run_dbscan,
)

from oracles import canonical_labels, dbscan_bruteforce


def test_params_validation():
    with pytest.raises(ValueError):
        DbscanParams(eps=-0.1, min_pts=1)
    with pytest.raises(ValueError):
        DbscanParams(eps=0.5, min_pts=0)


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

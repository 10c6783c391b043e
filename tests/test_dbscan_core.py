import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ardbscan.dbscan_core import (
    NOISE,
    ClusterResult,
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

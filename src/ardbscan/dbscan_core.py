"""Exact DBSCAN over a point set.

Neighborhoods are closed Euclidean balls and include the point itself.
Squared distances are summed from coordinate differences at every n, with no
dot-product identity and so no cancellation: duplicate points are exactly 0
apart and co-cluster even at eps 0. Border points attach to the
earliest-discovered adjacent cluster, where clusters are numbered by their
smallest core index; this equals the classic index-ordered scan-and-expand
formulation and makes results fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

NOISE = -1


@dataclass(frozen=True)
class DbscanParams:
    eps: float
    min_pts: int

    def __post_init__(self) -> None:
        # eps 0 is allowed: a clamped lower search bound must stay evaluable
        # (duplicate points still co-cluster there).
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        if self.min_pts < 1:
            raise ValueError("min_pts must be >= 1")


@dataclass(frozen=True)
class ClusterResult:
    assignment: np.ndarray  # int array, NOISE (-1) or cluster id
    num_clusters: int


def run_dbscan(points: np.ndarray, params: DbscanParams) -> ClusterResult:
    """Cluster points.

    The result is a partition into clusters with contiguous ids 0..k-1 plus
    NOISE; ids ascend with each cluster's smallest core index.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n == 0:
        return ClusterResult(np.empty(0, dtype=np.int64), 0)
    within = cdist(points, points, "sqeuclidean") <= params.eps * params.eps
    core = within.sum(axis=1) >= params.min_pts
    assignment = np.full(n, NOISE, dtype=np.int64)
    core_idx = np.flatnonzero(core)
    if core_idx.size == 0:
        return ClusterResult(assignment, 0)

    adj = within[np.ix_(core_idx, core_idx)]
    num, comp = connected_components(csr_matrix(adj), directed=False)
    # renumber components by first occurrence over ascending core index, so
    # cluster ids ascend with each cluster's smallest core point
    _, first_idx = np.unique(comp, return_index=True)
    renum = np.empty(num, dtype=np.int64)
    renum[np.argsort(first_idx, kind="stable")] = np.arange(num)
    comp = renum[comp]
    assignment[core_idx] = comp

    non_core = np.flatnonzero(~core)
    if non_core.size:
        reach = within[np.ix_(non_core, core_idx)]
        has_core = reach.any(axis=1)
        if has_core.any():
            rows = non_core[has_core]
            cand = np.where(reach[has_core], comp[None, :], num)
            assignment[rows] = cand.min(axis=1)
    return ClusterResult(assignment, int(num))


def cluster_centers(
    points: np.ndarray, result: ClusterResult
) -> list[tuple[np.ndarray, float, int]]:
    """Per-cluster (central object's features, distance of that object to the
    partition's central object, cluster size).

    The central object of a set is its member closest to the componentwise
    mean, ties broken by lowest index.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.shape[0] != result.assignment.shape[0]:
        raise ValueError("result is not aligned with points")

    def central(members: np.ndarray) -> np.ndarray:
        centroid = points[members].mean(axis=0)
        offsets = np.linalg.norm(points[members] - centroid, axis=1)
        return points[members[int(np.argmin(offsets))]]

    partition_center = central(np.arange(points.shape[0]))
    out = []
    for cid in range(result.num_clusters):
        members = np.flatnonzero(result.assignment == cid)
        obj = central(members)
        out.append(
            (obj, float(np.linalg.norm(obj - partition_center)), int(members.size))
        )
    return out

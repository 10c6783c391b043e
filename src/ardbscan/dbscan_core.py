"""Exact DBSCAN over a point set, answered from one MST per min_pts.

Neighborhoods are closed Euclidean balls and include the point itself: ``j``
is a neighbor of ``i`` when ``sqeuclidean(i, j) <= eps * eps``. Every squared
distance comes from ``cdist(..., "sqeuclidean")``, which sums coordinate
differences (no dot-product identity, so no cancellation): duplicate points
are exactly 0 apart and co-cluster even at eps 0, and a pair's distance is
the same whichever rows it is computed among.

For a fixed ``min_pts`` a :class:`DbscanIndex` computes, once, each point's
squared core distance (its ``min_pts``-th smallest squared distance, itself
included) and a minimum spanning tree over the mutual-reachability weights
``max(core_a, core_b, sqeuclidean(a, b))``. A point is core at eps exactly
when its core distance is ``<= eps*eps``, and two core points are
eps-connected exactly when the tree path between them has no edge above
``eps*eps``: the tree keeps a minimax path between every pair, and an edge
touching a non-core point always weighs more than ``eps*eps``. So cutting
the tree's heavier edges gives DBSCAN's core clusters exactly, at every eps
(Campello, Moulavi & Sander, *Density-Based Clustering Based on
Hierarchical Density Estimates*, PAKDD 2013). Clusters are numbered by their
smallest core index, and a non-core point within eps of a core point joins
the adjacent cluster with the smallest id; this equals the classic
index-ordered scan-and-expand formulation (Schubert et al., *DBSCAN
Revisited, Revisited*, TODS 2017) and makes results fully deterministic.

No n-by-n array is ever held: the tree is built by Prim's method, which
recomputes one distance row per step, and core distances and the border
test run over blocks of ``_BLOCK`` rows.

A tree depends only on the points and ``min_pts``, so a run builds one
index per agent partition and shares it among all its seeds' searches
(``cli_harness._run_seeds``); each tree is built lazily, by the first
query that asks for its ``min_pts``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

NOISE = -1
_BLOCK = 256  # rows per distance block; temporaries stay _BLOCK x n


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


def _core_distances(points: np.ndarray, min_pts: int) -> np.ndarray:
    """Each point's ``min_pts``-th smallest squared distance, itself
    included (requires ``min_pts <= n``)."""
    out = np.empty(points.shape[0])
    for lo in range(0, points.shape[0], _BLOCK):
        block = cdist(points[lo:lo + _BLOCK], points, "sqeuclidean")
        block.partition(min_pts - 1, axis=1)
        out[lo:lo + _BLOCK] = block[:, min_pts - 1]
    return out


def _prim_mst(points: np.ndarray,
              core: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``n - 1`` edges (u, v, weight) of a minimum spanning tree over
    ``max(core_u, core_v, sqeuclidean(u, v))``, grown from vertex 0.

    Zero-weight edges (duplicate points) are kept like any other.
    """
    n = points.shape[0]
    src = np.zeros(n - 1, dtype=np.int64)
    dst = np.zeros(n - 1, dtype=np.int64)
    weight = np.zeros(n - 1)
    # lightest known edge from each vertex into the tree; inf once inside
    best = np.full(n, np.inf)
    parent = np.zeros(n, dtype=np.int64)
    outside = np.ones(n, dtype=bool)
    closer = np.empty(n, dtype=bool)
    u = 0
    for step in range(n - 1):
        outside[u] = False
        best[u] = np.inf
        reach = cdist(points[u:u + 1], points, "sqeuclidean")[0]
        np.maximum(reach, core, out=reach)
        np.maximum(reach, core[u], out=reach)
        # masked in-place updates; argmin keeps the first of equal minima
        np.less(reach, best, out=closer)
        closer &= outside
        np.copyto(best, reach, where=closer)
        np.copyto(parent, u, where=closer)
        u = int(best.argmin())
        src[step], dst[step], weight[step] = parent[u], u, best[u]
    return src, dst, weight


class DbscanIndex:
    """Exact DBSCAN queries on one point set.

    For each ``min_pts`` it is asked for, the index keeps the squared core
    distances and the mutual-reachability MST; any eps is then answered by
    cutting the tree. Building the index computes nothing: each tree is
    built by the first query with its ``min_pts``. Build one per point set
    that is clustered repeatedly, and share it among everything that
    clusters that set.
    """

    def __init__(self, points: np.ndarray):
        self.points = np.asarray(points, dtype=np.float64)
        self._trees: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray,
                                     np.ndarray]] = {}

    def _tree(self, min_pts: int):
        tree = self._trees.get(min_pts)
        if tree is None:
            core = _core_distances(self.points, min_pts)
            tree = (core, *_prim_mst(self.points, core))
            self._trees[min_pts] = tree
        return tree

    def query(self, params: DbscanParams) -> ClusterResult:
        points = self.points
        n = points.shape[0]
        assignment = np.full(n, NOISE, dtype=np.int64)
        if params.min_pts > n:
            return ClusterResult(assignment, 0)
        eps2 = params.eps * params.eps
        core_d2, src, dst, weight = self._tree(params.min_pts)
        core_idx = np.flatnonzero(core_d2 <= eps2)
        if core_idx.size == 0:
            return ClusterResult(assignment, 0)

        keep = weight <= eps2
        graph = coo_matrix((np.ones(int(keep.sum())), (src[keep], dst[keep])),
                           shape=(n, n))
        _, comp = connected_components(graph, directed=False)
        # renumber components by first occurrence over ascending core index,
        # so cluster ids ascend with each cluster's smallest core point
        _, first_idx, comp = np.unique(comp[core_idx], return_index=True,
                                       return_inverse=True)
        num = first_idx.size
        renum = np.empty(num, dtype=np.int64)
        renum[np.argsort(first_idx, kind="stable")] = np.arange(num)
        comp = renum[comp]
        assignment[core_idx] = comp

        core_points = points[core_idx]
        non_core = np.flatnonzero(core_d2 > eps2)
        for lo in range(0, non_core.size, _BLOCK):
            rows = non_core[lo:lo + _BLOCK]
            reach = cdist(points[rows], core_points, "sqeuclidean") <= eps2
            nearest = np.where(reach, comp[None, :], num).min(axis=1)
            border = nearest < num
            assignment[rows[border]] = nearest[border]
        return ClusterResult(assignment, int(num))


def run_dbscan(points: np.ndarray, params: DbscanParams,
               index: Optional[DbscanIndex] = None) -> ClusterResult:
    """Cluster points, through ``index`` when one is built over them.

    The result is a partition into clusters with contiguous ids 0..k-1 plus
    NOISE; ids ascend with each cluster's smallest core index.
    """
    if index is None:
        index = DbscanIndex(points)
    return index.query(params)


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

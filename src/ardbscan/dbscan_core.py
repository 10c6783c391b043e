"""Exact DBSCAN over a point set, answered from one MST per min_pts.

Neighborhoods are closed Euclidean balls and include the point itself: ``j``
is a neighbor of ``i`` when ``sqeuclidean(i, j) <= eps * eps``. Every squared
distance comes from :func:`sq_distances`, which sums the squared coordinate
differences one coordinate at a time from the first (no dot-product
identity, so no cancellation): duplicate points are exactly 0 apart and
co-cluster even at eps 0, ``d(i, j) == d(j, i)``, and a pair's distance is
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

The core distances of every ``min_pts`` are order statistics of the same
rows, so the index holds one n x K table: each point's K smallest squared
distances, sorted, built over blocks of ``_CORE_BLOCK`` rows. A tree's
core distances are its column ``min_pts - 1``, the value a full sort of
the row puts there. The first query builds the table at K = ``min(n, 2 *
min_pts)``; a query past K rebuilds it at ``min(n, max(min_pts, 2K))``,
freeing the old table first, so K at least doubles with each rebuild.
An index given a ``width_cap``, the top of its searches' ``min_pts``
box, builds no table wider than that cap or the ``min_pts`` asked.
The lattice walk starts at the middle of its ``min_pts`` box, so at the
default cap fraction of 0.25 (the box runs to n/4) its first table
already spans the box: about n/4 columns of 8 bytes, 2n^2 bytes (8 MB
at n = 2,000). Uniform draws start anywhere in the box and may rebuild
a few times. Each table's n * K * 8 bytes are checked against the memory
available before it is allocated.

That table is the one O(n^2) array: the tree is built by Prim's method,
which recomputes one distance row per step, and the border test runs
over blocks of about ``_BORDER_CELLS`` distances. The tree's kept edges
form a forest rooted at vertex 0, so a query labels its components by
pointer jumping.

A tree depends only on the points and ``min_pts``, so a run builds one
index per agent partition and shares it among all its seeds' searches
(``cli_harness._run_seeds``); the table and each tree are built lazily,
by the first query that needs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .cpus import check_memory

NOISE = -1
_CORE_BLOCK = 32  # rows per neighbour-table block; its buffers stay in cache
_BORDER_CELLS = 1 << 16  # distances per border-test block


@dataclass(frozen=True)
class DbscanParams:
    eps: float
    min_pts: int

    def __post_init__(self) -> None:
        # eps 0 is allowed: a clamped lower search bound must stay evaluable
        # (duplicate points still co-cluster there).  NaN fails ``>=`` and
        # is refused; an infinite eps is valid.
        if not self.eps >= 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")
        if self.min_pts < 1:
            raise ValueError("min_pts must be >= 1")


@dataclass(frozen=True)
class ClusterResult:
    assignment: np.ndarray  # int array, NOISE (-1) or cluster id
    num_clusters: int


def sq_distances(a, b, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances ``sum_k (a[k] - b[k])**2``, written into
    ``out``.

    The squares are added one coordinate at a time from the first, as
    ``scipy.spatial.distance.cdist(..., "sqeuclidean")`` adds them, so the
    two agree bit for bit and ``d(i, j) == d(j, i)``. ``a`` and ``b`` hold
    one operand per coordinate, each broadcasting to ``out``'s shape: a
    block of rows as ``rows.T[:, :, None]`` against a point set's columns
    ``points.T`` gives the block's distances to every point (m x n); one
    point's coordinates against the columns give its row (n). ``tmp`` is
    scratch of ``out``'s shape. With no coordinates every distance is 0.
    """
    if not len(b):
        out.fill(0.0)
        return out
    np.subtract(a[0], b[0], out=out)
    np.square(out, out=out)
    for a_k, b_k in zip(a[1:], b[1:]):
        np.subtract(a_k, b_k, out=tmp)
        np.square(tmp, out=tmp)
        np.add(out, tmp, out=out)
    return out


def check_distances(points: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``points`` (n x d) are finite, with every
    squared distance between them within float64 range."""
    if points.size:
        # the largest squared distance: not finite if any one overflows
        with np.errstate(over="ignore", invalid="ignore"):
            reach = np.square(np.ptp(points, axis=0)).sum()
        if not np.isfinite(reach):
            raise ValueError("points must be finite, with squared "
                             "distances within float64 range")


def _sorted_neighbours(points: np.ndarray, width: int) -> np.ndarray:
    """Each point's ``width`` smallest squared distances, itself included,
    in ascending order (n x ``width``, requires ``width <= n``).  Column
    ``m - 1`` is every point's ``m``-th smallest, the value a sort of its
    whole row puts there, bit for bit."""
    n = points.shape[0]
    check_memory("the neighbour-distance table", n, 8 * n * width)
    points_t = np.ascontiguousarray(points.T)
    block = np.empty((min(_CORE_BLOCK, n), n))
    tmp = np.empty_like(block)
    out = np.empty((n, width))
    for lo in range(0, n, _CORE_BLOCK):
        rows = points[lo:lo + _CORE_BLOCK]
        d2 = sq_distances(rows.T[:, :, None], points_t, block[:len(rows)],
                          tmp[:len(rows)])
        d2.partition(width - 1, axis=1)
        out[lo:lo + _CORE_BLOCK] = np.sort(d2[:, :width], axis=1)
    return out


def _prim_mst(points: np.ndarray,
              core: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``n - 1`` edges (u, v, weight) of a minimum spanning tree over
    ``max(core_u, core_v, sqeuclidean(u, v))``, grown from vertex 0.

    Zero-weight edges (duplicate points) are kept like any other.
    """
    n = points.shape[0]
    coords = points.tolist()
    cores = core.tolist()
    src = np.zeros(n - 1, dtype=np.int64)
    dst = np.zeros(n - 1, dtype=np.int64)
    weight = np.zeros(n - 1)
    # The working arrays hold the vertices not yet in the tree, in index
    # order, and drop the tree's vertices whenever they are half the rows:
    # each vertex's id, coordinates, core distance and lightest known edge
    # into the tree (weight and tree end). A tree vertex waiting to be
    # dropped has core distance and best weight inf, so its reach is inf,
    # never below its best, and argmin never picks it.
    ids = np.arange(n)
    columns = np.ascontiguousarray(points.T)
    floor = core.copy()
    best = np.full(n, np.inf)
    parent = np.zeros(n, dtype=np.int64)
    outside = np.ones(n, dtype=bool)
    closer = np.empty(n, dtype=bool)
    reach = np.empty(n)
    tmp = np.empty(n)
    u = j = 0
    for step in range(n - 1):
        outside[j] = False
        floor[j] = best[j] = np.inf
        if 2 * (n - 1 - step) <= ids.size:
            keep = np.flatnonzero(outside)
            size = keep.size
            ids, columns, outside = ids[keep], columns[:, keep], outside[keep]
            floor, best, parent = floor[keep], best[keep], parent[keep]
            closer, reach, tmp = closer[:size], reach[:size], tmp[:size]
        sq_distances(coords[u], columns, reach, tmp)
        np.maximum(reach, floor, out=reach)
        np.maximum(reach, cores[u], out=reach)
        np.less(reach, best, out=closer)
        np.copyto(parent, u, where=closer)
        np.minimum(best, reach, out=best)
        # the first of equal minima, which is the lowest id
        j = int(best.argmin())
        u = int(ids[j])
        src[step], dst[step], weight[step] = parent[j], u, best[j]
    return src, dst, weight


class DbscanIndex:
    """Exact DBSCAN queries on one point set.

    For each ``min_pts`` it is asked for, the index keeps the squared core
    distances and the mutual-reachability MST; any eps is then answered by
    cutting the tree.  Every tree's core distances are one column of the
    index's table of sorted neighbour distances.  Building the index
    computes nothing: the table is built by the first query and rebuilt
    wider by a query past its width, but no wider than ``width_cap``
    (the largest ``min_pts`` its searches ask for, where known) unless a
    query asks for more, and each tree is built by the first query with
    its ``min_pts``.  Build one per point set that is clustered
    repeatedly, and share it among everything that clusters that set.
    Points whose squared distances would overflow, or that are not
    finite, raise ``ValueError``; a table larger than the memory available
    raises :class:`~ardbscan.cpus.InsufficientMemoryError`.
    """

    def __init__(self, points: np.ndarray, width_cap: Optional[int] = None):
        self.points = np.asarray(points, dtype=np.float64)
        check_distances(self.points)
        self._points_t = np.ascontiguousarray(self.points.T)
        self._width_cap = self.points.shape[0] if width_cap is None \
            else width_cap
        self._table: Optional[np.ndarray] = None
        self._trees: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray,
                                     np.ndarray]] = {}

    def _core(self, min_pts: int) -> np.ndarray:
        """Each point's squared core distance at ``min_pts``."""
        n = self.points.shape[0]
        width = 0 if self._table is None else self._table.shape[1]
        if min_pts > width:
            self._table = None  # freed before its successor is allocated
            wider = min(n, self._width_cap, 2 * (width or min_pts))
            self._table = _sorted_neighbours(self.points,
                                             max(min_pts, wider))
        return np.ascontiguousarray(self._table[:, min_pts - 1])

    def _tree(self, min_pts: int):
        tree = self._trees.get(min_pts)
        if tree is None:
            core = self._core(min_pts)
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

        # Prim adds each dst once, under a src already in the tree, so the
        # kept edges form a rooted forest: point each vertex at its parent
        # and jump until every pointer reaches its component's root
        keep = weight <= eps2
        comp = np.arange(n)
        comp[dst[keep]] = src[keep]
        while True:
            up = comp[comp]
            if np.array_equal(up, comp):
                break
            comp = up
        # renumber components by first occurrence over ascending core index,
        # so cluster ids ascend with each cluster's smallest core point
        _, first_idx, comp = np.unique(comp[core_idx], return_index=True,
                                       return_inverse=True)
        num = first_idx.size
        renum = np.empty(num, dtype=np.int64)
        renum[np.argsort(first_idx, kind="stable")] = np.arange(num)
        comp = renum[comp]
        assignment[core_idx] = comp

        # a border point joins the smallest cluster id among the core points
        # within eps: with the core points ordered by cluster id, that is
        # the id of the first one within eps
        by_id = np.argsort(comp, kind="stable")
        core_t = self._points_t[:, core_idx[by_id]]
        ids = comp[by_id]
        non_core = np.flatnonzero(core_d2 > eps2)
        step = max(1, _BORDER_CELLS // core_idx.size)
        d2 = np.empty((min(step, non_core.size), core_idx.size))
        tmp = np.empty_like(d2)
        for lo in range(0, non_core.size, step):
            rows = non_core[lo:lo + step]
            m = rows.size
            reach = sq_distances(points[rows].T[:, :, None], core_t, d2[:m],
                                 tmp[:m]) <= eps2
            first = reach.argmax(axis=1)
            border = reach[np.arange(m), first]
            assignment[rows[border]] = ids[first[border]]
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

"""Weighted k-NN structured graph and data-driven selection of k.

An undirected edge (i, j) exists when either endpoint ranks the other among
its k nearest neighbors (union rule); rank ties are broken toward the lower
vertex index. Edge weights decay exponentially with distance, rescaled so the
exponents average to 1 over the edge set. k is chosen by sweeping candidate
values and keeping the local minimum of the normalized one-dimensional
structural entropy with the smallest value (a "stable point").

``select_k`` is the only way to build a graph: it sweeps k over one table
of candidate edges and materializes the graph at the chosen k.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

# total edge visits allowed in one k sweep before the sweep strides
DEFAULT_OP_BUDGET = 200_000_000


class InsufficientMemoryError(MemoryError):
    """The dense k sweep would need more memory than is available."""


@dataclass(frozen=True)
class StructuredGraph:
    n: int
    k: int
    u: np.ndarray  # edge endpoints, u[i] < v[i]
    v: np.ndarray
    w: np.ndarray  # edge weights in (0, 1]
    degrees: np.ndarray
    volume: float

    @property
    def edge_count(self) -> int:
        return int(self.u.shape[0])


def _rank_dtype(n: int):
    return np.int16 if n <= 32767 else np.int32


def _mutual_rank_edges(dist: np.ndarray, cap: int):
    """All vertex pairs that become edges for some k <= cap, sorted by the
    smallest such k.

    Returns (u, v, k_edge, d_edge); pair (i, j) is an edge of the k-NN graph
    exactly when k_edge <= k.
    """
    n = dist.shape[0]
    order = np.argsort(dist, kind="stable", axis=1)
    order = order[order != np.arange(n)[:, None]].reshape(n, n - 1)
    dtype = _rank_dtype(n)
    rank = np.empty((n, n), dtype=dtype)
    np.put_along_axis(rank, order, np.arange(1, n, dtype=dtype)[None, :], axis=1)
    del order
    rank[np.diag_indices(n)] = n  # self pairs never become edges
    k_edge = np.minimum(rank, rank.T)
    del rank

    mask = k_edge <= cap
    mask &= np.arange(n)[:, None] < np.arange(n)[None, :]
    u, v = np.nonzero(mask)
    del mask
    # a stable sort of 16-bit keys is a radix sort; grade before widening
    ke = k_edge[u, v]
    grade = np.argsort(ke, kind="stable")
    u, v = u[grade], v[grade]
    return u, v, ke[grade].astype(np.int64), dist[u, v]


def _prefix_degrees(n, u, v, prefix_d, d, m, w):
    """Weighted degrees of the graph on the first m entries of the sorted
    edge table, with its edge weights written into ``w``.  A prefix of
    zero-distance edges (duplicate points) gets weight exp(0) = 1
    throughout.  The sweep and the chosen graph both compute them here, so
    the graph's entropy is the one the sweep scored, bit for bit."""
    total = prefix_d[m - 1]
    if total > 0:
        # -(d * s) == d * -s bit for bit: negation is exact
        np.multiply(d[:m], -(m / total), out=w)
        np.exp(w, out=w)
    else:
        w.fill(1.0)
    deg = np.bincount(u[:m], w, minlength=n)
    deg += np.bincount(v[:m], w, minlength=n)
    return deg


def _degree_entropy(degrees: np.ndarray, volume: float) -> float:
    """Entropy of the degree distribution: -sum (d/vol) log2 (d/vol)."""
    p = degrees[degrees > 0] / volume
    return float(-(p * np.log2(p)).sum())


def one_dim_se(g: StructuredGraph) -> float:
    """One-dimensional structural entropy of ``g``."""
    if g.volume <= 0:
        raise ValueError("degenerate graph (volume is zero)")
    return _degree_entropy(g.degrees, g.volume)


@dataclass(frozen=True)
class SelectKResult:
    """k selection outcome: the chosen k and its graph, every evaluated k in
    ascending order with its normalized entropy, and the stable points
    among them."""

    k: int
    graph: StructuredGraph
    ks: np.ndarray
    h_norm: np.ndarray
    stable_ks: list[int]


def _entropies_for(u, v, prefix_d, d, n, ms):
    """One-dimensional structural entropy of the graph on each edge-table
    prefix length in ``ms``.

    The lengths are dealt round-robin to one thread per CPU of the
    process (numpy's ``exp`` and ``bincount`` release the GIL).  Each
    thread fills its own slots of the result, using a weight buffer the
    calling thread allocated; every value is the one a single thread
    computes, bit for bit.
    """
    out = np.empty(len(ms), dtype=np.float64)
    workers = min(_sweep_workers(), len(ms))
    if workers == 0:
        return out

    def run(slots, buf):
        for i in slots:
            m = int(ms[i])
            deg = _prefix_degrees(n, u, v, prefix_d, d, m, buf[:m])
            out[i] = _degree_entropy(deg, deg.sum())

    # the buffers come from this thread, so a worker allocates nothing
    # large: memory freed in a worker's malloc arena can stay resident
    shares = [range(t, len(ms), workers) for t in range(workers)]
    buffers = [np.empty(int(ms[t::workers].max())) for t in range(workers)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for done in [pool.submit(run, share, buf)
                     for share, buf in zip(shares, buffers)]:
            done.result()
    return out


def _sweep_workers() -> int:
    """Threads of the k sweep: one per CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _edge_bound(n: int, k_max: int) -> int:
    """Most edges a k-NN graph over n points can have for k <= k_max."""
    return min(n * (n - 1) // 2, n * k_max)


def dense_bytes(n: int, k_max: int, workers: int) -> int:
    """Peak bytes ``select_k`` holds at once for n points and k up to
    k_max, from the arrays it allocates.  The edge count E is bounded by
    n * k_max and by the n(n-1)/2 pairs.

    - argsort of the float64 distances by row: distances, the int64
      order, its self-pair mask and its compacted copy, 25 n^2;
    - rank table and k_edge (int16 or int32, s bytes each) beside the
      distances, then k_edge's mask and edge arrays: (8 + s) n^2 +
      (40 + 2s) E;
    - the sweep: the int64/float64 edge table, its cumulative sums and a
      float64 weight buffer per thread: (40 + 8 * workers) E.
    """
    s = np.dtype(_rank_dtype(n)).itemsize
    edges = _edge_bound(n, k_max)
    return max(25 * n * n,
               (8 + s) * n * n + (40 + 2 * s) * edges,
               (40 + 8 * workers) * edges)


def tree_bytes(n: int, edges: int) -> int:
    """Peak bytes held while ``encoding_tree.optimize_two_level`` runs on a
    graph of n vertices and E edges: the graph's own u, v, w and degrees,
    24 E + 8 n, beside the larger of the optimizer's two phases.

    - building the CSR adjacency: the int64 sort order, its half mask,
      the int64 far ends and float64 weights, and one half's int64 gather
      indices and gathered values, 66 E;
    - every vertex's first bid: the CSR arrays, a coalesced copy of each
      neighbor list, and about 640 bytes of Python objects per vertex
      (the list's arrays, its dict entry and its heap entry), 64 E + 640 n.
    """
    return 24 * edges + 8 * n + max(66 * edges, 64 * edges + 640 * n)


def _mem_available() -> int | None:
    """``MemAvailable`` of /proc/meminfo in bytes; None where the kernel
    does not report it."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _stable_points(ks: np.ndarray, h: np.ndarray) -> list[int]:
    """Strict interior local minima over consecutive candidates."""
    out = []
    for i in range(1, len(ks) - 1):
        if h[i] < h[i - 1] and h[i] < h[i + 1]:
            out.append(int(ks[i]))
    return out


def select_k(
    points: np.ndarray,
    cap: int,
    op_budget: int = DEFAULT_OP_BUDGET,
    *,
    tree: bool = False,
) -> SelectKResult:
    """Sweep k, find stable points of the normalized entropy, pick the best.

    Candidates run from 1 to k_max = min(n - 1, cap); the pipeline passes
    the run's ``k_sweep_cap`` as ``cap``. The sweep evaluates every
    stride-th k from 1, plus k_max; stride is 1 when the total edge-visit
    cost of all k up to k_max fits op_budget and
    max(2, ceil(cost / op_budget)) otherwise. Every k within one stride of
    the four lowest dips of that grid and of its minimum is evaluated too,
    each k once; at stride 1 this adds nothing and the sweep is complete.
    Over the evaluated k in ascending order, the result is the stable point
    with the smallest value or, when there is none, the minimum; equal
    values go to the smaller k, with no tolerance.

    Raises :class:`InsufficientMemoryError` before any O(n^2) allocation
    when :func:`dense_bytes` exceeds the memory the kernel reports
    available or, with ``tree`` set (the caller builds the encoding tree
    on the result), when :func:`tree_bytes` at the edge bound does.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n < 3:
        raise ValueError("too few points for stable-point detection")
    k_max = min(n - 1, cap)
    need = dense_bytes(n, k_max, min(_sweep_workers(), k_max))
    if tree:
        need = max(need, tree_bytes(n, _edge_bound(n, k_max)))
    avail = _mem_available()
    if avail is not None and need > avail:
        stages = "k selection with the encoding tree" if tree else "k selection"
        raise InsufficientMemoryError(
            f"{stages} over {n} points needs about {need / 2**20:.1f} "
            f"MiB, but only {avail / 2**20:.1f} MiB are available")
    u, v, ke, de = _mutual_rank_edges(cdist(points, points), k_max)
    prefix_d = np.cumsum(de)

    all_ks = np.arange(1, k_max + 1, dtype=np.int64)
    all_ms = np.searchsorted(ke, all_ks, side="right")
    total_cost = int(all_ms.sum())
    stride = 1
    if total_cost > op_budget:
        stride = max(2, math.ceil(total_cost / op_budget))

    def sweep(ks):
        h = _entropies_for(u, v, prefix_d, de, n, all_ms[ks - 1])
        return h / (ks * n)

    grid = np.unique(np.concatenate([all_ks[::stride], all_ks[-1:]]))
    grid_norm = sweep(grid)
    dips = _stable_points(grid, grid_norm)
    dips.sort(key=lambda k: grid_norm[int(np.searchsorted(grid, k))])
    centers = dips[:4] + [int(grid[int(np.argmin(grid_norm))])]
    window = np.concatenate(
        [np.arange(max(1, c - stride), min(k_max, c + stride) + 1) for c in centers]
    )
    extra = np.setdiff1d(window, grid)
    ks = np.concatenate([grid, extra])
    h_norm = np.concatenate([grid_norm, sweep(extra)])
    order = np.argsort(ks)
    ks, h_norm = ks[order], h_norm[order]

    stable = _stable_points(ks, h_norm)
    if stable:
        k_star = min(stable, key=lambda k: h_norm[int(np.searchsorted(ks, k))])
    else:
        k_star = int(ks[int(np.argmin(h_norm))])
    m = int(all_ms[k_star - 1])
    w = np.empty(m)
    degrees = _prefix_degrees(n, u, v, prefix_d, de, m, w)
    graph = StructuredGraph(n, k_star, u[:m].copy(), v[:m].copy(), w, degrees,
                            float(degrees.sum()))
    return SelectKResult(k_star, graph, ks, h_norm, stable)

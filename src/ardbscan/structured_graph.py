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
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

# total edge visits allowed in one k sweep before the sweep strides
DEFAULT_OP_BUDGET = 200_000_000


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


def _mutual_rank_edges(dist: np.ndarray, cap: int):
    """All vertex pairs that become edges for some k <= cap, sorted by the
    smallest such k.

    Returns (u, v, k_edge, d_edge); pair (i, j) is an edge of the k-NN graph
    exactly when k_edge <= k.
    """
    n = dist.shape[0]
    order = np.argsort(dist, kind="stable", axis=1)
    order = order[order != np.arange(n)[:, None]].reshape(n, n - 1)
    dtype = np.int16 if n <= 32767 else np.int32
    rank = np.empty((n, n), dtype=dtype)
    rows = np.repeat(np.arange(n), n - 1)
    rank[rows, order.ravel()] = np.tile(np.arange(1, n, dtype=dtype), n)
    rank[np.diag_indices(n)] = n  # self pairs never become edges
    k_edge = np.minimum(rank, rank.T)

    mask = k_edge <= cap
    mask &= np.arange(n)[:, None] < np.arange(n)[None, :]
    u, v = np.nonzero(mask)
    ke = k_edge[u, v].astype(np.int64)
    de = dist[u, v].astype(np.float64)
    grade = np.argsort(ke, kind="stable")
    return u[grade], v[grade], ke[grade], de[grade]


def _graph_from_prefix(n, k, u, v, d, m) -> StructuredGraph:
    """Materialize the k-NN graph from the first m entries of the sorted
    edge table.  A prefix of zero-distance edges (duplicate points) gets
    weight exp(0) = 1 throughout."""
    total = d[:m].sum()
    w = np.exp(-d[:m] * (m / total)) if total > 0 else np.ones(m)
    degrees = np.bincount(u[:m], w, minlength=n) + np.bincount(v[:m], w, minlength=n)
    return StructuredGraph(
        n, k, u[:m].copy(), v[:m].copy(), w, degrees, float(degrees.sum())
    )


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
    out = np.empty(len(ms), dtype=np.float64)
    for i, m in enumerate(ms):
        total = prefix_d[m - 1]
        w = np.exp(-d[:m] * (m / total)) if total > 0 else np.ones(m)
        deg = np.bincount(u[:m], w, minlength=n) + np.bincount(v[:m], w, minlength=n)
        out[i] = _degree_entropy(deg, deg.sum())
    return out


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
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n < 3:
        raise ValueError("too few points for stable-point detection")
    k_max = min(n - 1, cap)
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
    graph = _graph_from_prefix(n, k_star, u, v, de, int(all_ms[k_star - 1]))
    return SelectKResult(k_star, graph, ks, h_norm, stable)

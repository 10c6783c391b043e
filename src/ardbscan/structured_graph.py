"""Weighted k-NN structured graph and data-driven selection of k.

An undirected edge (i, j) exists when either endpoint ranks the other among
its k nearest neighbors (union rule); rank ties are broken toward the lower
vertex index. Edge weights decay exponentially with distance, rescaled so the
exponents average to 1 over the edge set. k is chosen by sweeping candidate
values and keeping the local minimum of the normalized one-dimensional
structural entropy with the smallest value (a "stable point").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ardbscan.dbscan_core import pairwise_sq_distances

# total edge visits allowed in one k sweep before striding kicks in
DEFAULT_OP_BUDGET = 200_000_000
DEFAULT_K_CAP = 2048


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

    def edge_list(self) -> list[tuple[int, int, float]]:
        return list(zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))

    @classmethod
    def from_edges(cls, n: int, edges, k: int = 1) -> "StructuredGraph":
        """Build directly from (i, j, weight) triples (mostly for tests and
        for graphs that are not k-NN derived)."""
        u, v, w = [], [], []
        seen = set()
        for i, j, weight in edges:
            if i == j:
                raise ValueError("self-loops are not allowed")
            if weight <= 0:
                raise ValueError("edge weights must be positive")
            a, b = (i, j) if i < j else (j, i)
            if (a, b) in seen:
                raise ValueError(f"duplicate edge ({a}, {b})")
            seen.add((a, b))
            u.append(a)
            v.append(b)
            w.append(float(weight))
        u_arr = np.asarray(u, dtype=np.int64)
        v_arr = np.asarray(v, dtype=np.int64)
        w_arr = np.asarray(w, dtype=np.float64)
        degrees = np.bincount(u_arr, w_arr, minlength=n) + np.bincount(
            v_arr, w_arr, minlength=n
        )
        return cls(n, k, u_arr, v_arr, w_arr, degrees, float(degrees.sum()))


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Symmetric Euclidean distance matrix with a zero diagonal."""
    return np.sqrt(pairwise_sq_distances(points))


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


def build_knn_graph(points: np.ndarray, k: int, dist: np.ndarray | None = None) -> StructuredGraph:
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    if dist is None:
        dist = pairwise_distances(points)
    u, v, ke, de = _mutual_rank_edges(dist, k)
    return _graph_from_prefix(n, k, u, v, de, int(ke.shape[0]))


def one_dim_se(g: StructuredGraph) -> float:
    """Entropy of the degree distribution: -sum (d/vol) log2 (d/vol)."""
    if g.volume <= 0:
        raise ValueError("degenerate graph (volume is zero)")
    p = g.degrees[g.degrees > 0] / g.volume
    return float(-(p * np.log2(p)).sum())


def normalized_one_dim_se(g: StructuredGraph) -> float:
    return one_dim_se(g) / (g.k * g.n)


@dataclass(frozen=True)
class SelectKResult:
    """k selection outcome."""

    k: int
    graph: StructuredGraph
    ks: np.ndarray
    h_norm: np.ndarray
    stable_ks: list[int] = field(default_factory=list)
    exact: bool = True


def _entropies_for(u, v, prefix_d, d, n, ms):
    out = np.empty(len(ms), dtype=np.float64)
    for i, m in enumerate(ms):
        total = prefix_d[m - 1]
        w = np.exp(-d[:m] * (m / total)) if total > 0 else np.ones(m)
        deg = np.bincount(u[:m], w, minlength=n) + np.bincount(v[:m], w, minlength=n)
        vol = deg.sum()
        p = deg[deg > 0] / vol
        out[i] = -(p * np.log2(p)).sum()
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
    cap: int | None = None,
    op_budget: int = DEFAULT_OP_BUDGET,
) -> SelectKResult:
    """Sweep k, find stable points of the normalized entropy, pick the best.

    The sweep is exact whenever the total edge-visit cost fits op_budget;
    beyond that a strided sweep locates candidate dips and small windows
    around them are re-evaluated exactly.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n < 3:
        raise ValueError("too few points for stable-point detection")
    k_max = min(n - 1, cap if cap is not None else DEFAULT_K_CAP)
    dist = pairwise_distances(points)
    u, v, ke, de = _mutual_rank_edges(dist, k_max)
    prefix_d = np.cumsum(de)

    all_ks = np.arange(1, k_max + 1, dtype=np.int64)
    all_ms = np.searchsorted(ke, all_ks, side="right")
    total_cost = int(all_ms.sum())

    if total_cost <= op_budget or k_max <= 3:
        h = _entropies_for(u, v, prefix_d, de, n, all_ms)
        h_norm = h / (all_ks * n)
        stable = _stable_points(all_ks, h_norm)
        if stable:
            k_star = min(stable, key=lambda k: h_norm[k - 1])
        else:
            k_star = int(all_ks[int(np.argmin(h_norm))])
        graph = _graph_from_prefix(n, k_star, u, v, de, int(all_ms[k_star - 1]))
        return SelectKResult(k_star, graph, all_ks, h_norm, stable, exact=True)

    # strided pass: pick a grid whose total cost fits the budget, then
    # re-evaluate exact windows around the most promising dips
    stride = max(2, int(math.ceil(total_cost / op_budget)))
    grid = np.unique(np.concatenate([all_ks[::stride], all_ks[-1:]]))
    grid_h = _entropies_for(u, v, prefix_d, de, n, all_ms[grid - 1])
    grid_norm = grid_h / (grid * n)

    candidates = _stable_points(grid, grid_norm)
    candidates.sort(key=lambda k: grid_norm[int(np.searchsorted(grid, k))])
    pool = candidates[:4]
    argmin_k = int(grid[int(np.argmin(grid_norm))])
    if argmin_k not in pool:
        pool.append(argmin_k)

    best_k = None
    best_val = math.inf
    stable_all: list[int] = []
    for center in pool:
        lo = max(1, center - stride)
        hi = min(k_max, center + stride)
        ks_win = np.arange(lo, hi + 1, dtype=np.int64)
        h_win = _entropies_for(u, v, prefix_d, de, n, all_ms[ks_win - 1])
        norm_win = h_win / (ks_win * n)
        win_stable = _stable_points(ks_win, norm_win)
        stable_all.extend(win_stable)
        picks = win_stable or [int(ks_win[int(np.argmin(norm_win))])]
        for k in picks:
            val = norm_win[k - lo]
            if val < best_val - 1e-15 or (val <= best_val + 1e-15 and (best_k is None or k < best_k)):
                best_val = val
                best_k = k
    stable_all = sorted(set(stable_all))
    graph = _graph_from_prefix(n, best_k, u, v, de, int(all_ms[best_k - 1]))
    return SelectKResult(best_k, graph, grid, grid_norm, stable_all, exact=False)

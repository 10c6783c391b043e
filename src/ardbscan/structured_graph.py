"""Weighted k-NN structured graph and data-driven selection of k.

An undirected edge (i, j) exists when either endpoint ranks the other among
its k nearest neighbors (union rule); rank ties are broken toward the lower
vertex index. Edge weights decay exponentially with distance, rescaled so the
exponents average to 1 over the edge set. k is chosen by sweeping candidate
values and keeping the local minimum of the normalized one-dimensional
structural entropy with the smallest value (a "stable point"), over one
fixed grid of k (:func:`sweep_grid`).

``select_k`` is the only way to build a graph: it sweeps k over one table
of candidate edges and materializes the graph at the chosen k.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import cpus
from .dbscan_core import check_distances, sq_distances

K_DENSE = 64  # the sweep scores every k up to here
K_RATIO = 1.1  # and past it, each k about this factor above the last
_RANK_BLOCK = 128  # rows per block of the rank table


class InsufficientMemoryError(MemoryError):
    """A set-up stage would need more memory than is available."""


@dataclass(frozen=True)
class StructuredGraph:
    """An undirected weighted graph on vertices 0..n-1, each edge once.

    ``u`` and ``v`` are the edge endpoints, u[i] < v[i], int32 from
    ``select_k``; ``w`` the edge weights in [0, 1] (an exponent past
    about 745 underflows to 0); ``degrees`` the weighted degrees and
    ``volume`` their sum.
    """

    n: int
    k: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    degrees: np.ndarray
    volume: float

    @property
    def edge_count(self) -> int:
        return int(self.u.shape[0])


def _rank_dtype(n: int):
    return np.int16 if n <= 32767 else np.int32


def _block_distances(points, points_t, lo, hi, col, out, tmp):
    """Euclidean distances from rows lo..hi-1 of ``points`` to the points
    from ``col`` on, written into ``out`` ((hi - lo) x (n - col)).
    ``sq_distances`` is symmetric bit for bit and computes each entry
    alone, so every block holds the entries of one n x n matrix."""
    sq_distances(points[lo:hi].T[:, :, None], points_t[:, col:], out, tmp)
    return np.sqrt(out, out=out)


def _row_blocks(n: int) -> tuple[list[int], int]:
    """Bounds of the rank table's row blocks, the fewest of at most
    ``_RANK_BLOCK`` rows split evenly (blocks that run at once are the
    same size), and the largest block's row count."""
    count = -(-n // _RANK_BLOCK)
    return [i * n // count for i in range(count + 1)], -(-n // count)


def _mutual_rank_edges(points: np.ndarray, cap: int):
    """All vertex pairs that become edges for some k <= cap, sorted by the
    smallest such k, then row-major.

    Returns (u, v, k_edge, d_edge): int64 endpoints, k_edge in the rank
    table's dtype and float64 distances; pair (i, j) is an edge of the
    k-NN graph exactly when k_edge <= k.  The one n x n array is the rank
    table (int16 or int32).  Three passes go over blocks of rows: the ranks,
    from the block's distances; the count of the block's edges; and the
    edges themselves, with distances computed again.  Between the count
    and the edges, :func:`check_memory` refuses a table whose
    :func:`dense_bytes` at the counted edges exceeds the memory available.
    ``cpus.deal`` deals the blocks to one thread per CPU, and each is
    computed whole by one thread, so the result does not depend on the
    thread count.
    """
    n = points.shape[0]
    points_t = np.ascontiguousarray(points.T)
    dtype = _rank_dtype(n)
    rank = np.empty((n, n), dtype=dtype)
    flat_rank = rank.reshape(-1)
    bounds, b = _row_blocks(n)
    blocks = list(zip(bounds[:-1], bounds[1:]))
    workers = min(cpus.usable_cpus(), len(blocks))
    ranks = np.tile(np.arange(n, dtype=dtype), b)
    upper = np.triu(np.ones((b, b), dtype=bool), 1)

    def grid(buf, m, w):  # the start of a flat buffer as an m x w array
        return buf[:m * w].reshape(m, w)

    def rank_rows(blk, dist, tmp, kmin, hit):
        lo, hi = blocks[blk]
        m = hi - lo
        d = _block_distances(points, points_t, lo, hi, 0,
                             grid(dist, m, n), grid(tmp, m, n))
        own = np.arange(m)
        d[own, lo + own] = -1.0  # each point sorts first in its own row
        # an unstable sort orders a row without equal values as a stable
        # one does; rows with equal values are sorted again, stably, so
        # ties go to the lower index
        order = np.argsort(d, axis=1)
        for r in range(1, m):  # flat indices; numpy buffers a broadcast add
            order[r] += r * n
        ordered = np.take(d, order.reshape(-1), out=tmp[:m * n], mode="clip")
        # equal neighbours within a row; a row's last value never equals
        # the next row's first, its own -1
        np.equal(ordered[1:], ordered[:-1], out=hit[:m * n - 1])
        hit[m * n - 1] = False
        for r in np.flatnonzero(grid(hit, m, n).any(axis=1)):
            np.add(np.argsort(d[r], kind="stable"), r * n, out=order[r])
        flat_rank[lo * n:hi * n][order.reshape(-1)] = ranks[:m * n]
        flat_rank[(lo + own) * (n + 1)] = n  # self pairs never become edges

    def pairs_of(blk, kmin, hit):
        # each pair's first k, and which pairs (i, j), j > i, of the block
        # are edges by k = cap
        lo, hi = blocks[blk]
        m, w = hi - lo, n - lo
        k = np.minimum(rank[lo:hi, lo:], rank[lo:, lo:hi].T,
                       out=grid(kmin, m, w))
        mask = np.less_equal(k, cap, out=grid(hit, m, w))
        mask[:, :m] &= upper[:m, :m]
        return k, mask

    def count_edges(blk, dist, tmp, kmin, hit):
        return np.count_nonzero(pairs_of(blk, kmin, hit)[1])

    def edges_of(blk, dist, tmp, kmin, hit):
        lo, hi = blocks[blk]
        m, w = hi - lo, n - lo
        k, mask = pairs_of(blk, kmin, hit)
        d = _block_distances(points, points_t, lo, hi, lo,
                             grid(dist, m, w), grid(tmp, m, w))
        part = slice(starts[blk], starts[blk + 1])
        # one block's positions exist at a time, so the phase's peak does
        # not depend on how the threads interleave
        with one_block:
            at = np.flatnonzero(mask)  # row-major
            np.take(k, at, out=ke[part], mode="clip")
            np.take(d, at, out=de[part], mode="clip")
            # block position r * w + c to the pair's position
            # (lo + r) * n + lo + c
            pair = np.floor_divide(at, w, out=flat[part])
            pair *= lo
            pair += at
            pair += lo * (n + 1)
            del at

    # every array a worker fills comes from this thread, so a worker
    # allocates nothing that outlives its block: memory freed in a
    # worker's malloc arena can stay resident
    buffers = [(np.empty(b * n), np.empty(b * n), np.empty(b * n, dtype=dtype),
                np.empty(b * n, dtype=bool)) for _ in range(workers)]

    def each_block(step):
        return cpus.deal(lambda blk, slot: step(blk, *buffers[slot]),
                         len(blocks), workers)

    each_block(rank_rows)  # every rank before any pair's first k
    starts = np.concatenate([[0], np.cumsum(each_block(count_edges))])
    check_memory("k selection", n, dense_bytes(n, cap, cpus.usable_cpus(),
                                               int(starts[-1])))
    flat = np.empty(starts[-1], dtype=np.int64)
    ke = np.empty(starts[-1], dtype=dtype)
    de = np.empty(starts[-1])
    one_block = threading.Lock()
    each_block(edges_of)  # the blocks' edges in block order: row-major
    del rank, flat_rank, buffers

    # a stable sort of 16-bit keys is a radix sort
    grade = np.argsort(ke, kind="stable")
    de = np.take(de, grade)
    flat = np.take(flat, grade)
    ke = np.take(ke, grade)
    del grade
    u, v = np.divmod(flat, n, out=(flat, np.empty_like(flat)))
    return u, v, ke, de


def _prefix_degrees(n, u, v, total, d, m, w):
    """Weighted degrees of the graph on the first m entries of the sorted
    edge table, whose distances sum to ``total``, with its edge weights
    written into ``w``.  A prefix of zero-distance edges (duplicate points)
    takes scale -0.0, so each of its weights is exp(-0.0) = 1.  The sweep
    and the chosen graph both compute them here, so the graph's entropy is
    the one the sweep scored, bit for bit."""
    # -(d * s) == d * -s bit for bit: negation is exact
    np.multiply(d[:m], -(m / total) if total > 0 else -0.0, out=w)
    np.exp(w, out=w)
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


def _entropies_for(u, v, totals, d, n, ms):
    """One-dimensional structural entropy of the graph on each edge-table
    prefix length in ``ms``, whose distances sum to the matching entry of
    ``totals``.

    ``cpus.deal`` deals the lengths to one thread per CPU of the process
    (numpy's ``exp`` and ``bincount`` release the GIL).  Each thread uses
    its slot's weight buffer, which the calling thread allocated; every
    value is the one a single thread computes, bit for bit.
    """
    slots = min(cpus.usable_cpus(), len(ms))
    # the buffers come from this thread, so a worker allocates nothing
    # large: memory freed in a worker's malloc arena can stay resident
    buffers = [np.empty(int(ms.max(initial=0))) for _ in range(slots)]

    def run(i, slot):
        m = int(ms[i])
        deg = _prefix_degrees(n, u, v, totals[i], d, m, buffers[slot][:m])
        return _degree_entropy(deg, deg.sum())

    return np.array(cpus.deal(run, len(ms), slots), dtype=np.float64)


def dense_bytes(n: int, k_max: int, workers: int, edges: int) -> int:
    """Peak bytes ``select_k`` holds at once for n points, k up to k_max
    and an edge table of E = ``edges`` pairs on ``workers`` threads, from
    the arrays it allocates; with E = 0, the peak of the first phase
    below, the rank table's.  The rank table's row blocks (b rows in the
    largest) go to T = min(workers, blocks) threads, and the sweep's k
    values to min(workers, grid length).

    - the rank table (int16 or int32, s bytes an entry), s n^2, beside a
      shared block of rank values and each thread's block buffers (two
      float64 blocks of distances, a block of k_edge and a mask) and
      int64 row argsort: (s + (25 + s) T) b n;
    - after the argsorts, the same without them, beside the edge table of
      int64 pair indices, k_edge and float64 distances, and the int64
      positions of one block's edges (at most min(b n, E)):
      (s + (17 + s) T) b n + (16 + s) E + 8 min(b n, E);
    - the edge table without k_edge (int64 endpoints and float64
      distances), 24 E, beside a float64 weight buffer per sweep thread:
      (24 + 8 max(2, threads)) E.  At least two buffers are charged, so
      the phase covers grading the table, (32 + s) E, the distances'
      cumulative sums and the chosen graph, at most 32 E each.
    """
    s = np.dtype(_rank_dtype(n)).itemsize
    bounds, b = _row_blocks(n)
    threads = min(workers, len(bounds) - 1)
    sweep_threads = min(workers, len(sweep_grid(k_max)))
    return max((s * n + (s + (25 + s) * threads) * b) * n,
               (s * n + (s + (17 + s) * threads) * b) * n + (16 + s) * edges
               + 8 * min(b * n, edges),
               (24 + 8 * max(2, sweep_threads)) * edges)


def _mem_available() -> int | None:
    """``MemAvailable`` of /proc/meminfo in bytes, or None if not reported."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def check_memory(stage: str, n: int, need: int) -> None:
    """Refuse ``stage`` over n points when its peak, ``need`` bytes, exceeds
    the memory available now; where that is not reported, pass."""
    avail = _mem_available()
    if avail is not None and need > avail:
        raise InsufficientMemoryError(
            f"{stage} over {n} points needs about {need / 2**20:.1f} MiB, "
            f"but only {avail / 2**20:.1f} MiB are available")


def _stable_points(ks: np.ndarray, h: np.ndarray) -> list[int]:
    """Strict interior local minima over consecutive candidates."""
    out = []
    for i in range(1, len(ks) - 1):
        if h[i] < h[i - 1] and h[i] < h[i + 1]:
            out.append(int(ks[i]))
    return out


def sweep_grid(k_max: int) -> np.ndarray:
    """The k values ``select_k`` scores up to k_max, ascending: every k
    from 1 to ``K_DENSE``, then round(K_DENSE * K_RATIO**i) for i = 1, 2,
    ... while below k_max, then k_max.  The grid depends on k_max alone."""
    ks = list(range(1, min(K_DENSE, k_max) + 1))
    i = 1
    while (k := round(K_DENSE * K_RATIO ** i)) < k_max:
        ks.append(k)
        i += 1
    if ks[-1] < k_max:
        ks.append(k_max)
    return np.array(ks, dtype=np.int64)


def select_k(points: np.ndarray, cap: int) -> SelectKResult:
    """Sweep k, find stable points of the normalized entropy, pick the best.

    Candidates run up to k_max = min(n - 1, cap); the pipeline passes the
    run's ``k_sweep_cap`` as ``cap``.  The sweep scores each k of
    :func:`sweep_grid` once, exactly: every k up to ``K_DENSE``, then a
    geometric grid of ratio ``K_RATIO``, then k_max, whatever the input's
    edge counts.  Over the grid in ascending order, the result is the stable
    point with the smallest value or, when there is none, the minimum;
    equal values go to the smaller k, with no tolerance.

    Raises ``ValueError`` for the points ``DbscanIndex`` refuses or fewer
    than 3, and :class:`InsufficientMemoryError` when :func:`dense_bytes`
    exceeds the memory available: at no edges before any O(n^2)
    allocation, and at the counted edges before the edge table.
    """
    points = np.asarray(points, dtype=np.float64)
    check_distances(points)
    n = points.shape[0]
    if n < 3:
        raise ValueError(f"too few points for k selection: {n}, "
                         "need at least 3")
    k_max = min(n - 1, cap)
    check_memory("k selection", n,
                 dense_bytes(n, k_max, cpus.usable_cpus(), 0))
    u, v, ke, de = _mutual_rank_edges(points, k_max)

    ks = sweep_grid(k_max)
    # the needles take k_edge's dtype: int64 ones would make searchsorted
    # copy k_edge to int64
    ms = np.searchsorted(ke, ks.astype(ke.dtype), side="right")
    del ke
    # the distance total of each k's prefix; no k's graph is empty
    totals = np.cumsum(de)[ms - 1]
    h_norm = _entropies_for(u, v, totals, de, n, ms) / (ks * n)

    stable = _stable_points(ks, h_norm)
    # the candidates' grid positions; argmin takes the first, smallest k
    cand = np.searchsorted(ks, stable) if stable else np.arange(ks.size)
    at = int(cand[np.argmin(h_norm[cand])])
    k_star, m = int(ks[at]), int(ms[at])
    # the int32 endpoints first, so that the int64 ones are freed before
    # the weights are allocated
    u, v = u[:m].astype(np.int32), v[:m].astype(np.int32)
    w = np.empty(m)
    degrees = _prefix_degrees(n, u, v, totals[at], de, m, w)
    graph = StructuredGraph(n, k_star, u, v, w, degrees,
                            float(degrees.sum()))
    return SelectKResult(k_star, graph, ks, h_norm, stable)

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
_CHUNK = 1 << 16  # edges per chunk of the passes over the edge table


@dataclass(frozen=True)
class StructuredGraph:
    """An undirected weighted graph on vertices 0..n-1, each edge once.

    ``u`` and ``v`` are the edge endpoints, u[i] < v[i], in
    :func:`id_dtype` from ``select_k`` (int16 up to 32,767 vertices);
    ``w`` the edge weights in [0, 1] (an exponent past about 745
    underflows to 0); ``degrees`` the weighted degrees and ``volume``
    their sum.  From ``select_k``, ``u``, ``v`` and ``w`` are the heads
    of the swept edge table's arrays.
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


def id_dtype(n: int):
    """The dtype of the rank table's entries and of vertex ids over n
    vertices: int16 up to 32,767, else int32."""
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


def _key_shift(n: int, cap: int) -> int:
    """The bit count of a pair index i n + j, which an edge key holds
    below its k_edge (at most ``cap``); ``ValueError`` where the two do
    not fit 64 bits."""
    shift = max(n * n - 1, 1).bit_length()
    if shift + max(cap, 1).bit_length() > 64:
        raise ValueError(f"{n} points with k up to {cap} are too many "
                         "for 64-bit edge keys")
    return shift


def _mutual_rank_edges(points: np.ndarray, cap: int) -> tuple[np.ndarray, int]:
    """All vertex pairs (i, j), i < j, that become edges for some k <= cap,
    as one uint64 key each, ``k_edge << shift | i n + j``, sorted; pair
    (i, j) is an edge of the k-NN graph exactly when k_edge <= k.  Pairs
    are unique, so the keys are, and their order is by the smallest k,
    then row-major.  Returns the keys and ``shift``.

    n and cap whose keys do not fit 64 bits raise ``ValueError`` before
    anything is allocated.  The one n x n array is the rank table (int16
    or int32).  Three passes go over blocks of rows: the ranks, from the
    block's distances; the count of the block's edges; and their keys.
    Between the count and the keys, :func:`cpus.check_memory` refuses a
    table whose :func:`dense_bytes` at the counted edges exceeds the
    memory available.  ``cpus.deal`` deals the blocks to one thread per
    CPU, and each is computed whole by one thread, so the result does not
    depend on the thread count.
    """
    n = points.shape[0]
    shift = _key_shift(n, cap)
    points_t = np.ascontiguousarray(points.T)
    dtype = id_dtype(n)
    rank = np.empty((n, n), dtype=dtype)
    flat_rank = rank.reshape(-1)
    bounds, b = _row_blocks(n)
    blocks = list(zip(bounds[:-1], bounds[1:]))
    workers = min(cpus.usable_cpus(), len(blocks))
    ranks = np.tile(np.arange(n, dtype=dtype), b)
    upper = np.triu(np.ones((b, b), dtype=bool), 1)

    def grid(buf, m, w):  # the start of a flat buffer as an m x w array
        return buf[:m * w].reshape(m, w)

    def rank_rows(blk, dist, tmp, hit):
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

    def count_edges(blk, kmin, hit):
        return np.count_nonzero(pairs_of(blk, kmin, hit)[1])

    def keys_of(blk, kmin, hit):
        lo, hi = blocks[blk]
        w = n - lo
        k, mask = pairs_of(blk, kmin, hit)
        key = keys[starts[blk]:starts[blk + 1]]
        # one block's positions exist at a time, so the phase's peak does
        # not depend on how the threads interleave
        with one_block:
            at = np.flatnonzero(mask)  # row-major
            # block position r * w + c to the pair's index
            # (lo + r) * n + lo + c
            pair = np.floor_divide(at, w, out=key.view(np.int64))
            pair *= lo
            pair += at
            pair += lo * (n + 1)
            high = at.view(np.uint64)  # the positions' last read is here
            high[:] = np.take(k, at)
            high <<= np.uint64(shift)
            key |= high
            del at, high

    # every array a worker fills comes from this thread, so a worker
    # allocates nothing that outlives its block: memory freed in a
    # worker's malloc arena can stay resident
    buffers = [(np.empty(b * n), np.empty(b * n), np.empty(b * n, dtype=bool))
               for _ in range(workers)]

    def each_block(step):
        return cpus.deal(lambda blk, slot: step(blk, *buffers[slot]),
                         len(blocks), workers)

    each_block(rank_rows)  # every rank before any pair's first k
    # the pairs' first k take the distance blocks' place
    buffers = [(np.empty(b * n, dtype=dtype), hit) for _, _, hit in buffers]
    starts = np.concatenate([[0], np.cumsum(each_block(count_edges))])
    cpus.check_memory("k selection", n,
                      dense_bytes(n, cap, cpus.usable_cpus(), int(starts[-1])))
    keys = np.empty(starts[-1], dtype=np.uint64)
    one_block = threading.Lock()
    each_block(keys_of)
    del rank, flat_rank, buffers
    keys.sort()  # unique keys: an unstable sort gives the one order
    return keys, shift


def _edge_ends(keys: np.ndarray, shift: int, n: int):
    """Each key's endpoints (i, j), in :func:`id_dtype`, decoded
    ``_CHUNK`` keys at a time."""
    u = np.empty(keys.size, dtype=id_dtype(n))
    v = np.empty_like(u)
    low = np.uint64((1 << shift) - 1)
    pair = np.empty(min(_CHUNK, keys.size), dtype=np.uint64)
    for lo in range(0, keys.size, _CHUNK):
        hi = min(lo + _CHUNK, keys.size)
        at = np.bitwise_and(keys[lo:hi], low, out=pair[:hi - lo])
        np.divmod(at, np.uint64(n), out=(u[lo:hi], v[lo:hi]),
                  casting="unsafe")
    return u, v


def _edge_distances(points: np.ndarray, u: np.ndarray, v: np.ndarray,
                    ms: np.ndarray):
    """Each edge's Euclidean distance, bit for bit the rank table's (each
    ``sq_distances`` entry is computed alone, from the lower endpoint),
    and the running sum of the distances at each prefix length in ``ms``
    (ascending), added in edge order as ``np.cumsum`` adds them.  Both go
    over chunks of edges, each gathering its endpoints' coordinates."""
    d = np.empty(u.size)
    totals = np.empty(ms.size)
    ends = ms - 1
    columns = np.ascontiguousarray(points.T)
    # a chunk's gathered coordinates, 16 bytes an edge per coordinate, and
    # scratch, 24, take about the 8 bytes an edge of one sweep chunk
    step = max(_CHUNK // (2 * points.shape[1] + 3), 1)
    run = np.empty(min(step, u.size))
    tmp = np.empty_like(run)
    carry = 0.0
    for lo in range(0, u.size, step):
        hi = min(lo + step, u.size)
        out = d[lo:hi]
        sq_distances([c.take(u[lo:hi]) for c in columns],
                     [c.take(v[lo:hi]) for c in columns], out, tmp[:hi - lo])
        np.sqrt(out, out=out)
        part = run[:hi - lo]
        part[:] = out
        part[0] += carry  # the sum so far, then this chunk's in order
        np.cumsum(part, out=part)
        carry = part[-1]
        here = slice(*np.searchsorted(ends, [lo, hi]))
        totals[here] = part[ends[here] - lo]
    return d, totals


def _prefix_degrees(n, u, v, d, m, total, w, deg):
    """Weighted degrees of the graph on the first m edges of the sorted
    table, whose distances sum to ``total``.  Each chunk's weights go to
    ``w``: the graph's m weights (``d`` itself may take them) or one
    chunk's scratch.  A prefix of zero-distance edges (duplicate points)
    takes scale -0.0, so each of its weights is exp(-0.0) = 1.  Each end's
    degrees accumulate in a row of ``deg`` (2 x n) by ``np.add.at``, in
    edge order as ``np.bincount`` adds them.  The sweep and the chosen
    graph both compute them here, so the graph's entropy is the one the
    sweep scored, bit for bit."""
    # -(d * s) == d * -s bit for bit: negation is exact
    scale = -(m / total) if total > 0 else -0.0
    deg.fill(0.0)
    for lo in range(0, m, _CHUNK):
        hi = min(lo + _CHUNK, m)
        part = w[lo:hi] if w.size >= m else w[:hi - lo]
        np.multiply(d[lo:hi], scale, out=part)
        np.exp(part, out=part)
        np.add.at(deg[0], u[lo:hi], part)
        np.add.at(deg[1], v[lo:hi], part)
    return deg[0] + deg[1]


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
    (numpy's ``exp`` and ``add.at`` release the GIL).  Each thread uses
    its slot's chunk and degree buffers, which the calling thread
    allocated; every value is the one a single thread computes, bit for
    bit.
    """
    slots = min(cpus.usable_cpus(), len(ms))
    # the buffers come from this thread, so a worker allocates nothing
    # large: memory freed in a worker's malloc arena can stay resident
    buffers = [(np.empty(min(_CHUNK, int(ms.max(initial=0)))),
                np.empty((2, n))) for _ in range(slots)]

    def run(i, slot):
        deg = _prefix_degrees(n, u, v, d, int(ms[i]), totals[i],
                              *buffers[slot])
        return _degree_entropy(deg, deg.sum())

    return np.array(cpus.deal(run, len(ms), slots), dtype=np.float64)


def dense_bytes(n: int, k_max: int, workers: int, edges: int) -> int:
    """Peak bytes ``select_k`` holds at once for n points, k up to k_max
    and an edge table of E = ``edges`` pairs on ``workers`` threads, from
    the arrays it allocates; with E = 0, the peak of the first phase
    below, the rank table's.  The rank table's row blocks (b rows in the
    largest) go to T = min(workers, blocks) threads, and the sweep's k
    values to S = min(workers, grid length).

    - the rank table (int16 or int32, s bytes an entry), s n^2, beside a
      shared block of rank values and each thread's block buffers (two
      float64 blocks of distances and a mask) and int64 row argsort:
      (s + 25 T) b n;
    - then the same with each thread's distance blocks replaced by a
      block of k_edge, beside the uint64 keys, 8 E, and the int64
      positions and k_edge of one block's edges (at most min(b n, E)):
      (s + (1 + s) T) b n + 8 E + (8 + s) min(b n, E);
    - once the rank table is freed, at most two of the keys, the
      endpoints (s bytes each) and the float64 distances at a time,
      (8 + 2 s) E, beside each sweep thread's chunk of weights and
      degrees: (8 + 2 s) E + S (8 min(C, E) + 16 n), C = ``_CHUNK``.
      The chosen graph's weights take the distances' place.
    """
    s = np.dtype(id_dtype(n)).itemsize
    bounds, b = _row_blocks(n)
    threads = min(workers, len(bounds) - 1)
    sweep_threads = min(workers, len(sweep_grid(k_max)))
    return max((s * n + (s + 25 * threads) * b) * n,
               (s * n + (s + (1 + s) * threads) * b) * n + 8 * edges
               + (8 + s) * min(b * n, edges),
               (8 + 2 * s) * edges
               + sweep_threads * (8 * min(_CHUNK, edges) + 16 * n))


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
    than 3, and :class:`~ardbscan.cpus.InsufficientMemoryError` when
    :func:`dense_bytes` exceeds the memory available: at no edges before
    any O(n^2) allocation, and at the counted edges before the edge table.
    """
    points = np.asarray(points, dtype=np.float64)
    check_distances(points)
    n = points.shape[0]
    if n < 3:
        raise ValueError(f"too few points for k selection: {n}, "
                         "need at least 3")
    k_max = min(n - 1, cap)
    cpus.check_memory("k selection", n,
                      dense_bytes(n, k_max, cpus.usable_cpus(), 0))
    keys, shift = _mutual_rank_edges(points, k_max)

    ks = sweep_grid(k_max)
    # k's prefix ends at its last possible key, k << shift | 2**shift - 1
    last = np.uint64((1 << shift) - 1)
    ms = np.searchsorted(keys, ks.astype(np.uint64) << np.uint64(shift)
                         | last, side="right")
    u, v = _edge_ends(keys, shift, n)
    del keys
    # no k's graph is empty
    d, totals = _edge_distances(points, u, v, ms)
    h_norm = _entropies_for(u, v, totals, d, n, ms) / (ks * n)

    stable = _stable_points(ks, h_norm)
    # the candidates' grid positions; argmin takes the first, smallest k
    cand = np.searchsorted(ks, stable) if stable else np.arange(ks.size)
    at = int(cand[np.argmin(h_norm[cand])])
    k_star, m = int(ks[at]), int(ms[at])
    # the weights take the distances' place, and the graph's arrays are
    # the table's heads: no array beside the table is allocated
    degrees = _prefix_degrees(n, u, v, d, m, totals[at], d, np.empty((2, n)))
    graph = StructuredGraph(n, k_star, u[:m], v[:m], d[:m], degrees,
                            float(degrees.sum()))
    return SelectKResult(k_star, graph, ks, h_norm, stable)

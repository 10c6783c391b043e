import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ardbscan import cpus, structured_graph
from ardbscan.config import RunConfig
from ardbscan.structured_graph import (K_DENSE, K_RATIO, one_dim_se, select_k,
                                      sweep_grid)

from conftest import edges_of, make_graph
from oracles import knn_graph_oracle, one_dim_entropy_oracle

CAP = RunConfig().k_sweep_cap


def blobs(seed=0, n_per=20, centers=((0.0, 0.0), (1.0, 1.0)), scale=0.05):
    rng = np.random.default_rng(seed)
    parts = [rng.normal(c, scale, size=(n_per, 2)) for c in centers]
    return np.clip(np.vstack(parts), 0.0, 1.0)


def knn_graph(pts, k):
    """The graph ``select_k`` chooses when k is its only candidate."""
    g = select_k(pts, cap=k).graph
    assert g.k == k
    return g


def test_equilateral_weights_are_exp_minus_one():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    g = knn_graph(pts, 1)
    assert np.allclose(g.w, math.exp(-1))


def test_collinear_path_weights():
    pts = np.array([[0.0], [1.0], [2.0], [3.0]])
    g = knn_graph(pts, 1)
    # nearest neighbors (ties to the lower index) chain into a 3-edge path
    edges = {tuple(sorted(e)) for e in zip(g.u.tolist(), g.v.tolist())}
    assert edges == {(0, 1), (1, 2), (2, 3)}
    assert np.allclose(g.w, math.exp(-1.0 * 3.0 / 3.0))
    assert np.allclose(np.sort(g.degrees), np.sort(np.array([1, 2, 2, 1]) * math.exp(-1)))


def test_union_mutualization():
    # p0 picks p2 but p2 prefers p3; the union rule keeps the one-sided
    # pick (0, 2) as an edge anyway
    pts = np.array([[0.0], [2.2], [1.0], [1.4]])
    g = knn_graph(pts, 1)
    edges = {tuple(sorted(e)) for e in zip(g.u.tolist(), g.v.tolist())}
    assert (2, 3) in edges
    assert (0, 2) in edges


def test_one_dim_se_regular_graph():
    g = make_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
    assert one_dim_se(g) == pytest.approx(2.0)


def test_one_dim_se_single_edge():
    g = make_graph(2, [(0, 1, 0.7)])
    assert one_dim_se(g) == pytest.approx(1.0)


def test_one_dim_se_degenerate():
    g = make_graph(3, [])
    with pytest.raises(ValueError, match="degenerate graph"):
        one_dim_se(g)


def test_one_dim_se_matches_direct_summation():
    pts = np.random.default_rng(7).random((20, 2))
    g = select_k(pts, cap=3).graph
    expected = one_dim_entropy_oracle(g.n, edges_of(g))
    assert one_dim_se(g) == pytest.approx(expected, abs=1e-12)


def test_normalized_arithmetic():
    # unit square: the 2-NN graph is the 4-cycle of equal weights, whose
    # entropy 2 bits normalizes to 2 / (k * n) = 0.25
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    res = select_k(pts, cap=2)
    assert res.ks.tolist() == [1, 2]
    assert res.h_norm[1] == pytest.approx(0.25)


def test_normalization_scales_inverse_with_k():
    pts = np.random.default_rng(3).random((30, 2))
    res = select_k(pts, CAP)
    at_k = res.h_norm[int(np.searchsorted(res.ks, res.k))]
    assert at_k == pytest.approx(one_dim_se(res.graph) / (res.k * 30))


def test_weight_exponent_identity():
    # the exponents D*|E|/sum(D) sum to |E| by construction
    pts = np.random.default_rng(9).random((40, 2))
    g = select_k(pts, cap=4).graph
    d = np.linalg.norm(pts[g.u] - pts[g.v], axis=1)
    exponents = d * g.edge_count / d.sum()
    assert exponents.sum() == pytest.approx(g.edge_count, abs=1e-9)
    assert np.allclose(g.w, np.exp(-exponents))


def test_volume_bookkeeping():
    pts = np.random.default_rng(13).random((60, 2))
    g = select_k(pts, cap=5).graph
    assert g.volume == pytest.approx(2 * g.w.sum(), abs=1e-9)
    assert g.degrees.sum() == pytest.approx(g.volume, abs=1e-9)
    assert np.all(g.w > 0) and np.all(g.w <= 1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6))
def test_entropy_bounds(seed, k):
    pts = np.random.default_rng(seed).random((12, 2))
    g = select_k(pts, cap=k).graph
    h = one_dim_se(g)
    assert -1e-12 <= h <= math.log2(12) + 1e-12


def lattice(cols=5, rows=4, step=0.25):
    """Grid points: every vertex has several neighbors at exactly the same
    distance, so the rank tie rule decides most edges."""
    return np.array(
        [[step * x, step * y] for x in range(cols) for y in range(rows)]
    )


def assert_agrees_with_naive_scan(pts, ks=None):
    """``select_k`` against a naive scan over every k from 1 to n - 1, or
    over ``ks`` (ascending, ending at n - 1)."""
    result = select_k(pts, CAP)
    k_star, graph = result.k, result.graph
    assert graph.k == k_star

    # independent scan: rebuild every candidate graph by plain loops and
    # re-detect minima
    n = pts.shape[0]
    ks = list(range(1, n)) if ks is None else ks
    rows = pts.tolist()
    graphs = [knn_graph_oracle(rows, k) for k in ks]
    h = [one_dim_entropy_oracle(n, g) / (k * n) for k, g in zip(ks, graphs)]
    stable = [
        ks[i]
        for i in range(1, len(h) - 1)
        if h[i] < h[i - 1] and h[i] < h[i + 1]
    ]
    if stable:
        expected = min(stable, key=lambda k: h[ks.index(k)])
    else:
        expected = ks[int(np.argmin(h))]
    assert k_star == expected
    assert result.stable_ks == stable
    assert result.ks.tolist() == ks
    assert np.allclose(result.h_norm, h, atol=1e-9)

    mine = sorted(edges_of(graph))
    oracle = graphs[ks.index(k_star)]
    assert [e[:2] for e in mine] == [e[:2] for e in oracle]
    assert np.allclose([e[2] for e in mine], [e[2] for e in oracle], atol=1e-12)


def test_select_k_agrees_with_naive_scan():
    assert_agrees_with_naive_scan(blobs(seed=21))


def test_select_k_agrees_with_naive_scan_on_lattice():
    assert_agrees_with_naive_scan(lattice())


def test_select_k_agrees_with_naive_scan_on_the_grid():
    # k_max = 79 > K_DENSE: every k to 64, then the geometric part
    assert_agrees_with_naive_scan(blobs(seed=8, n_per=40),
                                  list(range(1, 65)) + [70, 77, 79])


def test_sweep_grid_lengths():
    assert [len(sweep_grid(k)) for k in (499, 1999, 2047)] == [86, 101, 101]


@pytest.mark.parametrize("k_max", [1, 2, 63, 64, 65, 70, 71, 77, 499, 2047])
def test_sweep_grid_shape(k_max):
    ks = sweep_grid(k_max).tolist()
    dense = min(K_DENSE, k_max)
    assert ks[:dense] == list(range(1, dense + 1))
    assert all(a < b for a, b in zip(ks, ks[1:]))
    assert ks[-1] == k_max
    if k_max <= K_DENSE:
        assert ks == list(range(1, k_max + 1))
    # past K_DENSE, each k is at most K_RATIO times the last, up to the
    # rounding of both
    for a, b in zip(ks[K_DENSE - 1:], ks[K_DENSE:]):
        assert b - 0.5 <= K_RATIO * (a + 0.5)


def test_chosen_graph_has_the_swept_entropy():
    # the reported h_norm at k* is the chosen graph's own normalized
    # entropy, bit for bit: both normalize the weights by the same sum
    for seed in range(40):
        pts = np.random.default_rng(seed).random((150, 2))
        res = select_k(pts, CAP)
        at_k = res.h_norm[int(np.searchsorted(res.ks, res.k))]
        assert at_k == one_dim_se(res.graph) / (res.k * 150), seed


def sweep_bytes(res):
    """Everything a k selection decides, as bytes."""
    g = res.graph
    return (res.k, res.stable_ks, res.ks.tobytes(), res.h_norm.tobytes(),
            g.u.tobytes(), g.v.tobytes(), g.w.tobytes(), g.degrees.tobytes(),
            g.volume)


def test_select_k_deterministic():
    pts = blobs(seed=2, n_per=15)
    assert sweep_bytes(select_k(pts, CAP)) == sweep_bytes(select_k(pts, CAP))


def on_cpus(monkeypatch, workers):
    """Give the process ``workers`` CPUs through ``cpus.usable_cpus``, the
    one name both the memory guard and the dealt threads read, and record
    for every ``cpus.deal`` call its index count and the threads each slot
    ran on."""
    monkeypatch.setattr(cpus, "usable_cpus", lambda: workers)
    calls = []
    original = cpus.deal

    def recording(run, count, slots=None):
        threads = {}
        calls.append((count, threads))

        def run_in(i, slot):
            threads.setdefault(slot, set()).add(threading.get_ident())
            return run(i, slot)

        return original(run_in, count, slots)

    monkeypatch.setattr(cpus, "deal", recording)
    return calls


def assert_dealt_to(calls, workers):
    """Every call ran on ``min(workers, count)`` slots, each slot on one
    thread."""
    assert calls
    for count, threads in calls:
        assert sorted(threads) == list(range(min(workers, count)))
        assert all(len(ids) == 1 for ids in threads.values())


@pytest.mark.parametrize("workers", [1, 3])
def test_sweep_is_bit_identical_across_thread_counts(monkeypatch, workers):
    # a sweep over rank and weight ties, and one past K_DENSE, each over
    # more k than threads; 3 threads on fewer cores, switching often, must
    # write every value the default thread count writes, bit for bit
    cases = [lattice(), blobs(seed=8, n_per=50)]
    results = [select_k(pts, CAP) for pts in cases]
    assert results[1].ks[-1] > K_DENSE
    reference = [sweep_bytes(res) for res in results]
    calls = on_cpus(monkeypatch, workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [sweep_bytes(select_k(pts, CAP)) for pts in cases]
    finally:
        sys.setswitchinterval(interval)
    assert got == reference
    assert_dealt_to(calls, workers)


def block_distances(pts):
    """The n x n distances as select_k's row blocks compute them, for the
    ranks (every column); each block's edge pass (the columns from its
    first row on) must read the same bits."""
    n = len(pts)
    pts_t = np.ascontiguousarray(pts.T)
    bounds, _ = structured_graph._row_blocks(n)
    dist = np.empty((n, n))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        m, w = hi - lo, n - lo
        structured_graph._block_distances(pts, pts_t, lo, hi, 0, dist[lo:hi],
                                          np.empty((m, n)))
        tail = structured_graph._block_distances(
            pts, pts_t, lo, hi, lo, np.empty((m, w)), np.empty((m, w)))
        assert np.array_equal(tail.view(np.uint64),
                              dist[lo:hi, lo:].view(np.uint64))
    return dist


def test_distance_matrix_is_symmetric_across_blocks():
    # 300 rows span three blocks, and each of the last 60 copies a row of
    # the first block; an edge's distance is read from the block of its
    # lower endpoint, so d(i, j) must equal d(j, i) bit for bit
    rng = np.random.default_rng(4)
    for d in (1, 2, 3, 8):
        base = rng.random((240, d))
        pts = np.vstack([base, base[:60]])
        assert len(structured_graph._row_blocks(300)[0]) == 4
        dist = block_distances(pts)
        assert np.array_equal(dist.view(np.uint64), dist.T.view(np.uint64))
        assert not dist[np.arange(60), np.arange(240, 300)].any()
        row = structured_graph.sq_distances(
            pts[157].tolist(), pts.T, np.empty(300), np.empty(300))
        assert np.array_equal(dist[157], np.sqrt(row))


def dense_rank_edges(points, cap):
    """The edge table as select_k built it from one n x n distance matrix:
    a stable argsort of every row, the whole rank table, and
    min(rank, rank.T) masked above the diagonal."""
    n = points.shape[0]
    points_t = np.ascontiguousarray(points.T)
    dist = np.empty((n, n))
    tmp = np.empty((min(32, n), n))
    for lo in range(0, n, 32):
        rows = points[lo:lo + 32]
        structured_graph.sq_distances(rows.T[:, :, None], points_t,
                                      dist[lo:lo + 32], tmp[:len(rows)])
    np.sqrt(dist, out=dist)
    np.fill_diagonal(dist, -1.0)
    order = np.argsort(dist, kind="stable", axis=1)
    dtype = structured_graph._rank_dtype(n)
    rank = np.empty((n, n), dtype=dtype)
    np.put_along_axis(rank, order, np.arange(n, dtype=dtype)[None, :], axis=1)
    np.fill_diagonal(rank, n)
    k_edge = np.minimum(rank, rank.T)
    mask = k_edge <= cap
    mask &= np.arange(n)[:, None] < np.arange(n)[None, :]
    u, v = np.nonzero(mask)
    ke = k_edge[u, v]
    grade = np.argsort(ke, kind="stable")
    u, v = u[grade], v[grade]
    return u, v, ke[grade].astype(np.int64), dist[u, v]


@pytest.mark.parametrize("workers", [1, 3])
def test_blocked_rank_edges_match_the_dense_table(monkeypatch, workers):
    # the blocked table, on 1 or 3 threads switching often, writes the
    # dense table's edges, ranks and distances byte for byte: under rank
    # ties, exact duplicates (in one block and across blocks) and d = 8
    rng = np.random.default_rng(11)
    grid = lattice(30, 30, 1.0)
    storm = np.vstack([np.zeros((1599, 2)), [[1.0, 1.0]]])
    base = rng.random((250, 2))
    straddle = np.vstack([base, base[:60]])  # 310 rows: 3 blocks of 103-104
    assert 310 % structured_graph._RANK_BLOCK
    wide = rng.random((150, 8))
    wide = np.vstack([wide, wide[::4], wide[:5]])
    cases = [(grid, 16), (grid, 899), (storm, 16), (straddle, 40),
             (straddle, 309), (wide, 30)]
    expected = [dense_rank_edges(pts, cap) for pts, cap in cases]
    calls = on_cpus(monkeypatch, workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [structured_graph._mutual_rank_edges(pts, cap)
               for pts, cap in cases]
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 3 * len(cases)  # ranks, counts and edges
    assert_dealt_to(calls, workers)
    for (pts, cap), mine, dense in zip(cases, got, expected):
        # k_edge stays in the rank table's dtype; widened, it is the same
        k_edge = mine[2]
        assert k_edge.dtype == structured_graph._rank_dtype(len(pts))
        mine = (mine[0], mine[1], k_edge.astype(np.int64), mine[3])
        for a, b in zip(mine, dense):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (len(pts), cap)


def test_dense_bytes_matches_traced_peak():
    pts = np.random.default_rng(0).random((600, 2))
    # untraced first, so that one-time imports and caches of a fresh
    # process are not counted as the sweep's peak
    select_k(pts, 20)
    for cap in (CAP, 20):
        k_max = min(599, cap)
        edges = structured_graph._mutual_rank_edges(pts, k_max)[0].size
        tracemalloc.start()
        try:
            select_k(pts, cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        workers = min(cpus.usable_cpus(), cap)
        need = structured_graph.dense_bytes(600, k_max, workers, edges)
        assert abs(need - peak) <= 0.03 * peak


def test_memory_guard(monkeypatch):
    # one byte short of the rank table's phase, the estimate at no edges,
    # refuses before any distance
    pts = lattice()
    n = pts.shape[0]
    workers = min(cpus.usable_cpus(), n - 1)
    need = structured_graph.dense_bytes(n, n - 1, workers, 0)

    def no_distances(*args, **kwargs):
        raise AssertionError("distances computed after the guard refused")

    monkeypatch.setattr(structured_graph, "sq_distances", no_distances)
    monkeypatch.setattr(structured_graph, "_mem_available", lambda: need - 1)
    with pytest.raises(structured_graph.InsufficientMemoryError,
                       match=f"over {n} points needs about"):
        select_k(pts, CAP)


def test_memory_guard_at_the_counted_edges(monkeypatch):
    # an estimate at the counted edges that just fits, or no MemAvailable
    # to compare with, runs the sweep unchanged; one byte short refuses
    # after the rank table's distances and before the edges' or any sweep
    pts = lattice()
    n = pts.shape[0]
    workers = min(cpus.usable_cpus(), n - 1)
    edges = structured_graph._mutual_rank_edges(pts, n - 1)[0].size
    need = structured_graph.dense_bytes(n, n - 1, workers, edges)
    assert structured_graph.dense_bytes(n, n - 1, workers, 0) < need
    expected = sweep_bytes(select_k(pts, CAP))
    for avail in (need, None):
        monkeypatch.setattr(structured_graph, "_mem_available", lambda: avail)
        assert sweep_bytes(select_k(pts, CAP)) == expected

    calls = []
    sq_distances = structured_graph.sq_distances

    def counted(*args, **kwargs):
        calls.append(1)
        return sq_distances(*args, **kwargs)

    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran after the guard refused")

    monkeypatch.setattr(structured_graph, "sq_distances", counted)
    monkeypatch.setattr(structured_graph, "_entropies_for", no_sweep)
    monkeypatch.setattr(structured_graph, "_mem_available", lambda: need - 1)
    with pytest.raises(structured_graph.InsufficientMemoryError,
                       match=f"over {n} points needs about"):
        select_k(pts, CAP)
    # every block's ranks, and no block's edges
    assert len(calls) == len(structured_graph._row_blocks(n)[0]) - 1


def test_memory_guard_runs_below_the_edge_bound(monkeypatch):
    # at n = 600 and cap 300 the table holds fewer edges than the bound
    # min(n(n-1)/2, n * cap); memory below the estimate at that bound, but
    # at the estimate at the counted edges, runs the sweep unchanged
    pts = np.random.default_rng(0).random((600, 2))
    workers = min(cpus.usable_cpus(), 300)
    edges = structured_graph._mutual_rank_edges(pts, 300)[0].size
    need = structured_graph.dense_bytes(600, 300, workers, edges)
    bound = structured_graph.dense_bytes(600, 300, workers,
                                         min(600 * 599 // 2, 600 * 300))
    assert need < bound
    expected = sweep_bytes(select_k(pts, 300))
    monkeypatch.setattr(structured_graph, "_mem_available", lambda: need)
    assert sweep_bytes(select_k(pts, 300)) == expected


def test_select_k_too_few_points():
    with pytest.raises(ValueError, match="too few points"):
        select_k(np.zeros((2, 2)), CAP)


def fake_entropy_curve(monkeypatch, pts, curve):
    """Make ``select_k`` on ``pts``, points with no two equal distances,
    score each k as ``curve(k)`` in place of H / (k n).  The fake sweep
    finds each k by its union-rule k-NN graph's edge count."""
    n = len(pts)
    d = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    np.fill_diagonal(d, np.inf)
    order = np.argsort(d, axis=1)
    counts = []
    for k in range(1, n):
        near = np.zeros((n, n), dtype=bool)
        near[np.arange(n)[:, None], order[:, :k]] = True
        counts.append(int(np.count_nonzero(np.triu(near | near.T))))
    assert all(a < b for a, b in zip(counts, counts[1:]))
    k_of = dict(zip(counts, range(1, n)))

    def fake_entropies(u, v, totals, d, n_pts, ms):
        return np.array([curve(k_of[int(m)]) * k_of[int(m)] * n_pts
                         for m in ms])

    monkeypatch.setattr(structured_graph, "_entropies_for", fake_entropies)


def two_valleys(k):
    """Falls to its lowest value at k = 199, with one valley centred on
    k = 21 and a deeper one on k = 113, a point of the geometric grid."""
    return (0.5 - 0.001 * k - 0.1 * math.exp(-(((k - 21) / 4) ** 2))
            - 0.05 * max(0.0, 1 - abs(k - 113) / 15))


def test_select_k_stable_points_are_local_minima(monkeypatch):
    # no input is known whose own entropy curve has a stable point, so
    # the curve is given
    pts = blobs(seed=5, n_per=25, centers=((0, 0), (0.5, 0.9), (1, 0)))
    fake_entropy_curve(monkeypatch, pts, two_valleys)
    res = select_k(pts, CAP)
    h = res.h_norm
    assert res.stable_ks == [21]
    for k in res.stable_ks:
        i = int(np.searchsorted(res.ks, k))
        assert h[i] < h[i - 1] and h[i] < h[i + 1]


def test_select_k_ties_go_to_the_smaller_k(monkeypatch):
    # powers of two survive the fake sweep's scaling by k n exactly
    pts = blobs(seed=5, n_per=25, centers=((0, 0), (0.5, 0.9), (1, 0)))
    fake_entropy_curve(monkeypatch, pts, lambda k: 0.5)
    assert select_k(pts, CAP).k == 1
    fake_entropy_curve(monkeypatch, pts,
                       lambda k: 0.25 if k in (10, 70) else 0.5)
    res = select_k(pts, CAP)
    assert res.stable_ks == [10, 70] and res.k == 10


def test_identical_points_give_unit_weights():
    pts = np.full((12, 2), 0.3)
    res = select_k(pts, CAP)
    assert np.all(np.isfinite(res.h_norm))
    assert np.all(res.graph.w == 1.0)
    assert np.all(select_k(pts, cap=3).graph.w == 1.0)


def test_heavy_duplicates_give_finite_weights():
    pts = np.repeat(np.random.default_rng(0).random((4, 2)), 8, axis=0)
    res = select_k(pts, CAP)
    assert np.all(np.isfinite(res.h_norm))
    assert np.all(np.isfinite(res.graph.w))
    # up to k = 7, every edge joins two copies of one point
    assert np.all(select_k(pts, cap=7).graph.w == 1.0)


def test_grid_sweep_picks_the_full_sweep_stable_point(monkeypatch):
    # the grid must find both of the full sweep's stable points, the one
    # on its every-k part and the one on its geometric part, and pick the
    # lower one over the cap's lowest value
    pts = np.random.default_rng(4).random((200, 2))
    full = [two_valleys(k) for k in range(1, 200)]
    assert [k for k in range(2, 199)
            if full[k - 1] < full[k - 2] and full[k - 1] < full[k]] == [21, 113]
    fake_entropy_curve(monkeypatch, pts, two_valleys)
    grid = select_k(pts, CAP)
    assert grid.ks.size < 199
    assert grid.stable_ks == [21, 113]
    assert grid.k == 113

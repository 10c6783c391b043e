import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ardbscan import structured_graph
from ardbscan.config import RunConfig
from ardbscan.encoding_tree import optimize_two_level
from ardbscan.structured_graph import DEFAULT_OP_BUDGET, one_dim_se, select_k

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


def assert_agrees_with_naive_scan(pts):
    result = select_k(pts, CAP)
    k_star, graph = result.k, result.graph
    assert graph.k == k_star

    # independent scan: rebuild every candidate graph by plain loops and
    # re-detect minima
    n = pts.shape[0]
    rows = pts.tolist()
    graphs = [knn_graph_oracle(rows, k) for k in range(1, n)]
    h = [one_dim_entropy_oracle(n, g) / (k * n) for k, g in enumerate(graphs, 1)]
    stable = [
        i + 1
        for i in range(1, len(h) - 1)
        if h[i] < h[i - 1] and h[i] < h[i + 1]
    ]
    if stable:
        expected = min(stable, key=lambda k: h[k - 1])
    else:
        expected = int(np.argmin(h)) + 1
    assert k_star == expected
    assert result.stable_ks == stable
    assert result.ks.tolist() == list(range(1, n))
    assert np.allclose(result.h_norm, h, atol=1e-9)

    mine = sorted(edges_of(graph))
    oracle = graphs[k_star - 1]
    assert [e[:2] for e in mine] == [e[:2] for e in oracle]
    assert np.allclose([e[2] for e in mine], [e[2] for e in oracle], atol=1e-12)


def test_select_k_agrees_with_naive_scan():
    assert_agrees_with_naive_scan(blobs(seed=21))


def test_select_k_agrees_with_naive_scan_on_lattice():
    assert_agrees_with_naive_scan(lattice())


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


@pytest.mark.parametrize("workers", [1, 3])
def test_sweep_is_bit_identical_across_thread_counts(monkeypatch, workers):
    # a complete sweep over rank and weight ties, and a strided one (two
    # sweep calls); 3 threads on fewer cores, switching often, must write
    # every value the default thread count writes, bit for bit
    cases = [(lattice(), DEFAULT_OP_BUDGET), (blobs(seed=8, n_per=30), 30_000)]
    results = [select_k(pts, CAP, budget) for pts, budget in cases]
    assert results[1].ks.size < 59  # the budget forces a stride
    reference = [sweep_bytes(res) for res in results]
    monkeypatch.setattr(structured_graph, "_sweep_workers", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [sweep_bytes(select_k(pts, CAP, budget)) for pts, budget in cases]
    finally:
        sys.setswitchinterval(interval)
    assert got == reference


def test_dense_bytes_matches_traced_peak():
    pts = np.random.default_rng(0).random((600, 2))
    for cap in (CAP, 20):
        tracemalloc.start()
        try:
            select_k(pts, cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        workers = min(structured_graph._sweep_workers(), cap)
        need = structured_graph.dense_bytes(600, min(599, cap), workers)
        assert abs(need - peak) <= 0.03 * peak


def test_tree_bytes_matches_traced_peak():
    # the optimizer's own peak, beside the graph's arrays: the loop phase
    # at n = 600 (k = 599 and 300), the CSR build at n = 1000 (k = 999)
    for n, cap in ((600, CAP), (600, 300), (1000, CAP)):
        graph = select_k(np.random.default_rng(0).random((n, 2)), cap).graph
        tracemalloc.start()
        try:
            optimize_two_level(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = peak + sum(a.nbytes for a in (graph.u, graph.v, graph.w,
                                             graph.degrees))
        need = structured_graph.tree_bytes(n, graph.edge_count)
        assert abs(need - held) <= 0.03 * held, (n, cap)


def test_memory_guard_covers_the_tree(monkeypatch):
    # 600 points at the default cap: the sweep fits, the complete graph's
    # tree does not; only a caller that builds the tree is refused
    pts = np.random.default_rng(0).random((600, 2))
    sweep = structured_graph.dense_bytes(
        600, 599, min(structured_graph._sweep_workers(), 599))
    tree = structured_graph.tree_bytes(600, 600 * 599 // 2)
    assert sweep < tree
    monkeypatch.setattr(structured_graph, "_mem_available", lambda: tree)
    expected = sweep_bytes(select_k(pts, CAP))
    assert sweep_bytes(select_k(pts, CAP, tree=True)) == expected
    monkeypatch.setattr(structured_graph, "_mem_available", lambda: tree - 1)
    assert sweep_bytes(select_k(pts, CAP)) == expected
    with pytest.raises(structured_graph.InsufficientMemoryError,
                       match="with the encoding tree over 600 points"):
        select_k(pts, CAP, tree=True)


def test_memory_guard(monkeypatch):
    # an estimate that just fits, or no MemAvailable to compare with, runs
    # the sweep unchanged; one byte short refuses before any distance
    pts = lattice()
    n = pts.shape[0]
    workers = min(structured_graph._sweep_workers(), n - 1)
    need = structured_graph.dense_bytes(n, n - 1, workers)
    expected = sweep_bytes(select_k(pts, CAP))
    for avail in (need, None):
        monkeypatch.setattr(structured_graph, "_mem_available", lambda: avail)
        assert sweep_bytes(select_k(pts, CAP)) == expected

    def no_cdist(*args, **kwargs):
        raise AssertionError("distances computed after the guard refused")

    monkeypatch.setattr(structured_graph, "cdist", no_cdist)
    monkeypatch.setattr(structured_graph, "_mem_available", lambda: need - 1)
    with pytest.raises(structured_graph.InsufficientMemoryError,
                       match=f"over {n} points needs about"):
        select_k(pts, CAP)


def test_select_k_too_few_points():
    with pytest.raises(ValueError, match="too few points"):
        select_k(np.zeros((2, 2)), CAP)


def test_select_k_stable_points_are_local_minima():
    pts = blobs(seed=5, n_per=25, centers=((0, 0), (0.5, 0.9), (1, 0)))
    res = select_k(pts, CAP)
    h = res.h_norm
    for k in res.stable_ks:
        assert h[k - 1] < h[k - 2] and h[k - 1] < h[k]


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


def test_select_k_strided_matches_exact_on_small_input():
    pts = blobs(seed=8, n_per=30)
    exact = select_k(pts, CAP)
    strided = select_k(pts, CAP, op_budget=30_000)  # forces a strided grid
    assert strided.k == exact.k


def test_grid_sweep_picks_the_full_sweep_stable_point(monkeypatch):
    # an entropy curve with one valley centred on k = 21 and its lowest
    # value at k_max = 59: the stable point 21 must win on both paths
    pts = np.random.default_rng(4).random((60, 2))
    n = pts.shape[0]
    rows = pts.tolist()
    edges_at = [len(knn_graph_oracle(rows, k)) for k in range(1, n)]
    assert all(a < b for a, b in zip(edges_at, edges_at[1:]))
    k_of = {m: k for k, m in enumerate(edges_at, 1)}

    def curve(k):
        return 0.5 - 0.004 * k - 0.1 * math.exp(-(((k - 21) / 4) ** 2))

    def fake_entropies(u, v, prefix_d, d, n_pts, ms):
        return np.array([curve(k_of[int(m)]) * k_of[int(m)] * n_pts for m in ms])

    monkeypatch.setattr(structured_graph, "_entropies_for", fake_entropies)
    full = select_k(pts, CAP)
    grid = select_k(pts, CAP, op_budget=20_000)
    assert full.stable_ks == [21] and full.k == 21
    assert len(grid.ks) < n - 1  # the budget forces a strided grid
    assert 21 in grid.stable_ks
    assert grid.k == full.k

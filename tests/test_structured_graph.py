import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ardbscan.structured_graph import (
    StructuredGraph,
    build_knn_graph,
    normalized_one_dim_se,
    one_dim_se,
    pairwise_distances,
    select_k,
)

from oracles import one_dim_entropy_oracle


def blobs(seed=0, n_per=20, centers=((0.0, 0.0), (1.0, 1.0)), scale=0.05):
    rng = np.random.default_rng(seed)
    parts = [rng.normal(c, scale, size=(n_per, 2)) for c in centers]
    return np.clip(np.vstack(parts), 0.0, 1.0)


def test_pairwise_three_four_five():
    d = pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert d[0, 1] == pytest.approx(5.0)
    assert d[0, 0] == 0.0


def test_pairwise_symmetric_zero_diag():
    pts = np.random.default_rng(1).random((50, 3))
    d = pairwise_distances(pts)
    assert np.allclose(d, d.T)
    assert np.all(np.diag(d) == 0)


def test_equilateral_weights_are_exp_minus_one():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    g = build_knn_graph(pts, k=1)
    assert np.allclose(g.w, math.exp(-1))


def test_two_points_single_edge():
    g = build_knn_graph(np.array([[0.0, 0.0], [0.3, 0.0]]), k=1)
    assert g.edge_count == 1
    assert g.w[0] == pytest.approx(math.exp(-1))
    assert g.volume == pytest.approx(2 * math.exp(-1))


def test_collinear_path_weights():
    pts = np.array([[0.0], [1.0], [2.0], [3.0]])
    g = build_knn_graph(pts, k=1)
    # nearest neighbors (ties to the lower index) chain into a 3-edge path
    edges = {tuple(sorted(e)) for e in zip(g.u.tolist(), g.v.tolist())}
    assert edges == {(0, 1), (1, 2), (2, 3)}
    assert np.allclose(g.w, math.exp(-1.0 * 3.0 / 3.0))
    assert np.allclose(np.sort(g.degrees), np.sort(np.array([1, 2, 2, 1]) * math.exp(-1)))


def test_union_mutualization():
    # p0 picks p2 but p2 prefers p3; the union rule keeps the one-sided
    # pick (0, 2) as an edge anyway
    pts = np.array([[0.0], [2.2], [1.0], [1.4]])
    g = build_knn_graph(pts, k=1)
    edges = {tuple(sorted(e)) for e in zip(g.u.tolist(), g.v.tolist())}
    assert (2, 3) in edges
    assert (0, 2) in edges


def test_knn_k_out_of_range():
    pts = np.zeros((4, 2))
    with pytest.raises(ValueError):
        build_knn_graph(pts, k=0)
    with pytest.raises(ValueError):
        build_knn_graph(pts, k=4)


def test_one_dim_se_regular_graph():
    g = StructuredGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
    assert one_dim_se(g) == pytest.approx(2.0)


def test_one_dim_se_single_edge():
    g = StructuredGraph.from_edges(2, [(0, 1, 0.7)])
    assert one_dim_se(g) == pytest.approx(1.0)


def test_one_dim_se_degenerate():
    g = StructuredGraph.from_edges(3, [])
    with pytest.raises(ValueError, match="degenerate graph"):
        one_dim_se(g)


def test_one_dim_se_matches_direct_summation():
    pts = np.random.default_rng(7).random((20, 2))
    g = build_knn_graph(pts, k=3)
    expected = one_dim_entropy_oracle(g.n, list(zip(g.u, g.v, g.w)))
    assert one_dim_se(g) == pytest.approx(expected, abs=1e-12)


def test_normalized_arithmetic():
    g = StructuredGraph.from_edges(
        4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)], k=1
    )
    assert normalized_one_dim_se(g) == pytest.approx(0.5)


def test_normalization_scales_inverse_with_k():
    pts = np.random.default_rng(3).random((30, 2))
    g2 = build_knn_graph(pts, k=2)
    assert normalized_one_dim_se(g2) == pytest.approx(one_dim_se(g2) / (2 * 30))


def test_weight_exponent_identity():
    # the exponents D*|E|/sum(D) sum to |E| by construction
    pts = np.random.default_rng(9).random((40, 2))
    g = build_knn_graph(pts, k=4)
    d = pairwise_distances(pts)[g.u, g.v]
    exponents = d * g.edge_count / d.sum()
    assert exponents.sum() == pytest.approx(g.edge_count, abs=1e-9)
    assert np.allclose(g.w, np.exp(-exponents))


def test_volume_bookkeeping():
    pts = np.random.default_rng(13).random((60, 2))
    g = build_knn_graph(pts, k=5)
    assert g.volume == pytest.approx(2 * g.w.sum(), abs=1e-9)
    assert g.degrees.sum() == pytest.approx(g.volume, abs=1e-9)
    assert np.all(g.w > 0) and np.all(g.w <= 1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6))
def test_entropy_bounds(seed, k):
    pts = np.random.default_rng(seed).random((12, 2))
    g = build_knn_graph(pts, k=k)
    h = one_dim_se(g)
    assert -1e-12 <= h <= math.log2(12) + 1e-12


def test_select_k_agrees_with_naive_scan():
    pts = blobs(seed=21)
    result = select_k(pts)
    k_star, graph = result.k, result.graph
    assert graph.k == k_star

    # independent scan: rebuild every candidate graph and re-detect minima
    n = pts.shape[0]
    h = [normalized_one_dim_se(build_knn_graph(pts, k)) for k in range(1, n)]
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
    assert np.allclose(result.h_norm, h, atol=1e-9)


def test_select_k_deterministic():
    pts = blobs(seed=2, n_per=15)
    assert select_k(pts).k == select_k(pts).k


def test_select_k_too_few_points():
    with pytest.raises(ValueError, match="too few points"):
        select_k(np.zeros((2, 2)))


def test_select_k_stable_points_are_local_minima():
    pts = blobs(seed=5, n_per=25, centers=((0, 0), (0.5, 0.9), (1, 0)))
    res = select_k(pts)
    h = res.h_norm
    for k in res.stable_ks:
        assert h[k - 1] < h[k - 2] and h[k - 1] < h[k]


def test_identical_points_give_unit_weights():
    pts = np.full((12, 2), 0.3)
    res = select_k(pts)
    assert np.all(np.isfinite(res.h_norm))
    assert np.all(res.graph.w == 1.0)
    assert np.all(build_knn_graph(pts, 3).w == 1.0)


def test_heavy_duplicates_give_finite_weights():
    pts = np.repeat(np.random.default_rng(0).random((4, 2)), 8, axis=0)
    res = select_k(pts)
    assert np.all(np.isfinite(res.h_norm))
    assert np.all(np.isfinite(res.graph.w))
    # every 7-NN edge joins two copies of one point
    assert np.all(build_knn_graph(pts, 7).w == 1.0)


def test_select_k_strided_matches_exact_on_small_input():
    pts = blobs(seed=8, n_per=30)
    exact = select_k(pts)
    strided = select_k(pts, op_budget=30_000)  # forces the strided path
    assert strided.k == exact.k

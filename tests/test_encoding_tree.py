import time

import numpy as np
import pytest

from ardbscan.encoding_tree import (
    ROOT,
    EncodingTree,
    allocate_agents,
    information_uncertainty,
    node_entropy,
    optimize_two_level,
    tree_entropy,
    _cluster_uncertainties,
    _merge_delta,
)
from ardbscan.structured_graph import StructuredGraph, build_knn_graph, one_dim_se

from oracles import (
    best_two_level_partition,
    partition_entropy_oracle,
)


def two_cliques(bridge=0.1, w=1.0):
    """Two 5-cliques joined by one weak edge."""
    edges = []
    for base in (0, 5):
        for i in range(5):
            for j in range(i + 1, 5):
                edges.append((base + i, base + j, w))
    edges.append((4, 5, bridge))
    return StructuredGraph.from_edges(10, edges)


def barbell():
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
             (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0),
             (2, 3, 0.2)]
    return StructuredGraph.from_edges(6, edges)


def random_graph(seed, n=18, k=3):
    pts = np.random.default_rng(seed).random((n, 2))
    return build_knn_graph(pts, k=k)


def members(tree: EncodingTree, nid: int) -> list:
    return np.flatnonzero(tree.community == nid - tree.graph.n).tolist()


def singletons(g: StructuredGraph) -> EncodingTree:
    """Every vertex in its own community."""
    return EncodingTree(g, np.arange(g.n), g.degrees, g.degrees)


def tree_of(g: StructuredGraph, parts) -> EncodingTree:
    """Tree over an explicit partition, cut and volume counted edge by edge."""
    parts = sorted(parts, key=min)
    community = np.empty(g.n, dtype=np.int64)
    for c, part in enumerate(parts):
        community[list(part)] = c
    cut = np.zeros(len(parts))
    volume = np.zeros(len(parts))
    for u, v, w in g.edge_list():
        volume[community[u]] += w
        volume[community[v]] += w
        if community[u] != community[v]:
            cut[community[u]] += w
            cut[community[v]] += w
    return EncodingTree(g, community, cut, volume)


def merge_deltas(g: StructuredGraph, parts, a: int, b: int):
    """(_merge_delta, oracle difference) for merging parts[a] and parts[b]."""
    t = tree_of(g, parts)
    ca, cb = t.community[parts[a][0]], t.community[parts[b][0]]
    w_ab = sum(w for u, v, w in g.edge_list()
               if {t.community[u], t.community[v]} == {ca, cb})
    got = _merge_delta(g.volume, t.volume[ca], t.cut[ca],
                       np.array([t.volume[cb]]), np.array([t.cut[cb]]),
                       np.array([w_ab]))
    merged = [p for i, p in enumerate(parts) if i not in (a, b)]
    merged.append(list(parts[a]) + list(parts[b]))
    edges = g.edge_list()
    expected = (partition_entropy_oracle(g.n, edges, merged)
                - partition_entropy_oracle(g.n, edges, parts))
    return float(got[0]), expected


def scratch_entropy(tree: EncodingTree) -> float:
    g = tree.graph
    parts = [members(tree, nid) for nid in tree.intermediates()]
    return partition_entropy_oracle(g.n, g.edge_list(), parts)


def test_flat_tree_entropy_equals_one_dim():
    for seed in range(5):
        g = random_graph(seed)
        t = singletons(g)
        assert tree_entropy(t) == pytest.approx(one_dim_se(g), abs=1e-9)


def test_node_entropy_root_rejected():
    t = singletons(two_cliques())
    with pytest.raises(ValueError):
        node_entropy(t, ROOT)


def test_single_intermediate_holding_everything():
    g = StructuredGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    t = tree_of(g, [[0, 1, 2]])
    inter = t.intermediates()[0]
    # the lone intermediate has no cut edges, so its own term vanishes
    assert node_entropy(t, inter) == pytest.approx(0.0, abs=1e-12)
    expected = partition_entropy_oracle(3, g.edge_list(), [[0, 1, 2]])
    assert tree_entropy(t) == pytest.approx(expected, abs=1e-12)


def test_manual_two_level_matches_oracle_on_barbell():
    g = barbell()
    t = tree_of(g, [[0, 1, 2], [3, 4, 5]])
    expected = partition_entropy_oracle(6, g.edge_list(), [[0, 1, 2], [3, 4, 5]])
    assert tree_entropy(t) == pytest.approx(expected, abs=1e-12)


def test_operator_deltas_match_scratch_recomputation():
    g = barbell()
    for parts in ([[0], [1], [2], [3], [4], [5]], [[0, 1], [2], [3], [4], [5]]):
        got, expected = merge_deltas(g, parts, 0, 1)
        assert got == pytest.approx(expected, abs=1e-12)


def test_merge_of_unconnected_parts_never_helps():
    g = StructuredGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    got, expected = merge_deltas(g, [[0, 1], [2, 3]], 0, 1)
    assert got >= -1e-12
    assert got == pytest.approx(expected, abs=1e-12)


def test_merging_clique_halves_decreases_entropy():
    g = two_cliques()
    parts = [[0, 1], [2, 3]] + [[v] for v in range(4, 10)]
    got, expected = merge_deltas(g, parts, 0, 1)
    assert got < 0
    assert got == pytest.approx(expected, abs=1e-12)


def test_two_clique_recovery():
    g = two_cliques()
    start = time.perf_counter()
    t = optimize_two_level(g)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    parts = {frozenset(members(t, i)) for i in t.intermediates()}
    assert parts == {frozenset(range(5)), frozenset(range(5, 10))}
    opt_h, opt_parts = best_two_level_partition(10, g.edge_list())
    assert tree_entropy(t) == pytest.approx(opt_h, abs=1e-6)


def test_star_never_worse_than_flat():
    g = StructuredGraph.from_edges(5, [(0, i, 1.0) for i in range(1, 5)])
    t = optimize_two_level(g)
    assert tree_entropy(t) <= one_dim_se(g) + 1e-12


def test_strict_descent_and_consistency():
    for seed in range(8):
        g = random_graph(seed, n=24, k=3)
        t = optimize_two_level(g)
        trace = t.entropy_trace
        assert all(b < a - 1e-12 for a, b in zip(trace, trace[1:]))
        assert trace[0] == pytest.approx(one_dim_se(g), abs=1e-9)
        assert trace[-1] == pytest.approx(tree_entropy(t), abs=1e-9)
        # incremental cut/volume bookkeeping vs. from-scratch recomputation
        w_between = {}
        deg = np.zeros(g.n)
        for u, v, w in g.edge_list():
            w_between[(u, v)] = w
            deg[u] += w
            deg[v] += w
        for c, nid in enumerate(t.intermediates()):
            inside = set(members(t, nid))
            vol = sum(deg[v] for v in inside)
            cut = sum(
                w
                for (a, b), w in w_between.items()
                if (a in inside) != (b in inside)
            )
            assert t.volume[c] == pytest.approx(vol, abs=1e-9)
            assert t.cut[c] == pytest.approx(cut, abs=1e-9)
        assert tree_entropy(t) == pytest.approx(scratch_entropy(t), abs=1e-9)


def test_greedy_gap_versus_exhaustive_small():
    worst = 0.0
    for seed in range(6):
        g = random_graph(seed + 50, n=7, k=2)
        t = optimize_two_level(g)
        opt_h, _ = best_two_level_partition(g.n, g.edge_list())
        gap = tree_entropy(t) - opt_h
        assert gap >= -1e-9
        worst = max(worst, gap)
    print(f"worst greedy-vs-exhaustive gap over 6 graphs: {worst:.3e}")


def test_isolated_vertex_survives_as_singleton():
    g = StructuredGraph.from_edges(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    t = optimize_two_level(g)
    parts = [frozenset(members(t, i)) for i in t.intermediates()]
    assert frozenset([3]) in parts
    assert sorted(v for p in parts for v in p) == [0, 1, 2, 3]


def test_information_uncertainty_arithmetic():
    g = two_cliques()
    t = optimize_two_level(g)
    nid = t.intermediates()[0]
    h = node_entropy(t, nid)
    expected = h / (len(members(t, nid)) * g.k)
    assert information_uncertainty(t, nid, g.k) == pytest.approx(expected)
    with pytest.raises(ValueError):
        information_uncertainty(t, 0, g.k)  # leaves have no uncertainty
    with pytest.raises(ValueError):
        information_uncertainty(t, ROOT, g.k)


def test_uncertainty_zero_when_no_cut():
    g = StructuredGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    t = optimize_two_level(g)
    for nid in t.intermediates():
        assert information_uncertainty(t, nid, 1) == 0.0


def test_cluster_uncertainties_threshold_chain():
    assert _cluster_uncertainties([0.10, 0.15, 0.80], 0.3, 1) == [0, 0, 1]
    assert _cluster_uncertainties([0.5], 0.3, 1) == [0]
    assert _cluster_uncertainties([0.1, 0.35, 0.6], 0.3, 1) == [0, 0, 0]


def test_allocate_agents_covers_vertices():
    g = two_cliques()
    t = optimize_two_level(g)
    alloc = allocate_agents(t, g.k, alloc_eps=0.3, alloc_minpts=1)
    combined = np.sort(np.concatenate(alloc.partitions))
    assert combined.tolist() == list(range(10))
    assert len(alloc.partitions) >= 1
    for nid, pid in alloc.node_to_partition.items():
        assert set(members(t, nid)) <= set(alloc.partitions[pid].tolist())


def test_allocate_single_intermediate_gives_one_agent():
    g = StructuredGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    t = tree_of(g, [[0, 1, 2]])
    assert len(t.intermediates()) == 1
    alloc = allocate_agents(t, g.k, 0.3, 1)
    assert len(alloc.partitions) == 1
    assert alloc.partitions[0].tolist() == [0, 1, 2]


def test_allocation_separates_far_uncertainties():
    # a 5-clique and a triangle bridged weakly: the parts differ in size
    # and cut share, so their uncertainties are distinct
    edges = []
    for i in range(5):
        for j in range(i + 1, 5):
            edges.append((i, j, 1.0))
    edges += [(5, 6, 1.0), (5, 7, 1.0), (6, 7, 1.0), (4, 5, 0.05)]
    g = StructuredGraph.from_edges(8, edges)
    t = optimize_two_level(g)
    uncs = sorted(information_uncertainty(t, nid, g.k)
                  for nid in t.intermediates())
    gap = min(b - a for a, b in zip(uncs, uncs[1:]))
    assert gap > 0
    # with an epsilon below the smallest gap, every intermediate runs alone
    alloc = allocate_agents(t, g.k, alloc_eps=gap / 2, alloc_minpts=1)
    assert len(alloc.partitions) == len(t.intermediates())


def test_export_nodes_schema():
    g = two_cliques()
    t = optimize_two_level(g)
    rows = t.export_nodes(k=g.k)
    ids = {r["id"] for r in rows}
    assert ROOT in ids
    for r in rows:
        assert {"id", "parent", "vertices", "entropy"} <= set(r)
        if r["id"] in t.intermediates():
            assert "uncertainty" in r
            assert r["vertices"] == members(t, r["id"])
        elif r["id"] != ROOT:
            assert r["vertices"] == [r["id"]]
            assert r["id"] in members(t, r["parent"])

import time
import warnings

import numpy as np
import pytest

from ardbscan.encoding_tree import (
    ROOT,
    EncodingTree,
    allocate_agents,
    information_uncertainty,
    node_entropy,
    optimize_two_level,
    _cluster_uncertainties,
    _merge_delta,
)
from ardbscan.structured_graph import StructuredGraph, one_dim_se

from conftest import edges_of, make_graph
from oracles import (
    best_two_level_partition,
    knn_graph_oracle,
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
    return make_graph(10, edges)


def barbell():
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
             (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0),
             (2, 3, 0.2)]
    return make_graph(6, edges)


def random_graph(seed, n=18, k=3):
    pts = np.random.default_rng(seed).random((n, 2))
    return make_graph(n, knn_graph_oracle(pts.tolist(), k), k)


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
    for u, v, w in edges_of(g):
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
    w_ab = sum(w for u, v, w in edges_of(g)
               if {t.community[u], t.community[v]} == {ca, cb})
    got = _merge_delta(g.volume, t.volume[ca], t.cut[ca],
                       np.array([t.volume[cb]]), np.array([t.cut[cb]]),
                       np.array([w_ab]))
    merged = [p for i, p in enumerate(parts) if i not in (a, b)]
    merged.append(list(parts[a]) + list(parts[b]))
    edges = edges_of(g)
    expected = (partition_entropy_oracle(g.n, edges, merged)
                - partition_entropy_oracle(g.n, edges, parts))
    return float(got[0]), expected


def scratch_entropy(tree: EncodingTree) -> float:
    g = tree.graph
    parts = [members(tree, nid) for nid in tree.intermediates()]
    return partition_entropy_oracle(g.n, edges_of(g), parts)


def node_entropy_sum(tree: EncodingTree) -> float:
    """Tree entropy as the sum of every non-root node's term."""
    n = tree.graph.n
    return sum(node_entropy(tree, nid) for nid in range(n + tree.cut.size))


def test_flat_tree_entropy_equals_one_dim():
    for seed in range(5):
        g = random_graph(seed)
        t = singletons(g)
        assert node_entropy_sum(t) == pytest.approx(one_dim_se(g), abs=1e-9)


def test_node_entropy_root_rejected():
    t = singletons(two_cliques())
    with pytest.raises(ValueError):
        node_entropy(t, ROOT)


def test_single_intermediate_holding_everything():
    g = make_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    t = tree_of(g, [[0, 1, 2]])
    inter = t.intermediates()[0]
    # the lone intermediate has no cut edges, so its own term vanishes
    assert node_entropy(t, inter) == pytest.approx(0.0, abs=1e-12)
    expected = partition_entropy_oracle(3, edges_of(g), [[0, 1, 2]])
    assert node_entropy_sum(t) == pytest.approx(expected, abs=1e-12)


def test_manual_two_level_matches_oracle_on_barbell():
    g = barbell()
    t = tree_of(g, [[0, 1, 2], [3, 4, 5]])
    expected = partition_entropy_oracle(6, edges_of(g), [[0, 1, 2], [3, 4, 5]])
    assert node_entropy_sum(t) == pytest.approx(expected, abs=1e-12)


def test_operator_deltas_match_scratch_recomputation():
    g = barbell()
    for parts in ([[0], [1], [2], [3], [4], [5]], [[0, 1], [2], [3], [4], [5]]):
        got, expected = merge_deltas(g, parts, 0, 1)
        assert got == pytest.approx(expected, abs=1e-12)


def test_merge_of_unconnected_parts_never_helps():
    g = make_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
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
    opt_h, opt_parts = best_two_level_partition(10, edges_of(g))
    assert scratch_entropy(t) == pytest.approx(opt_h, abs=1e-6)


def test_star_never_worse_than_flat():
    g = make_graph(5, [(0, i, 1.0) for i in range(1, 5)])
    t = optimize_two_level(g)
    assert scratch_entropy(t) <= one_dim_se(g) + 1e-12


def test_strict_descent_and_consistency():
    for seed in range(8):
        g = random_graph(seed, n=24, k=3)
        t = optimize_two_level(g)
        trace = t.entropy_trace
        assert all(b < a - 1e-12 for a, b in zip(trace, trace[1:]))
        assert trace[0] == pytest.approx(one_dim_se(g), abs=1e-9)
        assert trace[-1] == pytest.approx(scratch_entropy(t), abs=1e-9)
        # incremental cut/volume bookkeeping vs. from-scratch recomputation
        w_between = {}
        deg = np.zeros(g.n)
        for u, v, w in edges_of(g):
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
        assert node_entropy_sum(t) == pytest.approx(scratch_entropy(t), abs=1e-9)


def test_greedy_gap_versus_exhaustive_small():
    worst = 0.0
    for seed in range(6):
        g = random_graph(seed + 50, n=7, k=2)
        t = optimize_two_level(g)
        opt_h, _ = best_two_level_partition(g.n, edges_of(g))
        gap = scratch_entropy(t) - opt_h
        assert gap >= -1e-9
        worst = max(worst, gap)
    print(f"worst greedy-vs-exhaustive gap over 6 graphs: {worst:.3e}")


def test_isolated_vertex_survives_as_singleton():
    g = make_graph(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    t = optimize_two_level(g)
    parts = [frozenset(members(t, i)) for i in t.intermediates()]
    assert frozenset([3]) in parts
    assert sorted(v for p in parts for v in p) == [0, 1, 2, 3]


def test_zero_volume_vertex_survives_as_singleton():
    # vertex 3's only edge weighs 0, so its volume is 0: it neither bids
    # nor is bid for, and no log of 0 is taken (warnings are errors here);
    # the tree is the one without that edge
    triangle = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]
    g = make_graph(4, triangle + [(2, 3, 0.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = optimize_two_level(g)
    parts = [frozenset(members(t, i)) for i in t.intermediates()]
    assert frozenset([3]) in parts
    without = optimize_two_level(make_graph(4, triangle))
    np.testing.assert_array_equal(t.community, without.community)
    assert t.entropy_trace == without.entropy_trace


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
    g = make_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
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
    g = make_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
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
    g = make_graph(8, edges)
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
    assert sorted(r["id"] for r in rows) == \
        [ROOT] + list(range(g.n)) + t.intermediates()
    for r in rows:
        assert set(r) == {"id", "parent", "num_vertices", "entropy",
                          "uncertainty"}
        if r["id"] == ROOT:
            assert (r["parent"], r["num_vertices"]) == (None, g.n)
            assert r["entropy"] is None and r["uncertainty"] is None
        elif r["id"] in t.intermediates():
            assert r["parent"] == ROOT
            assert r["num_vertices"] == len(members(t, r["id"]))
            assert r["uncertainty"] == information_uncertainty(t, r["id"], g.k)
        else:
            assert r["num_vertices"] == 1 and r["uncertainty"] is None
            assert r["id"] in members(t, r["parent"])


def unit_cycle(n=12):
    return make_graph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def unit_grid(side=5):
    edges = []
    for r in range(side):
        for c in range(side):
            i = side * r + c
            if c + 1 < side:
                edges.append((i, i + 1, 1.0))
            if r + 1 < side:
                edges.append((i, i + side, 1.0))
    return make_graph(side * side, edges)


def mixed_pentagon():
    """Weights 1 and 2: a community's best bids tie between a merged
    community and a leaf of higher vertex id, so picking the first tied
    root id instead of the smallest minimum-vertex id changes the tree."""
    return make_graph(5, [(0, 1, 2.0), (0, 2, 1.0), (0, 4, 2.0),
                          (1, 4, 2.0), (2, 3, 1.0), (3, 4, 2.0)])


# Unit and few-valued weights make many merge deltas exact ties, so these
# trees are decided by the tie rule: smallest delta, then the
# lexicographically smallest pair of community minimum-vertex ids.
TIE_GOLDEN = {
    "pentagon": (
        mixed_pentagon,
        [0, 0, 0, 1, 1],
        ["0x1.4000000000000p+2"] * 2,
        ["0x1.6000000000000p+3", "0x1.2000000000000p+3"],
        ["0x1.1d3614f174991p+1", "0x1.ff70a0f0a9d85p+0",
         "0x1.c47517fe6a7e8p+0", "0x1.bd33420924036p+0"],
    ),
    "cycle": (
        unit_cycle,
        [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5],
        ["0x1.0000000000000p+1"] * 6,
        ["0x1.0000000000000p+2"] * 6,
        ["0x1.cae00d1cfdeb4p+1", "0x1.af4d615a936d0p+1",
         "0x1.93bab59828eecp+1", "0x1.782809d5be708p+1",
         "0x1.5c955e1353f24p+1", "0x1.4102b250e9740p+1",
         "0x1.2570068e7ef5cp+1"],
    ),
    "grid": (
        unit_grid,
        [0, 0, 0, 1, 1, 2, 2, 0, 1, 1, 2, 2, 3, 1, 1, 4, 4, 3, 5, 5,
         4, 4, 4, 5, 5],
        ["0x1.8000000000000p+2", "0x1.4000000000000p+2",
         "0x1.8000000000000p+2", "0x1.8000000000000p+2",
         "0x1.4000000000000p+2", "0x1.0000000000000p+2"],
        ["0x1.8000000000000p+3", "0x1.3000000000000p+4",
         "0x1.c000000000000p+3", "0x1.0000000000000p+3",
         "0x1.e000000000000p+3", "0x1.8000000000000p+3"],
        ["0x1.26f4dbbee0c6ap+2", "0x1.208e75587a604p+2",
         "0x1.1a280ef213f9ep+2", "0x1.13c1a88bad938p+2",
         "0x1.0d5b4225472d2p+2", "0x1.076098e6f205cp+2",
         "0x1.0165efa89cde6p+2", "0x1.f6d68cd48f6e1p+1",
         "0x1.eb97696a19fb2p+1", "0x1.e05845ffa4884p+1",
         "0x1.d55bb9110a5a0p+1", "0x1.caba6640734bdp+1",
         "0x1.c019136fdc3dap+1", "0x1.b577c09f452f7p+1",
         "0x1.abdea50f7d8d8p+1", "0x1.a245897fb5eb9p+1",
         "0x1.9ae618616e005p+1", "0x1.9463aa6cccc47p+1",
         "0x1.92293cc7a9b1ap+1", "0x1.90b0a450f1b90p+1"],
    ),
}


@pytest.mark.parametrize("name", sorted(TIE_GOLDEN))
def test_tie_rule_golden(name):
    build, community, cut, volume, trace = TIE_GOLDEN[name]
    t = optimize_two_level(build())
    assert t.community.tolist() == community
    assert [float(x).hex() for x in t.cut] == cut
    assert [float(x).hex() for x in t.volume] == volume
    assert [float(x).hex() for x in t.entropy_trace] == trace

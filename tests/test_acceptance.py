"""Acceptance gate: one test per criterion, summarized after the run.

Benchmark-dependent criteria skip with a message naming the CSV to drop
into data/; everything else runs on synthetic inputs.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from oracles import (
    ari_pair_oracle,
    best_two_level_partition,
    canonical_labels,
    dbscan_bruteforce,
    nmi_contingency_oracle,
    partition_entropy_oracle,
)

from conftest import benchmark_csv, edges_of, make_graph

from ardbscan.cli_harness import cmd_cluster, cmd_online, main
from ardbscan.config import RunConfig
from ardbscan.dataset import Dataset, load_csv, normalize
from ardbscan.dbscan_core import ClusterResult, DbscanParams, run_dbscan
from ardbscan.encoding_tree import EncodingTree, optimize_two_level
from ardbscan.metrics import ari, nmi
from ardbscan.recursive_search import first_layer, next_layer
from ardbscan.search_env import (
    Action,
    Bounds,
    PolicyNetworks,
    ReplayBuffer,
    RLTuple,
    build_state,
    episode_rewards,
    td3_update,
)
from ardbscan.structured_graph import one_dim_se, select_k


# ---------------------------------------------------------------------------
# 1. DBSCAN oracle equivalence


@pytest.mark.criterion(
    "1", "DBSCAN equals the brute-force density-connectivity oracle "
    "(100 instances, n<=200, <30s)")
def test_criterion_1_dbscan_oracle():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(5, 201))
        points = rng.random((n, 2))
        params = DbscanParams(float(rng.uniform(0.01, 0.5)),
                              int(rng.integers(1, 11)))
        ours = run_dbscan(points, params).assignment
        oracle = dbscan_bruteforce(points, params.eps, params.min_pts)
        assert canonical_labels(ours) == canonical_labels(oracle)
    assert time.perf_counter() - started < 30.0


# ---------------------------------------------------------------------------
# 2. metric oracles


@pytest.mark.criterion(
    "2", "ARI matches pair enumeration (1e-12) and NMI matches an "
    "independent contingency evaluation (1000 pairs, 1e-9)")
def test_criterion_2_metric_oracles():
    rng = np.random.default_rng(202)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        a = rng.integers(-1, 4, size=n)
        b = rng.integers(-1, 4, size=n)
        assert ari(a, b) == pytest.approx(ari_pair_oracle(a, b), abs=1e-12)
    for _ in range(1000):
        n = int(rng.integers(2, 61))
        a = rng.integers(-1, 7, size=n)
        b = rng.integers(-1, 7, size=n)
        assert nmi(a, b) == pytest.approx(nmi_contingency_oracle(a, b),
                                          abs=1e-9)


# ---------------------------------------------------------------------------
# 3. structural-entropy identities


def _scratch_cut_volume(graph, vertices):
    members = np.zeros(graph.n, dtype=bool)
    members[list(vertices)] = True
    volume = float(graph.degrees[members].sum())
    crossing = members[graph.u] ^ members[graph.v]
    cut = float(graph.w[crossing].sum())
    return cut, volume


@pytest.mark.criterion(
    "3", "flat tree equals one-dimensional entropy (1e-9), greedy strictly "
    "descends, incremental cut/volume match scratch recomputation (1e-9)")
def test_criterion_3_entropy_identities():
    rng = np.random.default_rng(303)
    for _ in range(50):
        n = int(rng.integers(8, 31))
        points = rng.random((n, 2))
        k = int(rng.integers(2, 6))
        graph = select_k(points, cap=k).graph

        singletons = EncodingTree(graph, np.arange(graph.n), graph.degrees,
                                  graph.degrees)
        # n leaves, then one singleton community per vertex
        one_dim = sum(singletons.leaf_entropy()) + sum(singletons.entropy)
        assert abs(one_dim - one_dim_se(graph)) < 1e-9
        tree = optimize_two_level(graph)
        trace = tree.entropy_trace
        assert abs(trace[0] - one_dim) < 1e-9
        for before, after in zip(trace, trace[1:]):
            assert after < before
        parts = [np.flatnonzero(tree.community == c).tolist()
                 for c in range(len(tree.intermediates()))]
        assert abs(trace[-1] - partition_entropy_oracle(
            graph.n, edges_of(graph), parts)) < 1e-9

        for c in range(len(tree.intermediates())):
            members = np.flatnonzero(tree.community == c)
            cut, volume = _scratch_cut_volume(graph, members)
            assert abs(tree.cut[c] - cut) < 1e-9
            assert abs(tree.volume[c] - volume) < 1e-9


# ---------------------------------------------------------------------------
# 4. two-clique recovery


@pytest.mark.criterion(
    "4", "two-clique graph recovers exactly the two cliques, within 1e-6 "
    "of the exhaustive two-level optimum, <1s")
def test_criterion_4_two_clique_recovery():
    edges = []
    for base in (0, 5):
        for i in range(base, base + 5):
            for j in range(i + 1, base + 5):
                edges.append((i, j, 1.0))
    edges.append((4, 5, 0.1))
    graph = make_graph(10, edges)

    started = time.perf_counter()
    tree = optimize_two_level(graph)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0

    parts = sorted(np.flatnonzero(tree.community == c).tolist()
                   for c in range(len(tree.intermediates())))
    assert parts == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]

    best_h, best_parts = best_two_level_partition(10, edges)
    assert abs(partition_entropy_oracle(10, edges, parts) - best_h) < 1e-6


# ---------------------------------------------------------------------------
# 5. k selection on benchmarks


def _run_select_k(name):
    raw = load_csv(benchmark_csv(name))
    norm = normalize(raw)
    started = time.perf_counter()
    sel = select_k(norm.points, cap=2048)
    elapsed = time.perf_counter() - started
    print(f"{name}: selected k={sel.k}, stable points={sel.stable_ks}")
    assert elapsed < 60.0
    return sel


@pytest.mark.criterion(
    "5a", "select_k on Pathbased returns 5 +- 2, <60s")
def test_criterion_5_pathbased():
    sel = _run_select_k("pathbased")
    assert abs(sel.k - 5) <= 2


@pytest.mark.criterion(
    "5b", "select_k on Compound returns 8 +- 2, <60s")
def test_criterion_5_compound():
    sel = _run_select_k("compound")
    assert abs(sel.k - 8) <= 2


# ---------------------------------------------------------------------------
# 6. recursion algebra


@pytest.mark.criterion(
    "6", "layer steps follow the derived sequences and refined bounds nest "
    "in layer-0 (1000 random draws)")
def test_criterion_6_recursion_algebra():
    cfg = RunConfig(pi_eps=5, pi_minpts=4, minpts_cap_fraction=0.25, l_max=3)
    layer = first_layer(2, 163, cfg)
    eps_steps = [layer.theta_eps]
    mp_steps = [layer.theta_minpts]
    for _ in range(2):
        layer = next_layer(layer, layer.start, cfg)
        eps_steps.append(layer.theta_eps)
        mp_steps.append(layer.theta_minpts)
    root2 = math.sqrt(2)
    assert eps_steps == pytest.approx(
        [root2 / 5, root2 / 25, root2 / 125], rel=1e-12)
    assert mp_steps == [10, 3, 1]

    rng = np.random.default_rng(606)
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        size = int(rng.integers(1, 2001))
        frac = float(rng.uniform(0.0, 0.5))
        pi_e = int(rng.integers(2, 8))
        pi_m = int(rng.integers(2, 7))
        cfg = RunConfig(pi_eps=pi_e, pi_minpts=pi_m, minpts_cap_fraction=frac)
        layer = first_layer(d, size, cfg)
        outer = layer.bounds
        for _ in range(3):
            p_o = DbscanParams(
                float(rng.uniform(layer.bounds.eps_lo, layer.bounds.eps_hi)),
                int(rng.integers(layer.bounds.minpts_lo,
                                 layer.bounds.minpts_hi + 1)),
            )
            prev = layer
            layer = next_layer(layer, p_o, cfg)
            b = layer.bounds
            assert outer.eps_lo <= b.eps_lo <= b.eps_hi <= outer.eps_hi
            assert outer.minpts_lo <= b.minpts_lo <= b.minpts_hi \
                <= outer.minpts_hi
            assert layer.theta_eps < prev.theta_eps
            assert 1 <= layer.theta_minpts <= prev.theta_minpts
            assert b.eps_lo <= layer.start.eps <= b.eps_hi
            assert b.minpts_lo <= layer.start.min_pts <= b.minpts_hi


# ---------------------------------------------------------------------------
# 7. RL substrate


def _fd_check(net, in_dim, rng, n_coords=10, h=1e-6):
    out_dim = net.layers[-1].weight.shape[0]
    x = rng.normal(size=(4, in_dim))
    r = rng.normal(size=(4, out_dim))

    def value():
        return float((net.forward(x) * r).sum())

    net.forward(x)
    net.backward(r)
    arrays = []
    for layer in net.layers:
        arrays.append((layer.weight, layer.grad_weight))
        arrays.append((layer.bias, layer.grad_bias))
    for _ in range(n_coords):
        arr, grad = arrays[rng.integers(len(arrays))]
        idx = tuple(rng.integers(s) for s in arr.shape)
        analytic = grad[idx]
        orig = arr[idx]
        arr[idx] = orig + h
        up = value()
        arr[idx] = orig - h
        down = value()
        arr[idx] = orig
        numeric = (up - down) / (2 * h)
        rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
        assert rel < 1e-4


@pytest.mark.criterion(
    "7", "network gradients match finite differences (<1e-4), the bandit "
    "actor converges in <=200 updates, attention sums to 1+-1e-6, and the "
    "retroactive reward identities hold")
def test_criterion_7_rl_substrate():
    rng = np.random.default_rng(707)
    nets = PolicyNetworks(2, rng, RunConfig())
    _fd_check(nets.f_g, 7, rng)
    _fd_check(nets.f_l, 4, rng)
    _fd_check(nets.f_s, 64, rng)
    _fd_check(nets.actor, 64, rng)
    _fd_check(nets.critic_1, 69, rng)

    # always-RIGHT bandit
    nets = PolicyNetworks(1, np.random.default_rng(321), RunConfig())
    buf = ReplayBuffer(2000)
    states = np.random.default_rng(123).normal(size=(40, 64))
    for i in range(40):
        for a in range(5):
            buf.insert(RLTuple(states[i], Action(a), states[i],
                               1.0 if a == Action.RIGHT else 0.0))
    train_rng = np.random.default_rng(77)
    for _ in range(200):
        td3_update(nets, buf, RunConfig(), train_rng)
    assert (nets.actor.forward(states).argmax(axis=1)
            == int(Action.RIGHT)).all()

    # attention normalization across cluster counts
    rng = np.random.default_rng(708)
    nets = PolicyNetworks(2, rng, RunConfig())
    bounds = Bounds(0.0, math.sqrt(2), 1, 10)
    for m in (1, 5, 50):
        points = rng.random((max(m * 2, 4), 2))
        assignment = np.arange(len(points)) % m
        clustering = ClusterResult(assignment, m)
        state = build_state(nets, DbscanParams(0.4, 3), bounds, clustering,
                            points)
        assert abs(sum(state.attention) - 1.0) < 1e-6

    # retroactive reward identities
    assert episode_rewards([0.2, 0.9, 0.5], 0.2) == \
        pytest.approx([0.82, 0.82, 0.5])
    for c in (0.0, 0.31, 1.0):
        assert episode_rewards([c] * 5, 0.2) == pytest.approx([c] * 5)


# ---------------------------------------------------------------------------
# 8-10. benchmark reproduction (shared pipeline runs)

_BENCH_CACHE = {}


def _benchmark_report(name, tmp_path_factory, **config_overrides):
    key = (name, tuple(sorted(config_overrides.items())))
    if key not in _BENCH_CACHE:
        path = benchmark_csv(name)
        config = RunConfig(dataset=str(path), seeds=list(range(10)),
                           **config_overrides)
        out = tmp_path_factory.mktemp(f"bench_{name}")
        started = time.perf_counter()
        report = cmd_cluster(config, out)
        elapsed = time.perf_counter() - started
        _BENCH_CACHE[key] = (report, elapsed)
    return _BENCH_CACHE[key]


@pytest.mark.criterion(
    "8a", "offline Aggregation mean NMI >= 0.93 (10 seeds, 30 rounds, <5min)")
def test_criterion_8_aggregation(tmp_path_factory):
    report, elapsed = _benchmark_report("aggregation", tmp_path_factory)
    assert elapsed < 300.0
    assert report["mean_nmi"] >= 0.93


@pytest.mark.criterion(
    "8b", "offline Unbalance2 mean NMI >= 0.95 (10 seeds, 30 rounds, <5min)")
def test_criterion_8_unbalance2(tmp_path_factory):
    report, elapsed = _benchmark_report("unbalance2", tmp_path_factory)
    assert elapsed < 300.0
    assert report["mean_nmi"] >= 0.95


@pytest.mark.criterion(
    "8c", "offline Compound mean NMI >= 0.90 (10 seeds, 30 rounds, <5min)")
def test_criterion_8_compound(tmp_path_factory):
    report, elapsed = _benchmark_report("compound", tmp_path_factory)
    assert elapsed < 300.0
    assert report["mean_nmi"] >= 0.90


@pytest.mark.criterion(
    "9", "multi-agent allocation beats a single forced agent on Unbalance2 "
    "(mean NMI, 10 seeds)")
def test_criterion_9_multi_agent_benefit(tmp_path_factory):
    multi, _ = _benchmark_report("unbalance2", tmp_path_factory)
    single, _ = _benchmark_report("unbalance2", tmp_path_factory,
                                  single_agent=True)
    assert multi["mean_nmi"] > single["mean_nmi"]


@pytest.mark.criterion(
    "10", "Aggregation converges: mean historical-max NMI at round 15 is "
    ">= 0.95x the round-30 value")
def test_criterion_10_convergence_efficiency(tmp_path_factory):
    report, _ = _benchmark_report("aggregation", tmp_path_factory)
    series = report["mean_nmi_series"]
    assert len(series) == 30
    assert series[14] >= 0.95 * series[29]


# ---------------------------------------------------------------------------
# 11. determinism


def _write_synthetic(tmp_path):
    rng = np.random.default_rng(11)
    blobs = [
        rng.normal((0.1, 0.1), 0.02, size=(20, 2)),
        rng.normal((0.9, 0.1), 0.02, size=(20, 2)),
        rng.normal((0.5, 0.9), 0.05, size=(20, 2)),
    ]
    points = np.vstack(blobs)
    labels = np.repeat([0, 1, 2], 20)
    data = tmp_path / "blobs.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row, lab in zip(points, labels):
            writer.writerow([f"{row[0]:.6f}", f"{row[1]:.6f}", lab])
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "dataset": str(data),
        "seeds": [0, 1],
        "round_budget": 10,
        "episodes": 4,
        "max_steps": 8,
        "l_max": 2,
        "hidden_width": 8,
        "body_width": 32,
        "k_sweep_cap": 16,
    }))
    return cfg


@pytest.mark.criterion(
    "11", "identical config and seed give identical metric outputs")
def test_criterion_11_determinism(tmp_path):
    cfg = _write_synthetic(tmp_path)
    payloads = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["cluster", "--config", str(cfg),
                     "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        payload.pop("wall_clock_seconds")
        payloads.append(json.dumps(payload, sort_keys=True))
    assert payloads[0] == payloads[1]


# ---------------------------------------------------------------------------
# stretch: online Powersupply


@pytest.mark.criterion(
    "S", "stretch: online Powersupply block 1 mean NMI >= 0.15")
def test_stretch_powersupply_online(tmp_path_factory):
    path = benchmark_csv("powersupply")
    config = RunConfig(dataset=str(path), mode="online",
                       seeds=list(range(10)))
    out = tmp_path_factory.mktemp("powersupply")
    report = cmd_online(config, out)
    assert report["blocks"][0]["mean_nmi"] >= 0.15

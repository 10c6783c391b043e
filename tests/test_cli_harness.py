"""End-to-end tests for the command-line harness on synthetic data."""

import csv
import gc
import importlib.util
import json
import os
import re
import subprocess
import sys
import threading
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ardbscan import (
    cli_harness,
    cpus,
    dbscan_core,
    encoding_tree,
    recursive_search,
    search_env,
    structured_graph,
)
from ardbscan.cli_harness import (
    _run_seed,
    best_round_series,
    cmd_cluster,
    main,
)
from ardbscan.config import RunConfig
from ardbscan.dataset import Dataset, normalize
from ardbscan.metrics import ari, nmi
from ardbscan.recursive_search import (layer_zero_bounds, lattice_walk,
                                       partition_index, random_draws)


def synthetic_points(rng=None):
    rng = rng or np.random.default_rng(42)
    blobs = [
        rng.normal((0.1, 0.1), 0.02, size=(20, 2)),
        rng.normal((0.9, 0.1), 0.02, size=(20, 2)),
        rng.normal((0.5, 0.9), 0.05, size=(20, 2)),
    ]
    points = np.vstack(blobs)
    labels = np.repeat([0, 1, 2], 20)
    return points, labels


def write_dataset(path):
    points, labels = synthetic_points()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row, lab in zip(points, labels):
            writer.writerow([f"{row[0]:.6f}", f"{row[1]:.6f}", lab])
    return path


SMALL = dict(
    mode="offline",
    seeds=[0],
    round_budget=8,
    episodes=3,
    max_steps=6,
    l_max=2,
    hidden_width=8,
    body_width=32,
    k_sweep_cap=16,
)


def write_config(path, dataset, **overrides):
    cfg = dict(SMALL)
    cfg["dataset"] = str(dataset)
    cfg.update(overrides)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


@pytest.fixture
def workspace(tmp_path):
    data = write_dataset(tmp_path / "blobs.csv")
    cfg = write_config(tmp_path / "config.json", data)
    return tmp_path, data, cfg


def test_cluster_command_loads_no_scipy(workspace):
    # every command is a fresh process that pays for each import on every
    # run, and the program uses nothing from scipy
    tmp, _, cfg = workspace
    listing = tmp / "modules.txt"
    # run_module is what ``python -m ardbscan`` runs; the listing is
    # written when the interpreter exits
    probe = f"""
import atexit, runpy, sys

def write_listing():
    with open({str(listing)!r}, "w") as fh:
        fh.write("\\n".join(sorted(sys.modules)))

atexit.register(write_listing)
runpy.run_module("ardbscan", run_name="__main__", alter_sys=True)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", probe, "cluster", "--config", str(cfg),
         "--out", str(tmp / "out")],
        env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp / "out" / "report.json").exists()
    modules = listing.read_text().split("\n")
    assert "ardbscan.cli_harness" in modules
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


# ---------------------------------------------------------------------------
# RunConfig


def test_config_defaults():
    cfg = RunConfig()
    assert cfg.label_proportion == 0.2
    assert cfg.pi_eps == 5 and cfg.pi_minpts == 4
    assert cfg.max_steps == 30 and cfg.delta == 0.2
    assert cfg.hidden_width == 32 and cfg.body_width == 256
    assert cfg.gamma == 0.1 and cfg.batch_size == 16
    assert cfg.episodes == 15 and cfg.round_budget == 30
    assert cfg.alloc_eps == 0.3 and cfg.alloc_minpts == 1
    assert cfg.num_blocks == 8
    assert cfg.resolved_l_max() == 3
    assert cfg.resolved_minpts_cap_fraction() == 0.25


def test_config_online_mode_resolution():
    cfg = RunConfig(mode="online")
    assert cfg.resolved_l_max() == 6
    assert cfg.resolved_minpts_cap_fraction() == 0.0025
    cfg = RunConfig(mode="online", l_max=2, minpts_cap_fraction=0.1)
    assert cfg.resolved_l_max() == 2
    assert cfg.resolved_minpts_cap_fraction() == 0.1


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig.from_dict({"pi_epsilon": 5})


@pytest.mark.parametrize(
    "bad",
    [
        {"mode": "batch"},
        {"round_budget": 0},
        {"delta": 1.5},
        {"label_proportion": -0.1},
        {"seeds": []},
        {"seeds": [0.5]},
        {"pi_eps": 0},
        {"gamma": 0.0},
        # rejected here, not after k selection and the tree have run
        {"single_agent": "false"},
        {"label_proportion": 0},
        {"seeds": [-1]},
        # wrong-typed numbers are rejected here, not run or left to fail
        # with a TypeError later
        {"round_budget": 7.5},
        {"episodes": True},
        {"pi_eps": "5"},
        {"hidden_width": 2.5},
        {"k_sweep_cap": "16"},
        {"gamma": True},
        # every comparison with NaN is false, so range checks alone let
        # it through; JSON configs may spell NaN and Infinity
        {"learning_rate": float("nan")},
        {"alloc_eps": float("nan")},
        {"noise_clip": float("nan")},
        {"minpts_cap_fraction": float("nan")},
        {"learning_rate": float("inf")},
        {"alloc_eps": float("inf")},
        {"minpts_cap_fraction": float("inf")},
        *(json.loads(text) for text in ('{"noise_sigma": NaN}',
                                        '{"noise_clip": Infinity}')),
        # a repeated seed would be counted twice in the means and rewrite
        # the first pass's trace files
        {"seeds": [0, 0]},
        # the replay buffer would never hold a batch, so TD3 would train
        # nothing
        {"batch_size": 32, "buffer_capacity": 8},
    ],
)
def test_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        RunConfig.from_dict(bad)


def test_repeated_seed_flag_is_config_error(workspace, capsys):
    tmp, data, cfg = workspace
    out = tmp / "out"
    assert main(["cluster", "--config", str(cfg), "--out", str(out),
                 "--seeds", "1,1"]) == 1
    assert "seeds must be distinct" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_batch_larger_than_buffer_is_config_error(workspace, capsys):
    tmp, data, cfg = workspace
    out = tmp / "out"
    assert main(["cluster", "--config", str(cfg), "--out", str(out),
                 "--batch_size", "32", "--buffer_capacity", "8"]) == 1
    assert "batch_size 32 exceeds buffer_capacity 8" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_config_zero_round_budget_message():
    with pytest.raises(ValueError, match="round budget must be positive"):
        RunConfig(round_budget=0)


# ---------------------------------------------------------------------------
# scoring helpers


def test_best_round_series_pairs_ari_with_nmi_choice():
    truth = np.array([0, 0, 1, 1])
    a0 = np.array([0, 0, 0, 0])
    a1 = np.array([0, 0, 1, 1])
    a2 = np.array([0, 1, 0, 1])
    nmi_s, ari_s = best_round_series([a0, a1, a2], truth)
    assert nmi_s == pytest.approx([nmi(a0, truth), 1.0, 1.0])
    assert ari_s == pytest.approx([ari(a0, truth), 1.0, 1.0])


def test_best_round_series_keeps_earliest_on_ties():
    truth = np.array([0, 0, 1, 1])
    a0 = np.array([0, 0, 1, 1])
    a1 = np.array([1, 1, 0, 0])  # same NMI, later round
    nmi_s, ari_s = best_round_series([a0, a1], truth)
    assert nmi_s == pytest.approx([1.0, 1.0])
    assert ari_s == pytest.approx([1.0, 1.0])


def test_run_seed_merges_two_partitions():
    points, labels = synthetic_points()
    norm = normalize(Dataset(points, labels))
    cfg = RunConfig(**{**SMALL, "dataset": "unused"})
    partitions = [partition_index(norm, np.arange(0, 30)),
                  partition_index(norm, np.arange(30, 60))]
    summary, assignment = _run_seed(norm, partitions, cfg, 1, lattice_walk)
    assert len(summary["agents"]) == 2
    assert assignment.shape == (60,)
    assert len(summary["nmi_series"]) == cfg.round_budget
    assert summary["final_nmi"] == summary["nmi_series"][-1]
    for earlier, later in zip(summary["nmi_series"], summary["nmi_series"][1:]):
        assert later >= earlier


# ---------------------------------------------------------------------------
# cluster command


def test_cluster_end_to_end(workspace):
    tmp, data, cfg = workspace
    out = tmp / "out"
    assert main(["cluster", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    for key in ("mode", "dataset", "config", "selected_k", "stable_points",
                "num_agents", "partition_sizes", "per_seed", "mean_nmi",
                "var_nmi", "mean_ari", "var_ari", "mean_nmi_series",
                "stop_reasons", "wall_clock_seconds"):
        assert key in report
    assert report["num_agents"] >= 1
    assert sum(report["partition_sizes"]) == 60
    seed_entry = report["per_seed"][0]
    assert len(seed_entry["nmi_series"]) == 8
    assert seed_entry["final_nmi"] == seed_entry["nmi_series"][-1]
    assert report["mean_nmi"] == pytest.approx(seed_entry["final_nmi"])

    lines = (out / "assignment.csv").read_text().strip().splitlines()
    assert lines[0] == "point_index,cluster_id"
    assert len(lines) == 61
    svg = (out / "clusters.svg").read_text()
    assert svg.startswith("<svg") and svg.count("<circle") == 60


def test_cluster_finds_structure(workspace):
    tmp, data, cfg = workspace
    out = tmp / "out"
    assert main(["cluster", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    # three well-separated blobs: even a short search should beat chance
    assert report["mean_nmi"] > 0.5


def test_cluster_determinism(workspace):
    tmp, data, cfg = workspace
    outs = []
    for name in ("a", "b"):
        out = tmp / name
        assert main(["cluster", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)

    def stripped(path):
        payload = json.loads(path.read_text())
        payload.pop("wall_clock_seconds")
        return json.dumps(payload, sort_keys=True)

    assert stripped(outs[0] / "report.json") == stripped(outs[1] / "report.json")
    assert (outs[0] / "assignment.csv").read_bytes() == \
        (outs[1] / "assignment.csv").read_bytes()


def test_cluster_seed_flag_overrides_config(workspace):
    tmp, data, cfg = workspace
    out = tmp / "out"
    assert main(["cluster", "--config", str(cfg), "--out", str(out),
                 "--seeds", "5"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["seeds"] == [5]
    assert [s["seed"] for s in report["per_seed"]] == [5]


def test_cluster_flag_overrides_config_keys(workspace):
    tmp, data, cfg = workspace
    out = tmp / "out"
    assert main(["cluster", "--config", str(cfg), "--out", str(out),
                 "--round_budget", "5", "--single_agent"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["round_budget"] == 5
    assert report["num_agents"] == 1
    assert len(report["per_seed"][0]["nmi_series"]) == 5


def test_cluster_trace_files(workspace):
    tmp, data, cfg = workspace
    out = tmp / "out"
    assert main(["cluster", "--config", str(cfg), "--out", str(out),
                 "--trace"]) == 0
    traces = sorted(out.glob("trace_*_*.json"))
    assert traces
    payload = json.loads(traces[0].read_text())
    for key in ("agent", "layer", "stop_reason", "steps", "episode_rewards"):
        assert key in payload


def test_cluster_trace_files_are_kept_per_seed(workspace):
    tmp, data, cfg = workspace
    out = tmp / "out"
    # 16 rounds: enough for the search to reach its second layer
    assert main(["cluster", "--config", str(cfg), "--out", str(out),
                 "--seeds", "0,1", "--round_budget", "16", "--trace"]) == 0
    report = json.loads((out / "report.json").read_text())
    traces = {}
    for path in out.glob("trace_*.json"):
        match = re.fullmatch(r"trace_(\d+)_(\d+)_(\d+)\.json", path.name)
        assert match, path.name
        seed, agent, index = (int(g) for g in match.groups())
        payload = json.loads(path.read_text())
        assert payload["agent"] == agent
        traces.setdefault((seed, agent), {})[index] = payload
    agents = {(s["seed"], a["partition_id"]): a
              for s in report["per_seed"] for a in s["agents"]}
    assert {seed for seed, _ in agents} == {0, 1}
    assert traces.keys() == agents.keys()
    assert max(a["layers_run"] for a in agents.values()) > 1
    for key, by_index in traces.items():
        assert sorted(by_index) == list(range(len(by_index)))
        assert len(by_index) == sum(agents[key]["stop_reasons"].values())
        layers = [by_index[i]["layer"] for i in range(len(by_index))]
        assert layers == sorted(layers)
        assert len(set(layers)) == agents[key]["layers_run"]
        for layer in set(layers):
            in_layer = [by_index[i]["episode_in_layer"]
                        for i in range(len(by_index)) if layers[i] == layer]
            assert in_layer == list(range(len(in_layer)))


@pytest.mark.parametrize("command", ["allocate", "online", "baseline"])
def test_trace_flag_is_cluster_only(workspace, capsys, command):
    tmp, data, cfg = workspace
    out = tmp / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg), "--out", str(out), "--trace"])
    assert exc.value.code == 2
    assert "--trace" in capsys.readouterr().err
    assert not out.exists()


def test_cluster_calls_search_through_module_globals(workspace, monkeypatch):
    # perfbench probes replace these cli_harness attributes at call time
    tmp, data, cfg = workspace
    calls = Counter()

    def counting(name):
        original = getattr(cli_harness, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    per_seed = ("run_agent", "merge_agent_results", "best_round_series",
                "sample_labeled_subset")
    per_run = ("normalize", "_aggregate")
    for name in per_seed + per_run:
        monkeypatch.setattr(cli_harness, name, counting(name))
    assert main(["cluster", "--config", str(cfg), "--out", str(tmp / "out"),
                 "--seeds", "0,1"]) == 0
    assert all(calls[name] >= 2 for name in per_seed), calls
    assert all(calls[name] == 1 for name in per_run), calls
    for module in (cli_harness, recursive_search, search_env, encoding_tree):
        assert callable(getattr(module, "run_dbscan"))


@pytest.mark.parametrize("command", [["cluster"],
                                     ["online", "--num_blocks", "2"]])
def test_search_starts_without_the_set_up_state(workspace, monkeypatch,
                                                command):
    # the search reads only the points and the partitions: by the time a
    # seed samples its labeled subset, the k selection with its graph's
    # weights, the tree and the allocation have no reference left
    tmp, data, cfg = workspace
    kept, seed_starts = [], []

    def keeping(name, *parts):
        original = getattr(cli_harness, name)

        def wrapper(*args, **kwargs):
            out = original(*args, **kwargs)
            kept.extend((name, weakref.ref(obj))
                        for obj in [out] + [part(out) for part in parts])
            return out
        return wrapper

    original_sample = cli_harness.sample_labeled_subset

    def sampling(*args, **kwargs):
        gc.collect()
        alive = [name for name, ref in kept if ref() is not None]
        assert kept and alive == [], alive
        seed_starts.append(len(kept))
        return original_sample(*args, **kwargs)

    monkeypatch.setattr(cli_harness, "select_k",
                        keeping("select_k", lambda sel: sel.graph.w))
    monkeypatch.setattr(cli_harness, "optimize_two_level",
                        keeping("optimize_two_level"))
    monkeypatch.setattr(cli_harness, "allocate_agents",
                        keeping("allocate_agents"))
    monkeypatch.setattr(cli_harness, "sample_labeled_subset", sampling)
    assert main([*command, "--config", str(cfg), "--out", str(tmp / "out"),
                 "--seeds", "0,1"]) == 0
    assert len(seed_starts) == 2 * (2 if command[0] == "online" else 1)


def test_baseline_runs_its_agents_through_run_agent(workspace, monkeypatch):
    # every baseline agent passes through the cli_harness global that
    # cluster's agents do, so a probe on it sees each one
    tmp, data, cfg = workspace
    seen = []
    original = cli_harness.run_agent

    def recording(partition, dataset, labeled, config, seed, policy,
                  partition_id):
        seen.append((partition.ids.size, policy, partition_id))
        return original(partition, dataset, labeled, config, seed, policy,
                        partition_id)

    monkeypatch.setattr(cli_harness, "run_agent", recording)
    assert main(["baseline", "--config", str(cfg), "--out", str(tmp / "out"),
                 "--seeds", "0,1,2"]) == 0
    assert seen == [(60, random_draws, 0)] * 3


def test_cluster_builds_each_spanning_tree_once_per_run(workspace,
                                                       monkeypatch):
    # three seeds search the same partitions; every (partition, min_pts)
    # tree is built once, by whichever seed asks for it first, and each
    # partition's neighbour-distance table once, by its first query
    tmp, data, cfg = workspace
    seed_no, queried, built, tables = [0], [], Counter(), Counter()
    original_subset = cli_harness.sample_labeled_subset
    original_query = dbscan_core.DbscanIndex.query
    core = dbscan_core.DbscanIndex._core
    sorted_neighbours = dbscan_core._sorted_neighbours
    prim_mst = dbscan_core._prim_mst

    def next_seed(*args, **kwargs):
        seed_no[0] += 1
        return original_subset(*args, **kwargs)

    def query(self, params):
        queried.append((seed_no[0], self.points.tobytes(), params.min_pts))
        return original_query(self, params)

    def counted_core(self, min_pts):
        built[self.points.tobytes(), min_pts] += 1
        return core(self, min_pts)

    def counted_sorted_neighbours(points, width):
        tables[points.tobytes()] += 1
        return sorted_neighbours(points, width)

    def counted_prim_mst(points, core):
        built["prim"] += 1
        return prim_mst(points, core)

    monkeypatch.setattr(cli_harness, "sample_labeled_subset", next_seed)
    monkeypatch.setattr(dbscan_core.DbscanIndex, "query", query)
    monkeypatch.setattr(dbscan_core.DbscanIndex, "_core", counted_core)
    monkeypatch.setattr(dbscan_core, "_sorted_neighbours",
                        counted_sorted_neighbours)
    monkeypatch.setattr(dbscan_core, "_prim_mst", counted_prim_mst)
    assert main(["cluster", "--config", str(cfg), "--out", str(tmp / "out"),
                 "--seeds", "0,1,2", "--alloc_eps", "1e-12",
                 "--k_sweep_cap", "2048"]) == 0
    assert seed_no[0] == 3
    seeds_of = {}
    for seed, points, min_pts in queried:
        seeds_of.setdefault((points, min_pts), set()).add(seed)
    assert len(json.loads((tmp / "out" / "report.json").read_text())
               ["partition_sizes"]) == 3
    assert any(len(seeds) > 1 for seeds in seeds_of.values())
    assert built.pop("prim") == len(seeds_of)
    assert built == Counter(dict.fromkeys(seeds_of, 1))
    assert tables == Counter(dict.fromkeys(
        {points for points, _ in seeds_of}, 1))


def test_cluster_single_agent_flag_reuses_whole_dataset(workspace,
                                                       monkeypatch):
    # one partition needs neither k nor the tree: the run reports what
    # baseline reports for them
    tmp, data, cfg = workspace

    def refuse(*args, **kwargs):
        raise AssertionError("one-partition run built a graph or a tree")

    monkeypatch.setattr(cli_harness, "select_k", refuse)
    monkeypatch.setattr(cli_harness, "optimize_two_level", refuse)
    out = tmp / "out"
    assert main(["cluster", "--config", str(cfg), "--out", str(out),
                 "--single_agent"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["selected_k"] is None
    assert report["stable_points"] == []
    assert report["partition_sizes"] == [60]


# ---------------------------------------------------------------------------
# allocate command


def test_allocate_reports_partitions(workspace):
    tmp, data, cfg = workspace
    out = tmp / "out"
    assert main(["allocate", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "allocation.json").read_text())
    assert report["num_agents"] >= 1
    assert sum(p["size"] for p in report["partitions"]) == 60
    for part in report["partitions"]:
        assert part["nodes"]
        assert all(np.isfinite(u) for u in part["uncertainties"])
    assert report["tree_nodes"]
    lines = (out / "allocation.csv").read_text().strip().splitlines()
    assert lines[0] == "point_index,agent_id"
    assert len(lines) == 61


def write_mixture_8d(path):
    """Three 8-D Gaussian blobs of 80 points each, coordinates written in
    full precision."""
    rng = np.random.default_rng(8)
    centers = rng.random((3, 8))
    path.write_text("".join(
        ",".join(repr(float(x)) for x in rng.normal(centers[label], 0.08))
        + f",{label}\n" for label in np.repeat(np.arange(3), 80)))
    return path


def test_allocation_json_is_consistent_with_pooled_agents(tmp_path):
    # at this radius one agent pools communities that are not adjacent in
    # community order, beside agents that hold one community each
    cfg = write_config(tmp_path / "config.json",
                       write_mixture_8d(tmp_path / "mixture-8d.csv"))
    out = tmp_path / "out"
    assert main(["allocate", "--config", str(cfg), "--out", str(out),
                 "--alloc_eps", "5e-5"]) == 0
    report = json.loads((out / "allocation.json").read_text())
    node = {row["id"]: row for row in report["tree_nodes"]}
    communities = sorted(nid for nid, row in node.items()
                         if row["parent"] == -1)
    partitions = report["partitions"]
    assert [p["agent"] for p in partitions] == \
        list(range(report["num_agents"]))
    holder = {}
    for part in partitions:
        for nid, u in zip(part["nodes"], part["uncertainties"], strict=True):
            assert nid not in holder
            holder[nid] = part["agent"]
            assert u == node[nid]["uncertainty"]
        assert part["size"] == sum(node[nid]["num_vertices"]
                                   for nid in part["nodes"])
    assert sorted(holder) == communities
    pooled = [p["nodes"] for p in partitions if len(p["nodes"]) > 1]
    assert len(partitions) > len(pooled) >= 1
    assert any(b - a > 1 for nodes in pooled for a, b in zip(nodes, nodes[1:]))
    # agents are numbered by first appearance over ascending community id
    first_seen = list(dict.fromkeys(holder[nid] for nid in communities))
    assert first_seen == list(range(len(partitions)))
    with open(out / "allocation.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["point_index"]) for r in rows] == list(range(240))
    for r in rows:
        parent = node[int(r["point_index"])]["parent"]
        assert int(r["agent_id"]) == holder[parent]


# ---------------------------------------------------------------------------
# online command


def test_online_single_block_matches_offline(workspace):
    tmp, data, cfg = workspace
    out_off = tmp / "off"
    assert main(["cluster", "--config", str(cfg), "--out", str(out_off)]) == 0
    offline = json.loads((out_off / "report.json").read_text())

    out_on = tmp / "on"
    # pin the mode-resolved knobs so the only difference is the split
    assert main(["online", "--config", str(cfg), "--out", str(out_on),
                 "--mode", "online", "--num_blocks", "1",
                 "--minpts_cap_fraction", "0.25"]) == 0
    online = json.loads((out_on / "report.json").read_text())
    assert online["num_blocks"] == 1
    block = online["blocks"][0]
    assert block["per_seed"] == offline["per_seed"]
    assert block["selected_k"] == offline["selected_k"]


def test_online_blocks_are_isolated(workspace):
    tmp, data, cfg = workspace
    out = tmp / "out"
    assert main(["online", "--config", str(cfg), "--out", str(out),
                 "--mode", "online", "--num_blocks", "2"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [b["block"] for b in report["blocks"]] == [0, 1]
    assert [b["n"] for b in report["blocks"]] == [30, 30]
    for index in (0, 1):
        lines = (out / f"assignment_block_{index}.csv").read_text()
        assert len(lines.strip().splitlines()) == 31


# ---------------------------------------------------------------------------
# baseline command


def test_baseline_reports_and_is_deterministic(workspace):
    tmp, data, cfg = workspace
    reports = []
    for name in ("a", "b"):
        out = tmp / f"base_{name}"
        assert main(["baseline", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "assignment.csv").exists()
        assert (out / "clusters.svg").exists()
        payload = json.loads((out / "report.json").read_text())
        payload.pop("wall_clock_seconds")
        reports.append(payload)
    assert reports[0] == reports[1]
    assert reports[0]["selected_k"] is None
    assert reports[0]["stable_points"] == []
    assert len(reports[0]["per_seed"][0]["nmi_series"]) == 8


def test_baseline_tables_stop_at_the_min_pts_box(workspace, monkeypatch):
    # uniform draws past half the layer-0 box would build the neighbour-
    # distance table twice as wide as the draw; each record caps it at the
    # box's top, and the run writes what an uncapped index writes
    tmp, data, cfg = workspace
    top = layer_zero_bounds(
        2, 60, RunConfig(**SMALL).resolved_minpts_cap_fraction()).minpts_hi
    asked, widths = [], []
    core = dbscan_core.DbscanIndex._core
    sorted_neighbours = dbscan_core._sorted_neighbours

    def recorded_core(self, min_pts):
        asked.append(min_pts)
        return core(self, min_pts)

    def recorded(points, width):
        widths.append(width)
        return sorted_neighbours(points, width)

    monkeypatch.setattr(dbscan_core.DbscanIndex, "_core", recorded_core)
    monkeypatch.setattr(dbscan_core, "_sorted_neighbours", recorded)
    reports = []
    for name in ("capped", "uncapped"):
        out = tmp / name
        assert main(["baseline", "--config", str(cfg), "--out", str(out),
                     "--seeds", "0,1"]) == 0
        payload = json.loads((out / "report.json").read_text())
        payload.pop("wall_clock_seconds")
        reports.append((payload, (out / "assignment.csv").read_bytes()))
        if name == "capped":
            assert 2 * asked[0] > top  # the first draw is past half the box
            assert widths == [top]
            monkeypatch.setattr(
                cli_harness, "partition_index",
                lambda norm, part, minpts_hi: partition_index(norm, part))
    assert widths[1] > top  # uncapped, the same draw builds past the box
    assert reports[0] == reports[1]


def test_baseline_report_has_cluster_report_shape(workspace):
    tmp, data, cfg = workspace
    reports = {}
    for command in ("cluster", "baseline"):
        out = tmp / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        reports[command] = json.loads((out / "report.json").read_text())
    assert reports["baseline"].keys() == reports["cluster"].keys()
    assert reports["baseline"]["per_seed"][0].keys() == \
        reports["cluster"]["per_seed"][0].keys()
    assert reports["baseline"]["num_agents"] == 1
    assert reports["baseline"]["partition_sizes"] == [60]
    (agent,) = reports["baseline"]["per_seed"][0]["agents"]
    assert agent["size"] == 60
    assert agent["rounds_used"] == SMALL["round_budget"]


def test_baseline_without_labeled_points(workspace):
    # 0.005 of 60 points samples no labeled point at all
    tmp, data, cfg = workspace
    out = tmp / "out"
    assert main(["baseline", "--config", str(cfg), "--out", str(out),
                 "--label_proportion", "0.005"]) == 0
    report = json.loads((out / "report.json").read_text())
    (agent,) = report["per_seed"][0]["agents"]
    assert agent["rounds_used"] == 1
    assert agent["labeled_nmi"] == 0.0
    assert len(report["per_seed"][0]["nmi_series"]) == SMALL["round_budget"]


# ---------------------------------------------------------------------------
# error handling and exit codes


def test_missing_config_file_is_config_error(tmp_path):
    assert main(["cluster", "--config", str(tmp_path / "nope.json")]) == 1


def test_invalid_json_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["cluster", "--config", str(bad)]) == 1


def test_unknown_config_key_is_config_error(tmp_path):
    data = write_dataset(tmp_path / "d.csv")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": str(data), "pi": 3}))
    assert main(["cluster", "--config", str(cfg)]) == 1


def test_missing_dataset_path_is_config_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seeds": [0]}))
    assert main(["cluster", "--config", str(cfg), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("below", [False, True])
def test_out_naming_a_file_is_config_error(workspace, capsys, below):
    tmp, data, cfg = workspace
    taken = tmp / "taken.txt"
    taken.write_text("")
    out = taken / "run" if below else taken
    assert main(["cluster", "--config", str(cfg), "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_flag_is_config_error(workspace, capsys, value):
    tmp, data, cfg = workspace
    assert main(["cluster", "--config", str(cfg), "--out", str(tmp / "out"),
                 "--alloc_eps", value]) == 1
    assert "alloc_eps must be finite" in capsys.readouterr().err


def test_nonexistent_dataset_is_data_error(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", tmp_path / "missing.csv")
    assert main(["cluster", "--config", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command", ["cluster", "allocate", "online",
                                     "baseline"])
def test_dataset_naming_a_directory_is_data_error(tmp_path, capsys, command):
    folder = tmp_path / "data"
    folder.mkdir()
    cfg = write_config(tmp_path / "cfg.json", folder)
    assert main([command, "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    assert "data error: unreadable dataset" in capsys.readouterr().err


def test_tiny_dataset_is_data_error(tmp_path):
    data = tmp_path / "one.csv"
    data.write_text("0.5,0.5,0\n")
    cfg = write_config(tmp_path / "cfg.json", data)
    assert main(["cluster", "--config", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command", ["cluster", "allocate"])
def test_two_point_dataset_is_data_error(tmp_path, capsys, command):
    # k selection needs 3 points; too few points is the data's fault
    data = tmp_path / "two.csv"
    data.write_text("0.1,0.1,0\n0.9,0.9,1\n")
    cfg = write_config(tmp_path / "cfg.json", data)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "at least 3" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cluster", "allocate", "online"])
def test_k_selection_beyond_available_memory_is_data_error(
        tmp_path, capsys, monkeypatch, command):
    # 600 points at k_sweep_cap 16, on one thread, need the 2-byte rank
    # table (2 * 600^2 bytes) beside a block of rank values and a 120-row
    # block's buffers and row argsort ((2 + 25) * 120 * 600 bytes):
    # 2.5 MiB; the guard refuses before any of it is allocated.  online
    # runs them as one block
    data = tmp_path / "d.csv"
    points = np.random.default_rng(0).random((600, 2))
    data.write_text("".join(f"{x},{y},0\n" for x, y in points))
    cfg = write_config(tmp_path / "cfg.json", data, num_blocks=1)
    monkeypatch.setattr(cpus, "usable_cpus", lambda: 1)
    monkeypatch.setattr(cpus, "_mem_available", lambda: 2 << 20)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err
    assert "600 points needs about 2.5 MiB, but only 2.0 MiB are available" in err
    assert not (out / "report.json").exists()


def test_neighbour_table_beyond_available_memory_is_data_error(
        workspace, capsys, monkeypatch):
    # one partition of 60 points: the walk's first query, at the middle of
    # the min_pts box, builds a table 2 * min_pts wide, capped at the box's
    # top, so it spans the box.  Memory at its n * width * 8 bytes runs
    # the search; one byte below refuses it, exit 2
    tmp, _, cfg = workspace
    layer = recursive_search.first_layer(2, 60, RunConfig(**SMALL))
    need = 8 * 60 * min(2 * layer.start.min_pts, layer.bounds.minpts_hi)
    monkeypatch.setattr(cpus, "_mem_available", lambda: need)
    out = tmp / "fits"
    assert main(["cluster", "--single_agent", "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert (out / "report.json").exists()
    monkeypatch.setattr(cpus, "_mem_available", lambda: need - 1)
    out = tmp / "refused"
    assert main(["cluster", "--single_agent", "--config", str(cfg),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error: the neighbour-distance table over 60 points " \
        "needs about" in err
    assert not (out / "report.json").exists()


def test_tree_beyond_available_memory_is_data_error(tmp_path, capsys,
                                                    monkeypatch):
    # 600 points at k_sweep_cap 300: the chosen graph is not complete, and
    # the tree's estimate at its edge count decides.  With the sweep's own
    # estimate out of the way, memory at that estimate builds the tree;
    # one byte below refuses before the adjacency is built
    data = tmp_path / "d.csv"
    points = np.random.default_rng(0).random((600, 2))
    data.write_text("".join(f"{x},{y},0\n" for x, y in points))
    cfg = write_config(tmp_path / "cfg.json", data, k_sweep_cap=300)
    norm = normalize(Dataset(points, np.zeros(600, dtype=np.int64)))
    edges = structured_graph.select_k(norm.points, 300).graph.edge_count
    need = encoding_tree.tree_bytes(600, edges)
    assert need < encoding_tree.tree_bytes(600, 600 * 599 // 2)
    monkeypatch.setattr(structured_graph, "dense_bytes", lambda *args: 0)
    monkeypatch.setattr(cpus, "_mem_available", lambda: need)
    out = tmp_path / "fits"
    assert main(["allocate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "allocation.json").exists()

    def no_adjacency(graph):
        raise AssertionError("adjacency built after the guard refused")

    monkeypatch.setattr(cpus, "_mem_available", lambda: need - 1)
    monkeypatch.setattr(encoding_tree, "_adjacency", no_adjacency)
    out = tmp_path / "refused"
    assert main(["allocate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err
    assert ("the encoding tree over 600 points needs about 1.9 MiB, but "
            "only 1.9 MiB are available") in err
    assert not (out / "allocation.json").exists()


@pytest.mark.parametrize("command", ["cluster", "allocate", "online",
                                     "baseline"])
def test_overflowing_column_range_is_data_error(tmp_path, capsys, command):
    # every value is finite, but the first column's max - min is not
    data = tmp_path / "d.csv"
    data.write_text("1.5e308,0.1,0\n-1.5e308,0.2,1\n0.0,0.3,0\n")
    cfg = write_config(tmp_path / "cfg.json", data, num_blocks=1)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error: feature column 1 ranges from -1.5e+308" in err
    assert not (out / "report.json").exists()


def test_two_point_online_blocks_are_data_error(tmp_path):
    data = write_dataset(tmp_path / "d.csv")
    cfg = write_config(tmp_path / "cfg.json", data, mode="online",
                       num_blocks=30)
    assert main(["online", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_baseline_accepts_two_points(tmp_path):
    # baseline runs no k selection, so 2 points are enough
    data = tmp_path / "two.csv"
    data.write_text("0.1,0.1,0\n0.9,0.9,1\n")
    cfg = write_config(tmp_path / "cfg.json", data)
    assert main(["baseline", "--config", str(cfg), "--out", str(tmp_path)]) == 0


def test_single_agent_accepts_two_points(tmp_path):
    # a one-partition run selects no k, so 2 points are enough, in each
    # online block too
    data = tmp_path / "four.csv"
    data.write_text("0.1,0.1,0\n0.9,0.9,1\n0.2,0.1,0\n0.8,0.9,1\n")
    cfg = write_config(tmp_path / "cfg.json", data, num_blocks=2)
    two = tmp_path / "two.csv"
    two.write_text("0.1,0.1,0\n0.9,0.9,1\n")
    two_cfg = write_config(tmp_path / "two.json", two)
    assert main(["cluster", "--config", str(two_cfg), "--out",
                 str(tmp_path / "cluster"), "--single_agent"]) == 0
    out = tmp_path / "online"
    assert main(["online", "--config", str(cfg), "--out", str(out),
                 "--single_agent"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [b["n"] for b in report["blocks"]] == [2, 2]
    assert [b["selected_k"] for b in report["blocks"]] == [None, None]


@pytest.mark.parametrize("flags", [["baseline"], ["cluster", "--single_agent"]],
                         ids=["baseline", "single_agent"])
def test_one_point_one_partition_run_is_data_error(tmp_path, capsys, flags):
    data = tmp_path / "one.csv"
    data.write_text("0.5,0.5,0\n")
    cfg = write_config(tmp_path / "cfg.json", data)
    out = tmp_path / "out"
    assert main([flags[0], "--config", str(cfg), "--out", str(out),
                 *flags[1:]]) == 2
    assert "need at least 2" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_malformed_dataset_is_data_error(tmp_path):
    data = tmp_path / "junk.csv"
    data.write_text("a,b,c\nx,y,z\n")
    cfg = write_config(tmp_path / "cfg.json", data)
    assert main(["cluster", "--config", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("bad_row", ["0.5,0.5,inf", "0.5,0.5,nan",
                                     "nan,0.5,1"])
def test_non_finite_dataset_is_data_error(tmp_path, capsys, bad_row):
    data = write_dataset(tmp_path / "d.csv")
    lines = data.read_text().splitlines()
    lines[3] = bad_row
    data.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path / "cfg.json", data)
    assert main(["cluster", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "line 4" in capsys.readouterr().err


def test_label_outside_int64_is_data_error(tmp_path, capsys):
    data = tmp_path / "big.csv"
    data.write_text("0.1,0.1,1e20\n0.5,0.5,0\n0.9,0.9,1\n")
    cfg = write_config(tmp_path / "cfg.json", data)
    assert main(["allocate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "line 1" in err


def test_allocate_with_an_underflowing_outlier(tmp_path):
    # at k = n - 1 the outlier's edges are 800 times the mean edge length,
    # so exp(-d * m / sum d) is 0 and its degree is 0; the tree keeps it a
    # singleton instead of taking log2(0)
    data = tmp_path / "outlier.csv"
    data.write_text("0.5,0.5,0\n" * 1599 + "100.0,100.0,1\n")
    cfg = write_config(tmp_path / "cfg.json", data,
                       k_sweep_cap=RunConfig().k_sweep_cap)
    out = tmp_path / "out"
    assert main(["allocate", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "allocation.json").read_text())
    assert report["selected_k"] == 1599
    outlier = report["tree_nodes"][1 + 1599]
    assert outlier["id"] == 1599 and outlier["entropy"] == 0.0
    singleton = [row for row in report["tree_nodes"]
                 if row["id"] == outlier["parent"]]
    assert singleton[0]["num_vertices"] == 1


def test_too_many_blocks_is_data_error(tmp_path):
    data = write_dataset(tmp_path / "d.csv")
    cfg = write_config(tmp_path / "cfg.json", data, mode="online",
                       num_blocks=100)
    assert main(["online", "--config", str(cfg), "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# concurrent agents (BLAS at its default thread count)


def write_three_spreads(tmp):
    """Three Gaussians of 20 points with spreads 0.02, 0.05 and 0.10, and a
    config under which the encoding tree gives each its own agent."""
    rng = np.random.default_rng(1)
    centres = np.array([(0.25, 0.25), (0.75, 0.3), (0.45, 0.75)])
    points = np.vstack([c + np.clip(rng.normal(0.0, 1.0, (20, 2)), -2.5, 2.5)
                        * s for c, s in zip(centres, (0.02, 0.05, 0.10))])
    data = tmp / "spreads.csv"
    data.write_text("".join(f"{x:.6f},{y:.6f},{i // 20}\n"
                            for i, (x, y) in enumerate(points)))
    return write_config(tmp / "spreads.json", data, seeds=[0, 1],
                        round_budget=12, episodes=4, batch_size=4,
                        hidden_width=64, body_width=256, alloc_eps=1e-12,
                        num_blocks=2)


def outputs(out):
    """Every file a command wrote, ``wall_clock_seconds`` left out."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            payload = json.loads(path.read_text())
            payload.pop("wall_clock_seconds", None)
            files[path.name] = json.dumps(payload, sort_keys=True)
        else:
            files[path.name] = path.read_text()
    return files


def agent_threads(monkeypatch, workers):
    """Give the process ``workers`` CPUs, for the agents' threads and
    every other ``cpus.deal``."""
    monkeypatch.setattr(cpus, "usable_cpus", lambda: workers)


def test_each_concurrently_runs_every_index_once_in_slot_order(monkeypatch):
    # more threads than cores, switching often: every index is taken by
    # exactly one thread, its result lands in its own place, slot s
    # starts with index s, and each slot is one thread
    agent_threads(monkeypatch, 8)
    ran = []
    slot_threads = {}

    def run(i, slot):
        ran.append((i, slot))
        slot_threads.setdefault(slot, set()).add(threading.get_ident())
        return np.full(64, i) @ np.ones(64)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = cpus.deal(run, 500)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(i for i, _ in ran) == list(range(500))
    assert out == [64.0 * i for i in range(500)]
    assert {i: s for i, s in ran if i < 8} == {s: s for s in range(8)}
    assert sorted(slot_threads) == list(range(8))
    assert all(len(ids) == 1 for ids in slot_threads.values())
    assert threading.get_ident() in slot_threads[0]


OPENBLAS_THREADS = """
import ctypes

def openblas_threads():
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            get = getattr(lib, name, None)
            if get is not None:
                get.restype = ctypes.c_int
                return get()
"""


def run_main_fresh(args, blas_threads, prelude=""):
    """``main(args)`` in a fresh interpreter, after ``prelude``, with
    ``OPENBLAS_NUM_THREADS`` set (or unset, for None)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    script = (prelude + "from ardbscan.cli_harness import main\n"
              + f"raise SystemExit(main({args!r}))\n")
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)


def test_main_sets_openblas_to_one_thread(tmp_path):
    if "openblas" not in str(np.show_config(mode="dicts")).lower():
        pytest.skip("numpy is not built on OpenBLAS")
    cfg = write_three_spreads(tmp_path)
    # the thread count before main runs, and after it, as it exits
    report = OPENBLAS_THREADS + (
        "import atexit, numpy\n"
        "print(openblas_threads())\n"
        "atexit.register(lambda: print(openblas_threads()))\n")
    runs = []
    for threads in ("2", "1"):
        out = tmp_path / f"out{threads}"
        done = run_main_fresh(["cluster", "--config", str(cfg),
                               "--out", str(out)], threads, prelude=report)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        # OpenBLAS runs no more threads than the process has CPUs
        assert lines[0] == str(min(int(threads), cpus.usable_cpus()))
        assert lines[-1] == "1"
        assert "BLAS" not in done.stderr
        runs.append(outputs(out))
    assert runs[0] == runs[1]


def test_main_without_openblas_says_so_and_runs(tmp_path):
    # no library can be opened, so none can be set: one line on stderr,
    # and the command still succeeds
    cfg = write_three_spreads(tmp_path)
    no_library = ("import ctypes\n"
                  "def refuse(*args, **kwargs):\n"
                  "    raise OSError('no library')\n"
                  "ctypes.CDLL = refuse\n")
    done = run_main_fresh(["allocate", "--config", str(cfg),
                           "--out", str(tmp_path / "out")], None,
                          prelude=no_library)
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines() == [
        "note: numpy's BLAS could not be set to one thread; it keeps its "
        "own thread count beside the program's threads"]
    assert (tmp_path / "out" / "allocation.json").exists()


@pytest.mark.parametrize("command", [["cluster", "--trace"],
                                     ["cluster", "--mode", "online"],
                                     ["online"]])
def test_agents_on_any_thread_count_write_the_same_outputs(
        tmp_path, monkeypatch, command):
    cfg = write_three_spreads(tmp_path)
    runs = []
    for workers in (1, 2, 3):
        agent_threads(monkeypatch, workers)
        out = tmp_path / f"out{workers}"
        assert main([command[0], "--config", str(cfg), "--out", str(out),
                     *command[1:]]) == 0
        runs.append(outputs(out))
    report = json.loads(runs[0]["report.json"])
    agents = [b["num_agents"] for b in report.get("blocks", [report])]
    assert min(agents) >= 3 if command[0] == "cluster" else min(agents) >= 2
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_calling_thread_runs_agents_beside_at_most_workers_minus_one(
        tmp_path, monkeypatch, workers):
    cfg = write_three_spreads(tmp_path)
    threads = []
    original = cli_harness.run_agent

    def recording(*args):
        threads.append(threading.get_ident())
        return original(*args)

    monkeypatch.setattr(cli_harness, "run_agent", recording)
    agent_threads(monkeypatch, workers)
    assert main(["cluster", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert len(threads) == 2 * 3  # two seeds of three agents
    caller = threading.get_ident()
    # each seed starts its own threads, so each seed is counted on its own
    for seed_threads in (threads[:3], threads[3:]):
        assert caller in seed_threads
        others = set(seed_threads) - {caller}
        assert min(workers - 1, 1) <= len(others) <= workers - 1


@pytest.mark.parametrize("error, code", [(ValueError("bad agent"), 1),
                                         (cli_harness.DataError("bad agent"), 2)])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_an_agents_exception_reaches_main(tmp_path, monkeypatch, capsys,
                                          workers, error, code):
    cfg = write_three_spreads(tmp_path)
    started = []
    raised = threading.Event()
    original = cli_harness.run_agent

    def failing(*args):
        started.append(args[-1])
        if args[-1] == 1:
            raised.set()
            raise error
        if args[-1] == 0 and workers > 1:
            assert raised.wait(timeout=60)  # agent 1 fails while 0 runs
        return original(*args)

    monkeypatch.setattr(cli_harness, "run_agent", failing)
    agent_threads(monkeypatch, workers)
    before = threading.active_count()
    assert main(["cluster", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == code
    assert "bad agent" in capsys.readouterr().err
    # no thread takes an agent after the failure, no second seed starts,
    # and every thread the run started has ended; with three threads,
    # agent 2 may have been handed out before agent 1 failed
    assert sorted(started) in ([[0, 1]] if workers < 3 else [[0, 1], [0, 1, 2]])
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# the benchmark's probes

PERFBENCH_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


@pytest.mark.skipif(importlib.util.find_spec("scipy") is None,
                    reason="perfbench's checks need scipy (the bench extra)")
@pytest.mark.parametrize("flags", [["--trace", "0"], ["--trace", "1"],
                                   ["--setup-only", "1"]],
                         ids=["untraced", "traced", "setup_only"])
def test_perfbench_probes_run_against_the_program(tmp_path, flags):
    # the benchmark's child process wraps names of the program (run_agent,
    # _aggregate, best_round_series, allocate_agents, build_state, ...)
    # and checks every seed's outputs; a name renamed or no longer called
    # through its module fails here
    data = write_dataset(tmp_path / "blobs.csv")
    cfg = write_config(tmp_path / "config.json", data, seeds=[0, 1])
    result = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, str(PERFBENCH_CHILD),
         "--root", str(PERFBENCH_CHILD.parents[1]), "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--result", str(result), *flags],
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    got = json.loads(result.read_text())
    assert got["exit_code"] == 0
    if flags[0] == "--setup-only":
        assert len(got["seed_starts"]) == 1
        return
    assert got["problems"] == [[], []]
    if flags[1] == "1":
        assert got["layers"]

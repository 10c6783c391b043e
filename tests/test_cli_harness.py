"""End-to-end tests for the command-line harness on synthetic data."""

import csv
import json
import re
from collections import Counter

import numpy as np
import pytest

from ardbscan import (
    cli_harness,
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
from ardbscan.recursive_search import lattice_walk, partition_index, random_draws


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
    ],
)
def test_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        RunConfig.from_dict(bad)


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
    # tree is built once, by whichever seed asks for it first
    tmp, data, cfg = workspace
    seed_no, queried, built = [0], [], Counter()
    original_subset = cli_harness.sample_labeled_subset
    original_query = dbscan_core.DbscanIndex.query
    core_distances = dbscan_core._core_distances
    prim_mst = dbscan_core._prim_mst

    def next_seed(*args, **kwargs):
        seed_no[0] += 1
        return original_subset(*args, **kwargs)

    def query(self, params):
        queried.append((seed_no[0], self.points.tobytes(), params.min_pts))
        return original_query(self, params)

    def counted_core_distances(points, min_pts):
        built[points.tobytes(), min_pts] += 1
        return core_distances(points, min_pts)

    def counted_prim_mst(points, core):
        built["prim"] += 1
        return prim_mst(points, core)

    monkeypatch.setattr(cli_harness, "sample_labeled_subset", next_seed)
    monkeypatch.setattr(dbscan_core.DbscanIndex, "query", query)
    monkeypatch.setattr(dbscan_core, "_core_distances", counted_core_distances)
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


def test_cluster_single_agent_flag_reuses_whole_dataset(workspace):
    tmp, data, cfg = workspace
    out = tmp / "out"
    assert main(["cluster", "--config", str(cfg), "--out", str(out),
                 "--single_agent"]) == 0
    report = json.loads((out / "report.json").read_text())
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


@pytest.mark.parametrize("command", ["cluster", "allocate"])
def test_k_selection_beyond_available_memory_is_data_error(
        tmp_path, capsys, monkeypatch, command):
    # 600 points at k_sweep_cap 16 need 25 * 600^2 bytes (8.6 MiB) for the
    # row argsort; the guard refuses before any of it is allocated
    data = tmp_path / "d.csv"
    points = np.random.default_rng(0).random((600, 2))
    data.write_text("".join(f"{x},{y},0\n" for x, y in points))
    cfg = write_config(tmp_path / "cfg.json", data)
    monkeypatch.setattr(structured_graph, "_mem_available", lambda: 4 << 20)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err
    assert "600 points needs about 8.6 MiB, but only 4.0 MiB are available" in err
    assert not (out / "report.json").exists()


def test_tree_beyond_available_memory_is_data_error(tmp_path, capsys,
                                                    monkeypatch):
    # 600 points at the default cap: the sweep needs 11.0 MiB and fits,
    # the encoding tree over the complete graph needs 15.5 MiB and does not
    data = tmp_path / "d.csv"
    points = np.random.default_rng(0).random((600, 2))
    data.write_text("".join(f"{x},{y},0\n" for x, y in points))
    cfg = write_config(tmp_path / "cfg.json", data,
                       k_sweep_cap=RunConfig().k_sweep_cap)
    monkeypatch.setattr(structured_graph, "_mem_available", lambda: 14 << 20)
    out = tmp_path / "out"
    assert main(["allocate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err
    assert ("k selection with the encoding tree over 600 points needs about "
            "15.5 MiB, but only 14.0 MiB are available") in err
    assert not (out / "allocation.json").exists()


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

"""End-to-end tests for the command-line harness on synthetic data."""

import csv
import json

import numpy as np
import pytest

from ardbscan.cli_harness import (
    _run_seed,
    best_round_series,
    cmd_cluster,
    main,
)
from ardbscan.config import RunConfig
from ardbscan.dataset import Dataset, normalize
from ardbscan.metrics import ari, nmi


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
    partitions = [np.arange(0, 30), np.arange(30, 60)]
    summary, assignment = _run_seed(norm, partitions, cfg, seed=1)
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
                 "--seed", "5"]) == 0
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
    assert len(reports[0]["per_seed"][0]["nmi_series"]) == 8


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


def test_nonexistent_dataset_is_data_error(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", tmp_path / "missing.csv")
    assert main(["cluster", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_tiny_dataset_is_data_error(tmp_path):
    data = tmp_path / "one.csv"
    data.write_text("0.5,0.5,0\n")
    cfg = write_config(tmp_path / "cfg.json", data)
    assert main(["cluster", "--config", str(cfg), "--out", str(tmp_path)]) == 2


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


def test_too_many_blocks_is_data_error(tmp_path):
    data = write_dataset(tmp_path / "d.csv")
    cfg = write_config(tmp_path / "cfg.json", data, mode="online",
                       num_blocks=100)
    assert main(["online", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_cmd_cluster_requires_labels(tmp_path):
    # cmd_cluster is reachable with an unlabeled Dataset only through the
    # library API; the CLI loader always parses a label column
    points, _ = synthetic_points()
    cfg = RunConfig(**{**SMALL, "dataset": "unused"})
    from ardbscan.cli_harness import run_offline_pipeline, DataError
    with pytest.raises(DataError, match="labels"):
        run_offline_pipeline(Dataset(points, None), cfg)

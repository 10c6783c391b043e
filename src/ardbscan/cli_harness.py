"""Command-line entry point: seeded experiment orchestration and reports.

Four commands share one config format (flat JSON, every key overridable
by a flag of the same name): ``cluster`` runs the full offline pipeline,
``allocate`` stops after agent allocation, ``online`` reruns the
pipeline per stream block, and ``baseline`` scores uniform random
parameter draws for the same round budget.  ``cluster``, ``online`` and
``baseline`` run their seeds through one driver (``_run_seeds`` and
``_run_seed``), which runs every agent through ``run_agent``; they differ
only in the search policy they pass it: ``lattice_walk`` or
``random_draws``.  ``_run_seeds`` builds one ``partition_index`` record
per partition and every seed's search of that partition shares it, so
each (partition, ``min_pts``) spanning tree is built once per run, by
the first round that asks for it.  Each agent's result carries
the episodes its search ran; the report's stop-reason counts and the
``cluster --trace`` files are both read from them.

Exit codes: 0 success, 1 config error, 2 data error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from collections import Counter
from dataclasses import asdict, fields
from pathlib import Path
from types import UnionType
from typing import (Any, List, Optional, Tuple, Union, get_args, get_origin,
                    get_type_hints)

import numpy as np

from .config import RunConfig
from .dataset import Dataset, load_csv, normalize, sample_labeled_subset, split_blocks
from .dbscan_core import NOISE
from .dbscan_core import run_dbscan  # noqa: F401 (perfbench --trace wraps it)
from .encoding_tree import (
    AgentAllocation,
    EncodingTree,
    allocate_agents,
    optimize_two_level,
)
from .metrics import ari, nmi
from .recursive_search import (
    AgentResult,
    PartitionIndex,
    Policy,
    lattice_walk,
    merge_agent_results,
    partition_index,
    random_draws,
    run_agent,
)
from .structured_graph import InsufficientMemoryError, SelectKResult, select_k


class DataError(Exception):
    """Problem with the dataset itself (exit code 2)."""


# ---------------------------------------------------------------------------
# scoring


def best_round_series(assignments: List[np.ndarray],
                      truth: np.ndarray) -> Tuple[List[float], List[float]]:
    """Historical-max NMI per round, with ARI evaluated at the same round.

    Round r reports the best merged clustering seen up to r (by full-truth
    NMI, earliest on ties); the ARI series scores that same clustering so
    the two numbers always describe one labeling.
    """
    nmi_series: List[float] = []
    ari_series: List[float] = []
    best = -1.0
    best_ari = 0.0
    for a in assignments:
        score = nmi(a, truth)
        if score > best:
            best = score
            best_ari = ari(a, truth)
        nmi_series.append(best)
        ari_series.append(best_ari)
    return nmi_series, ari_series


def _agent_summary(res: AgentResult) -> dict:
    return {
        "partition_id": res.partition_id,
        "size": int(res.partition.size),
        "eps": float(res.params.eps),
        "min_pts": int(res.params.min_pts),
        "labeled_nmi": float(res.reward),
        "rounds_used": int(res.rounds_used),
        "layers_run": len(res.layer_history),
        "stop_reasons": dict(Counter(t.stop_reason for t in res.episodes)),
    }


def _aggregate(per_seed: List[dict]) -> dict:
    finals_nmi = np.array([s["final_nmi"] for s in per_seed])
    finals_ari = np.array([s["final_ari"] for s in per_seed])
    series = np.array([s["nmi_series"] for s in per_seed])
    reasons: Counter = Counter()
    for s in per_seed:
        for a in s["agents"]:
            reasons.update(a["stop_reasons"])
    return {
        "mean_nmi": float(finals_nmi.mean()),
        "var_nmi": float(finals_nmi.var()),
        "mean_ari": float(finals_ari.mean()),
        "var_ari": float(finals_ari.var()),
        "mean_nmi_series": [float(x) for x in series.mean(axis=0)],
        "stop_reasons": dict(sorted(reasons.items())),
    }


# ---------------------------------------------------------------------------
# pipeline


def _run_seed(norm: Dataset, partitions: List[PartitionIndex],
              config: RunConfig, seed: int, policy: Policy,
              trace_dir: Optional[Path] = None) -> Tuple[dict, np.ndarray]:
    """One seed: sample the labeled subset, run ``policy`` on each
    partition through ``run_agent`` with a seed derived from ``seed``,
    merge and score; with ``trace_dir`` set, write the agents' episode
    traces there."""
    labeled = sample_labeled_subset(norm, config.label_proportion, seed)
    seed_rng = np.random.default_rng(seed)
    results = []
    for pid, part in enumerate(partitions):
        agent_seed = int(seed_rng.integers(2 ** 63))
        results.append(run_agent(part, norm, labeled, config, agent_seed,
                                 policy, pid))
    if trace_dir is not None:
        _write_traces(trace_dir, seed, results)
    merged = merge_agent_results(results, norm.n, num_rounds=config.round_budget)
    nmi_series, ari_series = best_round_series(merged.round_assignments,
                                               norm.labels)
    summary = {
        "seed": seed,
        "nmi_series": nmi_series,
        "ari_series": ari_series,
        "final_nmi": nmi_series[-1],
        "final_ari": ari_series[-1],
        "num_clusters": int(merged.final.num_clusters),
        "agents": [_agent_summary(r) for r in results],
    }
    return summary, merged.final.assignment


def _set_up(raw: Dataset, config: RunConfig, allocate: bool = True
            ) -> Tuple[Dataset, SelectKResult, Optional[EncodingTree],
                       Optional[AgentAllocation]]:
    """Check and normalize the data, select k and, when ``allocate`` is
    set, build the encoding tree and the agent allocation.  k selection
    needs at least 3 points, and its dense arrays, and the tree's when
    one is built, must fit in the memory available."""
    if raw.n < 3:
        raise DataError(f"dataset too small for k selection: {raw.n} points, "
                        "need at least 3")
    norm = normalize(raw)
    try:
        sel = select_k(norm.points, cap=config.k_sweep_cap, tree=allocate)
    except InsufficientMemoryError as exc:
        raise DataError(str(exc)) from exc
    if not allocate:
        return norm, sel, None, None
    tree = optimize_two_level(sel.graph)
    alloc = allocate_agents(tree, sel.k, config.alloc_eps, config.alloc_minpts)
    return norm, sel, tree, alloc


def _run_seeds(norm: Dataset, sel: Optional[SelectKResult],
               partitions: List[np.ndarray], config: RunConfig,
               policy: Policy,
               trace_dir: Optional[Path] = None) -> Tuple[dict, np.ndarray]:
    """Every configured seed through ``_run_seed``, all sharing one
    ``partition_index`` record per partition; returns the report body and
    the first seed's merged assignment.  Without a k selection (``sel``
    None) the body reports ``selected_k`` null and no stable points."""
    records = [partition_index(norm, part) for part in partitions]
    per_seed = []
    first_assignment: Optional[np.ndarray] = None
    for seed in config.seeds:
        summary, assignment = _run_seed(norm, records, config, seed,
                                        policy, trace_dir)
        per_seed.append(summary)
        if first_assignment is None:
            first_assignment = assignment

    body = {
        "n": int(norm.n),
        "selected_k": None if sel is None else int(sel.k),
        "stable_points": [] if sel is None else [int(k) for k in sel.stable_ks],
        "num_agents": len(partitions),
        "partition_sizes": [int(p.size) for p in partitions],
        "per_seed": per_seed,
    }
    body.update(_aggregate(per_seed))
    return body, first_assignment


def run_offline_pipeline(raw: Dataset, config: RunConfig,
                         trace_dir: Optional[Path] = None
                         ) -> Tuple[dict, np.ndarray, Dataset]:
    """Full pipeline on one dataset; returns the report body, the first
    seed's merged assignment and the normalized dataset."""
    norm, sel, _, alloc = _set_up(raw, config,
                                  allocate=not config.single_agent)
    partitions = [np.arange(norm.n)] if alloc is None else list(alloc.partitions)
    body, assignment = _run_seeds(norm, sel, partitions, config, lattice_walk,
                                  trace_dir)
    return body, assignment, norm


# ---------------------------------------------------------------------------
# output files


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_assignment(path: Path, assignment: np.ndarray,
                      column: str = "cluster_id") -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["point_index", column])
        for i, c in enumerate(assignment):
            writer.writerow([i, int(c)])


def _cluster_color(cid: int) -> str:
    if cid == NOISE:
        return "#9aa0a6"
    hue = (cid * 137.508) % 360.0
    return f"hsl({hue:.1f}, 65%, 45%)"


def _write_svg(path: Path, points: np.ndarray, assignment: np.ndarray) -> None:
    size, margin = 640, 30
    span = size - 2 * margin
    xs = points[:, 0]
    ys = points[:, 1] if points.shape[1] > 1 else np.full(len(points), 0.5)
    rows = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for x, y, c in zip(xs, ys, assignment):
        px = margin + float(x) * span
        py = size - margin - float(y) * span
        rows.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" '
                    f'fill="{_cluster_color(int(c))}" fill-opacity="0.8"/>')
    rows.append("</svg>")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _write_traces(trace_dir: Path, seed: int,
                  results: List[AgentResult]) -> None:
    """One ``trace_{seed}_{agent}_{i}.json`` per episode, ``i`` being the
    episode's position in the agent's ``episodes``."""
    for res in results:
        in_layer: Counter = Counter()
        for i, trace in enumerate(res.episodes):
            payload = {
                "agent": res.partition_id,
                "layer": trace.layer,
                "episode_in_layer": in_layer[trace.layer],
                "start": {"eps": trace.start.eps,
                          "min_pts": trace.start.min_pts},
                "stop_reason": trace.stop_reason,
                "steps": [
                    {
                        "action": step.action.name,
                        "eps": step.params.eps,
                        "min_pts": step.params.min_pts,
                        "immediate": step.immediate,
                        "num_clusters": step.num_clusters,
                    }
                    for step in trace.steps
                ],
                "episode_rewards": list(trace.rewards),
            }
            in_layer[trace.layer] += 1
            _write_json(
                trace_dir / f"trace_{seed}_{res.partition_id}_{i}.json",
                payload)


# ---------------------------------------------------------------------------
# commands


def _load_dataset(config: RunConfig) -> Dataset:
    if not config.dataset:
        raise ValueError("config must set a dataset path")
    path = Path(config.dataset)
    if not path.exists():
        raise DataError(f"dataset not found: {path}")
    try:
        return load_csv(path)
    except ValueError as exc:
        raise DataError(f"unreadable dataset {path}: {exc}") from exc


def _write_run(out_dir: Path, config: RunConfig, body: dict,
               assignment: np.ndarray, norm: Dataset, started: float) -> dict:
    """report.json, assignment.csv and clusters.svg of one run."""
    report = {
        "mode": config.mode,
        "dataset": config.dataset,
        "config": asdict(config),
        **body,
        "wall_clock_seconds": time.perf_counter() - started,
    }
    _write_json(out_dir / "report.json", report)
    _write_assignment(out_dir / "assignment.csv", assignment)
    _write_svg(out_dir / "clusters.svg", norm.points, assignment)
    return report


def cmd_cluster(config: RunConfig, out_dir: Path, trace: bool = False) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    raw = _load_dataset(config)
    started = time.perf_counter()
    body, assignment, norm = run_offline_pipeline(
        raw, config, trace_dir=out_dir if trace else None)
    return _write_run(out_dir, config, body, assignment, norm, started)


def cmd_allocate(config: RunConfig, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    raw = _load_dataset(config)
    started = time.perf_counter()
    norm, sel, tree, alloc = _set_up(raw, config)

    partitions = []
    for pid, part in enumerate(alloc.partitions):
        members = sorted(nid for nid, p in alloc.node_to_partition.items()
                         if p == pid)
        partitions.append({
            "agent": pid,
            "size": int(part.size),
            "nodes": members,
            "uncertainties": [alloc.uncertainties[nid] for nid in members],
        })
    report = {
        "mode": config.mode,
        "dataset": config.dataset,
        "selected_k": int(sel.k),
        "stable_points": [int(k) for k in sel.stable_ks],
        "num_agents": len(alloc.partitions),
        "partitions": partitions,
        "tree_nodes": tree.export_nodes(sel.k),
        "wall_clock_seconds": time.perf_counter() - started,
    }
    _write_json(out_dir / "allocation.json", report)
    agent_of = np.full(norm.n, -1, dtype=np.int64)
    for pid, part in enumerate(alloc.partitions):
        agent_of[part] = pid
    _write_assignment(out_dir / "allocation.csv", agent_of, column="agent_id")
    return report


def cmd_online(config: RunConfig, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    raw = _load_dataset(config)
    started = time.perf_counter()
    try:
        blocks = split_blocks(raw, config.num_blocks)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    block_reports = []
    for index, block in enumerate(blocks):
        body, assignment, _ = run_offline_pipeline(block, config)
        block_reports.append({"block": index, **body})
        _write_assignment(out_dir / f"assignment_block_{index}.csv", assignment)
    report = {
        "mode": config.mode,
        "dataset": config.dataset,
        "config": asdict(config),
        "num_blocks": config.num_blocks,
        "blocks": block_reports,
        "wall_clock_seconds": time.perf_counter() - started,
    }
    _write_json(out_dir / "report.json", report)
    return report


def cmd_baseline_random(config: RunConfig, out_dir: Path) -> dict:
    """Random-draw reference: the whole dataset is one partition searched
    by ``run_agent`` with ``random_draws``; k selection and allocation are
    skipped, so 2 points are enough."""
    out_dir.mkdir(parents=True, exist_ok=True)
    raw = _load_dataset(config)
    if raw.n < 2:
        raise DataError(f"dataset too small: {raw.n} points, need at least 2")
    started = time.perf_counter()
    norm = normalize(raw)
    body, assignment = _run_seeds(norm, None, [np.arange(norm.n)], config,
                                  random_draws)
    return _write_run(out_dir, config, body, assignment, norm, started)


# ---------------------------------------------------------------------------
# argument parsing


def _parse_seeds(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part.strip() != ""]


def _flag_kwargs(hint: Any) -> dict:
    """How a flag parses the config field annotated ``hint``: ``bool`` as
    ``--x/--no-x``, ``list[int]`` as comma-separated ints, ``X | None``
    as ``X`` and any other type by calling it."""
    if hint is bool:
        return {"action": argparse.BooleanOptionalAction}
    if get_origin(hint) is list:
        return {"type": _parse_seeds}
    if get_origin(hint) in (Union, UnionType):
        (hint,) = (arg for arg in get_args(hint) if arg is not type(None))
    return {"type": hint}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for name, hint in get_type_hints(RunConfig).items():
        parser.add_argument("--" + name, dest=name, default=argparse.SUPPRESS,
                            help=f"override config key {name}",
                            **_flag_kwargs(hint))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ardbscan",
        description="adaptive multi-agent DBSCAN parameter search")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("cluster", "allocate", "online", "baseline"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=".", help="output directory")
        if name == "cluster":
            p.add_argument("--trace", action="store_true",
                           help="write per-episode trace files")
        _add_config_flags(p)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    with open(args.config, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config file must contain a JSON object")
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if hasattr(args, f.name)
    }
    return RunConfig.from_dict({**raw, **overrides})


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        config = _config_from_args(args)
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "cluster":
            report = cmd_cluster(config, out_dir, trace=args.trace)
            print(f"cluster: mean NMI {report['mean_nmi']:.4f} "
                  f"(k={report['selected_k']}, "
                  f"{report['num_agents']} agents) -> {out_dir / 'report.json'}")
        elif args.command == "allocate":
            report = cmd_allocate(config, out_dir)
            print(f"allocate: {report['num_agents']} agents "
                  f"(k={report['selected_k']}) -> {out_dir / 'allocation.json'}")
        elif args.command == "online":
            report = cmd_online(config, out_dir)
            means = [b["mean_nmi"] for b in report["blocks"]]
            print(f"online: per-block mean NMI "
                  f"{', '.join(f'{m:.4f}' for m in means)} "
                  f"-> {out_dir / 'report.json'}")
        else:
            report = cmd_baseline_random(config, out_dir)
            print(f"baseline: mean NMI {report['mean_nmi']:.4f} "
                  f"-> {out_dir / 'report.json'}")
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return 0

"""Run one ``ardbscan cluster`` command in this fresh process, then check it.

    python3 perfbench/child.py --root . \\
        --config work/config.json --out work/out --result work/result.json

The command runs through ``ardbscan.cli_harness.main``, exactly as the
``ardbscan`` entry point runs it.  Probes at a few call sites record
when each search seed starts and keep references to the objects the
checks need; with ``--trace 1`` every layer's public calls also become
spans.  Once the command has returned, its outputs are checked with
``validate`` and a JSON summary goes to ``--result``.  With
``--setup-only 1`` the command is stopped where the first seed would
start, which times its set-up alone.  All timestamps
are ``time.perf_counter()`` values, which share one monotonic clock
with the parent process.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

import spans


class SetupDone(BaseException):
    """Stops a set-up probe; not an ``Exception``, so ``main`` lets it out."""


class Capture:
    """What the checks need, taken at the call sites of ``cli_harness``."""

    def __init__(self, tracer: spans.Tracer | None,
                 setup_only: bool = False) -> None:
        self.tracer = tracer
        self.setup_only = setup_only
        self.seed = -1
        self.seed_starts: list[float] = []
        self.seeds_end: float | None = None
        self.norm = None
        self.agents: list[list] = []
        self.rounds: list[list] = []

    def _start_seed(self, args) -> None:
        self.seed_starts.append(time.perf_counter())
        if self.setup_only:
            raise SetupDone
        self.seed += 1
        self.agents.append([])
        self.rounds.append([])
        if self.tracer is not None:
            self.tracer.request = self.seed

    def _end_seeds(self, args) -> None:
        self.seeds_end = time.perf_counter()

    def _normalized(self, args, out) -> None:
        if self.norm is None:
            self.norm = out

    def _agent(self, args, out) -> None:
        self.agents[self.seed].append(out)

    def _scored(self, args) -> None:
        self.rounds[self.seed] = list(args[0])

    def install(self, cli) -> None:
        spans.wrap(cli, "sample_labeled_subset", before=self._start_seed)
        spans.wrap(cli, "_aggregate", before=self._end_seeds)
        spans.wrap(cli, "normalize", after=self._normalized)
        spans.wrap(cli, "run_agent", after=self._agent)
        spans.wrap(cli, "best_round_series", before=self._scored)


def _read_assignment(path: Path) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([int(r[1]) for r in rows], dtype=np.int64)


def check(capture: Capture, report: dict, out_dir: Path) -> list:
    """Problems found per seed, in seed order (an empty list is a pass)."""
    import validate  # scipy.spatial, which the program itself never loads

    points, truth = capture.norm.points, capture.norm.labels
    n = points.shape[0]
    written = _read_assignment(out_dir / "assignment.csv")
    per_seed = []
    for i, summary in enumerate(report["per_seed"]):
        problems = []
        if i >= len(capture.rounds) or not capture.rounds[i]:
            per_seed.append(["seed was not scored"])
            continue
        final_nmi, final_ari = validate.best_round(capture.rounds[i], truth)
        if abs(final_nmi - summary["final_nmi"]) > 1e-12:
            problems.append(f"final_nmi {summary['final_nmi']!r} != "
                            f"recomputed {final_nmi!r}")
        if abs(final_ari - summary["final_ari"]) > 1e-12:
            problems.append(f"final_ari {summary['final_ari']!r} != "
                            f"recomputed {final_ari!r}")
        agents = sorted(capture.agents[i], key=lambda a: a.partition_id)
        parts = [a.partition for a in agents]
        problems += validate.partition_problems(parts, n)
        for agent, reported in zip(agents, summary["agents"]):
            if (reported["eps"], reported["min_pts"], reported["size"]) != \
                    (agent.params.eps, agent.params.min_pts,
                     agent.partition.size):
                problems.append(f"agent {agent.partition_id} summary "
                                "does not match its result")
            problems += validate.dbscan_problems(
                points[agent.partition], agent.params.eps,
                agent.params.min_pts, agent.assignment)
        final = validate.merge(parts, [a.assignment for a in agents], n)
        if i == 0 and not np.array_equal(written, final):
            problems.append("assignment.csv is not the first seed's labeling")
        per_seed.append(problems)
    return per_seed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-only", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    sys.path.insert(0, str(Path(args.root).resolve() / "src"))
    from ardbscan import cli_harness

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        spans.install(tracer)
    capture = Capture(tracer, setup_only=bool(args.setup_only))
    capture.install(cli_harness)

    out_dir = Path(args.out)
    try:
        code = cli_harness.main(["cluster", "--config", args.config,
                                 "--out", str(out_dir)])
    except SetupDone:
        Path(args.result).write_text(json.dumps(
            {"exit_code": 0, "seed_starts": capture.seed_starts}) + "\n",
            encoding="utf-8")
        return 0
    end = time.perf_counter()
    result = {
        "exit_code": code,
        "end": end,
        "seed_starts": capture.seed_starts,
        "seeds_end": capture.seeds_end,
        "peak_rss_mb": spans.rss_mb(),
    }
    if code == 0:
        report = json.loads((out_dir / "report.json").read_text("utf-8"))
        result["problems"] = check(capture, report, out_dir)
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.spans)
        (out_dir / "spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "seed", "info"],
             "spans": tracer.spans}) + "\n", encoding="utf-8")
    Path(args.result).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

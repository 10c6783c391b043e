"""Benchmark of ``ardbscan cluster`` on seeded synthetic workloads.

    python3 perfbench/run.py --workload single-2k --seed 1 --seconds 55 --trace 0

Run from a source checkout (the program is imported from ``src/``).  The
seed generates the workload's data draws and configs.  A warm-up process
first imports the program, untimed.  With ``--trace 0`` the workload's
set-up probes then run (fresh processes that stop where the first search
seed would start), and the command runs once per draw, each time in a
fresh process, and then again on the draws in turn until ``--seconds``
is used; repeats of a draw must write the same report.  Every process
runs numpy's BLAS on one thread.  With ``--trace 1`` the command runs
on the first draw once untraced and once traced, and the traced run's
per-layer metrics are reported.  Every command's outputs are checked
(see ``child.py``).  A table goes to standard output, followed by one
JSON line with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full record (samples, environment, problems found) is written
under ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the program's matrix products are small, and on a
# box with few cores a second BLAS thread spins against the scheduler and
# makes the same command's time vary by tens of percent.  Set before
# numpy loads, so this process reports what the commands use.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170  # commands still running this long after the start are killed


def run_command(workload, config: Path, work: Path, name: str,
                trace: int, limit: float, setup_only: bool = False) -> dict:
    """One command in a fresh process: its timings, report and problems.
    With ``setup_only`` the process stops where the first seed starts."""
    out = work / name
    result = work / f"{name}.json"
    with open(work / f"{name}.log", "w", encoding="utf-8") as log:
        spawn = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
             "--config", str(config),
             "--out", str(out), "--result", str(result),
             "--trace", str(trace), "--setup-only", str(int(setup_only))],
            stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
            timeout=max(1.0, limit - spawn))
        finished = time.perf_counter()
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError(f"benchmark child failed; see {work}/{name}.log")
    rec = json.loads(result.read_text("utf-8"))
    rec["duration_s"] = finished - spawn
    if setup_only:
        if rec["exit_code"] != 0 or not rec["seed_starts"]:
            raise RuntimeError(f"set-up probe failed; see {work}/{name}.log")
        return {"setup_s": rec["seed_starts"][0] - spawn}
    if rec["exit_code"] != 0:
        return rec
    rec["report"] = json.loads((out / "report.json").read_text("utf-8"))
    bounds = rec["seed_starts"] + [rec["seeds_end"]]
    rec["wall_s"] = rec["end"] - spawn
    rec["setup_s"] = bounds[0] - spawn
    rec["seed_s"] = [b - a for a, b in zip(bounds, bounds[1:])]
    return rec


def warm_up(limit: float) -> None:
    """Import what every command imports once, untimed, so that the first
    timed command does not pay for a cold file cache."""
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
         "import ardbscan.cli_harness, scipy.spatial"],
        cwd=ROOT, check=True, timeout=max(1.0, limit - time.perf_counter()))


def blas_threads() -> str:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() or "not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        commit = "git unavailable"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k, "unset") for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS")},
        "commit": commit,
    }


def problems_of(workload, commands: list, configs: list) -> list:
    """Every check that failed, over all commands of a run."""
    problems, first_report = [], {}
    for c in commands:
        draw = c["draw"]
        if c["exit_code"] != 0:
            problems.append(f"draw {draw}: command exited {c['exit_code']}")
            continue
        problems += [f"draw {draw} seed {i}: {msg}"
                     for i, seed in enumerate(c["problems"]) for msg in seed]
        data = json.loads(configs[draw].read_text("utf-8"))["dataset"]
        with open(data, encoding="utf-8") as fh:
            d = fh.readline().count(",")
        problems += workloads.check_shape(workload, c["report"], d)
        report = {k: v for k, v in c["report"].items()
                  if k != "wall_clock_seconds"}
        if first_report.setdefault(draw, report) != report:
            problems.append(f"draw {draw}: a repeat wrote a different report")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ardbscan" / "cli_harness.py").is_file():
        print(f"no ardbscan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / label
    draws = 1 if args.trace else workload.datasets
    configs = [workloads.write(workload, args.seed, i, work)
               for i in range(draws)]

    started = time.perf_counter()
    deadline, limit = started + args.seconds, started + RUN_LIMIT_S
    warm_up(limit)
    probes = [] if args.trace else [
        run_command(workload, configs[i % draws], work, f"setup{i}", 0, limit,
                    setup_only=True)["setup_s"]
        for i in range(workload.setup_probes)]
    commands = []
    while True:
        draw = len(commands) % draws
        commands.append(run_command(workload, configs[draw], work,
                                    f"command{len(commands)}", 0, limit))
        commands[-1]["draw"] = draw
        longest = max(c["duration_s"] for c in commands)
        if args.trace or (len(commands) >= draws
                          and time.perf_counter() + longest > deadline):
            break
    if args.trace:
        commands.append(run_command(workload, configs[0], work,
                                    f"command{len(commands)}", 1, limit))
        commands[-1]["draw"] = 0

    problems = problems_of(workload, commands, configs)
    ok = [c for c in commands if c["exit_code"] == 0]
    if len(ok) < len(commands):
        for msg in problems:
            print("problem:", msg, file=sys.stderr)
        return 1
    seeds = workload.search_seeds
    attempted = len(commands) * seeds
    failed = sum(bool(p) for c in commands for p in c["problems"])

    untraced = [c for c in commands if "layers" not in c]
    reports = [c["report"] for c in untraced[:draws]]
    # each command runs the same search seeds, whose costs differ; the
    # mean over a command's seeds keeps that mix in every sample
    seed_times = [statistics.fmean(c["seed_s"]) for c in untraced]
    setup_times = [c["setup_s"] for c in untraced] + probes
    if args.trace:
        metrics = dict(commands[-1]["layers"])
        metrics["trace.overhead_s"] = (
            commands[-1]["wall_s"] - commands[0]["wall_s"], "s")
        notes = {name: "one traced command" for name in metrics}
    else:
        n_cmd = len(untraced)
        metrics = {
            "wall_s": (statistics.median(c["wall_s"] for c in untraced), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "seed_s": (statistics.median(seed_times), "s"),
            "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in untraced),
                            "MiB"),
            "valid_frac": (1.0 - failed / attempted, "ratio"),
            "mean_nmi": (statistics.fmean(r["mean_nmi"] for r in reports),
                         "score"),
            "mean_ari": (statistics.fmean(r["mean_ari"] for r in reports),
                         "score"),
        }
        quality = f"mean of {len(reports)} draws x {seeds} search seeds"
        notes = {
            "wall_s": f"median of {n_cmd} commands",
            "setup_s": f"median of {n_cmd} commands and {len(probes)} "
                       "set-up probes",
            "seed_s": f"median over {n_cmd} commands of the mean over "
                      f"their {seeds} seeds",
            "peak_rss_mb": f"median of {n_cmd} commands",
            "valid_frac": f"{attempted - failed} of {attempted} seeds valid",
            "mean_nmi": quality,
            "mean_ari": quality,
        }

    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "trace": args.trace,
        "draws": draws, "search_seeds": seeds,
        "metrics": {k: {"value": v, "unit": u, "note": notes[k]}
                    for k, (v, u) in metrics.items()},
        "samples": {
            "draw": [c["draw"] for c in untraced],
            "wall_s": [c["wall_s"] for c in untraced],
            "setup_s": [c["setup_s"] for c in untraced],
            "setup_probe_s": probes,
            "seed_s": [c["seed_s"] for c in untraced],
            "peak_rss_mb": [c["peak_rss_mb"] for c in untraced],
        },
        "num_agents": [r["num_agents"] for r in reports],
        "partition_sizes": [r.get("partition_sizes") for r in reports],
        "problems": problems,
        "environment": environment(),
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{label}.json").write_text(json.dumps(record, indent=2) + "\n",
                                           encoding="utf-8")

    print(f"{workload.name}: ardbscan cluster, seed {args.seed}, "
          f"{draws} data draws x {seeds} search seeds, "
          f"agents per draw {record['num_agents']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:6s}  {notes[name]}")
    env = record["environment"]
    print(f"  environment: nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']} "
          f"blas_threads={env['blas_threads']} commit={env['commit']}")
    for msg in problems:
        print("  problem:", msg)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Check that two source trees write the same outputs.

    python3 tools/compare_outputs.py --parent-src OLD/src --change-src NEW/src

Each tree runs the same ``ardbscan`` commands on the same inputs, in fresh
processes with that tree on ``PYTHONPATH``, BLAS on one thread,
``PYTHONDONTWRITEBYTECODE=1`` (so neither tree gains a ``__pycache__``)
and ``-W error::RuntimeWarning`` (as the test suite runs), so a change
that starts to warn on any input shows as a differing exit code:

- a 60-point three-blob CSV with a small config and seeds 0 and 1:
  ``cluster --trace``, ``cluster --single_agent``, ``cluster --mode
  online`` (the mode-resolved layer count and ``min_pts`` cap),
  ``allocate``, ``online`` and ``baseline``;
- 4 distinct points each repeated 8 times (n = 32), with the same config:
  ``cluster`` and ``baseline``.  Exact duplicates give zero-weight edges
  in DBSCAN's spanning trees;
- a 30 x 30 unit lattice labelled by quadrant, with the same config:
  ``cluster`` and ``allocate``.  Equal distances tie many neighbor ranks,
  edge weights and merge deltas.  Again ``allocate --alloc_eps 1e-6
  --alloc_minpts 2``, the one run whose 1-D allocation DBSCAN leaves
  noise: 10 agents, where communities 902 and 910, and 906 and 908, pool
  and 900, 901, 903 and others run alone, so agents of noise communities
  are numbered between pooled ones;
- a seeded mixture of three 8-D Gaussians, 80 points each, with the same
  config: ``cluster`` and ``allocate``.  Every other input is 2-D, and
  only d >= 3 shows the order in which a distance's squared coordinate
  differences are summed.  Again with ``--alloc_eps 5e-5``: ``allocate``
  and ``cluster``.  That radius gives 4 agents, and agent 0 pools
  communities 240, 242 and 243 while agent 1 holds 241, the one run
  where an agent pools communities that are not adjacent beside other
  agents;
- 1,599 copies of one point plus one far point, at the default
  ``k_sweep_cap``: ``allocate``.  At k = n - 1 the far point's edge
  weights underflow to 0, the only zero-volume vertex of any input, and
  the copies' merge deltas tie exactly, so the tie rule alone orders the
  merges;
- the benchmark's ``agents-500`` workload, draw 0, benchmark seed 1:
  ``cluster --trace``, ``allocate``, ``online --num_blocks 2`` (each
  250-point block selects k, builds its tree and runs several agents,
  so per-block partition records are compared above toy size) and
  ``baseline --seeds 0,1,2`` (three seeds' random ``min_pts`` draws over
  one whole-set DBSCAN index);
- the benchmark's ``single-2k`` workload, draw 0, benchmark seed 1:
  ``cluster``, ``cluster --seeds 0,1,2,3`` (later seeds reach the spanning
  trees earlier seeds built, at other layers), ``allocate`` (every
  tree node's entropy and uncertainty at n = 2000) and ``baseline
  --seeds 0,1`` (one partition of 2,000 points, whose random ``min_pts``
  draws cover the whole box, so its neighbour-distance table is rebuilt
  wider and sets the search's peak);
- the same six-Gaussian layout at n = 5,000 (``single-2k`` with n
  replaced), draw 0, benchmark seed 1: ``allocate``.  The default cap of
  2048 is below n - 1, so the tree runs on a strict prefix of a large
  edge table, which no other input gives.

The benchmark draws come from ``perfbench/workloads.py``, imported and not
modified.  ``wall_clock_seconds`` is dropped from every JSON output; every
other file, and each command's exit code, must match byte for byte.  Every
file that differs or exists on one side only is listed, and the exit code
is 1 if there is any.  Under each JSON file found on both sides that
differs, the first few key paths whose values differ are listed with both
values (``selected_k: 16 -> null``, ``per_seed[1].final_nmi: ...``), so a
change that moves outputs shows which values moved.  Each command's max
RSS and minor page faults on each side (``ru_maxrss`` and ``ru_minflt``
from ``os.wait4``) are reported too: max RSS for every run whose peak
the set-up sets (``SET_UP_RUNS``), and both for the commands where they
moved most; neither counts as a difference.  Faults show memory churn
that the peak hides: updates that allocate temporaries the size of a
whole network can multiply a run's faults (agents-500 ``cluster
--trace`` reads about 14-16k) while its max RSS hardly moves.  On the
single-2k runs ``cluster``'s peak is set-up's, as ``allocate``'s is:
over two output paths, ``cluster`` (one or four seeds) read 92.7-94.5
MiB and ``allocate`` 86.7-86.8 MiB, and six-Gaussian-5k ``allocate``
195.2-195.3 MiB.  ``baseline`` sets up nothing, so its peak is the
search's, which the DBSCAN neighbour-distance table sets (about 51
MiB).  Earlier commits, whose single-2k runs read 114.6-118.3 MiB,
also read a 130-133 MiB mode for the same code, following incidental
context such as the output path; a reading in such a mode says nothing
about a change.  A full
comparison takes about two minutes on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # leave perfbench/ exactly as checked out
import workloads  # noqa: E402

BLOB_CONFIG = {
    "mode": "offline",
    "seeds": [0, 1],
    "round_budget": 8,
    "episodes": 3,
    "max_steps": 6,
    "l_max": 2,
    "hidden_width": 8,
    "body_width": 32,
    "k_sweep_cap": 16,
}

# (input, command, extra flags)
RUNS = [
    ("blobs", "cluster", ["--trace"]),
    ("blobs", "cluster", ["--single_agent"]),
    ("blobs", "cluster", ["--mode", "online"]),
    ("blobs", "allocate", []),
    ("blobs", "online", ["--num_blocks", "3"]),
    ("blobs", "baseline", []),
    ("duplicates", "cluster", []),
    ("duplicates", "baseline", []),
    ("lattice", "cluster", []),
    ("lattice", "allocate", []),
    ("lattice", "allocate", ["--alloc_eps", "1e-6", "--alloc_minpts", "2"]),
    ("mixture-8d", "cluster", []),
    ("mixture-8d", "allocate", []),
    ("mixture-8d", "allocate", ["--alloc_eps", "5e-5"]),
    ("mixture-8d", "cluster", ["--alloc_eps", "5e-5"]),
    ("outlier", "allocate", []),
    ("agents-500", "cluster", ["--trace"]),
    ("agents-500", "allocate", []),
    ("agents-500", "online", ["--num_blocks", "2"]),
    ("agents-500", "baseline", ["--seeds", "0,1,2"]),
    ("single-2k", "cluster", []),
    ("single-2k", "cluster", ["--seeds", "0,1,2,3"]),
    ("single-2k", "allocate", []),
    ("single-2k", "baseline", ["--seeds", "0,1"]),
    ("six-gaussian-5k", "allocate", []),
]

MOVES_SHOWN = 8  # runs listed by how far their max RSS or faults moved
# the runs whose peak the set-up (k selection and the tree) sets, whose
# max RSS is always listed
SET_UP_RUNS = ["single-2k_cluster", "single-2k_cluster_seeds_0,1,2,3",
               "single-2k_allocate", "six-gaussian-5k_allocate"]
KEYS_SHOWN = 5  # differing key paths listed per differing JSON file
VALUE_WIDTH = 40  # characters of each side's value shown beside a key path


def write_blobs(out_dir: Path) -> Path:
    """Three Gaussian blobs of 20 points each; returns the config path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(42)
    points = np.vstack([rng.normal((0.1, 0.1), 0.02, size=(20, 2)),
                        rng.normal((0.9, 0.1), 0.02, size=(20, 2)),
                        rng.normal((0.5, 0.9), 0.05, size=(20, 2))])
    data = out_dir / "blobs.csv"
    data.write_text("".join(f"{x:.6f},{y:.6f},{i // 20}\n"
                            for i, (x, y) in enumerate(points)))
    config = out_dir / "config.json"
    config.write_text(json.dumps({**BLOB_CONFIG, "dataset": str(data)}))
    return config


def write_duplicates(out_dir: Path) -> Path:
    """4 distinct points, each repeated 8 times in turn, labeled by point;
    returns the config path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    corners = [(0.1, 0.2), (0.8, 0.1), (0.3, 0.9), (0.7, 0.7)]
    data = out_dir / "duplicates.csv"
    data.write_text("".join(f"{x},{y},{i % 4}\n" for i, (x, y) in
                            enumerate(corners * 8)))
    config = out_dir / "config.json"
    config.write_text(json.dumps({**BLOB_CONFIG, "dataset": str(data)}))
    return config


def write_lattice(out_dir: Path, side: int = 30) -> Path:
    """Integer grid points, labelled by quadrant; returns the config
    path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    half = side // 2
    data = out_dir / "lattice.csv"
    data.write_text("".join(f"{x},{y},{(x >= half) + 2 * (y >= half)}\n"
                            for x in range(side) for y in range(side)))
    config = out_dir / "config.json"
    config.write_text(json.dumps({**BLOB_CONFIG, "dataset": str(data)}))
    return config


def write_mixture_8d(out_dir: Path) -> Path:
    """Three 8-D Gaussian blobs of 80 points each, coordinates written in
    full precision; returns the config path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(8)
    centers = rng.random((3, 8))
    data = out_dir / "mixture-8d.csv"
    data.write_text("".join(
        ",".join(repr(float(x)) for x in rng.normal(centers[label], 0.08))
        + f",{label}\n" for label in np.repeat(np.arange(3), 80)))
    config = out_dir / "config.json"
    config.write_text(json.dumps({**BLOB_CONFIG, "dataset": str(data)}))
    return config


def write_outlier(out_dir: Path) -> Path:
    """1,599 copies of one point and one far point, labeled apart, with the
    default ``k_sweep_cap``; returns the config path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    data = out_dir / "outlier.csv"
    data.write_text("0.5,0.5,0\n" * 1599 + "100.0,100.0,1\n")
    config = out_dir / "config.json"
    settings = {key: value for key, value in BLOB_CONFIG.items()
                if key != "k_sweep_cap"}
    config.write_text(json.dumps({**settings, "dataset": str(data)}))
    return config


def write_inputs(in_dir: Path) -> dict:
    configs = {"blobs": write_blobs(in_dir / "blobs"),
               "duplicates": write_duplicates(in_dir / "duplicates"),
               "lattice": write_lattice(in_dir / "lattice"),
               "mixture-8d": write_mixture_8d(in_dir / "mixture-8d"),
               "outlier": write_outlier(in_dir / "outlier")}
    for name in ("agents-500", "single-2k"):
        configs[name] = workloads.write(workloads.WORKLOADS[name], 1, 0,
                                        in_dir / name)
    large = dataclasses.replace(workloads.WORKLOADS["single-2k"], n=5000)
    configs["six-gaussian-5k"] = workloads.write(large, 1, 0,
                                                 in_dir / "six-gaussian-5k")
    return configs


def run_tree(src: Path, configs: dict, out_root: Path) -> dict:
    """Run every command of ``RUNS`` on ``src``; returns each run's
    ``(max RSS in KiB, minor page faults)``, keyed by its output
    directory's name."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    usages = {}
    for name, command, flags in RUNS:
        out = out_root / "_".join([name, command,
                                   *(flag.lstrip("-") for flag in flags)])
        out.mkdir(parents=True)
        proc = subprocess.Popen(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "ardbscan",
             command,
             "--config", str(configs[name]), "--out", str(out), *flags],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        stderr = proc.stderr.read()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        usages[out.name] = (usage.ru_maxrss, usage.ru_minflt)
        (out / "exit_code.txt").write_text(f"{proc.returncode}\n")
        if proc.returncode != 0:
            print(f"{src}: {name} {command} exited {proc.returncode}: "
                  f"{stderr.strip()}", file=sys.stderr)
    return usages


def print_moves(usages: dict, field: int, title: str, scale: float,
                fmt: str, runs: Optional[list] = None) -> None:
    """List both sides' ``usages`` value at ``field`` for ``runs`` or, by
    default, for the ``MOVES_SHOWN`` runs where it moved most, each
    divided by ``scale``."""
    parent, change = usages["parent"], usages["change"]
    if runs is None:
        runs = sorted(parent, key=lambda run: -abs(change[run][field]
                                                   - parent[run][field]))
        runs, title = runs[:MOVES_SHOWN], f"{title}, largest moves first"
    print(f"{title}, parent -> change:")
    for run in runs:
        before = parent[run][field] / scale
        after = change[run][field] / scale
        print(f"  {run}: {before:{fmt}} -> {after:{fmt}} "
              f"({after - before:+{fmt}})")


def load_json(path: Path):
    payload = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(payload, dict):
        payload.pop("wall_clock_seconds", None)
    return payload


def canonical(path: Path) -> bytes:
    if path.suffix != ".json":
        return path.read_bytes()
    return json.dumps(load_json(path), indent=2, sort_keys=True).encode()


def shown(value) -> str:
    """A value's JSON text, cut to ``VALUE_WIDTH`` characters."""
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= VALUE_WIDTH else text[:VALUE_WIDTH - 3] + "..."


def differing_keys(a, b, path: str = "") -> list:
    """``(key path, parent value, change value)`` wherever two parsed JSON
    values differ, in key order: a key on one side only (its other value
    shown as ``(absent)``), a list whose length changed, or a leaf whose
    JSON text differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        found = []
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            if key in a and key in b:
                found += differing_keys(a[key], b[key], sub)
            else:
                found.append((sub, shown(a[key]) if key in a else "(absent)",
                              shown(b[key]) if key in b else "(absent)"))
        return found
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [found for i, (x, y) in enumerate(zip(a, b))
                for found in differing_keys(x, y, f"{path}[{i}]")]
    if json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True):
        return []
    return [(path or "(whole file)", shown(a), shown(b))]


def key_report(a: Path, b: Path) -> list:
    """Lines naming the first ``KEYS_SHOWN`` key paths at which two JSON
    files differ, each with both sides' values."""
    found = differing_keys(load_json(a), load_json(b))
    lines = [f"    {path}: {left} -> {right}"
             for path, left, right in found[:KEYS_SHOWN]]
    if len(found) > KEYS_SHOWN:
        lines.append(f"    ... and {len(found) - KEYS_SHOWN} more key paths")
    return lines


def differing_files(a: Path, b: Path) -> list:
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return sorted(rel for rel in files_a | files_b
                  if rel not in files_a or rel not in files_b
                  or canonical(a / rel) != canonical(b / rel))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent-src", required=True, type=Path,
                        help="source directory of the reference tree")
    parser.add_argument("--change-src", required=True, type=Path,
                        help="source directory of the tree under test")
    parser.add_argument("--work", type=Path, default=None,
                        help="keep inputs and outputs here (default: a "
                             "temporary directory, removed afterwards)")
    args = parser.parse_args(argv)
    if args.work is not None and args.work.exists() and any(args.work.iterdir()):
        parser.error(f"--work {args.work} is not empty")

    with tempfile.TemporaryDirectory() as tmp:
        work = args.work.resolve() if args.work else Path(tmp)
        configs = write_inputs(work / "inputs")
        usages = {side: run_tree(src.resolve(), configs, work / side)
               for side, src in (("parent", args.parent_src),
                                 ("change", args.change_src))}
        diffs = differing_files(work / "parent", work / "change")
        compared = sum(1 for p in (work / "parent").rglob("*") if p.is_file())
        details = {rel: key_report(work / "parent" / rel, work / "change" / rel)
                   for rel in diffs if rel.suffix == ".json"
                   and (work / "parent" / rel).is_file()
                   and (work / "change" / rel).is_file()}
    print_moves(usages, 0, "max RSS (MiB) of the set-up-heavy runs", 1024,
                ".1f", SET_UP_RUNS)
    print_moves(usages, 0, "max RSS (MiB)", 1024, ".1f")
    print_moves(usages, 1, "minor page faults", 1, ",.0f")
    for rel in diffs:
        print(f"differs: {rel}")
        for line in details.get(rel, []):
            print(line)
    print(f"{len(diffs)} of {compared} files differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())

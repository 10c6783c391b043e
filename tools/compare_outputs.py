"""Check that two source trees write the same outputs.

    python3 tools/compare_outputs.py --parent-src OLD/src --change-src NEW/src

Each tree runs the same ``ardbscan`` commands on the same inputs, in fresh
processes with that tree on ``PYTHONPATH`` and BLAS on one thread:

- a 60-point three-blob CSV with a small config and seeds 0 and 1:
  ``cluster --trace``, ``cluster --single_agent``, ``cluster --mode
  online`` (the mode-resolved layer count and ``min_pts`` cap),
  ``allocate``, ``online`` and ``baseline``;
- 4 distinct points each repeated 8 times (n = 32), with the same config:
  ``cluster`` and ``baseline``.  Exact duplicates give zero-weight edges
  in DBSCAN's spanning trees;
- a 30 x 30 unit lattice labelled by quadrant, with the same config:
  ``cluster`` and ``allocate``.  Equal distances tie many neighbor ranks,
  edge weights and merge deltas;
- the benchmark's ``agents-500`` workload, draw 0, benchmark seed 1:
  ``cluster --trace``, ``allocate``, ``online --num_blocks 2`` (each
  250-point block selects k, builds its tree and runs several agents,
  so per-block partition records are compared above toy size) and
  ``baseline --seeds 0,1,2`` (three seeds' random ``min_pts`` draws over
  one whole-set DBSCAN index);
- the benchmark's ``single-2k`` workload, draw 0, benchmark seed 1:
  ``cluster``, ``cluster --seeds 0,1,2,3`` (later seeds reach the spanning
  trees earlier seeds built, at other layers) and ``allocate`` (every
  tree node's entropy and uncertainty at n = 2000).

The benchmark draws come from ``perfbench/workloads.py``, imported and not
modified.  ``wall_clock_seconds`` is dropped from every JSON output; every
other file, and each command's exit code, must match byte for byte.  Every
file that differs or exists on one side only is listed, and the exit code
is 1 if there is any.  A full comparison takes about a minute and a half
on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

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
    ("agents-500", "cluster", ["--trace"]),
    ("agents-500", "allocate", []),
    ("agents-500", "online", ["--num_blocks", "2"]),
    ("agents-500", "baseline", ["--seeds", "0,1,2"]),
    ("single-2k", "cluster", []),
    ("single-2k", "cluster", ["--seeds", "0,1,2,3"]),
    ("single-2k", "allocate", []),
]


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


def write_inputs(in_dir: Path) -> dict:
    configs = {"blobs": write_blobs(in_dir / "blobs"),
               "duplicates": write_duplicates(in_dir / "duplicates"),
               "lattice": write_lattice(in_dir / "lattice")}
    for name in ("agents-500", "single-2k"):
        configs[name] = workloads.write(workloads.WORKLOADS[name], 1, 0,
                                        in_dir / name)
    return configs


def run_tree(src: Path, configs: dict, out_root: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(src)}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for name, command, flags in RUNS:
        out = out_root / "_".join([name, command,
                                   *(flag.lstrip("-") for flag in flags)])
        out.mkdir(parents=True)
        done = subprocess.run(
            [sys.executable, "-m", "ardbscan", command,
             "--config", str(configs[name]), "--out", str(out), *flags],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        (out / "exit_code.txt").write_text(f"{done.returncode}\n")
        if done.returncode != 0:
            print(f"{src}: {name} {command} exited {done.returncode}: "
                  f"{done.stderr.strip()}", file=sys.stderr)


def canonical(path: Path) -> bytes:
    if path.suffix != ".json":
        return path.read_bytes()
    payload = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(payload, dict):
        payload.pop("wall_clock_seconds", None)
    return json.dumps(payload, indent=2, sort_keys=True).encode()


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
        for side, src in (("parent", args.parent_src),
                          ("change", args.change_src)):
            run_tree(src.resolve(), configs, work / side)
        diffs = differing_files(work / "parent", work / "change")
        compared = sum(1 for p in (work / "parent").rglob("*") if p.is_file())
    for rel in diffs:
        print(f"differs: {rel}")
    print(f"{len(diffs)} of {compared} files differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())

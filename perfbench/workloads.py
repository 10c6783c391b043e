"""Seeded synthetic workloads for the benchmark.

A workload is a set of ``datasets`` inputs, each a headerless CSV in the
repository's dataset format (feature columns, then an integer label)
plus a JSON config for one ``ardbscan cluster`` command.  The layout of
every workload (centres, spreads, shapes, sizes, config) is fixed here; the
benchmark seed only draws the points, so two seeds give two samples of
the same workload.  The config's search seeds are fixed too
(0..search_seeds-1), which keeps quality comparable across data draws.

The property that makes each workload useful is checked after every
command by :func:`check_shape`; a generator change that alters which
layer is stressed then fails the run instead of silently measuring
something else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    d: int
    datasets: int         # data draws per benchmark run
    search_seeds: int     # config seeds 0..search_seeds-1
    setup_probes: int     # extra set-up-only processes per benchmark run
    config: dict          # RunConfig keys besides dataset and seeds


# six Gaussians in the unit square with deliberately unequal spreads
_CENTRES_2D = np.array([
    [0.15, 0.20], [0.50, 0.15], [0.85, 0.25],
    [0.20, 0.75], [0.55, 0.60], [0.85, 0.80],
])
_SPREADS = np.array([0.032, 0.056, 0.080, 0.048, 0.096, 0.040])
_WEIGHTS = np.array([0.20, 0.15, 0.20, 0.15, 0.15, 0.15])

# three equally likely Gaussians whose spreads differ 2.5x and 2x, so the
# tree gives each its own community with its own uncertainty
_CENTRES_3 = np.array([[0.2, 0.2], [0.8, 0.2], [0.5, 0.8]])
_SPREADS_3 = np.array([0.02, 0.05, 0.10])
_WEIGHTS_3 = np.full(3, 1.0 / 3.0)

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="single-2k",
            why="2-D six-Gaussian mixture, n=2000, default config: one agent, "
                "DBSCAN evaluation and select_k dominate",
            n=2000, d=2, datasets=3, search_seeds=2, setup_probes=0,
            config={},
        ),
        Workload(
            name="agents-500",
            why="2-D mixture of three Gaussians with unequal spreads, n=500, "
                "alloc_eps=1e-12: three agents, TD3 and build_state dominate",
            # the communities' uncertainties can differ by under 1e-8, so
            # only a tiny alloc_eps keeps them apart; two moons split into
            # 2 or 3 agents from draw to draw, which made the cost bimodal
            n=500, d=2, datasets=6, search_seeds=2, setup_probes=4,
            config={"alloc_eps": 1e-12},
        ),
    )
}


def _truncated_normal(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Standard normal draws redrawn until within 2.5 sd, so the min-max
    normalization (set by the extreme points) barely moves between seeds."""
    z = rng.normal(size=shape)
    while True:
        out = np.abs(z) > 2.5
        if not out.any():
            return z
        z[out] = rng.normal(size=int(out.sum()))


def _mixture(rng: np.random.Generator, n: int, centres: np.ndarray,
             spreads: np.ndarray,
             weights: np.ndarray = _WEIGHTS) -> tuple[np.ndarray, np.ndarray]:
    labels = np.sort(rng.choice(len(centres), size=n, p=weights))
    points = centres[labels] + _truncated_normal(rng, (n, centres.shape[1])) \
        * spreads[labels, None]
    return points, labels


def generate(workload: Workload, seed: int,
             index: int) -> tuple[np.ndarray, np.ndarray]:
    """Points and integer labels of data draw ``index`` for one seed;
    same arguments, same arrays."""
    rng = np.random.default_rng([seed, index, sum(map(ord, workload.name))])
    if workload.name == "agents-500":
        return _mixture(rng, workload.n, _CENTRES_3, _SPREADS_3, _WEIGHTS_3)
    return _mixture(rng, workload.n, _CENTRES_2D, _SPREADS)


def write(workload: Workload, seed: int, index: int, out_dir: Path) -> Path:
    """Write ``data<index>.csv`` and ``config<index>.json`` into out_dir;
    return the config path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    points, labels = generate(workload, seed, index)
    data = out_dir / f"data{index}.csv"
    with open(data, "w", encoding="utf-8") as fh:
        for row, label in zip(points, labels):
            fh.write(",".join(repr(float(x)) for x in row) + f",{int(label)}\n")
    config = {**workload.config, "dataset": str(data),
              "seeds": list(range(workload.search_seeds))}
    path = out_dir / f"config{index}.json"
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return path


def check_shape(workload: Workload, report: dict, d: int) -> list[str]:
    """Reasons a command did not stress the layers its workload is for."""
    problems = []
    if (report["n"], d) != (workload.n, workload.d):
        problems.append(f"{workload.name}: n={report['n']}, d={d}, expected "
                        f"n={workload.n}, d={workload.d}")
    agents = report["num_agents"]
    if workload.name == "single-2k" and agents != 1:
        problems.append(f"single-2k: {agents} agents, expected exactly 1")
    if workload.name == "agents-500" and agents < 2:
        problems.append(f"agents-500: {agents} agent, expected at least 2")
    return problems

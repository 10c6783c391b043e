"""Independent checks of one command's outputs.

Nothing here imports ``ardbscan``: DBSCAN validity is checked with
``scipy.spatial.cKDTree`` and the external indices are recomputed from
their definitions, so a bug shared by the program and its own test
oracles still shows up here.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

NOISE = -1


def dbscan_problems(points: np.ndarray, eps: float, min_pts: int,
                    labels: np.ndarray) -> list[str]:
    """Ways ``labels`` fails to be the documented DBSCAN result.

    Closed eps-balls that include the point itself; clusters are the
    connected components of core points, numbered 0..k-1 by their
    smallest core index; a non-core point within eps of a core point
    takes the smallest adjacent cluster id; every other point is noise.
    """
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    n = points.shape[0]
    if labels.shape != (n,):
        return [f"labeling has shape {labels.shape}, expected ({n},)"]
    tree = cKDTree(points)
    counts = tree.query_ball_point(points, eps, return_length=True)
    core = np.flatnonzero(counts >= min_pts)
    problems = []
    expected = np.full(n, NOISE, dtype=np.int64)
    if core.size:
        core_tree = cKDTree(points[core])
        pairs = core_tree.query_pairs(eps, output_type="ndarray")
        graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                           shape=(core.size, core.size))
        num, comp = connected_components(graph, directed=False)
        # number components by their smallest core index
        first = np.full(num, core.size)
        np.minimum.at(first, comp, np.arange(core.size))
        renum = np.empty(num, dtype=np.int64)
        renum[np.argsort(first)] = np.arange(num)
        comp = renum[comp]
        expected[core] = comp
        non_core = np.flatnonzero(counts < min_pts)
        for i, near in zip(non_core,
                           core_tree.query_ball_point(points[non_core], eps)):
            # near indexes core, so comp[near] are the adjacent clusters
            if near:
                expected[i] = comp[near].min()
    wrong = np.flatnonzero(expected != labels)
    if wrong.size:
        i = int(wrong[0])
        problems.append(
            f"{wrong.size} of {n} points mislabelled at eps={eps!r}, "
            f"min_pts={min_pts}; first is point {i}: got {int(labels[i])}, "
            f"expected {int(expected[i])} ({int(counts[i])} neighbours)")
    return problems


def _contingency(pred, truth) -> np.ndarray:
    _, p = np.unique(np.asarray(pred), return_inverse=True)
    _, t = np.unique(np.asarray(truth), return_inverse=True)
    cols = int(t.max()) + 1
    return np.bincount(p * cols + t, minlength=(int(p.max()) + 1) * cols) \
        .reshape(-1, cols)


def nmi(pred, truth) -> float:
    """Mutual information over the arithmetic mean of the entropies;
    two constant labelings score 1, one constant labeling scores 0."""
    table = _contingency(pred, truth)
    if table.shape == (1, 1):
        return 1.0
    n = float(table.sum())
    rows, cols = table.sum(axis=1) / n, table.sum(axis=0) / n
    h_rows = -float(np.sum(rows * np.log(rows)))
    h_cols = -float(np.sum(cols * np.log(cols)))
    if h_rows == 0.0 or h_cols == 0.0:
        return 0.0
    joint = table / n
    nz = joint > 0
    info = float(np.sum(joint[nz] * np.log(joint[nz] / np.outer(rows, cols)[nz])))
    return min(max(info / ((h_rows + h_cols) / 2.0), 0.0), 1.0)


def ari(pred, truth) -> float:
    """Adjusted Rand index with exact pair counts; 1 when degenerate."""
    table = _contingency(pred, truth)
    pairs = sum(math.comb(int(c), 2) for c in table.ravel())
    rows = sum(math.comb(int(c), 2) for c in table.sum(axis=1))
    cols = sum(math.comb(int(c), 2) for c in table.sum(axis=0))
    expected = rows * cols / math.comb(int(table.sum()), 2)
    den = (rows + cols) / 2.0 - expected
    return 1.0 if den == 0.0 else (pairs - expected) / den


def best_round(rounds: list[np.ndarray], truth: np.ndarray) -> tuple[float, float]:
    """Final (NMI, ARI) as the report defines them: the best NMI over the
    rounds, and the ARI of the earliest round that reaches it."""
    scores = [nmi(r, truth) for r in rounds]
    best = max(scores)
    first = next(i for i, s in enumerate(scores) if s >= best - 1e-12)
    return best, ari(rounds[first], truth)


def merge(parts: list[np.ndarray], labels: list[np.ndarray], n: int) -> np.ndarray:
    """Global labeling from per-partition ones, in partition order, with
    cluster ids offset past the previous partitions' ids."""
    out = np.full(n, NOISE, dtype=np.int64)
    offset = 0
    for part, local in zip(parts, labels):
        out[part] = np.where(local == NOISE, NOISE, local + offset)
        if (local != NOISE).any():
            offset += int(local.max()) + 1
    return out


def partition_problems(parts: list[np.ndarray], n: int) -> list[str]:
    joined = np.sort(np.concatenate(parts))
    if joined.size != n or not np.array_equal(joined, np.arange(n)):
        return [f"agent partitions are not a disjoint cover of {n} points"]
    return []

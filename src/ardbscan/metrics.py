"""External clustering indices: normalized mutual information and the
adjusted Rand index.

Noise (-1) is treated as an ordinary label value in both indices.
"""

from __future__ import annotations

import math

import numpy as np


def contingency_table(pred, truth) -> np.ndarray:
    """Counts of points per (predicted id, true id), ids in sorted order."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError("label sequences must be 1-D and of equal length")
    if pred.size == 0:
        raise ValueError("need at least one point")
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    rows = int(pi.max()) + 1
    cols = int(ti.max()) + 1
    return np.bincount(pi * cols + ti, minlength=rows * cols).reshape(rows, cols)


def nmi(pred, truth) -> float:
    """Mutual information over the arithmetic mean of the two entropies.

    Two constant labelings are identical partitions and score 1.0; otherwise a
    zero entropy on either side scores 0.0.
    """
    counts = contingency_table(pred, truth)
    if counts.shape == (1, 1):
        return 1.0
    rows, cols = counts.sum(axis=1), counts.sum(axis=0)
    n = float(rows.sum())
    pr = rows / n
    pc = cols / n
    h_pred = -np.sum(pr * np.log(pr))
    h_truth = -np.sum(pc * np.log(pc))
    if h_pred == 0.0 or h_truth == 0.0:
        return 0.0
    nz = counts > 0
    joint = counts[nz] / n
    outer = np.outer(rows, cols)[nz] / (n * n)
    info = float(np.sum(joint * np.log(joint / outer)))
    value = info / ((h_pred + h_truth) / 2.0)
    return min(max(value, 0.0), 1.0)


def ari(pred, truth) -> float:
    """Pair-counting Rand index adjusted for chance, exact integer counting.

    Returns 1.0 when the chance-adjusted denominator vanishes (both labelings
    degenerate in the same way).
    """
    counts = contingency_table(pred, truth)
    rows, cols = counts.sum(axis=1), counts.sum(axis=0)
    total = int(rows.sum())
    if total < 2:
        raise ValueError("need at least two points")
    index = sum(math.comb(int(c), 2) for c in counts.ravel())
    sum_rows = sum(math.comb(int(c), 2) for c in rows)
    sum_cols = sum(math.comb(int(c), 2) for c in cols)
    pairs = math.comb(total, 2)
    expected = sum_rows * sum_cols / pairs
    max_index = (sum_rows + sum_cols) / 2.0
    den = max_index - expected
    if den == 0.0:
        return 1.0
    return (index - expected) / den

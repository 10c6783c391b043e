"""Point-set ingestion, feature normalization, weak-label sampling and
sequential block splitting for streaming evaluation.

CSV format: comma separated, no header, one row per point, '.' decimal
separator, feature columns followed by one integer label column.  Every
dataset is labeled: the labels drive the weak supervision and the
scoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Dataset:
    """An immutable point set with its ground-truth labels.

    Attributes:
        points: float array of shape (n, d).
        labels: int array of shape (n,).
    """

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-D array")
        lab = np.asarray(self.labels, dtype=np.int64)
        if lab.shape != (pts.shape[0],):
            raise ValueError("labels must align with points")
        pts.setflags(write=False)
        lab.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class LabeledSubset:
    """Indices of the points whose labels the search may consult."""

    indices: np.ndarray

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64)
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)


def load_csv(path: str | Path) -> Dataset:
    """Parse a headerless CSV of points with a final label column.

    Raises ValueError naming the offending 1-based line on any malformed or
    non-finite row, and on empty input.
    """
    rows: list[list[float]] = []
    labels: list[int] = []
    width: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
                if width < 2:
                    raise ValueError(
                        f"line {lineno}: need at least one feature column "
                        "before the label"
                    )
            elif len(fields) != width:
                raise ValueError(
                    f"line {lineno}: expected {width} columns, got {len(fields)}"
                )
            try:
                row = [float(f) for f in fields[:-1]]
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric feature value") from None
            if not all(map(math.isfinite, row)):
                raise ValueError(f"line {lineno}: non-finite feature value")
            rows.append(row)
            labels.append(_parse_label(fields[-1], lineno))
    if not rows:
        raise ValueError("empty dataset")
    return Dataset(np.asarray(rows, dtype=np.float64),
                   np.asarray(labels, dtype=np.int64))


_INT64 = np.iinfo(np.int64)


def _parse_label(field: str, lineno: int) -> int:
    # Published benchmark files sometimes store labels as floats ("2.0");
    # accept those but reject genuinely fractional values.
    try:
        value = float(field)
    except ValueError:
        raise ValueError(f"line {lineno}: non-numeric label") from None
    if not math.isfinite(value):
        raise ValueError(f"line {lineno}: label {field!r} is not finite")
    if value != int(value):
        raise ValueError(f"line {lineno}: label {field!r} is not an integer")
    label = int(value)
    if not _INT64.min <= label <= _INT64.max:
        raise ValueError(f"line {lineno}: label {field!r} does not fit int64")
    return label


def normalize(ds: Dataset) -> Dataset:
    """Min-max scale every feature column into [0, 1]; constant columns map
    to 0. The maximum possible pairwise distance afterwards is sqrt(d)."""
    if ds.n < 1:
        raise ValueError("cannot normalize an empty dataset")
    lo = ds.points.min(axis=0)
    hi = ds.points.max(axis=0)
    span = hi - lo
    out = np.zeros_like(ds.points)
    nonconst = span > 0
    out[:, nonconst] = (ds.points[:, nonconst] - lo[nonconst]) / span[nonconst]
    return Dataset(out, ds.labels)


def sample_labeled_subset(ds: Dataset, proportion: float, seed: int) -> LabeledSubset:
    """Draw a fixed random fraction of point indices, without replacement.

    The subset size is floor(proportion * n + 0.5). Deterministic per seed.
    """
    if not 0 < proportion <= 1:
        raise ValueError("proportion must be in (0, 1]")
    size = int(np.floor(proportion * ds.n + 0.5))
    rng = np.random.default_rng(seed)
    indices = np.sort(rng.choice(ds.n, size=size, replace=False))
    return LabeledSubset(indices)


def split_blocks(ds: Dataset, num_blocks: int) -> list[Dataset]:
    """Split sequentially into num_blocks near-equal blocks, preserving order.

    The first n mod num_blocks blocks receive one extra point.
    """
    if num_blocks < 1:
        raise ValueError("num_blocks must be >= 1")
    if num_blocks > ds.n:
        raise ValueError(f"cannot split {ds.n} points into {num_blocks} blocks")
    base, extra = divmod(ds.n, num_blocks)
    blocks = []
    start = 0
    for b in range(num_blocks):
        size = base + (1 if b < extra else 0)
        sl = slice(start, start + size)
        blocks.append(Dataset(ds.points[sl], ds.labels[sl]))
        start += size
    return blocks

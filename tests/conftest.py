"""Shared fixtures and helpers plus the acceptance-criteria summary.

Tests marked ``@pytest.mark.criterion(ident, description)`` get one
PASS / FAIL / SKIP line each in a terminal section after the run, so the
acceptance gate reads as a checklist.
"""

from pathlib import Path

import numpy as np
import pytest

from ardbscan.structured_graph import StructuredGraph

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

_RESULTS: dict = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(ident, description): acceptance criterion checklist entry",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    ident, description = marker.args
    if report.when == "setup" and report.skipped:
        reason = ""
        if isinstance(report.longrepr, tuple):
            reason = report.longrepr[2]
        _RESULTS[ident] = ("SKIP", description, reason)
    elif report.when == "call":
        if report.passed:
            status = "PASS"
            reason = ""
        elif report.skipped:
            status = "SKIP"
            reason = report.longrepr[2] if isinstance(report.longrepr, tuple) else ""
        else:
            status = "FAIL"
            reason = ""
        _RESULTS[ident] = (status, description, reason)


def _criterion_order(ident: str):
    digits = "".join(ch for ch in ident if ch.isdigit())
    return (0, int(digits), ident) if digits else (1, 0, ident)


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for ident in sorted(_RESULTS, key=_criterion_order):
        status, description, reason = _RESULTS[ident]
        line = f"criterion {ident:>3}: {status:<4} {description}"
        if reason:
            line += f" [{reason}]"
        terminalreporter.write_line(line)


def benchmark_csv(name: str) -> Path:
    """Path of a benchmark CSV, skipping the test when it is absent."""
    path = DATA_DIR / f"{name}.csv"
    if not path.exists():
        pytest.skip(
            f"benchmark dataset not bundled; drop it at data/{name}.csv "
            "(numeric feature columns, integer label last) to enable "
            "this criterion"
        )
    return path


def make_graph(n: int, edges, k: int = 1) -> StructuredGraph:
    """A graph over explicit (i, j, weight) triples, with degrees and
    volume summed edge by edge."""
    pairs = [(min(i, j), max(i, j)) for i, j, _ in edges]
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    w = np.array([weight for _, _, weight in edges], dtype=np.float64)
    degrees = np.zeros(n)
    for i, j, weight in edges:
        degrees[i] += weight
        degrees[j] += weight
    return StructuredGraph(n, k, u, v, w, degrees, float(degrees.sum()))


def edges_of(g: StructuredGraph) -> list:
    """The (i, j, weight) triples of a graph, i < j."""
    return list(zip(g.u.tolist(), g.v.tolist(), g.w.tolist()))

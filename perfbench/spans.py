"""Call-site probes: spans and counters recorded from outside the program.

The benchmark never edits ``src/``.  It replaces a module attribute (the
name a caller looks up at call time) with a wrapper that opens a span,
calls the original, closes the span and lets a callback attach counts
to it.  Spans live in memory as ``[name, start, end, parent, request,
info]``, where ``request`` is the index of the search seed being run and
``parent`` the index of the enclosing span, and are written out once
the command has finished.
"""

from __future__ import annotations

import resource
import statistics
import time
import weakref
from typing import Callable, Optional

import numpy as np

NAME, START, END, PARENT, REQUEST, INFO = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = -1

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.request, None])
        self._stack.append(index)
        return index

    def close(self, index: int, info: Optional[dict]) -> None:
        self.spans[index][END] = time.perf_counter()
        self.spans[index][INFO] = info
        self._stack.pop()


def wrap(owner, attr: str, tracer: Optional[Tracer] = None,
         span: Optional[str] = None,
         before: Optional[Callable] = None,
         after: Optional[Callable] = None) -> None:
    """Replace ``owner.attr`` by a probe.

    ``before(args)`` runs ahead of the call; ``after(args, result)`` runs
    after it and may return a dict of counts stored on the span.  Without
    a tracer or span name the probe only runs the callbacks.
    """
    original = getattr(owner, attr)
    timed = tracer is not None and span is not None

    def probe(*args, **kwargs):
        if before is not None:
            before(args)
        index = tracer.open(span) if timed else -1
        info = None
        try:
            result = original(*args, **kwargs)
            if after is not None:
                info = after(args, result)
            return result
        finally:
            if timed:
                tracer.close(index, info)

    setattr(owner, attr, probe)


def rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def install(tracer: Tracer) -> None:
    """Probe the public entry points of every pipeline layer."""
    from ardbscan import cli_harness as cli
    from ardbscan import encoding_tree as tree
    from ardbscan import recursive_search as rec
    from ardbscan import search_env as env

    paid = weakref.WeakKeyDictionary()  # evaluator -> paid (eps, min_pts)
    rounds_before = [0]

    def dbscan_info(args, result):
        return {"n": int(args[0].shape[0])}

    def evaluate_info(args, result):
        evaluator, params = args[0], args[1]
        if result is None:
            return {"kind": "refused"}
        if evaluator.rounds_used == rounds_before[0]:
            return {"kind": "hit"}
        # a paid round at a lattice point already paid for, up to float drift
        seen = paid.setdefault(evaluator, [])
        redundant = any(m == params.min_pts and
                        abs(e - params.eps) <= 1e-9 * max(1.0, abs(e))
                        for e, m in seen)
        seen.append((params.eps, params.min_pts))
        return {"kind": "paid", "redundant": redundant}

    def select_k_info(args, result):
        # the sweep's largest candidate is min(n - 1, cap)
        return {"k": int(result.k), "edges": int(result.graph.edge_count),
                "at_cap": int(result.k == int(result.ks.max())),
                "rss_mb": rss_mb()}

    for module in (cli, rec, env, tree):
        wrap(module, "run_dbscan", tracer, "dbscan_core.run_dbscan",
             after=dbscan_info)
    for module in (cli, env):
        wrap(module, "nmi", tracer, "metrics.nmi")
    wrap(cli, "ari", tracer, "metrics.ari")
    wrap(env.ClusterEvaluator, "evaluate", tracer, "search_env.evaluate",
         before=lambda args: rounds_before.__setitem__(0, args[0].rounds_used),
         after=evaluate_info)
    wrap(env, "build_state", tracer, "search_env.build_state")
    wrap(env, "td3_update", tracer, "search_env.td3_update",
         after=lambda args, out: {"trained": out is not None})
    wrap(rec, "run_episode", tracer, "search_env.run_episode")
    wrap(cli, "run_agent", tracer, "recursive_search.run_agent",
         after=lambda args, out: {"layers": len(out.layer_history)})
    wrap(cli, "merge_agent_results", tracer, "recursive_search.merge")
    wrap(cli, "select_k", tracer, "structured_graph.select_k",
         after=select_k_info)
    wrap(cli, "optimize_two_level", tracer, "encoding_tree.optimize_two_level",
         after=lambda args, out: {"communities": len(out.intermediates())})
    wrap(cli, "allocate_agents", tracer, "encoding_tree.allocate_agents",
         after=lambda args, out: {"agents": len(out.partitions)})
    wrap(cli, "load_csv", tracer, "dataset.load_csv")
    wrap(cli, "normalize", tracer, "dataset.normalize")
    wrap(cli, "sample_labeled_subset", tracer, "dataset.sample_labeled_subset")
    wrap(cli, "best_round_series", tracer, "cli_harness.score")
    wrap(cli, "run_offline_pipeline", tracer, "cli_harness.pipeline")
    for writer in ("_write_json", "_write_assignment", "_write_svg"):
        wrap(cli, writer, tracer, "cli_harness.write")
    wrap(cli, "cmd_cluster", tracer, "cli_harness.command")


# ---------------------------------------------------------------------------
# per-layer metrics


def _durations(spans, name):
    return [s[END] - s[START] for s in spans if s[NAME] == name]


def _infos(spans, name):
    return [s[INFO] or {} for s in spans if s[NAME] == name]


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def tail_percentile(count: int) -> float:
    """Highest of the usual percentiles with at least ten samples above it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if count * (1.0 - pct / 100.0) >= 10:
            return pct
    return 50.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced command, as name -> (value, unit)."""
    own = self_times(spans)
    total = {}
    self_total = {}
    for s, t in zip(spans, own):
        total[s[NAME]] = total.get(s[NAME], 0.0) + s[END] - s[START]
        self_total[s[NAME]] = self_total.get(s[NAME], 0.0) + t

    def busy(name):
        return total.get(name, 0.0)

    out = {}
    calls = _durations(spans, "dbscan_core.run_dbscan")
    sizes = [i["n"] for i in _infos(spans, "dbscan_core.run_dbscan")]
    pct = tail_percentile(len(calls))
    out["dbscan_core.calls"] = (len(calls), "count")
    out["dbscan_core.busy_s"] = (busy("dbscan_core.run_dbscan"), "s")
    out["dbscan_core.call_ms_p50"] = (
        1e3 * float(np.percentile(calls, 50.0)) if calls else 0.0, "ms")
    out["dbscan_core.call_ms_tail"] = (
        1e3 * float(np.percentile(calls, pct)) if calls else 0.0, "ms")
    out["dbscan_core.call_ms_tail_pct"] = (pct, "%")
    out["dbscan_core.points_per_call"] = (
        statistics.fmean(sizes) if sizes else 0.0, "count")
    out["dbscan_core.dist_bytes_computed"] = (
        float(sum(8 * n * n for n in sizes)), "B")

    sel = _infos(spans, "structured_graph.select_k")
    out["structured_graph.select_k_s"] = (busy("structured_graph.select_k"), "s")
    out["structured_graph.select_k_rss_mb"] = (
        max((i["rss_mb"] for i in sel), default=0.0), "MiB")
    out["structured_graph.k"] = (sum(i["k"] for i in sel), "count")
    out["structured_graph.k_at_cap"] = (sum(i["at_cap"] for i in sel), "count")
    out["structured_graph.edges"] = (sum(i["edges"] for i in sel), "count")

    out["encoding_tree.optimize_s"] = (busy("encoding_tree.optimize_two_level"), "s")
    out["encoding_tree.communities"] = (sum(
        i["communities"] for i in _infos(spans, "encoding_tree.optimize_two_level")),
        "count")
    out["encoding_tree.allocate_s"] = (busy("encoding_tree.allocate_agents"), "s")
    out["encoding_tree.agents"] = (sum(
        i["agents"] for i in _infos(spans, "encoding_tree.allocate_agents")), "count")

    kinds = [i["kind"] for i in _infos(spans, "search_env.evaluate")]
    redundant = sum(bool(i.get("redundant"))
                    for i in _infos(spans, "search_env.evaluate"))
    trained = [i["trained"] for i in _infos(spans, "search_env.td3_update")]
    out["search_env.evaluate_calls"] = (len(kinds), "count")
    out["search_env.rounds_paid"] = (kinds.count("paid"), "count")
    out["search_env.cache_hits"] = (kinds.count("hit"), "count")
    out["search_env.budget_refusals"] = (kinds.count("refused"), "count")
    out["search_env.rounds_redundant"] = (redundant, "count")
    out["search_env.build_state_s"] = (busy("search_env.build_state"), "s")
    out["search_env.td3_calls"] = (len(trained), "count")
    out["search_env.td3_trained"] = (sum(trained), "count")
    out["search_env.td3_useful_ratio"] = (
        sum(trained) / len(trained) if trained else 0.0, "ratio")
    out["search_env.td3_s"] = (busy("search_env.td3_update"), "s")
    out["search_env.episodes"] = (len(_durations(spans, "search_env.run_episode")),
                                  "count")
    out["search_env.episode_self_s"] = (self_total.get("search_env.run_episode", 0.0),
                                        "s")

    agent_spans = [s for s in spans if s[NAME] == "recursive_search.run_agent"]
    by_seed: dict = {}
    for s in agent_spans:
        by_seed.setdefault(s[REQUEST], []).append(s[END] - s[START])
    out["recursive_search.run_agent_self_s"] = (
        self_total.get("recursive_search.run_agent", 0.0), "s")
    out["recursive_search.agent_s_max"] = (statistics.median(
        max(v) for v in by_seed.values()) if by_seed else 0.0, "s")
    out["recursive_search.agent_s_sum"] = (statistics.median(
        sum(v) for v in by_seed.values()) if by_seed else 0.0, "s")
    out["recursive_search.layers_run"] = (sum(
        (s[INFO] or {}).get("layers", 0) for s in agent_spans), "count")
    out["recursive_search.merge_s"] = (busy("recursive_search.merge"), "s")

    out["metrics.nmi_calls"] = (len(_durations(spans, "metrics.nmi")), "count")
    out["metrics.nmi_s"] = (busy("metrics.nmi"), "s")
    out["metrics.ari_calls"] = (len(_durations(spans, "metrics.ari")), "count")
    out["metrics.ari_s"] = (busy("metrics.ari"), "s")

    command = busy("cli_harness.command")
    load = busy("dataset.load_csv")
    pipeline = busy("cli_harness.pipeline")
    out["cli_harness.pipeline_s"] = (pipeline, "s")
    out["cli_harness.score_s"] = (busy("cli_harness.score"), "s")
    out["cli_harness.output_s"] = (command - pipeline - load, "s")
    out["dataset.load_s"] = (load, "s")
    out["dataset.normalize_s"] = (busy("dataset.normalize"), "s")
    return out

"""Two-level encoding trees and greedy structural entropy minimization.

An encoding tree of height two sits over a structured graph: a root, a
layer of intermediate "community" nodes, and the graph vertices as
leaves.  Its entropy charges every non-root node for the probability
that a random walk enters it from outside.  Lower tree entropy means
the communities capture more of the walk's locality, so minimizing it
is a parameter-free way to partition the graph by density.

A height-two tree is fully described by which community each vertex
belongs to, so :class:`EncodingTree` stores exactly that: a community
index per vertex plus each community's cut and volume.  Every vertex
sits in some community; an unmerged vertex is a singleton community,
which gives every partition a well-defined information uncertainty.

The optimizer starts from all-singleton communities (whose entropy is
the one-dimensional structural entropy) and greedily merges the pair of
communities whose merge lowers entropy the most, stopping when no merge
strictly helps.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dbscan_core import NOISE, DbscanParams, run_dbscan
from .structured_graph import StructuredGraph, one_dim_se

ROOT = -1

# a merge must beat this margin to count as strict descent
_DESCENT_TOL = -1e-12


class EncodingTree:
    """Height-two encoding tree over a :class:`StructuredGraph`.

    ``community[v]`` is the community of vertex ``v``; communities are
    numbered ``0..m-1`` in order of their smallest vertex.  ``cut[c]`` is
    the total weight leaving community ``c``, ``volume[c]`` the total
    degree inside it and ``size[c]`` its vertex count.  A leaf's own cut
    and volume are its degree.  ``entropy_trace`` holds the tree entropy
    before the first greedy merge and after each one.

    Node ids: ``ROOT`` (-1) for the root, ``0..n-1`` for leaves (equal
    to vertex ids), and ``n + c`` for community ``c``.
    """

    def __init__(
        self,
        graph: StructuredGraph,
        community: np.ndarray,
        cut: np.ndarray,
        volume: np.ndarray,
        entropy_trace: Optional[List[float]] = None,
    ) -> None:
        self.graph = graph
        self.community = np.asarray(community, dtype=np.int64)
        self.cut = np.asarray(cut, dtype=np.float64)
        self.volume = np.asarray(volume, dtype=np.float64)
        self.size = np.bincount(self.community, minlength=self.cut.size)
        self.entropy_trace: List[float] = entropy_trace if entropy_trace is not None else []

    def is_leaf(self, node_id: int) -> bool:
        return 0 <= node_id < self.graph.n

    def intermediates(self) -> List[int]:
        n = self.graph.n
        return list(range(n, n + self.cut.size))

    def export_nodes(self, k: int) -> List[dict]:
        """One plain-dict row per node, suitable for JSON output: ``id``,
        ``parent``, ``num_vertices``, ``entropy`` and ``uncertainty`` at
        graph degree ``k`` (null for the root and the leaves)."""
        n = self.graph.n
        rows = [{"id": ROOT, "parent": None, "num_vertices": n,
                 "entropy": None, "uncertainty": None}]
        for v in range(n):
            rows.append({"id": v, "parent": n + int(self.community[v]),
                         "num_vertices": 1, "entropy": node_entropy(self, v),
                         "uncertainty": None})
        for nid, size in zip(self.intermediates(), self.size):
            rows.append({"id": nid, "parent": ROOT, "num_vertices": int(size),
                         "entropy": node_entropy(self, nid),
                         "uncertainty": information_uncertainty(self, nid, k)})
        return rows


def node_entropy(tree: EncodingTree, node_id: int) -> float:
    """Entropy term of one non-root node."""
    if node_id == ROOT:
        raise ValueError("the root has no entropy term")
    if tree.is_leaf(node_id):
        cut = volume = float(tree.graph.degrees[node_id])
        parent_volume = float(tree.volume[tree.community[node_id]])
    else:
        c = node_id - tree.graph.n
        cut, volume = float(tree.cut[c]), float(tree.volume[c])
        parent_volume = tree.graph.volume
    if cut == 0.0 or volume == 0.0:
        return 0.0
    return -(cut / tree.graph.volume) * math.log2(volume / parent_volume)


def _merge_delta(vol: float, v_a: float, g_a: float, v_b: np.ndarray,
                 g_b: np.ndarray, w_ab: np.ndarray) -> np.ndarray:
    """Entropy change of merging community A with each candidate B.

    ``v_*`` are volumes, ``g_*`` cuts and ``w_ab`` the weight between A
    and each B.  A is one community (scalars); the B terms are arrays.
    The greedy optimizer's tie-breaking depends on these exact values, so
    the evaluation order of the expression must not change.
    """
    v_ab = v_a + v_b
    g_ab = g_a + g_b - 2.0 * w_ab
    return (
        -g_ab * np.log2(v_ab / vol)
        + g_a * math.log2(v_a / vol)
        + g_b * np.log2(v_b / vol)
        + v_a * np.log2(v_ab / v_a)
        + v_b * np.log2(v_ab / v_b)
    ) / vol


def optimize_two_level(graph: StructuredGraph) -> EncodingTree:
    """Greedy best-first structural entropy minimization.

    Maintains one community per connected bundle of merges, picks the
    globally best merge by its entropy delta at every step, and stops
    when no remaining merge is strictly negative.  Ties are broken by
    the lexicographically smallest pair of community minimum-vertex
    ids, which keeps the result independent of heap internals.  A vertex
    of degree 0 (every edge weight underflowed to 0) stays a singleton.
    """
    n = graph.n
    if graph.volume <= 0.0:
        raise ValueError("degenerate graph (volume is zero)")
    vol = graph.volume

    # symmetric adjacency in CSR form, indexed by initial community id: the
    # stable order of the source ends (u, then v), a radix sort for keys no
    # wider than 16 bits, gathered from each half of the edge list in turn
    # so that neither the sources nor a doubled edge list is ever built
    edges = graph.edge_count
    key = np.empty(2 * edges, dtype=np.min_scalar_type(n))
    key[:edges], key[edges:] = graph.u, graph.v
    order = np.argsort(key, kind="stable")
    del key
    dst = np.empty(2 * edges, dtype=np.int64)
    wts = np.empty(2 * edges, dtype=np.float64)
    half = order < edges
    for far_end, offset in ((graph.v, 0), (graph.u, edges)):
        picked = order[half]
        picked -= offset
        dst[half] = far_end[picked]
        wts[half] = graph.w[picked]
        np.logical_not(half, out=half)
    del order, half, picked
    ends = np.cumsum(np.bincount(graph.u, minlength=n)
                     + np.bincount(graph.v, minlength=n))
    starts = np.concatenate([[0], ends[:-1]])

    cap = 2 * n
    parent = np.arange(cap, dtype=np.int64)
    volume = np.zeros(cap)
    volume[:n] = graph.degrees
    cut = np.zeros(cap)
    cut[:n] = graph.degrees
    minv = np.arange(cap, dtype=np.int64)
    alive = np.zeros(cap, dtype=bool)
    alive[:n] = True
    adj: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    for c in range(n):
        if ends[c] > starts[c]:
            adj[c] = (dst[starts[c]:ends[c]], wts[starts[c]:ends[c]])
    next_id = n

    def resolve(ids: np.ndarray) -> np.ndarray:
        r = ids
        while True:
            p = parent[r]
            if np.array_equal(p, r):
                break
            r = p
        parent[ids] = r  # path compression
        return r

    def clean(c: int) -> Tuple[np.ndarray, np.ndarray]:
        """Resolve community c's neighbor list to live roots and coalesce."""
        d, w = adj[c]
        if d.size:
            r = resolve(d)
            keep = r != c
            r, w = r[keep], w[keep]
            if r.size:
                # a weighted bincount adds each root's weights in list order
                uniq = np.flatnonzero(np.bincount(r, minlength=cap))
                w = np.bincount(r, weights=w, minlength=cap)[uniq]
                r = uniq
            d = r
        adj[c] = (d, w)
        return d, w

    heap: List[Tuple[float, int, int, int, int]] = []

    def push_best(c: int) -> None:
        # a community of volume 0 (a vertex whose edge weights all underflow
        # to 0) neither bids nor is bid for: a merge with it changes the
        # entropy by 0 in the limit, which is never a strict descent
        if volume[c] == 0.0:
            return
        d, w = clean(c)
        v_d = volume[d]
        live = v_d > 0.0
        if not live.all():
            d, w, v_d = d[live], w[live], v_d[live]
        if d.size == 0:
            return
        delta = _merge_delta(vol, volume[c], cut[c], v_d, cut[d], w)
        # the first of lexsort((k2, k1, delta)), sorting only the exact
        # ties of the smallest delta
        i = int(np.argmin(delta))
        cand = np.flatnonzero(delta == delta[i])
        if cand.size > 1:
            k1 = np.minimum(minv[c], minv[d[cand]])
            k2 = np.maximum(minv[c], minv[d[cand]])
            i = int(cand[np.lexsort((k2, k1, delta[cand]))[0]])
        lo, hi = sorted((int(minv[c]), int(minv[d[i]])))
        heapq.heappush(heap, (float(delta[i]), lo, hi, c, int(d[i])))

    trace = [one_dim_se(graph)]
    for c in list(adj):
        push_best(c)

    while heap:
        delta, _, _, a, b = heapq.heappop(heap)
        if not alive[a] or not alive[b]:
            if alive[a]:
                # the stored partner died; this community needs a fresh bid
                push_best(a)
            continue
        if delta >= _DESCENT_TOL:
            break
        c = next_id
        next_id += 1
        da, wa = adj.pop(a)
        db, wb = adj.pop(b)
        # extract the a-b weight before reparenting, while b is still a root
        w_ab = float(wa[resolve(da) == b].sum())
        alive[a] = alive[b] = False
        alive[c] = True
        parent[a] = parent[b] = c
        volume[c] = volume[a] + volume[b]
        cut[c] = cut[a] + cut[b] - 2.0 * w_ab
        minv[c] = min(minv[a], minv[b])
        adj[c] = (np.concatenate([da, db]), np.concatenate([wa, wb]))
        trace.append(trace[-1] + delta)
        push_best(c)

    # number the surviving communities, singletons included, by their
    # smallest vertex id
    roots = resolve(np.arange(n))
    uniq_roots, inv = np.unique(roots, return_inverse=True)
    part_order = np.argsort(minv[uniq_roots], kind="stable")
    rank = np.empty(uniq_roots.size, dtype=np.int64)
    rank[part_order] = np.arange(uniq_roots.size)
    kept = uniq_roots[part_order]
    return EncodingTree(graph, rank[inv], cut[kept], volume[kept], trace)


def information_uncertainty(tree: EncodingTree, node_id: int, k: int) -> float:
    """Per-object entropy share of one community: H(node) / (size * k)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if node_id == ROOT:
        raise ValueError("the root has no information uncertainty")
    if tree.is_leaf(node_id):
        raise ValueError("leaf nodes have no information uncertainty")
    c = node_id - tree.graph.n
    if not 0 <= c < tree.cut.size:
        raise ValueError(f"unknown node id {node_id}")
    return node_entropy(tree, node_id) / (int(tree.size[c]) * k)


def _cluster_uncertainties(values: Sequence[float], eps: float,
                           min_pts: int) -> List[int]:
    """Group 1-d uncertainty values by chaining within eps.

    Runs plain density clustering on the values; any value left as
    noise becomes its own group so every community lands somewhere.
    """
    pts = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    result = run_dbscan(pts, DbscanParams(eps=eps, min_pts=min_pts))
    labels = result.assignment.copy()
    next_gid = labels.max() + 1 if labels.size else 0
    for i in np.flatnonzero(labels == NOISE):
        labels[i] = next_gid
        next_gid += 1
    return [int(x) for x in labels]


@dataclass(frozen=True)
class AgentAllocation:
    """Grouping of tree communities into agent partitions.

    ``partitions[i]`` holds the sorted vertex ids one agent is
    responsible for; ``node_to_partition`` maps each intermediate tree
    node to its partition index.
    """

    partitions: List[np.ndarray]
    uncertainties: Dict[int, float]
    node_to_partition: Dict[int, int]


def allocate_agents(tree: EncodingTree, k: int, alloc_eps: float,
                    alloc_minpts: int) -> AgentAllocation:
    """Pool communities with similar information uncertainty.

    Communities whose per-object uncertainties chain within
    ``alloc_eps`` share one search agent; well-separated ones get their
    own.  Partitions are ordered by first appearance of their group.
    """
    ids = tree.intermediates()
    if not ids:
        raise ValueError("tree has no intermediate nodes")
    uncertainties = {nid: information_uncertainty(tree, nid, k) for nid in ids}
    groups = _cluster_uncertainties([uncertainties[nid] for nid in ids],
                                    alloc_eps, alloc_minpts)
    first_seen: Dict[int, int] = {}
    pid_of = np.array([first_seen.setdefault(gid, len(first_seen))
                       for gid in groups], dtype=np.int64)
    vertex_pid = pid_of[tree.community]
    partitions = [np.flatnonzero(vertex_pid == pid)
                  for pid in range(len(first_seen))]
    node_to_partition = dict(zip(ids, pid_of.tolist()))
    return AgentAllocation(partitions, uncertainties, node_to_partition)

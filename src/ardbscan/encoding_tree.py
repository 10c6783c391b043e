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
from typing import Dict, List, Optional, Tuple

import numpy as np

from .dbscan_core import NOISE, DbscanParams, run_dbscan
from .cpus import check_memory
from .structured_graph import StructuredGraph, id_dtype, one_dim_se

ROOT = -1

# a merge must beat this margin to count as strict descent
_DESCENT_TOL = -1e-12
TREE_CHUNK = 1 << 15  # edges per chunk of the adjacency's build
TREE_RANGES = 8  # vertex ranges of the adjacency's build


class EncodingTree:
    """Height-two encoding tree over a :class:`StructuredGraph`.

    ``community[v]`` is the community of vertex ``v``; communities are
    numbered ``0..m-1`` in order of their smallest vertex.  ``cut[c]`` is
    the total weight leaving community ``c``, ``volume[c]`` the total
    degree inside it, ``size[c]`` its vertex count and ``entropy[c]`` its
    entropy term.  A leaf's own cut and volume are its degree.
    ``entropy_trace`` holds the tree entropy before the first greedy
    merge and after each one.

    Every community-level value is indexed by community.  Node ids exist
    only for ``allocation.json``, in :meth:`intermediates` and
    :meth:`export_nodes`: ``ROOT`` (-1) for the root, ``0..n-1`` for
    leaves (equal to vertex ids), and ``n + c`` for community ``c``.
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
        self.entropy: List[float] = [
            _entropy_term(g, v, graph.volume, graph.volume)
            for g, v in zip(self.cut.tolist(), self.volume.tolist())]
        self.entropy_trace: List[float] = entropy_trace if entropy_trace is not None else []

    def uncertainty(self) -> List[float]:
        """Each community's per-object share, entropy / (size * graph.k)."""
        k = self.graph.k
        if k < 1:
            raise ValueError("k must be at least 1")
        return [h / (s * k) for h, s in zip(self.entropy, self.size.tolist())]

    def leaf_entropy(self) -> List[float]:
        """Entropy term of each vertex, its parent being its community."""
        degrees = self.graph.degrees.tolist()
        parent_volume = self.volume[self.community].tolist()
        return [_entropy_term(d, d, p, self.graph.volume)
                for d, p in zip(degrees, parent_volume)]

    def intermediates(self) -> List[int]:
        n = self.graph.n
        return list(range(n, n + self.cut.size))

    def export_nodes(self) -> List[dict]:
        """One plain-dict row per node, suitable for JSON output: ``id``,
        ``parent``, ``num_vertices``, ``entropy`` and ``uncertainty``,
        given per community (null for the root and the leaves)."""
        n = self.graph.n
        nodes = self.intermediates()
        rows = [{"id": ROOT, "parent": None, "num_vertices": n,
                 "entropy": None, "uncertainty": None}]
        for v, (c, h) in enumerate(zip(self.community.tolist(),
                                       self.leaf_entropy())):
            rows.append({"id": v, "parent": nodes[c], "num_vertices": 1,
                         "entropy": h, "uncertainty": None})
        for nid, size, h, u in zip(nodes, self.size.tolist(), self.entropy,
                                   self.uncertainty()):
            rows.append({"id": nid, "parent": ROOT, "num_vertices": size,
                         "entropy": h, "uncertainty": u})
        return rows


def _entropy_term(cut: float, volume: float, parent_volume: float,
                  graph_volume: float) -> float:
    """One non-root node's entropy term: the walk's chance of entering
    it from outside times the log of its share of its parent's volume."""
    if cut == 0.0 or volume == 0.0:
        return 0.0
    return -(cut / graph_volume) * math.log2(volume / parent_volume)


def _merge_delta(vol: float, v_a: float, g_a: float, v_b: np.ndarray,
                 g_b: np.ndarray, own_b: np.ndarray,
                 w_ab: np.ndarray) -> np.ndarray:
    """Entropy change of merging community A with each candidate B.

    ``v_*`` are volumes, ``g_*`` cuts, ``own_b`` each B's
    ``g_b * np.log2(v_b / vol)`` and ``w_ab`` the weight between A and
    each B; A's terms are scalars, B's arrays.  The greedy optimizer's
    tie-breaking depends on these exact values, so the evaluation order
    of the expression must not change.
    """
    v_ab = v_a + v_b
    g_ab = g_a + g_b - 2.0 * w_ab
    return (
        -g_ab * np.log2(v_ab / vol)
        + g_a * math.log2(v_a / vol)
        + own_b
        + v_a * np.log2(v_ab / v_a)
        + v_b * np.log2(v_ab / v_b)
    ) / vol


def tree_bytes(n: int, edges: int) -> int:
    """Peak bytes :func:`optimize_two_level` allocates beside a graph of n
    vertices and E edges from ``select_k``: the adjacency (both ends of
    every edge, neighbour ids of s bytes in
    :func:`~ardbscan.structured_graph.id_dtype` and int32 edge ids),
    (2 s + 8) E, beside the larger of two phases:

    - the adjacency's build: one vertex range's uint64 sort keys, 8 L for
      L = 2 E / ``TREE_RANGES`` (the ranges end at vertices, so a range
      may hold up to one vertex's entries more); one chunk's scratch,
      (s + 9) min(C, E) for C = ``TREE_CHUNK``; the positions of a
      chunk's entries in the range, 8 min(C / 2, L), where half a chunk
      is the most of any graph measured (the edge list's order by k then
      row spreads each range's entries over the chunks); and counts and
      offsets, 16 n;
    - the bids and merges: the heap, coalesced lists, member ids and
      per-community arrays, 520 n, the least whole-ten bytes a vertex
      within 3% of every traced peak of a fresh process on sparse graphs
      (n = 1,000 to 8,000, k = 2 to 10).  This phase's peak grows with the
      number of communities the merges leave, which n and E do not give,
      so the estimate is up to 14% above the peak where few are left.
    """
    s = np.dtype(id_dtype(n)).itemsize
    longest = -(-2 * edges // TREE_RANGES)
    return (2 * s + 8) * edges + max(
        8 * longest + (s + 9) * min(TREE_CHUNK, edges)
        + 8 * min(TREE_CHUNK // 2, longest) + 16 * n, 520 * n)


def _adjacency(graph: StructuredGraph) -> Tuple[np.ndarray, np.ndarray,
                                                np.ndarray]:
    """Every vertex's neighbours in ascending order, with the edges to
    them: vertex c's list is ``dst[starts[c]:starts[c+1]]`` (ids in
    :func:`~ardbscan.structured_graph.id_dtype`) over the edges
    ``eid[starts[c]:starts[c+1]]`` (int32 indices into ``graph.w``).

    Each edge (x, y) is listed twice, as x's neighbour y and as y's
    neighbour x.  The lists are built over ``TREE_RANGES`` ranges of
    vertices, each holding about an eighth of the 2E entries: scans of
    both endpoint arrays in chunks gather the range's uint64 keys, which
    pack the vertex, its neighbour and the edge's index, and one in-place
    sort puts them in the order of the range's part of ``dst`` and
    ``eid``.  So no array as long as the edge list is built beside
    ``dst`` and ``eid``, and one range's keys at a time.
    """
    n, edges = graph.n, graph.edge_count
    id_bits = max(n - 1, 1).bit_length()
    edge_bits = max(edges - 1, 1).bit_length()
    if 2 * id_bits + edge_bits > 64 or edges > np.iinfo(np.int32).max:
        raise ValueError(f"a graph of {n} vertices and {edges} edges is "
                         "too large for 64-bit adjacency keys and int32 "
                         "edge ids")
    far_shift = np.uint64(edge_bits)
    id_mask = np.uint64((1 << id_bits) - 1)
    edge_mask = np.uint64((1 << edge_bits) - 1)
    chunks = [(lo, min(lo + TREE_CHUNK, edges))
              for lo in range(0, edges, TREE_CHUNK)]
    counts = np.zeros(n, dtype=np.int64)
    for lo, hi in chunks:  # no int64 copy of a whole id array
        counts += np.bincount(graph.u[lo:hi], minlength=n)
        counts += np.bincount(graph.v[lo:hi], minlength=n)
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    cuts = np.searchsorted(starts, np.arange(TREE_RANGES) * 2 * edges
                           / TREE_RANGES).tolist() + [n]
    ranges = [(a, b) for a, b in zip(cuts[:-1], cuts[1:]) if a < b]
    dst = np.empty(2 * edges, dtype=id_dtype(n))
    eid = np.empty(2 * edges, dtype=np.int32)
    keys = np.empty(max((starts[b] - starts[a] for a, b in ranges),
                        default=0), dtype=np.uint64)
    # one chunk's scratch, allocated once
    chunk = min(TREE_CHUNK, edges)
    ids = np.empty(chunk, dtype=graph.u.dtype)
    hit = np.empty(chunk, dtype=bool)
    field = np.empty(chunk, dtype=np.uint64)
    for a, b in ranges:
        size = 0
        for near, far in ((graph.u, graph.v), (graph.v, graph.u)):
            for lo, hi in chunks:
                m = hi - lo
                # a <= end < b in one comparison: an end below a wraps
                # past b - a
                np.subtract(near[lo:hi], a, out=ids[:m])
                np.less(ids[:m].view(f"u{ids.itemsize}"), b - a, out=hit[:m])
                got = np.flatnonzero(hit[:m])
                key = keys[size:size + got.size]
                key[:] = np.take(near[lo:hi], got, out=ids[:got.size])
                key <<= np.uint64(id_bits)
                field[:got.size] = np.take(far[lo:hi], got,
                                           out=ids[:got.size])
                key |= field[:got.size]
                key <<= far_shift
                got += lo
                key |= got.view(np.uint64)
                size += got.size
        keys[:size].sort()
        for lo in range(0, size, chunk):
            key = keys[lo:min(lo + chunk, size)]
            part = field[:key.size]
            out = slice(starts[a] + lo, starts[a] + lo + key.size)
            dst[out] = np.bitwise_and(np.right_shift(key, far_shift, out=part),
                                      id_mask, out=part)
            eid[out] = np.bitwise_and(key, edge_mask, out=part)
    return dst, eid, starts


def optimize_two_level(graph: StructuredGraph) -> EncodingTree:
    """Greedy best-first structural entropy minimization.

    Maintains one community per connected bundle of merges, picks the
    globally best merge by its entropy delta at every step, and stops
    when no remaining merge is strictly negative.  Ties are broken by
    the lexicographically smallest pair of community minimum-vertex
    ids, which keeps the result independent of heap internals.  A vertex
    of degree 0 (every edge weight underflowed to 0) stays a singleton.
    A graph of volume zero raises ``ValueError``, and one whose
    :func:`tree_bytes` exceeds the memory available
    ``InsufficientMemoryError``, before the adjacency is built.
    """
    n = graph.n
    trace = [one_dim_se(graph)]  # refuses a graph of volume zero
    check_memory("the encoding tree", n, tree_bytes(n, graph.edge_count))
    vol = graph.volume
    dst, eid, starts = _adjacency(graph)

    # root[x] is the live community holding id x, rewritten over members[c]
    # (the ids rooted at c) at each merge; a live community is its own root
    cap = 2 * n
    root = np.arange(cap, dtype=np.int64)
    members: Dict[int, np.ndarray] = {}
    volume = np.zeros(cap)
    volume[:n] = graph.degrees
    cut = np.zeros(cap)
    cut[:n] = graph.degrees
    minv = np.arange(cap, dtype=np.int64)
    # cut * log2(volume / vol) of every live community of positive volume,
    # the term each bid for it as a partner adds
    own = np.zeros(cap)
    np.log2(volume[:n] / vol, out=own[:n], where=volume[:n] > 0.0)
    own[:n] *= cut[:n]
    # a community's neighbor list from its latest clean or merge; a vertex
    # that has had neither reads its list from the adjacency, where it is
    # what a clean would give: roots are the identity, ids ascend once each
    adj: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    bounds = starts.tolist()
    next_id = n

    def listed(c: int) -> Tuple[np.ndarray, np.ndarray]:
        """Vertex c's list in the adjacency, its ids cast to intp and its
        weights taken by edge id: numpy indexes by narrow ids more slowly
        than it casts them or takes by them."""
        at = slice(bounds[c], bounds[c + 1])
        return dst[at].astype(np.intp), graph.w.take(eid[at])

    def take(c: int) -> Tuple[np.ndarray, np.ndarray]:
        """Community c's neighbor list, removed from ``adj``."""
        return adj.pop(c) if c in adj else listed(c)

    def clean(c: int) -> Tuple[np.ndarray, np.ndarray]:
        """Resolve community c's neighbor list to live roots and coalesce."""
        d, w = take(c)
        if d.size:
            r = root[d]
            keep = r != c
            r, w = r[keep], w[keep]
            if r.size:
                # a weighted bincount adds each root's weights in list order
                uniq = np.bincount(r, minlength=cap).nonzero()[0]
                w = np.bincount(r, weights=w, minlength=cap)[uniq]
                r = uniq
            d = r
        adj[c] = (d, w)
        return d, w

    def bid(c: int, d: np.ndarray, w: np.ndarray
            ) -> Optional[Tuple[float, int, int, int, int, float]]:
        """Community c's best merge over its list d (weights w), as a heap
        entry (delta, lo, hi, c, b, w_ab), or None: the smallest delta,
        exact ties going to the smallest pair (lo, hi) of the two
        communities' minimum vertices, and a list that holds a NaN to its
        first NaN, as argmin picks.  A community of volume 0 (a vertex
        whose edge weights all underflow to 0) neither bids nor is bid
        for: a merge with it changes the entropy by 0 in the limit, which
        is never a strict descent."""
        v_a = volume[c]
        if not v_a > 0.0:
            return None
        v_b = volume[d]
        keep = v_b > 0.0
        if np.count_nonzero(keep) < keep.size:
            d, w, v_b = d[keep], w[keep], v_b[keep]
        if d.size == 0:
            return None
        delta = _merge_delta(vol, v_a, cut[c], v_b, cut[d], own[d], w)
        i = int(np.argmin(delta))  # a list's first NaN, if it holds one
        tie = (delta == delta[i]).nonzero()[0]  # empty for a NaN
        m_a = int(minv[c])
        if tie.size > 1:
            m_b = minv[d[tie]]
            i = int(tie[np.argmin(np.minimum(m_a, m_b) * cap
                                  + np.maximum(m_a, m_b))])
        b = int(d[i])
        m_b = int(minv[b])
        return (float(delta[i]), min(m_a, m_b), max(m_a, m_b), c, b,
                float(w[i]))

    def push_best(c: int) -> None:
        entry = bid(c, *clean(c))
        if entry is not None:
            heapq.heappush(heap, entry)

    # every vertex's first bid; the entries differ unless identical, so
    # the heap's pops do not depend on its layout
    heap = [entry for entry in (bid(c, *listed(c)) for c in range(n))
            if entry is not None]
    heapq.heapify(heap)

    while heap:
        delta, _, _, a, b, w_ab = heapq.heappop(heap)
        if root[a] != a or root[b] != b:
            if root[a] == a:
                # the stored partner died; this community needs a fresh bid
                push_best(a)
            continue
        if delta >= _DESCENT_TOL:
            break
        # a bid is made at its bidder's latest clean; while a and b stay
        # live, b is the one entry of that list resolving to b: w_ab is exact
        c = next_id
        next_id += 1
        members[c] = np.concatenate([members.pop(a, [a]), members.pop(b, [b]),
                                     [c]])
        root[members[c]] = c
        volume[c] = volume[a] + volume[b]
        cut[c] = cut[a] + cut[b] - 2.0 * w_ab
        own[c] = cut[c] * np.log2(volume[c] / vol)
        minv[c] = min(minv[a], minv[b])
        (da, wa), (db, wb) = take(a), take(b)
        adj[c] = (np.concatenate([da, db]), np.concatenate([wa, wb]))
        trace.append(trace[-1] + delta)
        push_best(c)

    # number the surviving communities, singletons included, by their
    # smallest vertex id: vertex v's number counts the community minima
    # below minv[root[v]]
    first = minv[root[:n]]
    is_first = first == np.arange(n)
    kept = root[:n][is_first]
    rank = np.cumsum(is_first) - 1
    return EncodingTree(graph, rank[first], cut[kept], volume[kept], trace)


@dataclass(frozen=True)
class AgentAllocation:
    """Grouping of tree communities into agent partitions.

    ``partitions[i]`` holds the sorted vertex ids one agent is
    responsible for; ``agent[c]`` is community ``c``'s partition index.
    """

    partitions: List[np.ndarray]
    agent: np.ndarray


def allocate_agents(tree: EncodingTree, alloc_eps: float,
                    alloc_minpts: int) -> AgentAllocation:
    """Pool communities with similar information uncertainty.

    A 1-D DBSCAN over the communities' per-object uncertainties, at
    radius ``alloc_eps`` and ``alloc_minpts``, chains similar ones into
    one search agent; each community it leaves as noise gets an agent of
    its own.  Agents are numbered by first appearance over community id.
    """
    uncertainty = tree.uncertainty()
    if not uncertainty:
        raise ValueError("tree has no communities")
    pts = np.asarray(uncertainty, dtype=np.float64).reshape(-1, 1)
    labels = run_dbscan(pts, DbscanParams(eps=alloc_eps,
                                          min_pts=alloc_minpts)).assignment
    first_seen: Dict[int, int] = {}
    agent = np.empty(labels.size, dtype=np.int64)
    for c, label in enumerate(labels.tolist()):
        # a noise community's key, -1 - c, is its own: labels are >= 0
        key = -1 - c if label == NOISE else label
        agent[c] = first_seen.setdefault(key, len(first_seen))
    vertex_agent = agent[tree.community]
    partitions = [np.flatnonzero(vertex_agent == pid)
                  for pid in range(len(first_seen))]
    return AgentAllocation(partitions, agent)

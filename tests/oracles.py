"""Independent reference implementations used to cross-check the package.

Everything in here is deliberately written in the most literal way possible
(plain loops, no shared code with src/), trading speed for obviousness.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

import numpy as np


# ---------------------------------------------------------------------------
# Density-based clustering: index-ordered scan-and-expand, O(n^2).
# ---------------------------------------------------------------------------

def dbscan_bruteforce(points, eps: float, min_pts: int) -> list[int]:
    """Classic DBSCAN by ascending-index scan with BFS expansion.

    Neighborhoods are closed balls (distance <= eps) and include the point
    itself. Returns -1 for noise.
    """
    n = len(points)
    neigh: list[list[int]] = []
    for i in range(n):
        row = []
        for j in range(n):
            dist = math.dist(points[i], points[j])
            if dist <= eps:
                row.append(j)
        neigh.append(row)
    core = [len(neigh[i]) >= min_pts for i in range(n)]
    labels = [-1] * n
    cid = 0
    for i in range(n):
        if not core[i] or labels[i] != -1:
            continue
        labels[i] = cid
        queue = [i]
        while queue:
            p = queue.pop(0)
            if not core[p]:
                continue  # border points do not expand
            for q in neigh[p]:
                if labels[q] == -1:
                    labels[q] = cid
                    queue.append(q)
        cid += 1
    return labels


def core_distances_oracle(points, min_pts) -> np.ndarray:
    """Each point's ``min_pts``-th smallest squared distance, itself
    included, from a full sort of its row of the n x n matrix; for an array
    of ``min_pts``, one column per value.  Each squared distance adds the
    squared coordinate differences one coordinate at a time from the
    first, the order that makes it bit for bit the package's."""
    points = np.asarray(points, dtype=np.float64)
    d2 = np.zeros((len(points), len(points)))
    for k in range(points.shape[1]):
        d2 = d2 + (points[:, k][:, None] - points[:, k][None, :]) ** 2
    return np.sort(d2, axis=1)[:, np.asarray(min_pts) - 1]


def canonical_labels(labels) -> list[int]:
    """Relabel clusters by first appearance so labelings compare up to
    permutation; -1 (noise) is preserved."""
    mapping: dict[int, int] = {}
    out = []
    for lab in labels:
        lab = int(lab)
        if lab == -1:
            out.append(-1)
            continue
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out.append(mapping[lab])
    return out


# ---------------------------------------------------------------------------
# External indices from first principles.
# ---------------------------------------------------------------------------

def ari_pair_oracle(a, b) -> float:
    """Adjusted Rand index via exhaustive enumeration of point pairs."""
    n = len(a)
    n11 = n00 = n10 = n01 = 0
    for i, j in combinations(range(n), 2):
        same_a = a[i] == a[j]
        same_b = b[i] == b[j]
        if same_a and same_b:
            n11 += 1
        elif same_a:
            n10 += 1
        elif same_b:
            n01 += 1
        else:
            n00 += 1
    den = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    if den == 0:
        return 1.0
    return 2.0 * (n11 * n00 - n10 * n01) / den


def nmi_contingency_oracle(a, b) -> float:
    """NMI with arithmetic-mean normalization, from Counter-built tables."""
    n = len(a)
    joint = Counter(zip(a, b))
    ca = Counter(a)
    cb = Counter(b)
    if len(ca) == 1 and len(cb) == 1:
        return 1.0
    ha = -sum((c / n) * math.log(c / n) for c in ca.values())
    hb = -sum((c / n) * math.log(c / n) for c in cb.values())
    if ha == 0.0 or hb == 0.0:
        return 0.0
    info = 0.0
    for (x, y), c in joint.items():
        info += (c / n) * math.log((c * n) / (ca[x] * cb[y]))
    return info / ((ha + hb) / 2.0)


# ---------------------------------------------------------------------------
# Structural entropy from first principles.
# ---------------------------------------------------------------------------

def degrees_and_volume(n: int, edges) -> tuple[list[float], float]:
    deg = [0.0] * n
    for i, j, w in edges:
        deg[i] += w
        deg[j] += w
    return deg, sum(deg)


def one_dim_entropy_oracle(n: int, edges) -> float:
    """Direct summation of -sum (d_v/vol) log2 (d_v/vol)."""
    deg, vol = degrees_and_volume(n, edges)
    h = 0.0
    for d in deg:
        if d > 0:
            h -= (d / vol) * math.log2(d / vol)
    return h


def knn_graph_oracle(points, k: int) -> list[tuple[int, int, float]]:
    """Union-rule k-NN graph by plain loops, as sorted (i, j, weight), i < j.

    Each vertex ranks the others by (distance, index) and keeps the first k;
    a pair is an edge when either endpoint keeps the other. With m edges
    and total edge distance S, an edge of distance d weighs exp(-d*m/S)
    (1 when S is 0).
    """
    def dist(p, q):
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))

    n = len(points)
    pairs = set()
    for i in range(n):
        ranked = sorted((dist(points[i], points[j]), j) for j in range(n) if j != i)
        for _, j in ranked[:k]:
            pairs.add((min(i, j), max(i, j)))
    edges = sorted(pairs)
    lengths = [dist(points[i], points[j]) for i, j in edges]
    total = sum(lengths)
    m = len(edges)
    return [
        (i, j, math.exp(-d * m / total) if total > 0 else 1.0)
        for (i, j), d in zip(edges, lengths)
    ]


def partition_entropy_oracle(n: int, edges, parts) -> float:
    """Two-level tree entropy of an explicit partition, by definition.

    Each part contributes -(g/vol) log2 (V/vol) for the part node plus
    -(d_v/vol) log2 (d_v/V) for each member leaf. Singleton parts reduce to
    the bare-leaf value.
    """
    deg, vol = degrees_and_volume(n, edges)
    where = {}
    for pid, part in enumerate(parts):
        for v in part:
            where[v] = pid
    volumes = [sum(deg[v] for v in part) for part in parts]
    cuts = [0.0] * len(parts)
    for i, j, w in edges:
        if where[i] != where[j]:
            cuts[where[i]] += w
            cuts[where[j]] += w
    h = 0.0
    for pid, part in enumerate(parts):
        if volumes[pid] > 0 and cuts[pid] > 0:
            h -= (cuts[pid] / vol) * math.log2(volumes[pid] / vol)
        for v in part:
            if deg[v] > 0 and deg[v] < volumes[pid]:
                h -= (deg[v] / vol) * math.log2(deg[v] / volumes[pid])
    return h


def best_two_level_partition(n: int, edges) -> tuple[float, list[frozenset]]:
    """Exhaustive minimum over all partitions of the vertex set.

    Dynamic programming over bitmasks: dp[S] = min over the part T containing
    the lowest vertex of S of cost(T) + dp[S - T]. Equivalent to enumerating
    every partition (every two-level tree shape) and taking the best.
    """
    deg, vol = degrees_and_volume(n, edges)
    wmat = [[0.0] * n for _ in range(n)]
    for i, j, w in edges:
        wmat[i][j] += w
        wmat[j][i] += w

    def part_cost(mask: int) -> float:
        members = [v for v in range(n) if mask >> v & 1]
        vol_p = sum(deg[v] for v in members)
        internal = 0.0
        for a, b in combinations(members, 2):
            internal += wmat[a][b]
        g = vol_p - 2.0 * internal
        cost = 0.0
        if vol_p > 0 and g > 0:
            cost -= (g / vol) * math.log2(vol_p / vol)
        for v in members:
            if deg[v] > 0 and deg[v] < vol_p:
                cost -= (deg[v] / vol) * math.log2(deg[v] / vol_p)
        return cost

    full = (1 << n) - 1
    dp: dict[int, tuple[float, list[int]]] = {0: (0.0, [])}

    def solve(mask: int) -> tuple[float, list[int]]:
        if mask in dp:
            return dp[mask]
        low = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << low)
        best = None
        sub = rest
        while True:  # all subsets of rest, each joined with the low vertex
            part = sub | (1 << low)
            tail_cost, tail_parts = solve(mask & ~part)
            cand = part_cost(part) + tail_cost
            if best is None or cand < best[0] - 1e-15:
                best = (cand, tail_parts + [part])
            if sub == 0:
                break
            sub = (sub - 1) & rest
        dp[mask] = best
        return best

    cost, masks = solve(full)
    parts = [frozenset(v for v in range(n) if m >> v & 1) for m in masks]
    return cost, parts


# ---------------------------------------------------------------------------
# Lattice moves: one branch per action.
# ---------------------------------------------------------------------------

def apply_action_oracle(eps: float, min_pts: int, action: int,
                        theta_eps: float, theta_minpts: int, eps_lo: float,
                        eps_hi: float, minpts_lo: int,
                        minpts_hi: int) -> tuple[float, int, tuple[int, ...]]:
    """Step (eps, min_pts) by action 0..4: eps down, eps up, min_pts down,
    min_pts up, stop.  A move past the boundary it heads for stops on it
    and flags that boundary, numbered 0..3 in the same order.  Returns
    (eps, min_pts, flags)."""
    flags = []
    if action == 0:
        eps -= theta_eps
        if eps < eps_lo:
            eps = eps_lo
            flags.append(0)
    elif action == 1:
        eps += theta_eps
        if eps > eps_hi:
            eps = eps_hi
            flags.append(1)
    elif action == 2:
        min_pts -= theta_minpts
        if min_pts < minpts_lo:
            min_pts = minpts_lo
            flags.append(2)
    elif action == 3:
        min_pts += theta_minpts
        if min_pts > minpts_hi:
            min_pts = minpts_hi
            flags.append(3)
    return eps, min_pts, tuple(flags)


# ---------------------------------------------------------------------------
# TD3's update routines, one array pair at a time, with the expressions and
# the order of in-place operations that fix the learner's bits.
# ---------------------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step_oracle(params, grads, ms, vs, t: int, lr: float) -> None:
    """Adam's step number ``t`` (from 1) over parallel lists of parameter,
    gradient, first-moment and second-moment arrays, in list order; updates
    params, ms and vs in place."""
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for param, grad, m, v in zip(params, grads, ms, vs):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        param -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def soft_update_oracle(source, target, tau: float) -> None:
    """Polyak averaging over parallel lists of arrays: each target array is
    scaled by 1 - tau, then tau times its source is added, in place."""
    for s, t in zip(source, target):
        t *= 1.0 - tau
        t += tau * s


def target_copy_oracle(arrays) -> list:
    """Fresh copies of a network's weight and bias arrays."""
    return [a.copy() for a in arrays]

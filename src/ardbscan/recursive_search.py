"""Coarse-to-fine parameter search run independently by each agent.

``run_agent`` is the one entry into a search.  It takes a partition's
record from ``partition_index`` (its sorted ids and the DBSCAN index
over its points) and a policy.  ``lattice_walk`` is the paper's agent:
a coarse layer spanning the full (eps, min_pts) box for its partition,
then progressively finer layers centered on the best parameters seen so
far.  ``random_draws`` is the reference: uniform draws over the coarse
layer's box.  Both spend one ``ClusterEvaluator``'s budget, and the
result is read off it; it also carries every episode the search ran,
each tagged with its layer.  Per-agent results merge back into one
labeling by offsetting cluster ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .config import RunConfig
from .dataset import Dataset, LabeledSubset
from .dbscan_core import NOISE, ClusterResult, DbscanIndex, DbscanParams
from .dbscan_core import run_dbscan  # noqa: F401 (perfbench --trace wraps it)
from .search_env import (
    Bounds,
    ClusterEvaluator,
    EpisodeTrace,
    PolicyNetworks,
    ReplayBuffer,
    SearchEnv,
    SearchLayer,
    run_episode,
)


@dataclass(frozen=True)
class AgentResult:
    """Outcome of one agent's search over its partition.

    ``assignment`` and the per-round assignments are local: entry i
    labels the point ``partition[i]``.  ``round_rewards`` is the
    best-so-far labeled-subset score after each paid clustering round,
    as the agent's ``ClusterEvaluator`` recorded it.  ``episodes`` holds
    every episode the search ran, in order.
    """

    partition_id: int
    partition: np.ndarray
    params: DbscanParams
    reward: float
    assignment: np.ndarray
    round_assignments: List[np.ndarray]
    round_rewards: List[float]
    rounds_used: int
    layer_history: Tuple[DbscanParams, ...]
    episodes: Tuple[EpisodeTrace, ...]


@dataclass(frozen=True)
class MergedResult:
    final: ClusterResult
    round_assignments: List[np.ndarray]


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def layer_zero_bounds(dim: int, partition_size: int,
                      minpts_cap_fraction: float) -> Bounds:
    """Full search box: eps up to the normalized diameter sqrt(dim),
    min_pts up to a fraction of the partition size (at least 1)."""
    cap = max(1, _round_half_up(minpts_cap_fraction * partition_size))
    return Bounds(0.0, math.sqrt(dim), 1, cap)


def first_layer(dim: int, partition_size: int, config: RunConfig) -> SearchLayer:
    bounds = layer_zero_bounds(
        dim, partition_size, config.resolved_minpts_cap_fraction())
    theta_eps = (bounds.eps_hi - bounds.eps_lo) / config.pi_eps
    theta_minpts = max((bounds.minpts_hi - 1) // config.pi_minpts, 1)
    start = DbscanParams(
        (bounds.eps_lo + bounds.eps_hi) / 2.0,
        _round_half_up((bounds.minpts_lo + bounds.minpts_hi) / 2.0),
    )
    return SearchLayer(0, bounds, bounds, theta_eps, theta_minpts, start)


def next_layer(prev: SearchLayer, p_o: DbscanParams,
               config: RunConfig) -> SearchLayer:
    """Refine around the best parameters of the previous layer.

    Step sizes shrink by the per-axis split counts ``config.pi_eps`` and
    ``config.pi_minpts``; the new box spans half the split count of steps
    either side of p_o, clipped so no layer ever escapes the layer-0 box.
    """
    theta_eps = prev.theta_eps / config.pi_eps
    theta_minpts = max(_round_half_up(prev.theta_minpts / config.pi_minpts), 1)
    half_eps = (config.pi_eps / 2.0) * theta_eps
    half_minpts = (config.pi_minpts / 2.0) * theta_minpts
    outer = prev.outer
    bounds = Bounds(
        max(outer.eps_lo, p_o.eps - half_eps),
        min(outer.eps_hi, p_o.eps + half_eps),
        max(outer.minpts_lo, _round_half_up(p_o.min_pts - half_minpts)),
        min(outer.minpts_hi, _round_half_up(p_o.min_pts + half_minpts)),
    )
    return SearchLayer(prev.index + 1, bounds, outer, theta_eps,
                       theta_minpts, p_o)


Policy = Callable[[ClusterEvaluator, RunConfig, int],
                  Tuple[Tuple[DbscanParams, ...], Tuple[EpisodeTrace, ...]]]


@dataclass(frozen=True)
class PartitionIndex:
    """A partition's point ids in ascending order and the DBSCAN index over
    its points in that order, the order every search of it clusters them
    in.  The index computes nothing until a round asks for a ``min_pts``,
    and every search given this record shares its trees."""

    ids: np.ndarray
    index: DbscanIndex


def partition_index(dataset: Dataset, partition: np.ndarray) -> PartitionIndex:
    ids = np.sort(np.asarray(partition, dtype=np.int64))
    return PartitionIndex(ids, DbscanIndex(dataset.points[ids]))


def lattice_walk(evaluator: ClusterEvaluator, config: RunConfig, seed: int
                 ) -> Tuple[Tuple[DbscanParams, ...], Tuple[EpisodeTrace, ...]]:
    """The TD3-driven coarse-to-fine walk.  Each layer after the first is
    centered on the evaluator's best parameters so far."""
    points = evaluator.points
    dim = points.shape[1]
    layer = first_layer(dim, points.shape[0], config)
    root_rng = np.random.default_rng(seed)

    layer_history: List[DbscanParams] = []
    episodes: List[EpisodeTrace] = []

    for layer_index in range(config.resolved_l_max()):
        if layer_index > 0:
            layer = next_layer(layer, evaluator.best_params, config)
        nets_rng = np.random.default_rng(root_rng.integers(2 ** 63))
        env_rng = np.random.default_rng(root_rng.integers(2 ** 63))
        env = SearchEnv(evaluator, layer, PolicyNetworks(dim, nets_rng, config),
                        ReplayBuffer(config.buffer_capacity), config, env_rng)

        for episode in range(config.episodes):
            frac = episode / max(config.episodes - 1, 1)
            explore = config.epsilon_start - frac * (
                config.epsilon_start - config.epsilon_end)
            episodes.append(run_episode(env, explore))
            if evaluator.exhausted:
                break

        layer_history.append(evaluator.best_params)
        if evaluator.exhausted:
            break
    return tuple(layer_history), tuple(episodes)


def random_draws(evaluator: ClusterEvaluator, config: RunConfig, seed: int
                 ) -> Tuple[Tuple[DbscanParams, ...], Tuple[EpisodeTrace, ...]]:
    """The reference policy: uniform draws over the layer-0 box until the
    round budget is spent.  It runs no episodes."""
    bounds = layer_zero_bounds(evaluator.points.shape[1],
                               evaluator.points.shape[0],
                               config.resolved_minpts_cap_fraction())
    rng = np.random.default_rng(seed)
    while not evaluator.exhausted:
        evaluator.evaluate(DbscanParams(
            rng.uniform(bounds.eps_lo, bounds.eps_hi),
            int(rng.integers(bounds.minpts_lo, bounds.minpts_hi + 1)),
        ))
    return (evaluator.best_params,), ()


def run_agent(partition: PartitionIndex, dataset: Dataset,
              labeled: LabeledSubset, config: RunConfig, seed: int,
              policy: Policy, partition_id: int) -> AgentResult:
    """Search (eps, min_pts) for one partition with ``policy`` and build
    the result from the evaluator's record of its best round so far.

    ``policy`` spends the round budget, which spans all layers (revisits
    are free), and returns the layer history and the episodes it ran.  A
    partition holding none of the labeled points cannot score candidates,
    so it skips the policy and takes the snapped layer-0 midpoint: one
    round, reward 0.
    """
    ids = partition.ids
    global_labeled = labeled.indices[np.isin(labeled.indices, ids)]
    evaluator = ClusterEvaluator(
        partition.index, np.searchsorted(ids, global_labeled),
        dataset.labels[global_labeled], config.round_budget)
    if global_labeled.size:
        layer_history, episodes = policy(evaluator, config, seed)
    else:
        start = first_layer(evaluator.points.shape[1], ids.size, config).start
        evaluator.evaluate(start)
        layer_history, episodes = (start,), ()
    best_result, best_reward = evaluator.cache[evaluator.best_key]
    return AgentResult(
        partition_id=partition_id,
        partition=ids,
        params=evaluator.best_params,
        reward=best_reward,
        assignment=best_result.assignment.copy(),
        round_assignments=list(evaluator.round_assignments),
        round_rewards=list(evaluator.round_rewards),
        rounds_used=evaluator.rounds_used,
        layer_history=layer_history,
        episodes=episodes,
    )


def _scatter(n: int, results: List[AgentResult],
             pick: List[np.ndarray]) -> np.ndarray:
    merged = np.full(n, NOISE, dtype=np.int64)
    offset = 0
    for res, local in zip(results, pick):
        local = np.asarray(local)
        shifted = np.where(local == NOISE, NOISE, local + offset)
        merged[res.partition] = shifted
        offset += int(local.max()) + 1 if (local != NOISE).any() else 0
    return merged


def merge_agent_results(results: List[AgentResult], n: int,
                        num_rounds: int) -> MergedResult:
    """Combine per-partition labelings into one global labeling per round.

    Cluster ids are offset agent by agent (in partition-id order) so
    they stay disjoint; noise stays noise.  Round series are aligned by
    repeating an early stopper's last round, padded out to
    ``num_rounds``.  An agent's last round holds its best assignment, so
    the final labeling is the last merged round.
    """
    results = sorted(results, key=lambda r: r.partition_id)
    all_idx = np.concatenate([r.partition for r in results]) if results else \
        np.empty(0, dtype=np.int64)
    uniq = np.unique(all_idx)
    if uniq.size != all_idx.size:
        raise ValueError("agent partitions overlap")
    if uniq.size != n or (n > 0 and (uniq[0] != 0 or uniq[-1] != n - 1)):
        raise ValueError("agent partitions do not cover all points")

    total = max([num_rounds] + [len(r.round_assignments) for r in results])
    rounds = [_scatter(n, results,
                       [r.round_assignments[min(i, len(r.round_assignments) - 1)]
                        for r in results])
              for i in range(total)]
    final = rounds[-1]
    num_clusters = int(final.max()) + 1 if (final != NOISE).any() else 0
    return MergedResult(ClusterResult(final, num_clusters), rounds)

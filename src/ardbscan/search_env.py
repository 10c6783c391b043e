"""Per-agent search environment: state fusion, rewards, and TD3 training.

One agent owns one partition of the dataset and walks the (eps,
min_pts) grid of its current layer.  Each step reclusters the
partition, reads a weak-supervision reward off the labeled subset, and
feeds an actor-critic pair whose job is to steer the walk toward
parameter regions that score well.

Every tunable (network widths, learning rate, buffer capacity, the six
TD3 values, reward blend and episode cap) is read from the run's
:class:`~ardbscan.config.RunConfig`, the only place a default is
written; an episode reads its box, step sizes and start from the
:class:`SearchLayer` it runs on.

Everything here is plain numpy.  The networks are small enough that
hand-rolled dense layers with explicit backward passes beat the
overhead of a tensor framework at this batch size, and keeping the
arithmetic in float64 makes the gradient checks in the test suite
unambiguous.

The action space is discrete (left, right, down, up, stop) while TD3
is a continuous-control method, so the adaptation is: the actor emits
five logits and the executed action is their argmax; the critics see
the one-hot of the executed action; target-policy smoothing perturbs
the target actor's logits with clipped Gaussian noise before the
argmax.  During the actor update the critic consumes the raw logits so
the deterministic-policy gradient has a path back to the actor.
"""

from __future__ import annotations

import math
from collections import deque
from copy import deepcopy
from dataclasses import dataclass
from enum import IntEnum
from typing import Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .config import RunConfig
from .dbscan_core import (ClusterResult, DbscanIndex, DbscanParams,
                          cluster_centers, run_dbscan)
from .metrics import nmi


class Action(IntEnum):
    LEFT = 0   # eps down
    RIGHT = 1  # eps up
    DOWN = 2   # min_pts down
    UP = 3     # min_pts up
    STOP = 4


class Bounds(NamedTuple):
    eps_lo: float
    eps_hi: float
    minpts_lo: int
    minpts_hi: int


@dataclass(frozen=True)
class SearchLayer:
    """One refinement level of the parameter space."""

    index: int
    bounds: Bounds
    outer: Bounds  # layer-0 box, never left by any refinement
    theta_eps: float
    theta_minpts: int
    start: DbscanParams


# ---------------------------------------------------------------------------
# tiny dense-network substrate


class Linear:
    """One dense layer, float64, with an explicit backward pass."""

    def __init__(self, fan_in: int, fan_out: int, rng: np.random.Generator):
        limit = 1.0 / math.sqrt(fan_in)
        self.weight = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        self.bias = rng.uniform(-limit, limit, size=fan_out)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input = x
        return x @ self.weight.T + self.bias

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self.grad_weight[:] = grad_out.T @ self._input
        self.grad_bias[:] = grad_out.sum(axis=0)
        return grad_out @ self.weight


class MLP:
    """Dense layers with ReLU between them and a linear output."""

    def __init__(self, dims: Sequence[int], rng: np.random.Generator):
        self.layers = [Linear(a, b, rng) for a, b in zip(dims, dims[1:])]
        self._acts: List[np.ndarray] = []

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._acts = [x]
        for i, layer in enumerate(self.layers):
            x = layer.forward(x)
            if i < len(self.layers) - 1:
                x = np.maximum(x, 0.0)
            self._acts.append(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        g = grad_out
        for i in range(len(self.layers) - 1, -1, -1):
            g = self.layers[i].backward(g)
            if i > 0:
                g = g * (self._acts[i] > 0)
        return g

    def param_pairs(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        out = []
        for layer in self.layers:
            out.append((layer.weight, layer.grad_weight))
            out.append((layer.bias, layer.grad_bias))
        return out


class Adam:
    def __init__(self, pairs: List[Tuple[np.ndarray, np.ndarray]],
                 lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.pairs = pairs
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p) for p, _ in pairs]
        self.v = [np.zeros_like(p) for p, _ in pairs]

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for (param, grad), m, v in zip(self.pairs, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            param -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def _soft_update(source: MLP, target: MLP, tau: float) -> None:
    for s, t in zip(source.layers, target.layers):
        t.weight *= 1.0 - tau
        t.weight += tau * s.weight
        t.bias *= 1.0 - tau
        t.bias += tau * s.bias


class PolicyNetworks:
    """All networks one agent trains, plus their target copies.

    Built for ``d``-dimensional points with ``config.hidden_width`` wide
    encoders, ``config.body_width`` wide actor and critic bodies and
    Adam at ``config.learning_rate``; the networks draw their initial
    weights from ``rng`` in declaration order.
    """

    def __init__(self, d: int, rng: np.random.Generator, config: RunConfig):
        hidden, body = config.hidden_width, config.body_width
        fused = 2 * hidden
        self.f_g = MLP([7, hidden], rng)
        self.f_l = MLP([d + 2, hidden], rng)
        self.f_s = MLP([fused, 1], rng)
        self.actor = MLP([fused, body, body, len(Action)], rng)
        self.critic_1 = MLP([fused + len(Action), body, body, 1], rng)
        self.critic_2 = MLP([fused + len(Action), body, body, 1], rng)
        self.target_actor = deepcopy(self.actor)
        self.target_critic_1 = deepcopy(self.critic_1)
        self.target_critic_2 = deepcopy(self.critic_2)
        lr = config.learning_rate
        self.actor_opt = Adam(self.actor.param_pairs(), lr)
        self.critic_1_opt = Adam(self.critic_1.param_pairs(), lr)
        self.critic_2_opt = Adam(self.critic_2.param_pairs(), lr)
        self.train_steps = 0


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class FusedState:
    """Attention-fused state vector plus the raw boundary distances.

    The distances stay unscaled so termination can read them directly;
    a clamped move writes -1 into the affected slot.
    """

    vector: np.ndarray
    boundary_distances: Tuple[float, ...]
    attention: Tuple[float, ...]

    def __post_init__(self):
        self.vector.setflags(write=False)


@dataclass(frozen=True)
class RLTuple:
    state: np.ndarray
    action: Action
    next_state: np.ndarray
    reward: float

    def __post_init__(self):
        if not 0.0 <= self.reward <= 1.0:
            raise ValueError(f"reward must be in [0, 1], got {self.reward}")


def _attention(networks: PolicyNetworks, global_out: np.ndarray,
               local_outs: np.ndarray) -> np.ndarray:
    """Normalized per-cluster weights from the scoring head."""
    m = local_outs.shape[0]
    tiled = np.broadcast_to(global_out, (m, global_out.shape[0]))
    scores = networks.f_s.forward(
        np.maximum(np.concatenate([tiled, local_outs], axis=1), 0.0)
    )[:, 0]
    scores = np.maximum(scores, 0.0)
    total = scores.sum()
    if total <= 0.0:
        return np.full(m, 1.0 / m)
    return scores / total


def build_state(networks: PolicyNetworks, params: DbscanParams,
                bounds: Bounds, clustering: ClusterResult,
                points: np.ndarray,
                clamp_flags: Tuple[int, ...] = ()) -> FusedState:
    """Fuse the global search position with per-cluster summaries."""
    points = np.asarray(points, dtype=np.float64)
    size, d = points.shape
    sqrt_d = math.sqrt(d)

    distances = [
        params.eps - bounds.eps_lo,
        bounds.eps_hi - params.eps,
        float(params.min_pts - bounds.minpts_lo),
        float(bounds.minpts_hi - params.min_pts),
    ]
    for i in clamp_flags:
        distances[i] = -1.0

    def scaled(value: float, divisor: float) -> float:
        return value if value == -1.0 else value / divisor

    global_vec = np.array([
        params.eps / sqrt_d,
        params.min_pts / size,
        scaled(distances[0], sqrt_d),
        scaled(distances[1], sqrt_d),
        scaled(distances[2], size),
        scaled(distances[3], size),
        clustering.num_clusters / size,
    ])
    g_out = networks.f_g.forward(global_vec[None])[0]

    hidden = g_out.shape[0]
    if clustering.num_clusters == 0:
        local_agg = np.zeros(hidden)
        weights: Tuple[float, ...] = ()
    else:
        rows = []
        for feats, center_dist, csize in cluster_centers(points, clustering):
            rows.append(np.concatenate([
                feats, [center_dist / sqrt_d, csize / size]
            ]))
        l_out = networks.f_l.forward(np.stack(rows))
        att = _attention(networks, g_out, l_out)
        local_agg = att @ l_out
        weights = tuple(float(a) for a in att)

    fused = np.maximum(np.concatenate([g_out, local_agg]), 0.0)
    return FusedState(fused, tuple(distances), weights)


# ---------------------------------------------------------------------------
# environment dynamics


def apply_action(params: DbscanParams, action: Action, theta_eps: float,
                 theta_minpts: int,
                 bounds: Bounds) -> Tuple[DbscanParams, Tuple[int, ...]]:
    """Step the parameters; clamped moves flag the crossed boundary."""
    eps, min_pts = params.eps, params.min_pts
    flags: List[int] = []
    if action == Action.LEFT:
        eps -= theta_eps
        if eps < bounds.eps_lo:
            eps = bounds.eps_lo
            flags.append(0)
    elif action == Action.RIGHT:
        eps += theta_eps
        if eps > bounds.eps_hi:
            eps = bounds.eps_hi
            flags.append(1)
    elif action == Action.DOWN:
        min_pts -= theta_minpts
        if min_pts < bounds.minpts_lo:
            min_pts = bounds.minpts_lo
            flags.append(2)
    elif action == Action.UP:
        min_pts += theta_minpts
        if min_pts > bounds.minpts_hi:
            min_pts = bounds.minpts_hi
            flags.append(3)
    return DbscanParams(eps, min_pts), tuple(flags)


def episode_rewards(immediates: Sequence[float], delta: float) -> List[float]:
    """Blend of the best still-reachable reward, weighted ``1 - delta``,
    and the endpoint reward, weighted ``delta``."""
    last = immediates[-1]
    out: List[float] = []
    future_max = -math.inf
    for value in reversed(immediates):
        future_max = max(future_max, value)
        out.append((1.0 - delta) * future_max + delta * last)
    out.reverse()
    return out


def check_termination(state: FusedState, step_index: int, action: Action,
                      max_steps: int) -> Optional[str]:
    if min(state.boundary_distances) < 0:
        return "bounds"
    if step_index >= max_steps:
        return "timeout"
    if action == Action.STOP and step_index >= 2:
        return "action"
    return None


# ---------------------------------------------------------------------------
# replay and training


class ReplayBuffer:
    """The ``capacity`` most recent transitions, oldest dropped first."""

    def __init__(self, capacity: int):
        self._items: Deque[RLTuple] = deque(maxlen=capacity)

    def insert(self, item: RLTuple) -> None:
        self._items.append(item)

    def sample(self, m: int, rng: np.random.Generator) -> List[RLTuple]:
        idx = rng.choice(len(self._items), size=m, replace=False)
        return [self._items[i] for i in idx]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)


def td3_update(networks: PolicyNetworks, buffer: ReplayBuffer,
               config: RunConfig,
               rng: np.random.Generator) -> Optional[Tuple[float, Optional[float]]]:
    """One critic step on a ``config.batch_size`` batch, with the actor and
    targets trailing every ``config.actor_delay`` steps.

    Reads ``gamma``, ``batch_size``, ``tau``, ``actor_delay``,
    ``noise_sigma`` and ``noise_clip`` from ``config``.  Returns (critic
    loss, actor loss or None), or None while the buffer is still
    underfull.
    """
    m = config.batch_size
    if len(buffer) < m:
        return None
    batch = buffer.sample(m, rng)
    states = np.stack([t.state for t in batch])
    actions = np.array([int(t.action) for t in batch])
    next_states = np.stack([t.next_state for t in batch])
    rewards = np.array([t.reward for t in batch])

    n_actions = len(Action)
    eye = np.eye(n_actions)

    target_logits = networks.target_actor.forward(next_states)
    noise = np.clip(rng.normal(0.0, config.noise_sigma, target_logits.shape),
                    -config.noise_clip, config.noise_clip)
    next_onehot = eye[(target_logits + noise).argmax(axis=1)]
    next_in = np.concatenate([next_states, next_onehot], axis=1)
    q1_t = networks.target_critic_1.forward(next_in)[:, 0]
    q2_t = networks.target_critic_2.forward(next_in)[:, 0]
    targets = rewards + config.gamma * np.minimum(q1_t, q2_t)

    critic_in = np.concatenate([states, eye[actions]], axis=1)
    critic_loss = 0.0
    for critic, opt in ((networks.critic_1, networks.critic_1_opt),
                        (networks.critic_2, networks.critic_2_opt)):
        q = critic.forward(critic_in)[:, 0]
        err = q - targets
        critic_loss += float((err * err).sum())
        critic.backward(2.0 * err[:, None])
        opt.step()

    networks.train_steps += 1
    actor_loss: Optional[float] = None
    if networks.train_steps % config.actor_delay == 0:
        logits = networks.actor.forward(states)
        actor_in = np.concatenate([states, logits], axis=1)
        q = networks.critic_1.forward(actor_in)[:, 0]
        actor_loss = float(-q.mean())
        grad_in = networks.critic_1.backward(np.full((m, 1), -1.0 / m))
        networks.actor.backward(grad_in[:, -n_actions:])
        networks.actor_opt.step()
        _soft_update(networks.actor, networks.target_actor, config.tau)
        _soft_update(networks.critic_1, networks.target_critic_1, config.tau)
        _soft_update(networks.critic_2, networks.target_critic_2, config.tau)
    return critic_loss, actor_loss


# ---------------------------------------------------------------------------
# episodes


class ClusterEvaluator:
    """Budgeted, memoized DBSCAN evaluation for one agent, and the one
    record of its best result so far.

    A "round" is one clustering at parameters the agent has not tried
    before; revisits are free.  evaluate() returns None once the budget
    is spent.  Each paid round may replace ``best_key`` only by a strictly
    higher reward, so the earliest paid round wins ties, and appends the
    running best's assignment and reward to ``round_assignments`` and
    ``round_rewards``.  With no labeled points every reward is 0.
    The points are ``index.points``: every round is answered by that
    :class:`~ardbscan.dbscan_core.DbscanIndex`, so each ``min_pts`` builds
    its spanning tree once, and evaluators given the same index (the
    seeds searching one partition) share its trees.
    """

    def __init__(self, index: DbscanIndex, labeled_idx: np.ndarray,
                 labeled_truth: np.ndarray, round_budget: int):
        self.index = index
        self.points = index.points
        self.labeled_idx = np.asarray(labeled_idx)
        self.labeled_truth = np.asarray(labeled_truth)
        self.round_budget = round_budget
        self.rounds_used = 0
        self.cache: Dict[Tuple[float, int], Tuple[ClusterResult, float]] = {}
        self.best_key: Optional[Tuple[float, int]] = None
        self.round_assignments: List[np.ndarray] = []
        self.round_rewards: List[float] = []

    @property
    def exhausted(self) -> bool:
        return self.rounds_used >= self.round_budget

    @property
    def best_params(self) -> DbscanParams:
        """Parameters of ``best_key``; valid once a round has been paid."""
        return DbscanParams(*self.best_key)

    def evaluate(self, params: DbscanParams
                 ) -> Optional[Tuple[ClusterResult, float]]:
        key = (params.eps, params.min_pts)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        if self.exhausted:
            return None
        result = run_dbscan(self.points, params, self.index)
        reward = nmi(result.assignment[self.labeled_idx], self.labeled_truth) \
            if self.labeled_idx.size else 0.0
        self.rounds_used += 1
        self.cache[key] = (result, reward)
        if self.best_key is None or reward > self.cache[self.best_key][1]:
            self.best_key = key
        best_result, best_reward = self.cache[self.best_key]
        self.round_assignments.append(best_result.assignment)
        self.round_rewards.append(best_reward)
        return result, reward


@dataclass
class SearchEnv:
    """Everything one agent needs to run episodes on one layer."""

    evaluator: ClusterEvaluator
    layer: SearchLayer
    networks: PolicyNetworks
    buffer: ReplayBuffer
    config: RunConfig
    rng: np.random.Generator


@dataclass(frozen=True)
class EpisodeStep:
    action: Action
    params: DbscanParams
    immediate: float
    num_clusters: int


@dataclass(frozen=True)
class EpisodeTrace:
    layer: int  # index of the SearchLayer the episode ran on
    steps: List[EpisodeStep]
    rewards: List[float]
    stop_reason: str
    start: DbscanParams


def run_episode(env: SearchEnv, epsilon: float) -> EpisodeTrace:
    """One episode from the layer's start parameters.

    Steps until a stop condition fires or the evaluation budget runs
    dry.  Episode rewards are assigned retroactively (they depend on
    the future maximum), so the trace enters the replay buffer only at
    the end; per-step training draws on earlier episodes.
    """
    layer = env.layer
    first = env.evaluator.evaluate(layer.start)
    if first is None:
        return EpisodeTrace(layer.index, [], [], "budget", layer.start)
    clustering, _ = first
    state = build_state(env.networks, layer.start, layer.bounds, clustering,
                        env.evaluator.points)
    params = layer.start

    steps: List[EpisodeStep] = []
    transitions: List[Tuple[FusedState, Action, FusedState]] = []
    stop_reason = "budget"
    step_index = 0
    while True:
        step_index += 1
        if env.rng.random() < epsilon:
            action = Action(int(env.rng.integers(len(Action))))
        else:
            logits = env.networks.actor.forward(state.vector[None])[0]
            action = Action(int(logits.argmax()))
        new_params, flags = apply_action(params, action, layer.theta_eps,
                                         layer.theta_minpts, layer.bounds)
        outcome = env.evaluator.evaluate(new_params)
        if outcome is None:
            break
        clustering, immediate = outcome
        next_state = build_state(env.networks, new_params, layer.bounds,
                                 clustering, env.evaluator.points,
                                 clamp_flags=flags)
        steps.append(EpisodeStep(action, new_params, immediate,
                                 clustering.num_clusters))
        transitions.append((state, action, next_state))
        reason = check_termination(next_state, step_index, action,
                                   env.config.max_steps)
        td3_update(env.networks, env.buffer, env.config, env.rng)
        params, state = new_params, next_state
        if reason is not None:
            stop_reason = reason
            break

    rewards = episode_rewards([s.immediate for s in steps],
                              env.config.delta) if steps else []
    for (before, action, after), reward in zip(transitions, rewards):
        env.buffer.insert(RLTuple(before.vector, action, after.vector, reward))
    return EpisodeTrace(layer.index, steps, rewards, stop_reason, layer.start)

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
from copy import copy
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


class Layer(NamedTuple):
    """One dense layer, in (weight, bias) pairs: the values and, in a
    trained network, their gradients and Adam's first and second moments.
    A target's layers hold None in those six fields."""

    weight: np.ndarray
    bias: np.ndarray
    grad_weight: Optional[np.ndarray] = None
    grad_bias: Optional[np.ndarray] = None
    m_weight: Optional[np.ndarray] = None
    m_bias: Optional[np.ndarray] = None
    v_weight: Optional[np.ndarray] = None
    v_bias: Optional[np.ndarray] = None


def _layer(fan_in: int, fan_out: int, rng: np.random.Generator) -> Layer:
    limit = 1.0 / math.sqrt(fan_in)
    weight = rng.uniform(-limit, limit, size=(fan_out, fan_in))
    bias = rng.uniform(-limit, limit, size=fan_out)
    return Layer(weight, bias, *(np.zeros_like(a) for _ in range(3)
                                 for a in (weight, bias)))


class MLP:
    """Dense layers, float64, with ReLU between them and a linear output,
    an explicit backward pass and Adam (``step``).  A target copy only
    runs forward and trails its source (``soft_update``)."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8  # Adam's

    def __init__(self, dims: Sequence[int], rng: np.random.Generator):
        self.layers = [_layer(a, b, rng) for a, b in zip(dims, dims[1:])]
        self._acts: List[np.ndarray] = []  # each layer's input, then the output
        self.t = 0  # Adam steps taken

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._acts = [x]
        for i, layer in enumerate(self.layers):
            x = x @ layer.weight.T + layer.bias
            if i < len(self.layers) - 1:
                x = np.maximum(x, 0.0)
            self._acts.append(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        g = grad_out
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            layer.grad_weight[:] = g.T @ self._acts[i]
            layer.grad_bias[:] = g.sum(axis=0)
            g = g @ layer.weight
            if i > 0:
                g = g * (self._acts[i] > 0)
        return g

    def target_copy(self) -> MLP:
        """A copy of the weights and biases for a target network.  Targets
        only run forward, so their layers hold no gradients or moments."""
        twin = copy(self)
        twin._acts = []
        twin.layers = [Layer(layer.weight.copy(), layer.bias.copy())
                       for layer in self.layers]
        return twin

    def step(self, lr: float) -> None:
        """One Adam step at rate ``lr`` on the last backward's gradients."""
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for layer in self.layers:
            for param, grad, m, v in zip(layer[:2], layer[2:4], layer[4:6],
                                         layer[6:]):
                m *= self.beta1
                m += (1.0 - self.beta1) * grad
                v *= self.beta2
                v += (1.0 - self.beta2) * grad * grad
                param -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def soft_update(self, source: MLP, tau: float) -> None:
        """Move this target's weights and biases ``tau`` of the way to
        ``source``'s."""
        for s, t in zip(source.layers, self.layers):
            for param, value in ((t.weight, s.weight), (t.bias, s.bias)):
                param *= 1.0 - tau
                param += tau * value


class PolicyNetworks:
    """All networks one agent trains, plus their target copies.

    Built for ``d``-dimensional points with ``config.hidden_width`` wide
    encoders and ``config.body_width`` wide actor and critic bodies; the
    networks draw their initial weights from ``rng`` in declaration order.

    What the learner does not do, left for the ablations to measure: the
    state encoders ``f_g``, ``f_l`` and ``f_s`` are never stepped, so the
    actor and critics read a fixed random projection of the state
    features; and :class:`RLTuple` has no terminal flag, so every stored
    transition, an episode's last one included, bootstraps
    ``gamma * min Q'``.

    One instance serves one layer, and ``states`` memoizes
    :func:`build_state` there under ``(params, clamped)``.  That holds
    only while the encoders are frozen: a learner that steps them must
    drop the memo or key it by their weights.
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
        self.target_actor = self.actor.target_copy()
        self.target_critic_1 = self.critic_1.target_copy()
        self.target_critic_2 = self.critic_2.target_copy()
        self.states: Dict[Tuple[DbscanParams, Optional[int]], FusedState] = {}


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class FusedState:
    """Attention-fused state vector and the per-cluster attention weights."""

    vector: np.ndarray
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
                clamped: Optional[int] = None) -> FusedState:
    """Fuse the global search position with per-cluster summaries.

    The global features hold the distances to the four boundaries, eps's
    scaled by sqrt(d) and min_pts's by the partition size, in
    :class:`Bounds` order; the boundary a move was ``clamped`` to reads -1.

    The state is memoized in ``networks.states`` under ``(params,
    clamped)``: one layer's networks are only ever asked with its bounds,
    its partition's points and the clustering its evaluator caches for
    ``params``, and the encoders never change.
    """
    key = (params, clamped)
    state = networks.states.get(key)
    if state is not None:
        return state
    points = np.asarray(points, dtype=np.float64)
    size, d = points.shape
    sqrt_d = math.sqrt(d)

    distances = [
        (params.eps - bounds.eps_lo) / sqrt_d,
        (bounds.eps_hi - params.eps) / sqrt_d,
        (params.min_pts - bounds.minpts_lo) / size,
        (bounds.minpts_hi - params.min_pts) / size,
    ]
    if clamped is not None:
        distances[clamped] = -1.0
    global_vec = np.array([
        params.eps / sqrt_d,
        params.min_pts / size,
        *distances,
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
    state = networks.states[key] = FusedState(fused, weights)
    return state


# ---------------------------------------------------------------------------
# environment dynamics


def apply_action(params: DbscanParams, action: Action, theta_eps: float,
                 theta_minpts: int,
                 bounds: Bounds) -> Tuple[DbscanParams, Optional[int]]:
    """Step the parameters by one lattice move.

    A move that would cross the boundary it heads for stops on it, and
    that boundary's slot in :class:`Bounds` (0 eps low, 1 eps high,
    2 min_pts low, 3 min_pts high) comes back beside the new parameters;
    an unclamped move or STOP gives None.  The actions are numbered like
    the slots, so an action's index is the slot it heads for.
    """
    if action == Action.STOP:
        return params, None
    axis, up = divmod(int(action), 2)
    coords = [params.eps, params.min_pts]
    step = (theta_eps, theta_minpts)[axis]
    coords[axis] += step if up else -step
    edge = bounds[action]
    if (coords[axis] > edge) if up else (coords[axis] < edge):
        coords[axis] = edge
        return DbscanParams(*coords), int(action)
    return DbscanParams(*coords), None


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


def check_termination(clamped: Optional[int], step_index: int,
                      action: Action, max_steps: int) -> Optional[str]:
    """Why the episode ends after this step, or None: a move ``clamped`` to
    a boundary, then the step cap, then STOP from the second step on."""
    if clamped is not None:
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


def td3_update(networks: PolicyNetworks, buffer: ReplayBuffer,
               config: RunConfig,
               rng: np.random.Generator) -> Optional[Tuple[float, Optional[float]]]:
    """One critic step on a ``config.batch_size`` batch, with the actor and
    targets trailing every ``config.actor_delay`` steps, counted by
    ``critic_1.t``.

    Reads ``gamma``, ``batch_size``, ``tau``, ``actor_delay``,
    ``learning_rate``, ``noise_sigma`` and ``noise_clip`` from ``config``.
    Returns (critic loss, actor loss or None), or None while the buffer
    is still underfull.
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
    for critic in (networks.critic_1, networks.critic_2):
        q = critic.forward(critic_in)[:, 0]
        err = q - targets
        critic_loss += float((err * err).sum())
        critic.backward(2.0 * err[:, None])
        critic.step(config.learning_rate)

    actor_loss: Optional[float] = None
    if networks.critic_1.t % config.actor_delay == 0:
        logits = networks.actor.forward(states)
        actor_in = np.concatenate([states, logits], axis=1)
        q = networks.critic_1.forward(actor_in)[:, 0]
        actor_loss = float(-q.mean())
        grad_in = networks.critic_1.backward(np.full((m, 1), -1.0 / m))
        networks.actor.backward(grad_in[:, -n_actions:])
        networks.actor.step(config.learning_rate)
        networks.target_actor.soft_update(networks.actor, config.tau)
        networks.target_critic_1.soft_update(networks.critic_1, config.tau)
        networks.target_critic_2.soft_update(networks.critic_2, config.tau)
    return critic_loss, actor_loss


# ---------------------------------------------------------------------------
# episodes


class ClusterEvaluator:
    """Budgeted, memoized DBSCAN evaluation for one agent, and the one
    record of its best result so far.

    A "round" is one clustering at parameters the agent has not tried
    before; revisits are free.  evaluate() returns None once the budget
    is spent.  Each paid round may replace ``best`` only by a strictly
    higher reward, so the earliest paid round wins ties, and appends the
    running best's assignment to ``round_assignments``.  With no labeled
    points every reward is 0.
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
        self.cache: Dict[DbscanParams, Tuple[ClusterResult, float]] = {}
        self.best: Optional[DbscanParams] = None
        self.round_assignments: List[np.ndarray] = []

    @property
    def exhausted(self) -> bool:
        return self.rounds_used >= self.round_budget

    def evaluate(self, params: DbscanParams
                 ) -> Optional[Tuple[ClusterResult, float]]:
        hit = self.cache.get(params)
        if hit is not None:
            return hit
        if self.exhausted:
            return None
        result = run_dbscan(self.points, params, self.index)
        reward = nmi(result.assignment[self.labeled_idx], self.labeled_truth) \
            if self.labeled_idx.size else 0.0
        self.rounds_used += 1
        self.cache[params] = (result, reward)
        if self.best is None or reward > self.cache[self.best][1]:
            self.best = params
        self.round_assignments.append(self.cache[self.best][0].assignment)
        return result, reward


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


def run_episode(evaluator: ClusterEvaluator, layer: SearchLayer,
                networks: PolicyNetworks, buffer: ReplayBuffer,
                config: RunConfig, rng: np.random.Generator,
                epsilon: float) -> EpisodeTrace:
    """One episode from the layer's start parameters.

    Steps until a stop condition fires or the evaluation budget runs
    dry.  Episode rewards are assigned retroactively (they depend on
    the future maximum), so the trace enters the replay buffer only at
    the end; per-step training draws on earlier episodes.
    """
    first = evaluator.evaluate(layer.start)
    if first is None:
        return EpisodeTrace(layer.index, [], [], "budget", layer.start)
    clustering, _ = first
    state = build_state(networks, layer.start, layer.bounds, clustering,
                        evaluator.points)
    params = layer.start

    steps: List[EpisodeStep] = []
    transitions: List[Tuple[FusedState, Action, FusedState]] = []
    stop_reason = "budget"
    step_index = 0
    while True:
        step_index += 1
        if rng.random() < epsilon:
            action = Action(int(rng.integers(len(Action))))
        else:
            logits = networks.actor.forward(state.vector[None])[0]
            action = Action(int(logits.argmax()))
        new_params, clamped = apply_action(params, action, layer.theta_eps,
                                           layer.theta_minpts, layer.bounds)
        outcome = evaluator.evaluate(new_params)
        if outcome is None:
            break
        clustering, immediate = outcome
        next_state = build_state(networks, new_params, layer.bounds,
                                 clustering, evaluator.points,
                                 clamped=clamped)
        steps.append(EpisodeStep(action, new_params, immediate,
                                 clustering.num_clusters))
        transitions.append((state, action, next_state))
        reason = check_termination(clamped, step_index, action,
                                   config.max_steps)
        td3_update(networks, buffer, config, rng)
        params, state = new_params, next_state
        if reason is not None:
            stop_reason = reason
            break

    rewards = episode_rewards([s.immediate for s in steps],
                              config.delta) if steps else []
    for (before, action, after), reward in zip(transitions, rewards):
        buffer.insert(RLTuple(before.vector, action, after.vector, reward))
    return EpisodeTrace(layer.index, steps, rewards, stop_reason, layer.start)

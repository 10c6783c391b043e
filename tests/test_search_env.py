import copy
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ardbscan import dbscan_core, search_env
from ardbscan.config import RunConfig
from ardbscan.dbscan_core import (ClusterResult, DbscanIndex, DbscanParams,
                                  run_dbscan)
from ardbscan.metrics import nmi
from ardbscan.search_env import (
    MLP,
    Action,
    Bounds,
    ClusterEvaluator,
    PolicyNetworks,
    ReplayBuffer,
    RLTuple,
    SearchLayer,
    _attention,
    apply_action,
    build_state,
    check_termination,
    episode_rewards,
    run_episode,
    td3_update,
)

from oracles import (adam_step_oracle, apply_action_oracle,
                     core_distances_oracle, soft_update_oracle,
                     target_copy_oracle)


def two_blob_points():
    """Ten 1-d points in two tight groups around 0.1 and 0.9."""
    a = np.linspace(0.0, 0.2, 5)
    b = np.linspace(0.8, 1.0, 5)
    return np.concatenate([a, b]).reshape(-1, 1)


def blob_truth():
    return np.array([0] * 5 + [1] * 5)


CONFIG = RunConfig()


def make_networks(d=1, seed=0):
    return PolicyNetworks(d, np.random.default_rng(seed), CONFIG)


def make_env(round_budget=30, seed=3, start=DbscanParams(0.5, 3),
             networks=None, max_steps=30):
    """The evaluator, layer, networks, buffer, config and rng that
    ``run_episode`` takes, in its order."""
    points = two_blob_points()
    ev = ClusterEvaluator(DbscanIndex(points), np.arange(10), blob_truth(),
                          round_budget=round_budget)
    nets = networks if networks is not None else make_networks(d=1, seed=seed)
    bounds = Bounds(0.0, 1.0, 1, 5)
    return (ev, SearchLayer(0, bounds, bounds, 0.1, 1, start), nets,
            ReplayBuffer(CONFIG.buffer_capacity),
            RunConfig(max_steps=max_steps), np.random.default_rng(seed))


def force_constant_action(networks, action):
    """Zero the actor head and bias it toward one action."""
    last = networks.actor.layers[-1]
    last.weight[:] = 0.0
    last.bias[:] = 0.0
    last.bias[int(action)] = 1.0
    # keep the target actor in sync so training dynamics stay sane
    networks.target_actor.layers[-1].weight[:] = 0.0
    networks.target_actor.layers[-1].bias[:] = 0.0
    networks.target_actor.layers[-1].bias[int(action)] = 1.0


# ---------------------------------------------------------------- networks


def _fd_check_params(net, in_dim, out_dim, rng, n_coords=10, h=1e-6):
    x = rng.normal(size=(4, in_dim))
    r = rng.normal(size=(4, out_dim))

    def value():
        return float((net.forward(x) * r).sum())

    net.forward(x)
    net.backward(r)
    arrays = []
    for layer in net.layers:
        arrays.append((layer.weight, layer.grad_weight))
        arrays.append((layer.bias, layer.grad_bias))
    checked = 0
    while checked < n_coords:
        arr, grad = arrays[rng.integers(len(arrays))]
        idx = tuple(rng.integers(s) for s in arr.shape)
        ana = grad[idx]
        orig = arr[idx]
        arr[idx] = orig + h
        up = value()
        arr[idx] = orig - h
        down = value()
        arr[idx] = orig
        num = (up - down) / (2 * h)
        rel = abs(num - ana) / max(abs(num), abs(ana), 1e-8)
        assert rel < 1e-4, f"param grad off: {num} vs {ana}"
        checked += 1


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    nets = PolicyNetworks(2, rng, CONFIG)
    _fd_check_params(nets.f_g, 7, 32, rng)
    _fd_check_params(nets.f_l, 4, 32, rng)
    _fd_check_params(nets.f_s, 64, 1, rng)
    _fd_check_params(nets.actor, 64, 5, rng)
    _fd_check_params(nets.critic_1, 69, 1, rng)


def test_input_gradient_matches_finite_differences():
    # the actor update differentiates the critic w.r.t. its action input,
    # so the input-side gradient has to be right too
    rng = np.random.default_rng(7)
    nets = PolicyNetworks(2, rng, CONFIG)
    net = nets.critic_1
    x = rng.normal(size=(3, 69))
    r = rng.normal(size=(3, 1))
    net.forward(x)
    gx = net.backward(r)
    h = 1e-6
    for _ in range(10):
        i = rng.integers(3)
        j = rng.integers(69)
        orig = x[i, j]
        x[i, j] = orig + h
        up = float((net.forward(x) * r).sum())
        x[i, j] = orig - h
        down = float((net.forward(x) * r).sum())
        x[i, j] = orig
        num = (up - down) / (2 * h)
        rel = abs(num - gx[i, j]) / max(abs(num), abs(gx[i, j]), 1e-8)
        assert rel < 1e-4


def test_network_shapes():
    nets = PolicyNetworks(3, np.random.default_rng(0), CONFIG)
    assert nets.f_g.forward(np.zeros((2, 7))).shape == (2, 32)
    assert nets.f_l.forward(np.zeros((2, 5))).shape == (2, 32)
    assert nets.f_s.forward(np.zeros((2, 64))).shape == (2, 1)
    assert nets.actor.forward(np.zeros((2, 64))).shape == (2, 5)
    assert nets.critic_1.forward(np.zeros((2, 69))).shape == (2, 1)
    # targets start as exact copies
    x = np.random.default_rng(1).normal(size=(4, 64))
    assert np.array_equal(nets.actor.forward(x), nets.target_actor.forward(x))


# ---------------------------------------------------------------- attention


def test_attention_singleton_is_one():
    nets = make_networks(d=2)
    rng = np.random.default_rng(0)
    g = rng.normal(size=32)
    local = rng.normal(size=(1, 32))
    weights = _attention(nets, g, local)
    assert weights.shape == (1,)
    assert weights[0] == pytest.approx(1.0, abs=1e-6)


def test_attention_identical_states_split_evenly():
    nets = make_networks(d=2)
    rng = np.random.default_rng(1)
    g = rng.normal(size=32)
    one = rng.normal(size=32)
    weights = _attention(nets, g, np.vstack([one, one]))
    assert weights == pytest.approx([0.5, 0.5], abs=1e-6)


def test_attention_sums_to_one_and_uniform_fallback():
    nets = make_networks(d=2)
    rng = np.random.default_rng(2)
    g = rng.normal(size=32)
    for m in (1, 5, 50):
        w = _attention(nets, g, rng.normal(size=(m, 32)))
        assert w.sum() == pytest.approx(1.0, abs=1e-6)
        assert (w >= 0).all()
    # a scoring head that can only emit negatives zeroes every score
    nets.f_s.layers[0].weight[:] = 0.0
    nets.f_s.layers[0].bias[:] = -1.0
    w = _attention(nets, g, rng.normal(size=(4, 32)))
    assert w == pytest.approx([0.25] * 4)


def test_fused_state_length_constant_across_cluster_counts():
    points = np.random.default_rng(0).random((100, 2))
    bounds = Bounds(0.0, np.sqrt(2), 1, 25)
    params = DbscanParams(0.3, 2)
    lengths = set()
    for n_clusters in (0, 1, 5, 50):
        # fresh networks of the same weights: one layer's networks memoize
        # the state of a (params, clamped), whatever clustering comes next
        nets = PolicyNetworks(2, np.random.default_rng(5), CONFIG)
        if n_clusters == 0:
            assignment = np.full(100, -1)
        else:
            assignment = np.arange(100) % n_clusters
        clustering = ClusterResult(assignment, n_clusters)
        state = build_state(nets, params, bounds, clustering, points)
        assert np.isfinite(state.vector).all()
        lengths.add(state.vector.shape[0])
        if n_clusters == 0:
            assert np.all(state.vector[32:] == 0.0)
    assert lengths == {64}


def test_build_state_boundary_distances(monkeypatch):
    points = two_blob_points()
    nets = make_networks(d=1)
    bounds = Bounds(0.0, 1.0, 1, 5)
    clustering = run_dbscan(points, DbscanParams(0.3, 2))
    seen = []
    forward = nets.f_g.forward

    def recording(x):
        seen.append(x[0].copy())
        return forward(x)

    monkeypatch.setattr(nets.f_g, "forward", recording)
    # eps distances scale by sqrt(d) = 1, min_pts distances by size 10
    build_state(nets, DbscanParams(0.3, 2), bounds, clustering, points)
    assert seen[-1][2:6] == pytest.approx((0.3, 0.7, 0.1, 0.3))
    build_state(nets, DbscanParams(0.0, 2), bounds, clustering, points,
                clamped=0)
    assert seen[-1][2:6] == pytest.approx((-1.0, 1.0, 0.1, 0.3))
    build_state(nets, DbscanParams(0.3, 5), bounds, clustering, points,
                clamped=3)
    assert seen[-1][2:6] == pytest.approx((0.3, 0.7, 0.4, -1.0))


def test_build_state_is_memoized_per_layer(monkeypatch):
    # one layer's networks return the same state for a repeated (params,
    # clamped) and summarize its clusters once; the next layer's networks
    # compute every state again, to the same values
    points = two_blob_points()
    bounds = Bounds(0.0, 1.0, 1, 5)
    keys = [(DbscanParams(0.3, 2), None), (DbscanParams(0.3, 2), 2),
            (DbscanParams(0.5, 3), None)]
    calls = []
    centers = search_env.cluster_centers

    def counted(points, result):
        calls.append(result.num_clusters)
        return centers(points, result)

    monkeypatch.setattr(search_env, "cluster_centers", counted)

    def states(nets):
        return [build_state(nets, params, bounds,
                            run_dbscan(points, params), points, clamped)
                for params, clamped in keys]

    nets = make_networks(d=1)
    first = states(nets)
    assert len(calls) == 3 and min(calls) > 0
    again = states(nets)
    assert all(a is b for a, b in zip(first, again))
    assert first[0] is not first[1]  # clamped is part of the key
    assert len(calls) == 3
    assert set(nets.states) == set(keys)
    redone = states(make_networks(d=1))
    assert len(calls) == 6
    for a, b in zip(first, redone):
        assert a is not b
        assert a.vector.tobytes() == b.vector.tobytes()
        assert a.attention == b.attention


# ---------------------------------------------------------------- actions


def test_apply_action_arithmetic():
    bounds = Bounds(0.0, 1.0, 1, 10)
    p = DbscanParams(0.5, 3)
    stepped, clamped = apply_action(p, Action.RIGHT, 0.1, 2, bounds)
    assert stepped.eps == pytest.approx(0.6)
    assert stepped.min_pts == 3 and clamped is None
    stepped, clamped = apply_action(p, Action.LEFT, 0.1, 2, bounds)
    assert stepped.eps == pytest.approx(0.4)
    stepped, clamped = apply_action(p, Action.UP, 0.1, 2, bounds)
    assert stepped.min_pts == 5
    stepped, clamped = apply_action(p, Action.DOWN, 0.1, 2, bounds)
    assert stepped.min_pts == 1 and clamped is None
    stepped, clamped = apply_action(p, Action.STOP, 0.1, 2, bounds)
    assert stepped == p and clamped is None


def test_apply_action_clamps_and_flags():
    bounds = Bounds(0.0, 1.0, 1, 10)
    stepped, clamped = apply_action(DbscanParams(0.05, 1), Action.LEFT, 0.1,
                                    3, bounds)
    assert stepped.eps == 0.0 and clamped == 0
    stepped, clamped = apply_action(DbscanParams(0.95, 1), Action.RIGHT, 0.1,
                                    3, bounds)
    assert stepped.eps == 1.0 and clamped == 1
    stepped, clamped = apply_action(DbscanParams(0.5, 1), Action.DOWN, 0.1,
                                    3, bounds)
    assert stepped.min_pts == 1 and clamped == 2
    stepped, clamped = apply_action(DbscanParams(0.5, 9), Action.UP, 0.1, 3,
                                    bounds)
    assert stepped.min_pts == 10 and clamped == 3


def test_apply_action_matches_the_four_branch_reference():
    # random boxes and walks from the corners, the edges and inside, with
    # steps both smaller and larger than the box
    rng = np.random.default_rng(24)
    for _ in range(1000):
        eps_lo = float(rng.choice([0.0, rng.random()]))
        eps_hi = eps_lo + float(rng.choice([0.0, rng.random() * 2]))
        minpts_lo = int(rng.integers(1, 6))
        minpts_hi = minpts_lo + int(rng.integers(0, 40))
        bounds = Bounds(eps_lo, eps_hi, minpts_lo, minpts_hi)
        theta_eps = float(rng.random() * (eps_hi - eps_lo + 0.1))
        theta_minpts = int(rng.integers(1, 12))
        eps = float(rng.choice([eps_lo, eps_hi, rng.uniform(eps_lo, eps_hi)]))
        min_pts = int(rng.choice([minpts_lo, minpts_hi,
                                  rng.integers(minpts_lo, minpts_hi + 1)]))
        for action in rng.integers(len(Action), size=20).tolist():
            want_eps, want_min_pts, flags = apply_action_oracle(
                eps, min_pts, action, theta_eps, theta_minpts, *bounds)
            got, clamped = apply_action(DbscanParams(eps, min_pts),
                                        Action(action), theta_eps,
                                        theta_minpts, bounds)
            assert float(got.eps).hex() == float(want_eps).hex()
            assert got.min_pts == want_min_pts
            assert clamped == (flags[0] if flags else None)
            eps, min_pts = got.eps, got.min_pts


# ---------------------------------------------------------------- rewards


def test_immediate_reward_perfect_and_all_noise():
    ev = ClusterEvaluator(DbscanIndex(two_blob_points()), np.arange(10),
                          blob_truth(), round_budget=2)
    _, reward = ev.evaluate(DbscanParams(0.2, 2))
    assert reward == pytest.approx(1.0)
    # eps too small for anything: everything is noise, truth has 2 classes
    _, reward = ev.evaluate(DbscanParams(0.001, 3))
    assert reward == 0.0


def test_immediate_reward_matches_direct_nmi():
    points = two_blob_points()
    truth = blob_truth()
    idx = np.array([0, 2, 3, 7, 9])
    params = DbscanParams(0.21, 2)
    ev = ClusterEvaluator(DbscanIndex(points), idx, truth[idx], round_budget=1)
    _, got = ev.evaluate(params)
    pred = run_dbscan(points, params).assignment[idx]
    assert got == pytest.approx(nmi(pred, truth[idx]))


def test_episode_rewards_examples():
    assert episode_rewards([0.2, 0.9, 0.5], 0.2) == \
        pytest.approx([0.82, 0.82, 0.5])
    assert episode_rewards([0.7], 0.2) == pytest.approx([0.7])
    assert episode_rewards([0.4, 0.4, 0.4], 0.2) == pytest.approx([0.4] * 3)


@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
    st.floats(0.0, 1.0),
)
def test_episode_rewards_properties(immediates, delta):
    rewards = episode_rewards(immediates, delta)
    assert len(rewards) == len(immediates)
    top = max(immediates)
    last = immediates[-1]
    for r in rewards:
        assert 0.0 <= r <= top + 1e-12
        assert r >= delta * last - 1e-12
    # the future maximum can only shrink as the episode advances
    assert all(a >= b - 1e-12 for a, b in zip(rewards, rewards[1:]))


# ---------------------------------------------------------------- stopping


def test_check_termination_rules():
    assert check_termination(None, 1, Action.STOP, 30) is None
    assert check_termination(None, 2, Action.STOP, 30) == "action"
    assert check_termination(None, 5, Action.RIGHT, 30) is None
    assert check_termination(None, 30, Action.RIGHT, 30) == "timeout"
    assert check_termination(0, 1, Action.RIGHT, 30) == "bounds"
    # bounds outranks the stop action when both hold
    assert check_termination(0, 3, Action.STOP, 30) == "bounds"


# ---------------------------------------------------------------- buffer


def test_replay_buffer_fifo_and_sampling():
    buf = ReplayBuffer(5)
    s = np.zeros(64)
    for i in range(7):
        buf.insert(RLTuple(s, Action.LEFT, s, float(i) / 10))
    assert len(buf) == 5
    everything = buf.sample(len(buf), np.random.default_rng(0))
    rewards = {t.reward for t in everything}
    assert rewards == {0.2, 0.3, 0.4, 0.5, 0.6}
    batch = buf.sample(3, np.random.default_rng(0))
    assert len(batch) == 3
    assert all(isinstance(t, RLTuple) for t in batch)


def test_rltuple_reward_range_enforced():
    s = np.zeros(64)
    with pytest.raises(ValueError):
        RLTuple(s, Action.LEFT, s, 1.5)
    with pytest.raises(ValueError):
        RLTuple(s, Action.LEFT, s, -0.1)


# ---------------------------------------------------------------- training


def fill_buffer_uniform(buf, rng, n, reward_for=None):
    for _ in range(n):
        s = rng.normal(size=64)
        a = Action(int(rng.integers(5)))
        r = 0.0 if reward_for is None else (1.0 if a == reward_for else 0.0)
        buf.insert(RLTuple(s, a, rng.normal(size=64), r))


def test_td3_update_noop_when_underfull():
    nets = make_networks()
    buf = ReplayBuffer(CONFIG.buffer_capacity)
    fill_buffer_uniform(buf, np.random.default_rng(0), 15)
    before = copy.deepcopy(nets.critic_1.layers[0].weight)
    assert td3_update(nets, buf, CONFIG, np.random.default_rng(0)) is None
    assert np.array_equal(nets.critic_1.layers[0].weight, before)
    assert nets.critic_1.t == 0


def test_td3_update_zero_critics_identical_tuples():
    nets = make_networks()
    for net in (nets.critic_1, nets.critic_2,
                nets.target_critic_1, nets.target_critic_2):
        for layer in net.layers:
            layer.weight[:] = 0.0
            layer.bias[:] = 0.0
    buf = ReplayBuffer(CONFIG.buffer_capacity)
    s = np.full(64, 0.3)
    for _ in range(16):
        buf.insert(RLTuple(s, Action.UP, s, 0.0))
    loss_c, loss_a = td3_update(nets, buf, CONFIG, np.random.default_rng(0))
    assert loss_c == pytest.approx(0.0)
    # same setup with reward 0.5: every target is 0.5, both critics read 0
    nets2 = make_networks()
    for net in (nets2.critic_1, nets2.critic_2,
                nets2.target_critic_1, nets2.target_critic_2):
        for layer in net.layers:
            layer.weight[:] = 0.0
            layer.bias[:] = 0.0
    buf2 = ReplayBuffer(CONFIG.buffer_capacity)
    for _ in range(16):
        buf2.insert(RLTuple(s, Action.UP, s, 0.5))
    loss_c2, _ = td3_update(nets2, buf2, CONFIG,
                            np.random.default_rng(0))
    assert loss_c2 == pytest.approx(16 * 0.25 * 2)


def test_td3_update_deterministic():
    losses = []
    for _ in range(2):
        nets = make_networks(seed=11)
        buf = ReplayBuffer(CONFIG.buffer_capacity)
        fill_buffer_uniform(buf, np.random.default_rng(4), 64)
        rng = np.random.default_rng(9)
        losses.append([td3_update(nets, buf, CONFIG, rng)
                       for _ in range(10)])
    assert losses[0] == losses[1]


def test_target_networks_hold_no_gradient_buffers():
    # targets only run forward: no gradients, no Adam moments, and no array
    # shared with the network they trail
    nets = make_networks()
    for source, target in ((nets.actor, nets.target_actor),
                           (nets.critic_1, nets.target_critic_1),
                           (nets.critic_2, nets.target_critic_2)):
        for s, t in zip(source.layers, target.layers):
            assert all(value is None for value in t[2:])
            assert all(not np.shares_memory(a, b)
                       for a in (t.weight, t.bias) for b in s)


def _arrays(net, fields=("weight", "bias")):
    return [getattr(layer, f) for layer in net.layers for f in fields]


def _bytes(arrays):
    return [a.tobytes() for a in arrays]


# the default config's actor and critic shapes
NET_SHAPES = [[64, 256, 256, 5], [69, 256, 256, 1]]


@pytest.mark.parametrize("dims", NET_SHAPES)
def test_adam_step_matches_oracle_bit_for_bit(dims):
    rng = np.random.default_rng(31)
    net = MLP(dims, rng)
    params = target_copy_oracle(_arrays(net))
    ms = [np.zeros_like(a) for a in params]
    vs = [np.zeros_like(a) for a in params]
    for t in range(1, 21):
        grads = [rng.normal(size=a.shape) for a in params]
        for dst, src in zip(_arrays(net, ("grad_weight", "grad_bias")), grads):
            dst[:] = src
        net.step(CONFIG.learning_rate)
        adam_step_oracle(params, grads, ms, vs, t, CONFIG.learning_rate)
        assert net.t == t
        assert _bytes(_arrays(net)) == _bytes(params)
        assert _bytes(_arrays(net, ("m_weight", "m_bias"))) == _bytes(ms)
        assert _bytes(_arrays(net, ("v_weight", "v_bias"))) == _bytes(vs)


@pytest.mark.parametrize("dims", NET_SHAPES)
def test_target_copy_and_soft_update_match_oracle_bit_for_bit(dims):
    rng = np.random.default_rng(32)
    net = MLP(dims, rng)
    target = net.target_copy()
    want = target_copy_oracle(_arrays(net))
    assert _bytes(_arrays(target)) == _bytes(want)
    for _ in range(20):
        for a in _arrays(net):
            a += rng.normal(size=a.shape)
        target.soft_update(net, CONFIG.tau)
        soft_update_oracle(_arrays(net), want, CONFIG.tau)
        assert _bytes(_arrays(target)) == _bytes(want)


def test_td3_update_matches_deep_copied_targets():
    # targets built without gradient buffers train bit for bit like full
    # deep copies of the online networks
    runs = []
    for deep in (False, True):
        nets = make_networks(seed=3)
        if deep:
            nets.target_actor = copy.deepcopy(nets.actor)
            nets.target_critic_1 = copy.deepcopy(nets.critic_1)
            nets.target_critic_2 = copy.deepcopy(nets.critic_2)
        buf = ReplayBuffer(CONFIG.buffer_capacity)
        fill_buffer_uniform(buf, np.random.default_rng(4), 64)
        rng = np.random.default_rng(9)
        losses = [td3_update(nets, buf, CONFIG, rng) for _ in range(6)]
        weights = [layer.weight.tobytes() + layer.bias.tobytes()
                   for net in (nets.actor, nets.critic_1, nets.target_actor,
                               nets.target_critic_1, nets.target_critic_2)
                   for layer in net.layers]
        runs.append((losses, weights))
    assert runs[0] == runs[1]


def test_td3_actor_update_cadence_and_targets_move():
    nets = make_networks(seed=2)
    buf = ReplayBuffer(CONFIG.buffer_capacity)
    fill_buffer_uniform(buf, np.random.default_rng(5), 64)
    rng = np.random.default_rng(6)
    t0 = copy.deepcopy(nets.target_critic_1.layers[0].weight)
    first = td3_update(nets, buf, CONFIG, rng)
    assert first[1] is None  # actor waits for the second critic step
    second = td3_update(nets, buf, CONFIG, rng)
    assert second[1] is not None
    assert not np.array_equal(nets.target_critic_1.layers[0].weight, t0)


def test_bandit_prefers_rewarded_action():
    # reward 1 for RIGHT and 0 otherwise, from every state: after at most
    # 200 updates the actor must point RIGHT everywhere
    rng = np.random.default_rng(123)
    nets = make_networks(seed=321)
    buf = ReplayBuffer(CONFIG.buffer_capacity)
    states = rng.normal(size=(40, 64))
    for i in range(40):
        for a in range(5):
            r = 1.0 if a == Action.RIGHT else 0.0
            buf.insert(RLTuple(states[i], Action(a), states[i], r))
    train_rng = np.random.default_rng(77)
    for _ in range(200):
        td3_update(nets, buf, CONFIG, train_rng)
    logits = nets.actor.forward(states)
    choices = logits.argmax(axis=1)
    assert (choices == int(Action.RIGHT)).all()


# ---------------------------------------------------------------- episodes


def test_run_episode_stop_action():
    nets = make_networks(d=1, seed=0)
    force_constant_action(nets, Action.STOP)
    env = make_env(networks=nets)
    trace = run_episode(*env, epsilon=0.0)
    assert len(trace.steps) == 2
    assert trace.stop_reason == "action"
    assert all(s.action == Action.STOP for s in trace.steps)
    # STOP leaves the params alone, so only the start evaluation costs
    ev, *_ = env
    assert ev.rounds_used == 1


def test_run_episode_walks_out_of_bounds():
    nets = make_networks(d=1, seed=0)
    force_constant_action(nets, Action.LEFT)
    env = make_env(networks=nets, start=DbscanParams(0.25, 3))
    trace = run_episode(*env, epsilon=0.0)
    assert trace.stop_reason == "bounds"
    assert len(trace.steps) == 3
    assert trace.steps[-1].params.eps == 0.0


def test_run_episode_up_clamp_terminates():
    nets = make_networks(d=1, seed=0)
    force_constant_action(nets, Action.UP)
    env = make_env(networks=nets)
    trace = run_episode(*env, epsilon=0.0)
    # UP from min_pts=3 with bound 5: clamped at step 3 and flagged
    assert trace.stop_reason == "bounds"
    assert len(trace.steps) == 3


def test_run_episode_timeout():
    nets = make_networks(d=1, seed=0)
    force_constant_action(nets, Action.STOP)
    env = make_env(networks=nets, max_steps=1)
    trace = run_episode(*env, epsilon=0.0)
    # the stop-action guard needs step >= 2, so the cap fires first
    assert trace.stop_reason == "timeout"
    assert len(trace.steps) == 1


class InsertionOrder(ReplayBuffer):
    """A replay buffer that also lists its transitions in insertion order."""

    def __init__(self, capacity):
        super().__init__(capacity)
        self.inserted = []

    def insert(self, item):
        super().insert(item)
        self.inserted.append(item)


def test_run_episode_rewards_and_buffer():
    nets = make_networks(d=1, seed=0)
    force_constant_action(nets, Action.STOP)
    ev, layer, nets, _, config, rng = make_env(networks=nets)
    buffer = InsertionOrder(CONFIG.buffer_capacity)
    trace = run_episode(ev, layer, nets, buffer, config, rng, epsilon=0.0)
    assert trace.rewards == episode_rewards(
        [s.immediate for s in trace.steps], config.delta)
    assert len(buffer) == len(trace.steps)
    for stored, reward in zip(buffer.inserted, trace.rewards):
        assert stored.reward == reward


def test_run_episode_deterministic():
    traces = []
    for _ in range(2):
        env = make_env(seed=8)
        trace = run_episode(*env, epsilon=0.5)
        traces.append([(s.action, s.params.eps, s.params.min_pts, s.immediate)
                       for s in trace.steps] + [trace.stop_reason])
    assert traces[0] == traces[1]


def test_run_episode_budget_exhaustion():
    nets = make_networks(d=1, seed=0)
    force_constant_action(nets, Action.LEFT)  # a fresh eval every step
    env = make_env(networks=nets, round_budget=2)
    trace = run_episode(*env, epsilon=0.0)
    assert trace.stop_reason == "budget"
    assert len(trace.steps) == 1
    ev, *_ = env
    assert ev.rounds_used == 2


def test_run_episode_budget_spent_before_the_start():
    env = make_env(round_budget=1)
    ev, _, _, buffer, _, _ = env
    ev.evaluate(DbscanParams(0.2, 2))  # the one round, spent elsewhere
    trace = run_episode(*env, epsilon=0.0)
    assert trace.stop_reason == "budget"
    assert trace.steps == [] and trace.rewards == []
    assert ev.rounds_used == 1
    assert len(buffer) == 0


def round_scores(ev: ClusterEvaluator) -> list:
    """Labeled-subset NMI of each paid round's best-so-far assignment."""
    return [nmi(a[ev.labeled_idx], ev.labeled_truth)
            for a in ev.round_assignments]


def test_evaluator_cache_is_free():
    points = two_blob_points()
    ev = ClusterEvaluator(DbscanIndex(points), np.arange(10), blob_truth(),
                          round_budget=5)
    p = DbscanParams(0.2, 2)
    first = ev.evaluate(p)
    again = ev.evaluate(p)
    assert ev.rounds_used == 1
    assert first[1] == again[1]
    assert ev.best == DbscanParams(0.2, 2)
    assert round_scores(ev) == [first[1]]


def test_evaluator_builds_each_min_pts_tree_once(monkeypatch):
    points = np.random.default_rng(5).random((40, 2))
    queries = [DbscanParams(eps, min_pts) for min_pts in (2, 3, 2)
               for eps in (0.05, 0.1, 0.2, 0.4)]
    expected = [run_dbscan(points, params).assignment for params in queries]

    tables, trees = [], []
    sorted_neighbours = dbscan_core._sorted_neighbours
    prim_mst = dbscan_core._prim_mst

    def counted_sorted_neighbours(points, width):
        tables.append(width)
        return sorted_neighbours(points, width)

    def counted_prim_mst(points, core):
        trees.append(core.tobytes())
        return prim_mst(points, core)

    monkeypatch.setattr(dbscan_core, "_sorted_neighbours",
                        counted_sorted_neighbours)
    monkeypatch.setattr(dbscan_core, "_prim_mst", counted_prim_mst)
    ev = ClusterEvaluator(DbscanIndex(points), np.arange(10),
                          np.zeros(10, dtype=int), round_budget=12)
    for params, want in zip(queries, expected):
        np.testing.assert_array_equal(ev.evaluate(params)[0].assignment, want)
    assert ev.rounds_used == 8
    # one table, 2 * 2 wide, serves both trees: one per min_pts
    assert tables == [4]
    assert trees == [core_distances_oracle(points, m).tobytes()
                     for m in (2, 3)]


def test_evaluator_records_earliest_best_per_paid_round():
    points = two_blob_points()
    ev = ClusterEvaluator(DbscanIndex(points), np.arange(10), blob_truth(),
                          round_budget=3)
    merged = ev.evaluate(DbscanParams(1.0, 1))  # one cluster
    split = ev.evaluate(DbscanParams(0.2, 2))
    tie = ev.evaluate(DbscanParams(0.3, 2))  # same labeled NMI, paid later
    assert merged[1] < split[1] == tie[1]
    ev.evaluate(DbscanParams(1.0, 1))  # cache hit: no round
    assert ev.evaluate(DbscanParams(0.4, 2)) is None  # budget spent
    assert ev.rounds_used == 3
    assert ev.best == DbscanParams(0.2, 2)
    assert round_scores(ev) == [merged[1], split[1], split[1]]
    assert len(ev.round_assignments) == ev.rounds_used
    expect = [merged[0], split[0], split[0]]
    for got, want in zip(ev.round_assignments, expect):
        np.testing.assert_array_equal(got, want.assignment)


def test_evaluator_without_labeled_points_scores_zero():
    ev = ClusterEvaluator(DbscanIndex(two_blob_points()),
                          np.empty(0, dtype=np.int64),
                          np.empty(0, dtype=np.int64), round_budget=2)
    assert ev.evaluate(DbscanParams(0.2, 2))[1] == 0.0
    assert len(ev.round_assignments) == 1


def test_episode_trains_networks_once_buffer_filled():
    env = make_env(seed=13)
    _, _, nets, buffer, _, _ = env
    fill_buffer_uniform(buffer, np.random.default_rng(1), 32)
    run_episode(*env, epsilon=1.0)  # pure exploration, moves around
    assert nets.critic_1.t > 0

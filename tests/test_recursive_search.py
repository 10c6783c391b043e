"""Tests for the coarse-to-fine layer algebra and per-agent search."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ardbscan import recursive_search, search_env
from ardbscan.config import RunConfig
from ardbscan.dataset import Dataset
from ardbscan.dbscan_core import NOISE, DbscanParams, run_dbscan
from ardbscan.metrics import nmi
from ardbscan.recursive_search import (
    AgentResult,
    SearchLayer,
    first_layer,
    lattice_walk,
    layer_zero_bounds,
    merge_agent_results,
    next_layer,
    partition_index,
    run_agent,
)
from ardbscan.search_env import ClusterEvaluator


def offline_config(**overrides):
    base = dict(
        pi_eps=5,
        pi_minpts=4,
        minpts_cap_fraction=0.25,
        l_max=3,
        round_budget=30,
        episodes=15,
        max_steps=30,
    )
    base.update(overrides)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# layer-0 bounds


def test_layer_zero_eps_upper_is_max_normalized_distance():
    b = layer_zero_bounds(2, 100, 0.25)
    assert b.eps_lo == 0.0
    assert abs(b.eps_hi - math.sqrt(2)) < 1e-12


def test_layer_zero_minpts_cap_rounds_half_up():
    b = layer_zero_bounds(2, 788, 0.25)
    assert b.minpts_lo == 1
    assert b.minpts_hi == 197


def test_layer_zero_minpts_cap_floors_at_one():
    b = layer_zero_bounds(2, 3, 0.01)
    assert b.minpts_hi == 1
    b = layer_zero_bounds(2, 1, 0.25)
    assert b.minpts_hi == 1


# ---------------------------------------------------------------------------
# first layer


def test_first_layer_steps_and_midpoint():
    # partition of 163 points at cap fraction 0.25 gives a MinPts cap of 41
    cfg = offline_config()
    layer = first_layer(2, 163, cfg)
    assert layer.index == 0
    assert layer.bounds.minpts_hi == 41
    assert abs(layer.theta_eps - math.sqrt(2) / 5) < 1e-12
    assert layer.theta_minpts == 10
    assert abs(layer.start.eps - math.sqrt(2) / 2) < 1e-12
    assert layer.start.min_pts == 21


def test_first_layer_minpts_step_floors_at_one():
    cfg = offline_config()
    layer = first_layer(2, 1, cfg)
    assert layer.bounds.minpts_hi == 1
    assert layer.theta_minpts == 1
    assert layer.start.min_pts == 1


# ---------------------------------------------------------------------------
# layer recursion


def test_eps_step_divides_by_pi_each_layer():
    cfg = offline_config()
    layer = first_layer(2, 163, cfg)
    want = math.sqrt(2) / 5
    for _ in range(2):
        layer = next_layer(layer, layer.start, cfg)
        want /= 5
        assert abs(layer.theta_eps - want) < 1e-12


def test_minpts_step_sequence_ten_three_one():
    cfg = offline_config()
    layer = first_layer(2, 163, cfg)
    assert layer.theta_minpts == 10
    layer = next_layer(layer, layer.start, cfg)
    assert layer.theta_minpts == 3
    layer = next_layer(layer, layer.start, cfg)
    assert layer.theta_minpts == 1
    layer = next_layer(layer, layer.start, cfg)
    assert layer.theta_minpts == 1


def test_next_layer_centers_on_previous_best():
    cfg = offline_config()
    layer0 = first_layer(2, 163, cfg)
    p_o = DbscanParams(0.6, 21)
    layer1 = next_layer(layer0, p_o, cfg)
    assert layer1.index == 1
    assert layer1.start == p_o
    half_e = 2.5 * layer1.theta_eps
    assert abs(layer1.bounds.eps_lo - (0.6 - half_e)) < 1e-12
    assert abs(layer1.bounds.eps_hi - (0.6 + half_e)) < 1e-12
    # MinPts half-width is 2 steps of 3
    assert layer1.bounds.minpts_lo == 15
    assert layer1.bounds.minpts_hi == 27


def test_next_layer_clips_to_layer_zero_bounds():
    cfg = offline_config()
    layer0 = first_layer(2, 163, cfg)
    p_o = DbscanParams(math.sqrt(2) - 0.01, 40)
    layer1 = next_layer(layer0, p_o, cfg)
    assert layer1.bounds.eps_hi == layer0.bounds.eps_hi
    assert layer1.bounds.minpts_hi == 41
    assert layer1.bounds.minpts_lo == 34

    p_lo = DbscanParams(0.01, 2)
    layer1 = next_layer(layer0, p_lo, cfg)
    assert layer1.bounds.eps_lo == 0.0
    assert layer1.bounds.minpts_lo == 1


@settings(max_examples=300, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=8),
    size=st.integers(min_value=1, max_value=2000),
    frac=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    pi_e=st.integers(min_value=2, max_value=7),
    pi_m=st.integers(min_value=2, max_value=6),
    data=st.data(),
)
def test_layers_nest_and_steps_shrink(dim, size, frac, pi_e, pi_m, data):
    cfg = offline_config(pi_eps=pi_e, pi_minpts=pi_m, minpts_cap_fraction=frac)
    layer = first_layer(dim, size, cfg)
    outer = layer.bounds
    for _ in range(4):
        eps = data.draw(
            st.floats(
                min_value=layer.bounds.eps_lo,
                max_value=layer.bounds.eps_hi,
                allow_nan=False,
            )
        )
        mp = data.draw(
            st.integers(
                min_value=layer.bounds.minpts_lo,
                max_value=layer.bounds.minpts_hi,
            )
        )
        prev = layer
        layer = next_layer(layer, DbscanParams(eps, mp), cfg)
        b = layer.bounds
        assert outer.eps_lo <= b.eps_lo <= b.eps_hi <= outer.eps_hi
        assert outer.minpts_lo <= b.minpts_lo <= b.minpts_hi <= outer.minpts_hi
        assert layer.theta_eps < prev.theta_eps
        assert 1 <= layer.theta_minpts <= prev.theta_minpts
        assert b.eps_lo <= layer.start.eps <= b.eps_hi
        assert b.minpts_lo <= layer.start.min_pts <= b.minpts_hi


# ---------------------------------------------------------------------------
# run_agent


def two_blob_dataset(n_per=10):
    lo = np.full((n_per, 1), 0.1)
    hi = np.full((n_per, 1), 0.9)
    points = np.vstack([lo, hi])
    labels = np.array([0] * n_per + [1] * n_per)
    return Dataset(points, labels)


def small_config(**overrides):
    base = dict(
        episodes=4,
        max_steps=8,
        body_width=64,
        hidden_width=16,
        round_budget=12,
        l_max=2,
    )
    base.update(overrides)
    return offline_config(**base)


def agent(partition, dataset, labeled, config, seed):
    """The lattice walk over a fresh record of ``partition``."""
    return run_agent(partition_index(dataset, partition), dataset, labeled,
                     config, seed, lattice_walk, 0)


def test_run_agent_keeps_perfect_start_params():
    ds = two_blob_dataset()
    sub = np.arange(20)
    res = agent(np.arange(20), ds, sub, small_config(), seed=7)
    # the layer-0 midpoint already scores a perfect labeled NMI, and
    # ties break toward the earliest evaluation
    assert res.params == DbscanParams(0.5, 3)
    assert res.reward == pytest.approx(1.0)
    assert nmi(res.assignment, ds.labels) == pytest.approx(1.0)


def round_scores(res, ds, sub) -> list:
    """Labeled-subset NMI of each paid round's best-so-far assignment."""
    labeled = sub[np.isin(sub, res.partition)]
    local = np.searchsorted(res.partition, labeled)
    return [nmi(a[local], ds.labels[labeled]) for a in res.round_assignments]


def test_run_agent_is_deterministic():
    ds = two_blob_dataset()
    sub = np.arange(0, 20, 3)
    a = agent(np.arange(20), ds, sub, small_config(), seed=11)
    b = agent(np.arange(20), ds, sub, small_config(), seed=11)
    assert a.params == b.params
    assert a.reward == b.reward
    assert a.rounds_used == b.rounds_used
    np.testing.assert_array_equal(a.assignment, b.assignment)
    for x, y in zip(a.round_assignments, b.round_assignments):
        np.testing.assert_array_equal(x, y)


def test_run_agent_respects_round_budget():
    ds = two_blob_dataset()
    sub = np.arange(20)
    cfg = small_config(round_budget=5)
    res = agent(np.arange(20), ds, sub, cfg, seed=3)
    assert res.rounds_used <= 5
    assert len(res.round_assignments) == res.rounds_used


def test_run_agent_round_series_is_nondecreasing():
    ds = two_blob_dataset()
    sub = np.arange(0, 20, 2)
    res = agent(np.arange(20), ds, sub, small_config(), seed=5)
    scores = round_scores(res, ds, sub)
    for earlier, later in zip(scores, scores[1:]):
        assert later >= earlier
    assert res.reward == scores[-1]


def test_run_agent_partition_subset_of_dataset():
    ds = two_blob_dataset()
    part = np.arange(10)  # only the low blob
    sub = np.array([0, 3, 6, 14, 17])
    res = agent(part, ds, sub, small_config(), seed=2)
    assert res.assignment.shape == (10,)
    assert all(len(a) == 10 for a in res.round_assignments)


def test_run_agent_shares_a_partition_index():
    # a shared record gives each seed the result a fresh one gives, and
    # keeps the spanning trees the earlier seeds built
    ds = two_blob_dataset()
    sub = np.arange(0, 20, 3)
    part = np.array([12, 3, 0, 7, 19, 5, 10, 15])  # any order
    record = partition_index(ds, part)
    np.testing.assert_array_equal(record.ids, np.sort(part))
    np.testing.assert_array_equal(record.index.points, ds.points[record.ids])
    assert not record.index._trees  # built lazily, by the first round
    trees = []
    for seed in (4, 9):
        shared = run_agent(record, ds, sub, small_config(), seed,
                           lattice_walk, 0)
        alone = agent(part, ds, sub, small_config(), seed)
        np.testing.assert_array_equal(shared.partition, record.ids)
        assert shared.params == alone.params
        for x, y in zip(shared.round_assignments, alone.round_assignments):
            np.testing.assert_array_equal(x, y)
        trees.append(dict(record.index._trees))
    assert trees[0] and all(trees[1][m] is tree for m, tree in trees[0].items())


def test_run_agent_degenerate_without_labels():
    ds = two_blob_dataset()
    part = np.arange(10)
    sub = np.array([15, 16])  # none fall in the partition
    res = agent(part, ds, sub, small_config(), seed=4)
    assert res.rounds_used == 1
    assert res.reward == 0.0
    # snapped layer-0 midpoint, no search
    assert res.params == DbscanParams(0.5, 2)
    expect = run_dbscan(ds.points[part], res.params).assignment
    np.testing.assert_array_equal(res.assignment, expect)


# seeds 4 and 6 reach their best reward after round 0 and tie it later
@pytest.mark.parametrize("seed", [1, 4, 6])
def test_run_agent_params_are_earliest_paid_maximum(monkeypatch, seed):
    paid = []
    evaluate = ClusterEvaluator.evaluate

    def recording(self, params):
        before = self.rounds_used
        out = evaluate(self, params)
        if self.rounds_used > before:
            paid.append((params, out[1]))
        return out

    monkeypatch.setattr(ClusterEvaluator, "evaluate", recording)
    rng = np.random.default_rng(seed)
    # rounded coordinates: duplicate points and many tied rewards
    points = np.round(np.concatenate([rng.normal(c, 0.08, (15, 2))
                                      for c in (0.2, 0.5, 0.8)]), 1)
    ds = Dataset(points, np.repeat([0, 1, 2], 15))
    sub = np.arange(0, 45, 4)
    res = agent(np.arange(45), ds, sub, small_config(l_max=3), seed=seed)
    rewards = [r for _, r in paid]
    assert res.params == paid[rewards.index(max(rewards))][0]
    assert res.reward == max(rewards)
    assert round_scores(res, ds, sub) == list(np.maximum.accumulate(rewards))


def test_run_agent_single_point_partition():
    ds = two_blob_dataset()
    part = np.array([0])
    sub = np.array([0])
    res = agent(part, ds, sub, small_config(), seed=9)
    assert res.assignment.tolist() == [0]
    assert res.reward == pytest.approx(1.0)


def test_run_agent_layer_history_length():
    ds = two_blob_dataset()
    sub = np.arange(20)
    cfg = small_config(l_max=3, round_budget=30)
    res = agent(np.arange(20), ds, sub, cfg, seed=1)
    assert 1 <= len(res.layer_history) <= 3
    assert res.layer_history[-1] == res.params


def test_lattice_walk_frees_a_layers_networks_before_the_next(monkeypatch):
    # two layers' networks never live at once: each layer's are gone by
    # the time the next layer builds its own
    built = []

    class Recorded(search_env.PolicyNetworks):
        def __init__(self, *args):
            assert [ref for ref in built if ref() is not None] == []
            super().__init__(*args)
            built.append(weakref.ref(self))

    monkeypatch.setattr(recursive_search, "PolicyNetworks", Recorded)
    ds = two_blob_dataset()
    cfg = small_config(l_max=3, round_budget=30)
    res = agent(np.arange(20), ds, np.arange(20), cfg, seed=1)
    assert len(built) == len(res.layer_history) == 3


# ---------------------------------------------------------------------------
# wiring: the run's config reaches every episode and every TD3 step


def three_blob_dataset():
    rng = np.random.default_rng(0)
    points = np.concatenate([rng.normal(c, 0.05, (20, 2))
                             for c in (0.2, 0.5, 0.8)])
    return Dataset(np.clip(points, 0.0, 1.0), np.repeat([0, 1, 2], 20))


def test_run_agent_episodes_stop_at_max_steps():
    cfg = small_config(max_steps=3, round_budget=40, episodes=10)
    res = agent(np.arange(60), three_blob_dataset(),
                np.arange(0, 60, 3), cfg, seed=0)
    assert any(t.stop_reason == "timeout" for t in res.episodes)
    assert max(len(t.steps) for t in res.episodes) == 3


TD3_KEYS = ("gamma", "batch_size", "tau", "actor_delay", "noise_sigma",
            "noise_clip")


def test_run_agent_trains_with_the_run_td3_values(monkeypatch):
    seen = []
    update = search_env.td3_update

    def recording(networks, buffer, config, rng):
        out = update(networks, buffer, config, rng)
        seen.append((tuple(getattr(config, key) for key in TD3_KEYS),
                     out is not None))
        return out

    monkeypatch.setattr(search_env, "td3_update", recording)
    run = dict(gamma=0.3, batch_size=4, tau=0.01, actor_delay=3,
               noise_sigma=0.3, noise_clip=0.7)
    cfg = small_config(round_budget=40, episodes=10, **run)
    agent(np.arange(60), three_blob_dataset(),
          np.arange(0, 60, 3), cfg, seed=0)
    assert any(trained for _, trained in seen)
    assert {values for values, _ in seen} == {tuple(run[k] for k in TD3_KEYS)}


# ---------------------------------------------------------------------------
# merging


def stub_result(partition_id, partition, assignment, rounds=None):
    assignment = np.asarray(assignment)
    rounds = rounds if rounds is not None else [assignment]
    return AgentResult(
        partition_id=partition_id,
        partition=np.asarray(partition),
        params=DbscanParams(0.5, 1),
        reward=0.0,
        assignment=assignment,
        round_assignments=[np.asarray(r) for r in rounds],
        rounds_used=len(rounds),
        layer_history=(DbscanParams(0.5, 1),),
        episodes=(),
    )


def test_merge_offsets_cluster_ids():
    a = stub_result(0, [0, 1, 2], [0, 1, 0])
    b = stub_result(1, [3, 4, 5, 6], [0, 1, 2, NOISE])
    rounds = merge_agent_results([a, b], 7, num_rounds=1)
    assert rounds[-1].tolist() == [0, 1, 0, 2, 3, 4, NOISE]
    assert rounds[-1].max() + 1 == 5


def test_merge_all_noise_agent_adds_no_clusters():
    a = stub_result(0, [0, 1, 2], [0, 1, 0])
    b = stub_result(1, [3, 4, 5, 6], [NOISE] * 4)
    rounds = merge_agent_results([a, b], 7, num_rounds=1)
    assert rounds[-1].tolist() == [0, 1, 0, NOISE, NOISE, NOISE, NOISE]
    assert rounds[-1].max() + 1 == 2


def test_merge_scatters_through_interleaved_partitions():
    a = stub_result(0, [0, 2, 4], [0, 0, 1])
    b = stub_result(1, [1, 3, 5], [0, NOISE, 0])
    rounds = merge_agent_results([a, b], 6, num_rounds=1)
    assert rounds[-1].tolist() == [0, 2, 0, NOISE, 1, 2]


def test_merge_aligns_rounds_by_repeating_last():
    a_rounds = [[0, 0, NOISE], [0, 1, NOISE]]
    b_rounds = [[NOISE, 0], [0, 0], [0, 1], [1, 0]]
    a = stub_result(0, [0, 1, 2], [0, 1, NOISE], rounds=a_rounds)
    b = stub_result(1, [3, 4], [1, 0], rounds=b_rounds)
    rounds = merge_agent_results([a, b], 5, num_rounds=1)
    assert len(rounds) == 4
    # rounds 3 and 4 reuse agent A's final round
    assert rounds[2].tolist()[:3] == [0, 1, NOISE]
    assert rounds[3].tolist()[:3] == [0, 1, NOISE]
    assert rounds[0].tolist() == [0, 0, NOISE, NOISE, 1]
    assert rounds[-1].tolist() == [0, 1, NOISE, 3, 2]


def test_merge_pads_to_requested_round_count():
    a = stub_result(0, [0, 1], [0, 0], rounds=[[0, 0]])
    rounds = merge_agent_results([a], 2, num_rounds=5)
    assert len(rounds) == 5
    for r in rounds:
        assert r.tolist() == [0, 0]


def test_merge_rejects_overlapping_partitions():
    a = stub_result(0, [0, 1, 2], [0, 0, 0])
    b = stub_result(1, [2, 3], [0, 0])
    with pytest.raises(ValueError, match="overlap"):
        merge_agent_results([a, b], 4, num_rounds=1)


def test_merge_rejects_uncovered_points():
    a = stub_result(0, [0, 1], [0, 0])
    b = stub_result(1, [3], [0])
    with pytest.raises(ValueError, match="cover"):
        merge_agent_results([a, b], 4, num_rounds=1)


def test_merge_orders_agents_by_partition_id():
    b = stub_result(1, [3, 4, 5, 6], [0, 1, 2, NOISE])
    a = stub_result(0, [0, 1, 2], [0, 1, 0])
    rounds = merge_agent_results([b, a], 7, num_rounds=1)
    assert rounds[-1].tolist() == [0, 1, 0, 2, 3, 4, NOISE]

"""Tests for evaluation: replayed scoring, the filter arms, and the
per-episode CSV."""

import dataclasses

import numpy as np
import pytest

from oracles import sequential_rollout
from safebc import evaluation
from safebc.barrier import BarrierFunction
from safebc.evaluation import (ExperimentSpec, evaluate, feasible_steps,
                               metrics_from_records, read_episode_csv,
                               run_episodes, threshold_sweep)
from safebc.neural_operator import BoundaryOperator
from safebc.pde_sim import (ConfigurationError, FromFile, HyperbolicConfig,
                            Proportional, SimulationDivergedError,
                            SmoothRandom, TimeGrid, rollout,
                            squared_norms, stabilization_reward)
from safebc.safety_filter import (FilterConfig, FilterInfeasibleError,
                                  filter_batch)
from safebc.trajectories import OneSidedSet

GRID = TimeGrid(5.0, 20)
ENV = HyperbolicConfig(beta=0.5, grid=GRID)


@pytest.fixture
def spec(tmp_path):
    op_path, bar_path = tmp_path / "op.ckpt", tmp_path / "bar.ckpt"
    BoundaryOperator(GRID, d_v=4, n_layers=2, seed=1).save(op_path)
    BarrierFunction(seed=2).save(bar_path)
    return ExperimentSpec(env=ENV, controller=SmoothRandom(seed=2),
                          safe_set=OneSidedSet(1, 1.0),
                          filter=FilterConfig(eta=1e9),
                          operator_path=str(op_path),
                          bcbf_path=str(bar_path), episodes=6,
                          U0_range=(0.1, 2.0), seed=4)


def test_feasible_steps_counts_the_safe_suffix():
    assert feasible_steps([False, True, True]) == 2
    assert feasible_steps([True, True, True]) == 3
    assert feasible_steps([True, False]) == 0
    assert feasible_steps([]) == 0


def test_filter_off_scores_the_closed_loop_run_bitwise(spec):
    records = run_episodes(spec)
    for r in records:
        _, Y, states = sequential_rollout(ENV, spec.controller, r.U0,
                                          episode_seed=r.episode)
        assert r.reward == stabilization_reward(squared_norms(states))
        assert r.feasible_steps == feasible_steps(spec.safe_set.contains(Y))
        assert r.feasible == (r.feasible_steps > 0)


def counting(monkeypatch):
    """The U0 arguments of every evaluation.rollout call, in order, and the
    number of controller instances each call was given."""
    calls, instances = [], []

    def counting_rollout(env, controllers, U0, episode_seeds=None):
        calls.append(list(U0))
        instances.append(len({id(c) for c in controllers}))
        return rollout(env, controllers, U0, episode_seeds)

    monkeypatch.setattr(evaluation, "rollout", counting_rollout)
    return calls, instances


@pytest.mark.parametrize("filter_on, eta", [(False, 1e9), (True, 0.0)])
def test_unchanged_input_is_scored_without_a_replay(spec, monkeypatch,
                                                    filter_on, eta):
    calls, instances = counting(monkeypatch)
    run_episodes(dataclasses.replace(spec, filter_on=filter_on,
                                     filter=FilterConfig(eta=eta)))
    assert len(calls) == 1 and len(calls[0]) == spec.episodes
    assert instances == [1]


def test_only_changed_inputs_are_replayed_in_one_batch(spec, monkeypatch):
    calls, instances = counting(monkeypatch)
    # at this threshold the filter changes some inputs, not all
    on = dataclasses.replace(spec, filter_on=True,
                             filter=FilterConfig(eta=6.0))
    records = run_episodes(on)
    assert len(calls) == 2 and 0 < len(calls[1]) < spec.episodes
    # the nominal run and the replay each drive every episode with one
    # controller instance, so each makes one control call per grid step
    assert instances == [1, 1]
    # the replay starts from the nominal U0 of each changed episode; the
    # others are scored on their nominal run
    changed = [r for r in records if r.U0 in calls[1]]
    assert len(changed) == len(calls[1])
    op = BoundaryOperator.load(on.operator_path)
    bar = BarrierFunction.load(on.bcbf_path)
    nominal = [sequential_rollout(ENV, spec.controller, r.U0,
                                  episode_seed=r.episode) for r in records]
    # evaluation scores the rows of one batched filter walk
    reports = filter_batch(op, bar, np.array([U for U, _, _ in nominal]),
                           on.filter)
    for r, (U, Y, states), report in zip(records, nominal, reports):
        U_safe = report.U_safe
        if r in changed:
            _, Y, states = sequential_rollout(ENV, FromFile(U_safe),
                                              U_safe[0])
        else:
            assert np.array_equal(U_safe, U)
        assert r.reward == stabilization_reward(squared_norms(states))


def counting_filter(monkeypatch):
    """(nominal batch, reports) of every evaluation.filter_batch call, and
    the row count and first computed row of every forward_batch call."""
    calls, forwards, starts = [], [], []
    forward_batch = BoundaryOperator.forward_batch

    def counting_forward(self, UU, start=0, prior=None):
        forwards.append(len(UU))
        starts.append(start)
        return forward_batch(self, UU, start, prior)

    def counting_batch(op, bar, UU, config):
        calls.append((UU.copy(), []))
        calls[-1][1].extend(filter_batch(op, bar, UU, config))
        return calls[-1][1]

    monkeypatch.setattr(BoundaryOperator, "forward_batch", counting_forward)
    monkeypatch.setattr(evaluation, "filter_batch", counting_batch)
    return calls, forwards, starts


@pytest.mark.parametrize("episodes", [6, 12])
def test_one_filter_walk_with_one_forward_per_changed_step(
        spec, monkeypatch, episodes):
    # one forward for every episode's first prediction, then one after
    # each step that changed some episode's input (the last at the end),
    # so the count does not grow with the number of episodes
    calls, forwards, starts = counting_filter(monkeypatch)
    run_episodes(dataclasses.replace(spec, filter_on=True,
                                     episodes=episodes))
    [(UU, reports)] = calls
    assert len(UU) == episodes
    changed_at = {r.step for report in reports for r in report.records
                  if r.du_qp != r.du_nom and r.active and r.accepted
                  and not r.infeasible}
    assert changed_at and len(forwards) == 1 + len(changed_at)
    assert forwards[0] == episodes
    assert len(forwards) <= GRID.M + 1
    # the first prediction is whole; a re-forward after a change at step m
    # starts at row m, the first row the change moved (the walk reads it
    # from m + 1), and keeps the earlier rows of the prediction before
    assert starts == [0] + sorted(changed_at)


def first_infeasible_steps(spec, monkeypatch):
    """Save an operator and a barrier and draw episodes under which episode
    1 meets an infeasible step before episode 0 does. Returns the filter-on
    spec, the filter_batch calls and each episode's first infeasible step
    under the fallback policy."""
    BoundaryOperator(GRID, d_v=4, n_layers=2, seed=0).save(
        spec.operator_path)
    BarrierFunction(seed=4).save(spec.bcbf_path)
    calls, _, _ = counting_filter(monkeypatch)
    on = dataclasses.replace(spec, filter_on=True, seed=1)
    run_episodes(on)
    first = [next((r.step for r in report.records if r.infeasible), None)
             for report in calls[0][1]]
    assert None not in first[:2] and first[1] < first[0]
    return (dataclasses.replace(on, filter=FilterConfig(
        eta=on.filter.eta, infeasible_policy="abort")), calls, first)


def test_the_abort_policy_stops_at_the_first_infeasible_episode(
        spec, monkeypatch):
    # the error names episode 0 at its first infeasible step, as filtering
    # the episodes in order would
    abort, calls, first = first_infeasible_steps(spec, monkeypatch)
    with pytest.raises(FilterInfeasibleError) as info:
        run_episodes(abort)
    assert (info.value.episode, info.value.step) == (0, first[0])
    assert str(info.value) == \
        f"constraint unsatisfiable at step {first[0]} of episode 0"
    # one walk over the same nominal episodes
    assert len(calls) == 2 and np.array_equal(calls[1][0], calls[0][0])


def test_an_abort_names_the_episode_not_the_batch_row(spec, monkeypatch):
    # with episode 0 read as diverged, batch row 0 is episode 1
    abort, calls, first = first_infeasible_steps(spec, monkeypatch)

    def rollout_with_episode_0_diverged(*args, **kwargs):
        result = rollout(*args, **kwargs)
        result.diverged[0] = 1
        return result

    monkeypatch.setattr(evaluation, "rollout",
                        rollout_with_episode_0_diverged)
    with pytest.raises(FilterInfeasibleError) as info:
        run_episodes(abort)
    assert (info.value.row, info.value.episode, info.value.step) == \
        (0, 1, first[1])
    assert np.array_equal(calls[1][0], calls[0][0][1:])


def test_filter_off_metrics_equal_zero_threshold_metrics(spec):
    off = evaluate(spec)
    zero = evaluate(dataclasses.replace(
        spec, filter_on=True, filter=FilterConfig(eta=0.0)))
    assert zero == off


def test_filter_on_changes_some_episode(spec):
    # the fixture's filter acts, so the test above compares two arms that
    # could differ
    on = run_episodes(dataclasses.replace(spec, filter_on=True))
    off = run_episodes(spec)
    assert [r.reward for r in on] != [r.reward for r in off]


@pytest.mark.parametrize("filter_on", [False, True])
def test_episode_csv_re_aggregates_exactly(spec, tmp_path, filter_on):
    path = tmp_path / "episodes.csv"
    metrics = evaluate(dataclasses.replace(spec, filter_on=filter_on),
                       episodes_csv=path)
    assert metrics_from_records(read_episode_csv(path)) == metrics


def test_diverged_episodes_count_as_infeasible(tmp_path, monkeypatch):
    # beta=200 on this grid overflows the state within the horizon, so
    # every episode diverges
    spec = ExperimentSpec(
        env=HyperbolicConfig(beta=200.0, grid=TimeGrid(10.0, 40)),
        controller=Proportional(0.5), safe_set=OneSidedSet(1, 1.0),
        episodes=2)
    diverged = []

    def recording_rollout(*args, **kwargs):
        result = rollout(*args, **kwargs)
        diverged.append(result.diverged)
        return result

    monkeypatch.setattr(evaluation, "rollout", recording_rollout)
    path = tmp_path / "episodes.csv"
    records = run_episodes(spec)
    with np.errstate(invalid="ignore"):  # the spread of -inf rewards
        metrics = evaluate(spec, episodes_csv=path)
        back = metrics_from_records(read_episode_csv(path))
    # one batch per call, each episode at the oracle's divergence step
    assert len(diverged) == 2
    for r in records:
        with pytest.raises(SimulationDivergedError) as err:
            sequential_rollout(spec.env, spec.controller, r.U0,
                               episode_seed=r.episode)
        assert diverged[0][r.episode] == diverged[1][r.episode] \
            == err.value.step
    assert all(r.reward == float("-inf") and not r.feasible
               and r.feasible_steps == 0 for r in records)
    assert metrics.reward_mean == float("-inf")
    assert metrics.feasible_rate == 0.0
    # -inf rewards give a NaN spread, which == would call unequal
    assert np.array_equal(dataclasses.astuple(back),
                          dataclasses.astuple(metrics), equal_nan=True)


def test_sweep_shares_episodes_across_thresholds(spec):
    (_, zero), (_, wide) = threshold_sweep(spec, [0.0, 1e9])
    assert zero == evaluate(spec)
    assert zero.episodes == wide.episodes == spec.episodes


def test_filter_on_needs_both_checkpoints(spec):
    with pytest.raises(ConfigurationError):
        run_episodes(dataclasses.replace(spec, filter_on=True,
                                         bcbf_path=None))

"""Tests for evaluation: replayed scoring, the filter arms, and the
per-episode CSV."""

import dataclasses

import numpy as np
import pytest

from safebc import evaluation
from safebc.barrier import BarrierFunction
from safebc.evaluation import (ExperimentSpec, evaluate, feasible_steps,
                               metrics_from_records, read_episode_csv,
                               run_episodes, threshold_sweep)
from safebc.neural_operator import BoundaryOperator
from safebc.pde_sim import (ConfigurationError, HyperbolicConfig,
                            Proportional, SimulationDivergedError,
                            SmoothRandom, TimeGrid, rollout,
                            stabilization_reward)
from safebc.safety_filter import FilterConfig
from safebc.trajectories import OneSidedSet, label_safety

GRID = TimeGrid(5.0, 20)
ENV = HyperbolicConfig(beta=0.5, grid=GRID)


@pytest.fixture
def spec(tmp_path):
    op_path, bar_path = tmp_path / "op.ckpt", tmp_path / "bar.ckpt"
    BoundaryOperator(GRID, d_v=4, n_layers=2, seed=1).save(op_path)
    BarrierFunction(time_dependent=True, seed=2).save(bar_path)
    return ExperimentSpec(env=ENV, controller=SmoothRandom(seed=2),
                          safe_set=OneSidedSet(1, 1.0),
                          filter=FilterConfig(eta=1e9),
                          operator_path=str(op_path),
                          bcbf_path=str(bar_path), episodes=6,
                          U0_range=(0.1, 2.0), seed=4)


def test_feasible_steps_counts_the_safe_suffix():
    assert feasible_steps([False, True, True]) == 2
    assert feasible_steps([True, True, True]) == 3
    assert feasible_steps([True, False]) is None
    assert feasible_steps([]) is None


def test_filter_off_scores_the_closed_loop_run_bitwise(spec):
    records = run_episodes(spec)
    for r in records:
        closed = rollout(ENV, spec.controller, r.U0, episode_seed=r.episode)
        assert r.reward == stabilization_reward(closed.states)
        assert r.feasible_steps == (
            feasible_steps(label_safety(closed.Y, spec.safe_set)) or 0)


@pytest.mark.parametrize("filter_on, eta", [(False, 1e9), (True, 0.0)])
def test_unchanged_input_is_scored_without_a_replay(spec, monkeypatch,
                                                    filter_on, eta):
    calls = []

    def counting_rollout(*args, **kwargs):
        calls.append(args)
        return rollout(*args, **kwargs)

    monkeypatch.setattr(evaluation, "rollout", counting_rollout)
    run_episodes(dataclasses.replace(spec, filter_on=filter_on,
                                     filter=FilterConfig(eta=eta)))
    assert len(calls) == spec.episodes


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
    # every rollout raises
    spec = ExperimentSpec(
        env=HyperbolicConfig(beta=200.0, grid=TimeGrid(10.0, 40)),
        controller=Proportional(0.5), safe_set=OneSidedSet(1, 1.0),
        episodes=2)
    raised = []

    def recording_rollout(*args, **kwargs):
        try:
            return rollout(*args, **kwargs)
        except SimulationDivergedError as err:
            raised.append(err.step)
            raise

    monkeypatch.setattr(evaluation, "rollout", recording_rollout)
    path = tmp_path / "episodes.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        records = run_episodes(spec)
        metrics = evaluate(spec, episodes_csv=path)
        back = metrics_from_records(read_episode_csv(path))
    assert len(raised) == 2 * spec.episodes
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

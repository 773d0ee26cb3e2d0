"""Tests for the training loop and its two presets.

`train_operator` and `train_bcbf` are `train_joint` with the other part's
epochs set to 0, so each preset must give bitwise the parameters, history
rows and history weights of that call.
"""

import dataclasses

import numpy as np
import pytest

from safebc.barrier import FeasibilityConstants
from safebc.pde_sim import ConfigurationError, Constant, HyperbolicConfig, \
    Proportional, SmoothRandom, TimeGrid
from safebc.training import (BarrierSchedule, OperatorSchedule, TrainConfig,
                             TrainHistory, train_bcbf, train_joint,
                             train_operator)
from safebc.trajectories import OneSidedSet, collect_dataset

SOURCES = ("data-fd", "operator")
CONSTANTS = FeasibilityConstants(alpha=1e-5, T=5.0)


def small_dataset(safe_set=OneSidedSet(1, 1.0)):
    env = HyperbolicConfig(beta=0.5, grid=TimeGrid(5.0, 20))
    controllers = [SmoothRandom(seed=1), Proportional(0.5), Constant()]
    return collect_dataset(env, controllers, 16, (0.1, 2.0), safe_set,
                           seed=3)


def small_config(dy_dt_source="data-fd", **kwargs):
    return TrainConfig(
        operator=OperatorSchedule(epochs=3, d_v=4, batch_trajectories=4),
        bcbf=BarrierSchedule(epochs=3, batch_samples=64, decay_every=2),
        dy_dt_source=dy_dt_source, **kwargs)


def without(config, part):
    """The config with one part's epochs set to 0."""
    sched = getattr(config, part)
    return dataclasses.replace(
        config, **{part: dataclasses.replace(sched, epochs=0)})


def assert_same_params(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def assert_same_history(a, b):
    assert a.rows == b.rows
    assert a.weights == b.weights


@pytest.fixture(scope="module")
def dataset():
    return small_dataset()


@pytest.mark.parametrize("source", SOURCES)
def test_train_operator_is_joint_without_barrier_epochs(dataset, source):
    config = small_config(source)
    op, hist = train_operator(dataset, config, seed=5)
    op_j, _, hist_j = train_joint(dataset, CONSTANTS,
                                  without(config, "bcbf"), seed=5)
    assert len(hist.rows) == config.operator.epochs
    assert_same_params(op.params(), op_j.params())
    assert_same_history(hist, hist_j)


@pytest.mark.parametrize("source", SOURCES)
def test_train_bcbf_is_joint_without_operator_epochs(dataset, source):
    config = small_config(source)
    # with no operator epochs the joint loop keeps its operator at its
    # initialization; the preset is given that same operator
    op_j, bar_j, hist_j = train_joint(dataset, CONSTANTS,
                                      without(config, "operator"), seed=5)
    bar, hist = train_bcbf(dataset, op_j, CONSTANTS, config, seed=5)
    assert len(hist.rows) == config.bcbf.epochs
    assert_same_params(bar.params(), bar_j.params())
    assert_same_history(hist, hist_j)


def test_history_records_the_loss_weights(dataset):
    config = small_config(lambda_BF=0.25)
    _, hist = train_bcbf(dataset, None, CONSTANTS, config, seed=0)
    assert hist.weights == {"lambda_G": 1.0, "lambda_S": 1.0,
                            "lambda_BF": 0.25}


def test_train_operator_trains_on_an_all_safe_dataset():
    data = small_dataset(OneSidedSet(1, 1e6))
    assert all(p.safe.all() for p in data.pairs)
    op, hist = train_operator(data, small_config(), seed=0)
    assert len(hist.rows) == 3
    assert all(np.isfinite(r["L_G"]) for r in hist.rows)


def test_joint_loop_skips_barrier_preparation_without_barrier_epochs():
    data = small_dataset(OneSidedSet(1, 1e6))
    _, _, hist = train_joint(data, CONSTANTS,
                             without(small_config(), "bcbf"), seed=0)
    assert len(hist.rows) == 3


def test_joint_loop_uses_a_given_operator_frozen(dataset):
    op, _ = train_operator(dataset, small_config(), seed=2)
    before = [p.copy() for p in op.params()]
    op_out, _, hist = train_joint(dataset, CONSTANTS,
                                  small_config("operator"), seed=2,
                                  operator=op)
    assert op_out is op
    assert_same_params(op.params(), before)
    assert all(r["L_G"] == 0.0 and r["val_LG"] == 0.0 for r in hist.rows)


def test_barrier_training_rejects_an_all_safe_dataset():
    data = small_dataset(OneSidedSet(1, 1e6))
    with pytest.raises(ValueError, match="safe and unsafe"):
        train_bcbf(data, None, CONSTANTS, small_config(), seed=0)


@pytest.mark.parametrize("kwargs", [{"mode": "jiont"},
                                    {"dy_dt_source": "operatr"}])
def test_unknown_mode_or_rate_source_is_rejected(kwargs):
    with pytest.raises(ConfigurationError, match="unknown"):
        TrainConfig(**kwargs)


def test_operator_rates_need_an_operator(dataset):
    with pytest.raises(ValueError, match="requires an operator"):
        train_bcbf(dataset, None, CONSTANTS, small_config("operator"))


def test_history_round_trips_through_csv(dataset, tmp_path):
    _, hist = train_operator(dataset, small_config(), seed=1)
    path = tmp_path / "hist.csv"
    hist.save(path)
    back = TrainHistory.read(path)
    assert_same_history(back, hist)

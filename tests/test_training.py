"""Tests for the training loop and its two presets.

`train_operator` and `train_bcbf` are `train_joint` with the other part's
epochs set to 0, so each preset must give bitwise the parameters, history
rows and history weights of that call.
"""

import dataclasses

import numpy as np
import pytest

from safebc.barrier import (BarrierFunction, FeasibilityConstants,
                            loss_decrease_condition, loss_safe_set,
                            loss_sublevel_margin)
from safebc.nets import Mlp
from safebc.neural_operator import BoundaryOperator, u_dot_forward
from safebc.pde_sim import ConfigurationError, Constant, HyperbolicConfig, \
    Proportional, SmoothRandom, TimeGrid
from safebc.training import (BarrierSchedule, OperatorSchedule, StopReason,
                             TrainConfig, TrainHistory, _BarrierSamples,
                             train_bcbf, train_joint, train_operator)
from safebc.trajectories import (OneSidedSet, balance_near_zero,
                                 collect_dataset, suffix_safe_mask)

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
    assert a.stopped == b.stopped


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


@pytest.mark.parametrize("source", SOURCES)
def test_barrier_samples_concatenate_the_trajectories_in_order(dataset,
                                                               source):
    rows = np.array([1, 4, 5, 11])
    retained = balance_near_zero(dataset, (-0.5, 0.5), 0.3, seed=2)
    op = BoundaryOperator(dataset.grid, d_v=4, n_layers=1, seed=0)
    samples = _BarrierSamples(dataset, rows, retained)
    samples.set_rates(source, op)
    # reference: one trajectory at a time, then concatenated
    times, dt = dataset.grid.times(), dataset.grid.dt
    parts = {}
    for k in rows:
        U, Y, safe, keep = (dataset.U[k], dataset.Y[k], dataset.safe[k],
                            retained[k, :-1])
        if source == "operator":
            _, lam, mu = op.predict(U)
            dY = (lam * u_dot_forward(U, dt) + mu)[:-1]
        else:
            dY = np.diff(Y) / dt
        for name, value in (
                ("cls_t", times), ("cls_Y", Y),
                ("cls_safe", suffix_safe_mask(safe)), ("cls_unsafe", ~safe),
                ("bf_t", times[:-1][keep]), ("bf_Y", Y[:-1][keep]),
                ("bf_Y0", np.full(keep.sum(), U[0])), ("bf_dY", dY[keep])):
            parts.setdefault(name, []).append(value)
    assert 0 < samples.bf_t.size < rows.size * (times.size - 1)
    for name, values in parts.items():
        want, got = np.concatenate(values), getattr(samples, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), \
            name


def test_history_records_the_loss_weights(dataset):
    config = small_config(lambda_BF=0.25)
    _, hist = train_bcbf(dataset, None, CONSTANTS, config, seed=0)
    assert hist.weights == {"lambda_G": 1.0, "lambda_S": 1.0,
                            "lambda_BF": 0.25}


def test_train_operator_trains_on_an_all_safe_dataset():
    data = small_dataset(OneSidedSet(1, 1e6))
    assert data.safe.all()
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
    # a run that completes writes no stop line
    assert hist.stopped is None and back.stopped is None
    assert [line for line in path.read_text().splitlines()
            if line.startswith("#")] == ["# lambda_BF=0.5 lambda_G=1 "
                                         "lambda_S=1"]


def test_a_diverging_run_records_why_it_stopped(dataset, tmp_path):
    config = small_config()
    config = dataclasses.replace(
        config, operator=dataclasses.replace(config.operator, lr=1e100))
    with np.errstate(over="ignore", invalid="ignore"):
        op, hist = train_operator(dataset, config, seed=1)
    assert hist.rows == []
    assert hist.stopped == StopReason("FloatingPointError", 0,
                                      "non-finite operator output")
    # the failed epoch is rolled back
    fresh, _ = train_operator(dataset, without(config, "operator"), seed=1)
    assert_same_params(op.params(), fresh.params())
    path = tmp_path / "hist.csv"
    hist.save(path)
    assert "# stopped error=FloatingPointError epoch=0 message=non-finite " \
        "operator output\n" in path.read_text()
    assert_same_history(TrainHistory.read(path), hist)


# -- every network pass runs once ---------------------------------------------


class PassLog:
    """Records each Mlp.trace as (net, carries a direction) and each
    Mlp.reverse as its net."""

    def __init__(self, monkeypatch):
        self.traces, self.reverses = [], []
        trace, reverse = Mlp.trace, Mlp.reverse

        def counted_trace(net, x, d=None):
            self.traces.append((net, d is not None))
            return trace(net, x, d)

        def counted_reverse(net, tr, *args, **kwargs):
            self.reverses.append(net)
            return reverse(net, tr, *args, **kwargs)

        monkeypatch.setattr(Mlp, "trace", counted_trace)
        monkeypatch.setattr(Mlp, "reverse", counted_reverse)

    def clear(self):
        self.traces.clear()
        self.reverses.clear()

    def traced(self, net):
        return sum(1 for n, _ in self.traces if n is net)


@pytest.fixture
def passes(monkeypatch):
    return PassLog(monkeypatch)


def test_an_operator_step_traces_each_network_once(passes):
    op = BoundaryOperator(TimeGrid(1.0, 5), d_v=3, n_layers=2,
                          kappa_hidden=4, b_hidden=3, seed=1)
    rng = np.random.default_rng(2)
    UU, YY = rng.normal(size=(3, 6)), rng.normal(size=(3, 6))
    op.loss_and_grads(UU, YY)
    op.layers[0].W[0, 0] += 0.1
    passes.clear()
    op.loss_and_grads(UU, YY, l2=1e-3)
    tables = [net for layer in op.layers for net in (layer.kappa, layer.b)]
    nets = [op.P, op.Q] + tables
    assert [passes.traced(n) for n in nets] == [1] * len(nets)
    assert len(passes.traces) == len(nets)
    # the backward pass sweeps the stored traces, one reverse per network
    assert sorted(map(id, passes.reverses)) == sorted(map(id, nets))
    passes.clear()
    # same parameters: the tables and their traces are reused
    op.loss_and_grads(UU, YY)
    assert [passes.traced(n) for n in nets] == [1, 1] + [0] * len(tables)
    assert len(passes.traces) == 2


def test_barrier_losses_trace_each_batch_once(passes):
    bar = BarrierFunction(time_dependent=True, hidden=(4, 6, 4), seed=0)
    rng = np.random.default_rng(3)
    t, Y = rng.uniform(0.0, 5.0, 8), rng.normal(size=8)
    loss_decrease_condition(bar, t, Y, rng.normal(size=8),
                            rng.normal(size=8), CONSTANTS)
    # x with its direction, then x0; one reverse of each
    assert passes.traces == [(bar.net, True), (bar.net, False)]
    assert len(passes.reverses) == 2
    passes.clear()
    loss_sublevel_margin(bar, t, Y, 0.1)
    assert passes.traces == [(bar.net, False)]
    assert len(passes.reverses) == 1
    passes.clear()
    safe = np.arange(8) < 5
    loss_safe_set(bar, t, Y, safe, ~safe)
    # one trace and one reverse per class
    assert passes.traces == [(bar.net, False)] * 2
    assert len(passes.reverses) == 2


def test_the_validation_loss_runs_no_reverse(dataset, passes):
    # 14 training trajectories in batches of 4: 4 steps per epoch, and one
    # validation forward per epoch
    op, history = train_operator(dataset, small_config())
    epochs = len(history.rows)
    assert epochs == 3
    assert passes.traced(op.Q) == epochs * (4 + 1)
    assert sum(1 for n in passes.reverses if n is op.Q) == epochs * 4

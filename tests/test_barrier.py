"""Tests for the barrier network's values and partial derivatives, the
gradients of its training losses, and the decrease-condition oracle."""

import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles

from safebc.barrier import (BarrierFunction, FeasibilityConstants,
                            decrease_condition_oracle,
                            loss_decrease_condition, loss_safe_set)
from safebc.checkpoint import (ConfigurationError, read_checkpoint,
                               write_checkpoint)
from safebc.nets import WorkStore


def pre_activations(net, x):
    """Every hidden pre-activation of an Mlp at the rows of x."""
    a, zs = x, []
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        z = a @ W.T + b
        zs.append(z)
        a = np.maximum(z, 0.0)
    return np.concatenate(zs, axis=1)


def relu_pattern(net, x):
    """Signs of every hidden pre-activation of an Mlp at the rows of x."""
    return pre_activations(net, x) > 0.0


def assert_same_barrier(a, b):
    assert [p.shape for p in a.params()] == [p.shape for p in b.params()]
    assert all(np.array_equal(p, q) for p, q in zip(a.params(), b.params()))


@pytest.mark.parametrize("hidden", [(16, 64, 16), (3,)])
def test_a_saved_barrier_loads_bitwise(tmp_path, hidden):
    bar = BarrierFunction(hidden=hidden, seed=4)
    bar.save(tmp_path / "bar.ckpt")
    # a barrier always reads (t, Y), so its file has no meta line
    assert read_checkpoint(tmp_path / "bar.ckpt")[2] == {}
    assert_same_barrier(BarrierFunction.load(tmp_path / "bar.ckpt"), bar)


@pytest.mark.parametrize("meta, names", [
    ({"time_dependent": "1"}, "time_dependent"),
    ({"time_dependent": "1", "scale": "2"}, "time_dependent, scale")],
    ids=["one", "two"])
def test_a_barrier_file_with_meta_is_refused_naming_it(tmp_path, meta,
                                                       names):
    # earlier versions wrote `meta time_dependent 1` into every file; no
    # writer puts meta in a barrier file now
    write_checkpoint(tmp_path / "bar.ckpt", "bcbf",
                     BarrierFunction(seed=4).net.tensors(), meta)
    with pytest.raises(ConfigurationError, match=re.escape(
            f"bar.ckpt: a barrier checkpoint has no meta entries, got "
            f"{names}; retrain the barrier")):
        BarrierFunction.load(tmp_path / "bar.ckpt")


def test_a_barrier_file_of_y_alone_is_refused(tmp_path):
    # an earlier version's barrier of Y alone has a one-column first layer
    tensors = BarrierFunction(seed=4).net.tensors()
    tensors["W0"] = tensors["W0"][:, 1:]
    write_checkpoint(tmp_path / "bar.ckpt", "bcbf", tensors,
                     {"time_dependent": "0"})
    with pytest.raises(ConfigurationError, match=re.escape(
            "a barrier checkpoint has no meta entries, got time_dependent; "
            "retrain the barrier")):
        BarrierFunction.load(tmp_path / "bar.ckpt")


def test_a_one_column_first_layer_without_meta_is_refused_by_shape(
        tmp_path):
    tensors = BarrierFunction(hidden=(16, 8), seed=4).net.tensors()
    tensors["W0"] = tensors["W0"][:, 1:]
    write_checkpoint(tmp_path / "bar.ckpt", "bcbf", tensors)
    with pytest.raises(ConfigurationError, match=re.escape(
            "tensor 'W0' has shape (16, 1), expected (16, 2)")):
        BarrierFunction.load(tmp_path / "bar.ckpt")


def test_a_barrier_file_with_tensors_its_layers_do_not_name_is_refused(
        tmp_path):
    # a W after a gap in the layer numbers is no layer of the barrier
    bar = BarrierFunction(hidden=(16, 8), seed=4)
    write_checkpoint(tmp_path / "bar.ckpt", "bcbf",
                     {**bar.net.tensors(), "W9": np.ones((1, 8)),
                      "scale": np.ones(1)})
    with pytest.raises(ConfigurationError, match=re.escape(
            "checkpoint has tensors its model does not name: W9, scale")):
        BarrierFunction.load(tmp_path / "bar.ckpt")


def test_partials_match_central_differences():
    bar = BarrierFunction(seed=3)
    rng = np.random.default_rng(4)
    t = rng.uniform(0.0, 5.0, size=40)
    Y = rng.normal(scale=2.0, size=40)
    h = 1e-6
    phi, dphi_dt, dphi_dY = bar.partials(t, Y)
    # each point is evaluated as its own one-row product
    assert all(phi[k] == bar.value(t[k], Y[k]) for k in range(t.size))
    fd_t = (bar.value(t + h, Y) - bar.value(t - h, Y)) / (2.0 * h)
    fd_Y = (bar.value(t, Y + h) - bar.value(t, Y - h)) / (2.0 * h)
    smooth = np.ones(t.size, dtype=bool)
    for dt_, dY_ in ((h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)):
        x0, _ = bar._inputs(t, Y)
        x1, _ = bar._inputs(t + dt_, Y + dY_)
        smooth &= np.all(relu_pattern(bar.net, x0)
                         == relu_pattern(bar.net, x1), axis=1)
    assert smooth.sum() >= 30
    assert np.allclose(dphi_dY[smooth], fd_Y[smooth], rtol=1e-6, atol=1e-8)
    assert np.allclose(dphi_dt[smooth], fd_t[smooth], rtol=1e-6, atol=1e-8)


def test_partials_keep_the_input_shape():
    bar = BarrierFunction(seed=1)
    phi, dt_, dY_ = bar.partials(0.5, 1.5)
    assert all(isinstance(v, float) for v in (phi, dt_, dY_))
    assert phi == bar.value(0.5, 1.5)
    grid_t, grid_Y = np.meshgrid(np.linspace(0, 5, 3), np.linspace(-1, 1, 4))
    phi, dt_, dY_ = bar.partials(grid_t, grid_Y)
    assert phi.shape == dt_.shape == dY_.shape == (4, 3)
    # each point is its own one-row product, so bitwise the point alone
    assert dY_[2, 1] == bar.partials(grid_t[2, 1], grid_Y[2, 1])[2]


@pytest.mark.parametrize("t_shape, Y_shape, shape", [
    ((), (5,), (5,)), ((5,), (), (5,)), ((2, 1), (3,), (2, 3)),
    ((3,), (2, 3), (2, 3))])
def test_t_and_Y_broadcast_against_each_other(t_shape, Y_shape, shape):
    bar = BarrierFunction(seed=5)
    rng = np.random.default_rng(7)
    t = rng.uniform(0.0, 5.0, size=t_shape)
    Y = rng.normal(scale=2.0, size=Y_shape)
    tt, YY = np.broadcast_arrays(t, Y)
    phi = bar.value(t, Y)
    assert phi.shape == shape
    assert np.array_equal(phi, bar.value(tt.ravel(), YY.ravel()).reshape(
        shape))
    got = bar.partials(t, Y)
    for k in np.ndindex(shape):
        expect = bar.partials(float(tt[k]), float(YY[k]))
        assert all(a.shape == shape and a[k] == b
                   for a, b in zip(got, expect))


def one_point_partials(bar, t, Y):
    """(phi, dphi_dt, dphi_dY) at one point from a (1, d) trace and a full
    reverse sweep, parameter gradients included."""
    tr = bar.net.trace(np.array([[t, Y]]))
    _, dx = bar.net.reverse(tr, np.ones((1, 1)))
    return tr.output[0, 0], dx[0, 0], dx[0, 1]


def test_partials_equal_one_point_traces_and_full_reverses_bitwise():
    # partials skips the parameter gradients and traces its R points as an
    # (R, 1, 2) stack; neither changes a bit of any point's values
    bar = BarrierFunction(seed=6)
    for t, Y in ((0.75, np.float64(-1.25)), (np.linspace(0, 5, 6),
                                             np.linspace(-2, 2, 6))):
        got = bar.partials(t, Y)
        points = np.broadcast_arrays(t, Y)
        for k in np.ndindex(np.shape(Y)):
            expect = one_point_partials(bar, points[0][k], points[1][k])
            assert all(np.asarray(a)[k] == b for a, b in zip(got, expect))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_partials_of_any_points_in_any_order_are_each_point_alone(seed):
    bar = BarrierFunction(seed=2)
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 5.0, size=60)
    Y = rng.normal(scale=3.0, size=60)
    pick = rng.permutation(60)[:rng.integers(1, 61)]
    got = bar.partials(t[pick], Y[pick])
    for j, k in enumerate(pick):
        alone = bar.partials(t[k], Y[k])
        assert all(a[j] == b for a, b in zip(got, alone))


def assert_grads_match_central_differences(bar, loss_fn, h=1e-6):
    """Compare a loss's parameter gradients with central differences, one
    parameter entry at a time."""
    _, grads = loss_fn()
    assert any(np.any(g != 0.0) for g in grads)
    for p, g in zip(bar.params(), grads):
        flat, g = p.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()[0]
            flat[i] = orig - h
            down = loss_fn()[0]
            flat[i] = orig
            assert (up - down) / (2.0 * h) == pytest.approx(g[i], rel=1e-5,
                                                            abs=1e-8)


MARGIN = 0.05  # kinks closer than this to a sample would break the check


def smooth_samples(bar, t, Y, *hinges):
    """Samples whose ReLU pre-activations and hinge arguments all stay at
    least MARGIN away from zero."""
    x, _ = bar._inputs(t, Y)
    keep = np.min(np.abs(pre_activations(bar.net, x)), axis=1) > MARGIN
    for h in hinges:
        keep &= np.abs(h) > MARGIN
    return keep


def small_barrier(seed):
    return BarrierFunction(hidden=(4, 6, 4), seed=seed)


def weighted_safe_set_loss(bar, t, Y, safe, lambda_S, reg_weight, margin):
    """(lambda_S * L_S + reg_weight * reg, grads) of `loss_safe_set`."""
    ls, reg, grads = loss_safe_set(bar, t, Y, safe, ~safe, lambda_S,
                                   reg_weight, margin)
    return lambda_S * ls + reg_weight * reg, grads


def test_safe_set_loss_gradients_match_central_differences():
    bar = small_barrier(5)
    rng = np.random.default_rng(6)
    t = rng.uniform(0.0, 5.0, size=60)
    Y = rng.normal(scale=2.0, size=60)
    # centre phi on zero, so that both classes and the margin term have
    # active hinges
    bar.net.biases[-1] -= np.median(bar.value(t, Y))
    keep = smooth_samples(bar, t, Y, bar.value(t, Y), bar.value(t, Y) + 0.1)
    t, Y = t[keep], Y[keep]
    safe = rng.random(t.size) < 0.5
    assert safe.sum() >= 10 and (~safe).sum() >= 10
    assert_grads_match_central_differences(
        bar, lambda: weighted_safe_set_loss(bar, t, Y, safe, 0.7, 0.3, 0.1))


def test_decrease_condition_loss_gradients_match_central_differences():
    bar = small_barrier(7)
    constants = FeasibilityConstants(alpha=0.3, T=5.0)
    rng = np.random.default_rng(8)
    t = rng.uniform(0.0, 5.0, size=80)
    Y = rng.normal(scale=2.0, size=80)
    Y0 = rng.normal(scale=2.0, size=80)
    dY_dt = rng.normal(scale=3.0, size=80)
    phi, dphi_dt, dphi_dY = bar.partials(t, Y)
    resid = (dphi_dY * dY_dt + dphi_dt + constants.alpha * phi
             + constants.C * bar.value(np.zeros(80), Y0))
    keep = (smooth_samples(bar, t, Y, resid)
            & smooth_samples(bar, np.zeros(80), Y0))
    t, Y, Y0, dY_dt = t[keep], Y[keep], Y0[keep], dY_dt[keep]
    assert t.size >= 20
    assert_grads_match_central_differences(
        bar, lambda: loss_decrease_condition(bar, t, Y, dY_dt, Y0, constants))


def test_sublevel_margin_loss_gradients_match_central_differences():
    bar = small_barrier(9)
    rng = np.random.default_rng(10)
    t = rng.uniform(0.0, 5.0, size=60)
    Y = rng.normal(scale=2.0, size=60)
    # centre phi + margin on zero, so that about half the hinges are active
    bar.net.biases[-1] -= np.median(bar.value(t, Y)) + 0.1
    keep = smooth_samples(bar, t, Y, bar.value(t, Y) + 0.1)
    t, Y = t[keep], Y[keep]
    assert t.size >= 20
    safe = np.ones(t.size, dtype=bool)
    assert_grads_match_central_differences(
        bar, lambda: weighted_safe_set_loss(bar, t, Y, safe, 0.0, 1.0, 0.1))


def assert_within_ulp(a, b):
    assert abs(a - b) <= np.spacing(max(abs(a), abs(b)))


def assert_grads_close(grads, expected):
    for g, e in zip(grads, expected, strict=True):
        np.testing.assert_allclose(g, e, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(e)))


@pytest.mark.parametrize("lambda_S, reg_weight, classes", [
    (1.0, 1.0, "both"), (2.5, 0.3, "both"), (0.0, 1.0, "both"),
    (1.0, 0.0, "both"), (1.0, 1.0, "safe only"), (1.0, 1.0, "unsafe only"),
    (0.0, 1.0, "safe only")])
def test_safe_set_loss_matches_the_per_term_oracle(lambda_S, reg_weight,
                                                   classes):
    bar = small_barrier(11)
    rng = np.random.default_rng(12)
    t = rng.uniform(0.0, 5.0, size=50)
    Y = rng.normal(scale=2.0, size=50)
    bar.net.biases[-1] -= np.median(bar.value(t, Y))
    safe = {"both": rng.random(50) < 0.5, "safe only": np.ones(50, bool),
            "unsafe only": np.zeros(50, bool)}[classes]
    ls, reg, grads = loss_safe_set(bar, t, Y, safe, ~safe, lambda_S,
                                   reg_weight, 0.1)
    ref_ls, ref_gs = oracles.loss_safe_set(bar, t, Y, safe, ~safe)
    ref_reg, ref_gr = oracles.loss_sublevel_margin(bar, t[safe], Y[safe], 0.1)
    assert_within_ulp(ls, ref_ls if lambda_S else 0.0)
    assert_within_ulp(reg, ref_reg if reg_weight else 0.0)
    assert_grads_close(grads, [lambda_S * a + reg_weight * b
                               for a, b in zip(ref_gs, ref_gr)])


@pytest.mark.parametrize("n_y0", [3, 40])
def test_decrease_condition_loss_matches_the_per_sample_oracle(n_y0):
    bar = small_barrier(13)
    constants = FeasibilityConstants(alpha=0.3, T=5.0)
    rng = np.random.default_rng(14)
    t = rng.uniform(0.0, 5.0, size=40)
    Y = rng.normal(scale=2.0, size=40)
    dY_dt = rng.normal(scale=3.0, size=40)
    # n_y0 = 3 repeats each initial value across many samples
    Y0 = rng.choice(rng.normal(scale=2.0, size=n_y0), size=40)
    loss, grads = loss_decrease_condition(bar, t, Y, dY_dt, Y0, constants)
    ref_loss, ref_grads = oracles.loss_decrease_condition(bar, t, Y, dY_dt,
                                                          Y0, constants)
    assert ref_loss > 0.0
    assert_within_ulp(loss, ref_loss)
    assert_grads_close(grads, ref_grads)


def test_the_losses_in_one_shared_store_are_the_losses_without_one():
    """The two losses of a barrier step share one work store, at batch
    sizes that shrink and grow, and give the store-less results bit for
    bit; none of their results aliases the store."""
    bar = small_barrier(15)
    constants = FeasibilityConstants(alpha=0.3, T=5.0)
    rng = np.random.default_rng(16)
    store = WorkStore()
    for size in (60, 17, 60):
        t = rng.uniform(0.0, 5.0, size=size)
        Y = rng.normal(scale=2.0, size=size)
        bar.net.biases[-1] -= np.median(bar.value(t, Y))
        safe = rng.random(size) < 0.5
        dY_dt = rng.normal(scale=3.0, size=size)
        Y0 = rng.choice(rng.normal(scale=2.0, size=5), size=size)
        calls = [
            lambda store: loss_safe_set(bar, t, Y, safe, ~safe, 1.0, 0.5,
                                        0.1, store=store),
            lambda store: loss_decrease_condition(bar, t, Y, dY_dt, Y0,
                                                  constants, store=store)]
        for call in calls:
            *alone, alone_grads = call(None)
            *stored, stored_grads = call(store)
            assert stored == alone
            for g, h in zip(stored_grads, alone_grads, strict=True):
                assert g.tobytes() == h.tobytes()
                assert not any(np.shares_memory(g, b)
                               for b in store._buffers.values())


def test_residual_sums_rate_alpha_and_c_terms_in_that_order():
    constants = FeasibilityConstants(alpha=0.3, T=2.0)
    rate, phi, phi0 = 0.1, -0.7, 1e-17
    assert constants.residual(rate, phi, phi0) == \
        (rate + constants.alpha * phi) + constants.C * phi0


@given(alpha=st.floats(1e-6, 1e-2), T=st.floats(0.5, 10.0),
       psi0=st.floats(-10.0, 10.0),
       slack=st.lists(st.floats(0.1, 10.0), min_size=20, max_size=100))
@settings(max_examples=200, deadline=None)
def test_oracle_premise_implies_convergence(alpha, T, psi0, slack):
    """A sequence built to meet the discrete decrease condition with a
    residual of -slack[m] at every step ends negative, and its auxiliary
    function g never increases."""
    constants = FeasibilityConstants(alpha=alpha, T=T)
    M = len(slack)
    dt = T / M
    psi = [psi0]
    for s in slack:
        psi.append(psi[-1] + dt * (-s - alpha * psi[-1]
                                   - constants.C * psi0))
    out = decrease_condition_oracle(psi, dt, constants)
    assert out["premise_holds"]
    assert out["g_nonincreasing"]
    assert out["final_negative"]


def test_oracle_premise_allows_a_positive_end_for_coarse_steps():
    """The premise is a forward-Euler step: with alpha*dt = 0.5 and
    psi(0) < 0 it holds along a sequence that ends positive."""
    constants = FeasibilityConstants(alpha=0.5, T=5.0)
    M, dt = 5, 1.0
    psi = [-10.0]
    for _ in range(M):
        psi.append(psi[-1] + dt * (-0.01 - constants.alpha * psi[-1]
                                   - constants.C * psi[0]))
    out = decrease_condition_oracle(psi, dt, constants)
    assert out["premise_holds"]
    assert not out["final_negative"]
    assert psi[-1] == pytest.approx(0.53, abs=0.005)


def test_feasibility_constants_derive_C_and_are_frozen():
    constants = replace(FeasibilityConstants(), alpha=0.5)
    assert constants.C == 0.5 / np.expm1(0.5 * 5.0)
    with pytest.raises(FrozenInstanceError):
        constants.alpha = 1.0


def test_a_step_meets_the_constants_only_below_alpha_dt_1():
    constants = FeasibilityConstants(alpha=0.5)
    constants.check_step(1.99)
    for dt in (2.0, 4.0, np.inf, np.nan):
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"alpha=0.5 and dt={dt!r}")):
            constants.check_step(dt)
    with pytest.raises(ConfigurationError, match="product is 2.0"):
        constants.check_step(4.0)

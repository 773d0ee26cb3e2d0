"""Tests for the barrier network's values and partial derivatives, the
gradients of its training losses, and the decrease-condition oracle."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safebc.barrier import (BarrierFunction, FeasibilityConstants,
                            decrease_condition_oracle, finite_time_constant,
                            loss_decrease_condition, loss_safe_set,
                            loss_sublevel_margin)


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


@pytest.mark.parametrize("time_dependent", [True, False])
def test_partials_match_central_differences(time_dependent):
    bar = BarrierFunction(time_dependent=time_dependent, seed=3)
    rng = np.random.default_rng(4)
    t = rng.uniform(0.0, 5.0, size=40)
    Y = rng.normal(scale=2.0, size=40)
    h = 1e-6
    phi, dphi_dt, dphi_dY = bar.partials(t, Y)
    assert np.array_equal(phi, bar.value(t, Y))
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
    if time_dependent:
        assert np.allclose(dphi_dt[smooth], fd_t[smooth], rtol=1e-6,
                           atol=1e-8)
    else:
        assert np.array_equal(dphi_dt, np.zeros(t.size))


def test_partials_keep_the_input_shape():
    bar = BarrierFunction(time_dependent=True, seed=1)
    phi, dt_, dY_ = bar.partials(0.5, 1.5)
    assert all(isinstance(v, float) for v in (phi, dt_, dY_))
    assert phi == bar.value(0.5, 1.5)
    grid_t, grid_Y = np.meshgrid(np.linspace(0, 5, 3), np.linspace(-1, 1, 4))
    phi, dt_, dY_ = bar.partials(grid_t, grid_Y)
    assert phi.shape == dt_.shape == dY_.shape == (4, 3)
    # BLAS may reorder the inner sums between a batch and a single row
    assert dY_[2, 1] == pytest.approx(
        bar.partials(grid_t[2, 1], grid_Y[2, 1])[2], rel=1e-14)


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
    return BarrierFunction(time_dependent=True, hidden=(4, 6, 4), seed=seed)


def test_safe_set_loss_gradients_match_central_differences():
    bar = small_barrier(5)
    rng = np.random.default_rng(6)
    t = rng.uniform(0.0, 5.0, size=60)
    Y = rng.normal(scale=2.0, size=60)
    # centre phi on zero, so that both classes have active hinges
    bar.net.biases[-1] -= np.median(bar.value(t, Y))
    keep = smooth_samples(bar, t, Y, bar.value(t, Y))
    t, Y = t[keep], Y[keep]
    safe = rng.random(t.size) < 0.5
    assert safe.sum() >= 10 and (~safe).sum() >= 10
    assert_grads_match_central_differences(
        bar, lambda: loss_safe_set(bar, t, Y, safe, ~safe))


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
    assert_grads_match_central_differences(
        bar, lambda: loss_sublevel_margin(bar, t, Y, margin=0.1))


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
    assert constants.C == finite_time_constant(0.5, 5.0)
    assert replace(constants, asymptotic=True).C == 0.0
    with pytest.raises(FrozenInstanceError):
        constants.alpha = 1.0

"""Tests for the barrier network's values and partial derivatives."""

import numpy as np
import pytest

from safebc.barrier import BarrierFunction


def relu_pattern(net, x):
    """Signs of every hidden pre-activation of an Mlp at the rows of x."""
    a, signs = x, []
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        z = a @ W.T + b
        signs.append(z > 0.0)
        a = np.maximum(z, 0.0)
    return np.concatenate(signs, axis=1)


@pytest.mark.parametrize("time_dependent", [True, False])
def test_partials_match_central_differences(time_dependent):
    bar = BarrierFunction(time_dependent=time_dependent, seed=3)
    rng = np.random.default_rng(4)
    t = rng.uniform(0.0, 5.0, size=40)
    Y = rng.normal(scale=2.0, size=40)
    h = 1e-6
    dphi_dt, dphi_dY = bar.partials(t, Y)
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
    bar = BarrierFunction(seed=1)
    dt_, dY_ = bar.partials(0.5, 1.5)
    assert isinstance(dt_, float) and isinstance(dY_, float)
    grid_t, grid_Y = np.meshgrid(np.linspace(0, 5, 3), np.linspace(-1, 1, 4))
    dt_, dY_ = bar.partials(grid_t, grid_Y)
    assert dt_.shape == dY_.shape == (4, 3)
    # BLAS may reorder the inner sums between a batch and a single row
    assert dY_[2, 1] == pytest.approx(
        bar.partials(grid_t[2, 1], grid_Y[2, 1])[1], rel=1e-14)

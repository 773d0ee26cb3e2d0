"""Oracle tests for the causal kernel-integral trajectory operator.

The forward map has enough structure to pin down exactly: configured as an
identity chain it must reproduce its input bitwise, a dense per-step
evaluation with explicit lag-kernel matrices must agree with the windowed
path, an output row must not depend on a later input, bit for bit, and the
(Lambda, mu) split that `predict` returns must satisfy the rate identity
dY/dt = Lambda * dU/dt + mu against finite differences of the forward pass.
"""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import dense_loss_and_grads
from safebc.checkpoint import read_checkpoint, write_checkpoint
from safebc.neural_operator import (WINDOW_FLOATS, BoundaryOperator,
                                    KernelLayer, _history, _window_products,
                                    mean_square, quadrature_weights)
from safebc.pde_sim import ConfigurationError, HyperbolicConfig, \
    ParabolicConfig, TimeGrid


def zero_all(params):
    for p in params:
        p[...] = 0.0


def identity_operator(grid, d_v=4, n_layers=1):
    """U into the first channel, identity mixing, read the first channel."""
    op = BoundaryOperator(grid, d_v=d_v, n_layers=n_layers,
                          activations=("linear",) * n_layers, seed=0,
                          kappa_hidden=4, b_hidden=3)
    zero_all(op.params())
    op.layers[0].W[0, 0] = 1.0
    for layer in op.layers[1:]:
        layer.W[...] = np.eye(d_v)
    op.Q.params()[0][0, 0] = 1.0
    return op


def time_derivative(net, x):
    """d net / d x[:, 0] of a one-hidden-layer ReLU network at the rows x:
    W1 (mask * W0[:, 0]), exact where no hidden unit sits at its kink."""
    W0, b0, W1, _ = net.params()
    return ((x @ W0.T + b0 > 0.0) * W0[:, 0]) @ W1.T


def dense_forward(op, U, lift=None, split=False):
    """Per-step reference with explicit lag-kernel matrices K(t_{m-j}) for
    j <= m, one (m, j) term at a time.

    The first layer reads the channels (U, 1), or with lift=(p_w, p_b) the
    lifted channels U p_w + p_b of the older layout, where layers[0] is a
    (d_v, d_v) layer. With split=True it returns (Y, Lambda, mu): each
    step's tangents along U_m (the local route) and along t_m (the lag and
    time networks' derivatives and the integral's boundary term K(0) v_m),
    carried through the layers."""
    grid = op.grid
    n = grid.M + 1
    t = grid.times()
    w = quadrature_weights(grid)
    U = np.asarray(U, dtype=float)
    if lift is None:
        v, a = np.column_stack([U, np.ones(n)]), np.tile([1.0, 0.0], (n, 1))
    else:
        v, a = U[:, None] * lift[0] + lift[1], np.tile(lift[0], (n, 1))
    p = np.zeros_like(v)
    for layer in op.layers:
        do, di = layer.dim_out, layer.dim_in
        b_tab = layer.b.forward(t[:, None])
        db_tab = time_derivative(layer.b, t[:, None])
        K0 = layer.kappa.forward(t[:1, None])[0].reshape(do, di)
        z, dz = np.empty((n, do)), np.empty((n, do))
        for m in range(n):
            acc, dacc = layer.W @ v[m], layer.W @ p[m]
            for j in range(m + 1):
                lag = np.array([[t[m - j]]])
                K = layer.kappa.forward(lag)[0].reshape(do, di)
                dK = time_derivative(layer.kappa, lag)[0].reshape(do, di)
                acc = acc + w[j] * (K @ v[j])
                dacc = dacc + w[j] * (dK @ v[j])
            # the last panel's growth, the integral's boundary term
            dacc = dacc + K0 @ v[m]
            z[m], dz[m] = acc + b_tab[m], dacc + db_tab[m]
        a, p = a @ layer.W.T, dz
        if layer.activation == "relu":
            v, a, p = np.maximum(z, 0.0), a * (z > 0.0), p * (z > 0.0)
        else:
            v = z
    Y = op.Q.forward(v)[:, 0]
    if not split:
        return Y
    q = op.Q.params()[0].ravel()
    return Y, a @ q, p @ q


class TestBasics:
    def test_quadrature_weights_give_each_row_a_whole_diagonal_panel(self):
        """dt * [1/2, 1, ..., 1]: row m's weights w_0..w_m sum to
        t_m + dt/2, and the last row weighs its diagonal as every other
        row does."""
        grid = TimeGrid(2.0, 10)
        w = quadrature_weights(grid)
        assert w.shape == (11,)
        assert w[0] == grid.dt / 2.0
        assert (w[1:] == grid.dt).all()
        assert np.allclose(np.cumsum(w), grid.times() + grid.dt / 2.0,
                           rtol=1e-13)

    def test_constructor_validation(self):
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ConfigurationError):
            BoundaryOperator(grid, d_v=4, n_layers=0)
        with pytest.raises(ConfigurationError):
            BoundaryOperator(grid, d_v=4, n_layers=2, activations=("relu",))

    @pytest.mark.parametrize("activations", [("tanh", "relu"),
                                             ("relu", "Relu")],
                             ids=["tanh", "Relu"])
    def test_an_unknown_activation_is_rejected(self, activations):
        # any name but "relu" once ran as linear
        with pytest.raises(ConfigurationError, match="activations"):
            BoundaryOperator(TimeGrid(1.0, 4), d_v=4, n_layers=2,
                             activations=activations)

    def test_a_checkpoint_naming_an_unknown_activation_is_rejected(
            self, tmp_path):
        path = tmp_path / "op.ckpt"
        BoundaryOperator(TimeGrid(1.0, 4), d_v=3, n_layers=2, seed=1).save(
            path)
        text = path.read_text()
        assert "meta activations relu,relu\n" in text
        path.write_text(text.replace("meta activations relu,relu",
                                     "meta activations relu,tanh"))
        with pytest.raises(ConfigurationError, match="'tanh'"):
            BoundaryOperator.load(path)

    def test_forward_rejects_wrong_length(self):
        op = BoundaryOperator(TimeGrid(1.0, 4), d_v=3, n_layers=1,
                              kappa_hidden=4, b_hidden=3, seed=1)
        with pytest.raises(ConfigurationError):
            op.forward(np.zeros(6))


class TestForwardOracles:
    def test_zero_readout_gives_zero_output(self):
        op = BoundaryOperator(TimeGrid(1.0, 6), d_v=4, n_layers=2,
                              kappa_hidden=4, b_hidden=3, seed=2)
        zero_all(op.Q.params())
        Y = op.forward(np.linspace(-3.0, 5.0, 7))
        assert np.array_equal(Y, np.zeros(7))

    def test_identity_chain_reproduces_input(self):
        op = identity_operator(TimeGrid(1.0, 8))
        U = np.array([1.0, -2.0, 0.5, 3.25, -0.125, 7.0, 0.0, 2.5, -4.75])
        Y = op.forward(U)
        assert np.array_equal(Y, U)

    def test_identity_chain_two_layers(self):
        op = identity_operator(TimeGrid(1.0, 5), n_layers=2)
        U = np.array([0.5, -1.5, 2.0, -2.5, 3.0, -3.5])
        Y = op.forward(U)
        assert np.array_equal(Y, U)

    def test_dense_reference_agreement(self):
        grid = TimeGrid(1.5, 6)
        op = BoundaryOperator(grid, d_v=4, n_layers=2, kappa_hidden=8,
                              b_hidden=4, seed=3)
        rng = np.random.default_rng(5)
        U = rng.normal(size=7)
        Y = op.forward(U)
        assert np.allclose(Y, dense_forward(op, U), rtol=1e-9, atol=1e-9)

    def test_dense_reference_agreement_linear(self):
        grid = TimeGrid(1.0, 5)
        op = BoundaryOperator(grid, d_v=3, n_layers=1,
                              activations=("linear",), kappa_hidden=4,
                              b_hidden=3, seed=4)
        rng = np.random.default_rng(6)
        U = rng.normal(size=6)
        Y = op.forward(U)
        assert np.allclose(Y, dense_forward(op, U), rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("activation", ["relu", "linear"])
    def test_dense_reference_agreement_with_every_bias_set(self, n_layers,
                                                           activation):
        """Every bias starts at zero, so they are set here for the bias
        terms and the constant channel's kernel column to count."""
        op = BoundaryOperator(TimeGrid(1.0, 6), d_v=4, n_layers=n_layers,
                              activations=(activation,) * n_layers,
                              kappa_hidden=8, b_hidden=4, seed=20)
        rng = np.random.default_rng(21)
        for p in op.params():
            p += 0.3 * rng.normal(size=p.shape)
        assert np.all(op.layers[0].kappa.biases[1] != 0.0)
        U = rng.normal(size=7)
        Y, Yd = op.forward(U), dense_forward(op, U)
        assert np.max(np.abs(Y - Yd)) <= 1e-12 * np.max(np.abs(Yd))

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("activation", ["relu", "linear"])
    def test_a_lifted_first_layer_is_a_first_layer_on_u_and_one(
            self, n_layers, activation):
        """An affine lift U p_w + p_b into a (d_v, d_v) first layer is the
        first layer on (U, 1) with W' = W_0 [p_w p_b] and K' = K_0 [p_w p_b]:
        the same Y, Lambda and mu. K' is the kernel network with its output
        layer contracted with [p_w p_b]."""
        d_v, grid = 4, TimeGrid(1.0, 6)
        activations = (activation,) * n_layers
        new = BoundaryOperator(grid, d_v=d_v, n_layers=n_layers,
                               activations=activations, kappa_hidden=8,
                               b_hidden=4, seed=30)
        old = BoundaryOperator(grid, d_v=d_v, n_layers=n_layers,
                               activations=activations, kappa_hidden=8,
                               b_hidden=4, seed=30)
        old.layers[0] = KernelLayer(d_v, d_v, 8, 4, activation, grid.T,
                                    seed=31)
        rng = np.random.default_rng(32)
        for p in old.params():
            p += 0.3 * rng.normal(size=p.shape)
        lift = rng.normal(size=(2, d_v))  # p_w, p_b
        L = lift.T  # (d_v, 2)
        for mine, theirs in zip(new.params(), old.params()):
            if mine.shape == theirs.shape:
                mine[...] = theirs
        first, lifted = new.layers[0], old.layers[0]
        first.W[...] = lifted.W @ L
        _, _, kW1, kb1 = lifted.kappa.params()
        _, _, nW1, nb1 = first.kappa.params()
        nW1[...] = np.einsum("oih,ik->okh", kW1.reshape(d_v, d_v, -1),
                             L).reshape(nW1.shape)
        nb1[...] = (kb1.reshape(d_v, d_v) @ L).ravel()
        U = rng.normal(size=grid.M + 1).cumsum()
        for a, b in zip(new.predict(U),
                        dense_forward(old, U, lift=tuple(lift), split=True)):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_batch_matches_single(self):
        op = BoundaryOperator(TimeGrid(1.0, 6), d_v=4, n_layers=2,
                              kappa_hidden=4, b_hidden=3, seed=7)
        rng = np.random.default_rng(8)
        UU = rng.normal(size=(3, 7))
        YY, _ = op.forward_batch(UU)
        for b in range(3):
            Yb = op.forward(UU[b])
            assert np.allclose(YY[b], Yb, rtol=1e-12, atol=1e-13)


class TestDecomposition:
    def test_lambda_constant_without_kernel(self):
        """With the kernel tables zeroed, Lambda is the static chain
        product."""
        op = BoundaryOperator(TimeGrid(1.0, 8), d_v=4, n_layers=2,
                              activations=("linear", "linear"),
                              kappa_hidden=4, b_hidden=3, seed=9)
        for layer in op.layers:
            zero_all(layer.kappa.params())
        U = np.linspace(-1.0, 2.0, 9)
        _, lam, _ = op.predict(U)
        q_vec = op.Q.params()[0].ravel()
        expected = q_vec @ op.layers[1].W @ op.layers[0].W[:, 0]
        assert np.allclose(lam, expected, rtol=1e-12)

    def test_mu_zero_for_static_kernel_and_bias(self):
        """Constant-in-t kernels and biases contribute nothing to mu."""
        op = BoundaryOperator(TimeGrid(1.0, 6), d_v=4, n_layers=1,
                              activations=("linear",), kappa_hidden=4,
                              b_hidden=3, seed=10)
        zero_all(op.layers[0].kappa.params())
        zero_all(op.layers[0].b.params())
        op.layers[0].b.params()[-1][...] = 0.7
        U = np.linspace(0.0, 3.0, 7)
        _, lam, mu = op.predict(U)
        assert np.array_equal(mu, np.zeros(7))
        assert not np.allclose(lam, 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_the_rate_follows_the_grid_differences_as_dt_shrinks(self, seed):
        """Lambda*U_dot + mu against central differences of the forward
        pass on the grid, over the interior steps: the mean error falls
        about as dt, as a quadrature panel moves per step (by 0.13 to 0.22
        over three halvings of dt at these seeds). A split without the
        integral's boundary term K(0) v_m stays off by a median 7% to 80%
        of the rate's scale at these seeds, at any dt."""
        errors = []
        for M in (20, 160):
            grid = TimeGrid(2.0, M)
            op = BoundaryOperator(grid, d_v=8, n_layers=2, seed=seed)
            t = grid.times()
            U = 0.8 * np.sin(1.3 * t) + 0.3 * t
            Y, lam, mu = op.predict(U)
            fd = (Y[2:] - Y[:-2]) / (2.0 * grid.dt)
            ud = (U[2:] - U[:-2]) / (2.0 * grid.dt)
            err = np.abs(lam[1:-1] * ud + mu[1:-1] - fd)
            errors.append(np.mean(err) / np.max(np.abs(fd)))
        assert errors[1] < 0.3 * errors[0]
        assert errors[1] < 0.02

    def test_rate_identity_relu(self):
        """The frozen-quadrature central difference in the output time must
        agree with Lambda*U_dot + mu away from ReLU kink crossings."""
        from oracles import rate_identity_check
        grid = TimeGrid(2.0, 32)
        for seed in (0, 1, 2):
            op = BoundaryOperator(grid, d_v=8, n_layers=2, kappa_hidden=8,
                                  b_hidden=4, seed=seed)
            rng = np.random.default_rng(100 + seed)
            a, b = rng.uniform(0.5, 1.5, size=2)
            u = lambda t: a * np.sin(b * t) + 0.2 * np.cos(2.1 * t)
            du = lambda t: a * b * np.cos(b * t) - 0.42 * np.sin(2.1 * t)
            n_pass, n_off, n_total = rate_identity_check(op, u, du)
            assert n_off >= 0.8 * n_total
            assert n_pass >= 0.95 * n_off

    @staticmethod
    def smooth_input(seed):
        rng = np.random.default_rng(100 + seed)
        a, b = rng.uniform(0.5, 1.5, size=2)
        return (lambda t: a * np.sin(b * t) + 0.2 * np.cos(2.1 * t),
                lambda t: a * b * np.cos(b * t) - 0.42 * np.sin(2.1 * t))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_rate_identity_at_default_init(self, seed):
        """At the default initialization the rate identity holds at the
        steps off every kink, and most steps are off: the lag and time
        networks' hidden biases start off zero. With them zeroed, each
        kernel unit sits at its kink at lag 0, which every step reads, and
        no step is off-kink."""
        from oracles import rate_identity_check
        op = BoundaryOperator(TimeGrid(2.0, 32), d_v=8, n_layers=2,
                              seed=seed)
        u, du = self.smooth_input(seed)
        n_pass, n_off, n_total = rate_identity_check(op, u, du)
        assert n_off >= 0.8 * n_total
        assert n_pass >= 0.95 * n_off
        for layer in op.layers:
            layer.kappa.biases[0][...] = 0.0
        assert rate_identity_check(op, u, du)[1] == 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lag_and_time_derivatives_match_central_differences(self, seed):
        """The kernel's lag derivative and the bias's time derivative that
        the rate split reads from a pass's traces, W1 (mask * W0[:, 0]),
        equal central differences of the kappa and b networks at the grid
        lags and times, at entries whose ReLU pattern does not change
        across the difference."""
        grid = TimeGrid(2.0, 12)
        op = BoundaryOperator(grid, d_v=3, n_layers=2, kappa_hidden=8,
                              b_hidden=4, seed=seed)
        n, h = grid.M + 1, 1e-6
        t = grid.times()[:, None]
        _, cache = op.forward_batch(np.zeros((1, n)))

        def fd_and_smooth(net):
            W0, b0 = net.params()[0], net.params()[1]
            signs = [(y @ W0.T + b0 > 0.0) for y in (t - h, t, t + h)]
            smooth = np.all((signs[0] == signs[1]) & (signs[1] == signs[2]),
                            axis=1)
            fd = (net.forward(t + h) - net.forward(t - h)) / (2.0 * h)
            return fd, smooth

        def mask_tangent(net, trace):
            W0, _, W1, _ = net.params()
            return (trace.masks[0] * W0[:, 0]) @ W1.T

        n_checked = 0
        for layer, lag in zip(op.layers, cache.lags):
            for net, trace in ((layer.kappa, lag.kappa), (layer.b, lag.b)):
                fd, smooth = fd_and_smooth(net)
                d = mask_tangent(net, trace)
                assert np.allclose(d[smooth], fd[smooth], rtol=1e-6,
                                   atol=1e-8)
                n_checked += int(smooth.sum())
        assert n_checked >= 0.9 * 4 * n

    @pytest.mark.parametrize("seed", [0, 1])
    def test_mu_matches_central_differences_at_a_constant_input(self, seed):
        """With U constant (U_dot = 0) the rate is mu alone, so mu must equal
        the central difference of the frozen-quadrature output in the output
        time at every step whose ReLU pattern does not change across the
        difference. There the output is affine in t, so the difference is
        exact up to round-off."""
        from oracles import frozen_quadrature_eval
        grid = TimeGrid(2.0, 12)
        op = BoundaryOperator(grid, d_v=3, n_layers=2, kappa_hidden=8,
                              b_hidden=4, seed=seed)
        n, h = grid.M + 1, 1e-6
        _, cache = op.forward_batch(np.full((1, n), 0.7))
        _, mu = op.decomposition(cache)
        n_checked = 0
        for m, t in enumerate(grid.times()):
            (lo, s_lo), (mid, s_mid), (hi, s_hi) = (
                frozen_quadrature_eval(op, cache, lambda _: 0.7, t + s, m)
                for s in (-h, 0.0, h))
            if not (np.array_equal(s_lo, s_mid)
                    and np.array_equal(s_mid, s_hi)):
                continue
            n_checked += 1
            fd = (hi - lo) / (2.0 * h)
            assert abs(mu[m] - fd) <= 1e-6 * max(abs(fd), abs(mid))
        assert n_checked >= 0.8 * n

    def test_affine_in_udot(self):
        """The rate Lambda*U_dot + mu is affine in U_dot: (Lambda, mu) come
        from one pass over U alone, so a second predict (on cached tables)
        is bitwise the first, and a zero rate input recovers mu."""
        op = BoundaryOperator(TimeGrid(1.0, 6), d_v=4, n_layers=1,
                              kappa_hidden=4, b_hidden=3, seed=21)
        U = np.linspace(0.5, -1.5, 7)
        _, lam, mu = op.predict(U)
        _, lam2, mu2 = op.predict(U)
        assert np.array_equal(lam, lam2) and np.array_equal(mu, mu2)
        ud = np.full(7, 0.75)
        r1 = lam * ud + mu
        r2 = lam * (2.0 * ud) + mu
        r0 = lam * np.zeros(7) + mu
        assert np.array_equal(r0, mu)
        assert np.allclose(r2 - r1, lam * 0.75, rtol=1e-12)

    def test_time_derivative_entry(self):
        """One (Lambda, mu) entry per grid step, and the Y that predict
        returns is the forward pass of the same trajectory, bitwise."""
        op = BoundaryOperator(TimeGrid(1.0, 6), d_v=4, n_layers=1,
                              kappa_hidden=4, b_hidden=3, seed=12)
        UU = np.stack([np.linspace(1.0, -1.0, 7), np.linspace(-2.0, 0.5, 7)])
        for U in UU:
            Y, lam, mu = op.predict(U)
            assert Y.shape == lam.shape == mu.shape == (7,)
            assert np.array_equal(Y, op.forward(U))
            rate = lam[:-1] * (np.diff(U) / op.grid.dt) + mu[:-1]
            assert np.all(np.isfinite(rate))

    def test_predict_after_in_place_update_matches_a_fresh_operator(self):
        """After an in-place parameter update (as Adam makes), predict
        equals, bitwise, an operator built with the updated parameters from
        the start: no pass reuses another's lag tables."""
        grid = TimeGrid(1.0, 5)
        op = BoundaryOperator(grid, d_v=3, n_layers=2, kappa_hidden=4,
                              b_hidden=3, seed=13)
        U = np.linspace(-1.0, 1.5, 6)
        op.predict(U)
        # the first layer alone first, then every parameter
        for update in (op.layers[0].params(), op.params()):
            for p in update:
                p += 0.01
            fresh = BoundaryOperator(grid, d_v=3, n_layers=2, kappa_hidden=4,
                                     b_hidden=3, seed=99)
            for mine, theirs in zip(fresh.params(), op.params()):
                mine[...] = theirs
            for a, b in zip(op.predict(U), fresh.predict(U)):
                assert np.array_equal(a, b)


@functools.lru_cache(maxsize=None)
def split_operator(d_v):
    return BoundaryOperator(TimeGrid(1.0, 20), d_v=d_v, n_layers=2, seed=d_v)


# the kernel term runs one row per product, so a row's result does not
# depend on the range it is asked in, whatever the BLAS and the width
@given(st.sampled_from([3, 4, 7, 16]), st.integers(0, 20), st.integers(1, 21),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_rate_split_on_a_row_range_is_those_rows_of_the_full_split(
        d_v, start, stop, seed):
    start = min(start, stop - 1)
    op = split_operator(d_v)
    U = np.random.default_rng(seed).normal(size=21).cumsum()
    _, cache = op.forward_batch(U[None])
    full = op.decomposition(cache)
    part = op.decomposition(cache, start, stop)
    for a, b in zip(part, full):
        assert a.shape == (stop - start,)
        assert np.array_equal(a, b[start:stop])


# a split reads one trajectory, so at M=80, d_v=16 the kernel terms of the
# layers after the first run in blocks of ROWS rows (16 at 256 floats; the
# last block is row 80 alone), each one GEMM over its copied windows, in
# any batch: ranges from and to a block's first row, its last row,
# mid-block and the last block, in each trajectory of batches of 1 and 3.
# A GEMM's rows can round with its row count, so a block counted from the
# range's first row, or made of the rows asked for alone, shows at M=80;
# but on OpenBLAS it adds a window's trailing zeros exactly. At M=600,
# d_v=1 (blocks of 256 rows after the first layer) the table has one
# column, so each block is a matrix-vector product, whose rows round with
# the window's length: a cut that followed the range's end shows there
ROWS = WINDOW_FLOATS // 16
BLOCK_RANGES = [(80, 16, lo, hi) for lo, hi in (
    (ROWS, ROWS + 1), (ROWS - 1, ROWS), (2 * ROWS - 1, 2 * ROWS),
    (ROWS, 2 * ROWS), (2 * ROWS + ROWS // 2, 4 * ROWS),
    (2 * ROWS + ROWS // 2, 81), (80 - ROWS, 81), (80, 81), (0, 81))] + [
    (600, 1, lo, hi) for lo, hi in ((100, 101), (200, 255), (255, 256),
                                    (300, 301), (300, 601))]


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("M, d_v, start, stop", BLOCK_RANGES)
def test_a_split_range_across_row_blocks_is_those_rows_of_the_full_split(
        M, d_v, start, stop, batch):
    op = BoundaryOperator(TimeGrid(1.0, M), d_v=d_v, n_layers=2, seed=16)
    UU = np.random.default_rng(batch).normal(
        size=(batch, M + 1)).cumsum(axis=1)
    _, cache = op.forward_batch(UU)
    for i in range(batch):
        full = op.decomposition(cache, trajectory=i)
        part = op.decomposition(cache, start, stop, trajectory=i)
        for a, b in zip(part, full):
            assert np.array_equal(a, b[start:stop])


@pytest.mark.parametrize("start, stop", [(0, 22), (20, 22), (21, 22),
                                         (5, 4), (21, 20), (-3, 5)])
def test_a_row_range_outside_the_pass_is_an_error(start, stop):
    """stop past the n rows, start after stop, or a negative start names
    the range; none is clipped to the rows there are."""
    op = split_operator(4)
    _, cache = op.forward_batch(np.linspace(0.0, 1.0, 21)[None])
    with pytest.raises(ValueError, match=rf"\[{start}, {stop}\) is not"):
        op.decomposition(cache, start, stop)


@pytest.mark.parametrize("trajectory", [-1, 2])
def test_a_trajectory_outside_the_pass_is_an_error(trajectory):
    """A negative trajectory or one past the batch names the trajectory
    and the batch size; neither reaches the window product as an empty
    slice or an IndexError."""
    op = split_operator(4)
    _, cache = op.forward_batch(np.ones((2, 21)))
    with pytest.raises(ValueError, match=rf"trajectory {trajectory} is not "
                                         r"one of the pass's 2 trajectories"):
        op.decomposition(cache, 3, 5, trajectory=trajectory)


@st.composite
def window_ranges(draw):
    """(n, lo, hi, m): n rows, a range [lo, hi) of them and a row m, each
    drawn inside n."""
    n = draw(st.integers(1, 90), label="n")
    lo = draw(st.integers(0, n), label="lo")
    hi = draw(st.integers(lo, n), label="hi")
    return n, lo, hi, draw(st.integers(0, n - 1), label="m")


# at b=1 every product is a GEMV, which rounds with the window's length
# on OpenBLAS: a range from mid-block (a=5, blocks of 51 rows) in one
# trajectory and in a batch of two, one to mid-block (a=3, blocks of 85
# rows) and one inside the last block, rows 85..89
@given(B=st.integers(1, 3), rows=window_ranges(), a=st.integers(1, 20),
       b=st.integers(1, 6), weighted=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1),
       fill=st.sampled_from([np.nan, np.inf, -np.inf]))
@example(B=1, rows=(90, 17, 54, 30), a=5, b=1, weighted=False, seed=1,
         fill=np.nan)
@example(B=2, rows=(90, 17, 54, 30), a=5, b=1, weighted=False, seed=1,
         fill=np.nan)
@example(B=1, rows=(90, 0, 42, 20), a=3, b=1, weighted=False, seed=1,
         fill=np.inf)
@example(B=1, rows=(90, 87, 88, 87), a=3, b=1, weighted=True, seed=1,
         fill=-np.inf)
@settings(max_examples=100, deadline=None)
def test_window_products_are_the_rows_of_the_uncut_product(
        B, rows, a, b, weighted, seed, fill):
    """Rows [lo, hi) of the blocked products are bitwise those rows of
    [0, n), within 1e-12 of the uncut products relative to the sum of the
    terms' magnitudes, and a NaN or inf in an input after row m leaves
    every row up to m bitwise as it was. Every batch size cuts row m's
    window and the lag table at the end of m's block, one partition
    counted from row 0 whose last block is the rows left over: row m is
    bitwise that cut's product, one GEMM of the copied block at B = 1 and
    a product of the row's windows at B >= 2."""
    n, lo, hi, m = rows
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(B, n, a))
    w = rng.uniform(0.5, 2.0, size=n) if weighted else None
    table = rng.normal(size=(n * a, b))
    hist = _history(x, w)
    whole = _window_products(hist, table, 0, n)
    part = _window_products(hist, table, lo, hi)
    assert part.shape == (hi - lo, B, b)
    assert np.array_equal(part, whole[lo:hi])
    bound = 1e-12 * (np.abs(hist) @ np.abs(table))
    assert np.all(np.abs(whole - hist @ table) <= bound)
    block = WINDOW_FLOATS // a
    for r in range(n):
        s, e = r - r % block, min((r // block + 1) * block, n)
        k = e * a
        if B == 1:
            row = (np.ascontiguousarray(hist[s:e, 0, :k]) @ table[:k])[r - s]
        else:
            row = np.matmul(hist[r:r + 1, :, :k], table[:k])[0]
        assert np.array_equal(whole[r], row.reshape(B, b))

    x[:, m + 1:] = fill
    with np.errstate(invalid="ignore"):
        later = _window_products(_history(x, w), table, lo, hi)
    assert np.array_equal(later[:max(0, m + 1 - lo)],
                          part[:max(0, m + 1 - lo)])


class CountedTable(np.ndarray):
    """A lag table that records each cut `_window_products` takes of it:
    every block product multiplies one cut, table[:k], a plain array."""

    def __getitem__(self, key):
        self.cuts.append(key)
        return super().__getitem__(key).view(np.ndarray)


@pytest.mark.parametrize("B", [1, 2])
@pytest.mark.parametrize("lo", [0, 17, 85, 90],
                         ids=["row-0", "mid-block", "block-start", "n"])
def test_an_empty_window_range_runs_no_block_product(B, lo):
    # n=90, a=3: blocks of 85 rows, so rows 17 and 90 are off a block's
    # first row, and 0 and 85 on it
    x = np.random.default_rng(B).normal(size=(B, 90, 3))
    hist = _history(x)
    table = np.random.default_rng(7).normal(size=(270, 4)).view(
        CountedTable)
    table.cuts = []
    assert _window_products(hist, table, lo, lo).shape == (0, B, 4)
    assert table.cuts == []
    # a range of one row runs its block's one product
    if lo < 90:
        _window_products(hist, table, lo, lo + 1)
        assert len(table.cuts) == 1


@pytest.mark.parametrize("lo, hi", [(0, 6), (5, 7), (6, 6), (-1, 3),
                                    (4, 3)])
def test_a_window_range_outside_the_rows_is_an_error(lo, hi):
    """A range past the n rows, reversed or from a negative row names the
    range; one past the rows used to loop without end."""
    hist = _history(np.ones((1, 5, 2)))
    with pytest.raises(ValueError, match=rf"rows \[{lo}, {hi}\) are not "
                                         r"inside the 5 rows"):
        _window_products(hist, np.ones((10, 3)), lo, hi)


@pytest.mark.parametrize("activations", [("relu", "relu"),
                                         ("relu", "linear")])
def test_the_split_of_one_trajectory_of_a_batch_is_its_one_row_view(
        activations):
    # a one-row view of the batched cache holds that trajectory alone, so
    # its split pins which trajectory is read and that nothing else is
    op = BoundaryOperator(TimeGrid(1.0, 20), d_v=4, n_layers=2,
                          activations=activations, seed=3)
    n = op.grid.M + 1
    UU = np.random.default_rng(0).normal(size=(4, n)).cumsum(axis=1)
    _, cache = op.forward_batch(UU)
    for i in range(len(UU)):
        view = dataclasses.replace(
            cache, vs=[v[i:i + 1] for v in cache.vs],
            hists=[h[:, i:i + 1] for h in cache.hists],
            masks=[x if x is None else x[i:i + 1] for x in cache.masks])
        for start, stop in ((0, n), (0, 1), (1, 2), (5, 6), (6, n),
                            (n - 1, n)):
            for a, b in zip(op.decomposition(cache, start, stop,
                                             trajectory=i),
                            op.decomposition(view, start, stop)):
                assert np.array_equal(a, b)


PLANT_GRIDS = {"transport": HyperbolicConfig().grid,
               "parabolic": ParabolicConfig().grid}


@functools.lru_cache(maxsize=None)
def plant_operator(plant, activation):
    """An operator on a plant's grid with every parameter moved off its
    start, the output biases (zero at first) included."""
    op = BoundaryOperator(PLANT_GRIDS[plant], d_v=8, n_layers=2,
                          activations=(activation,) * 2, seed=5)
    rng = np.random.default_rng(6)
    for p in op.params():
        p += 0.1 * rng.normal(size=p.shape)
    return op


# a finite change to the inputs from row k on leaves every output row
# before k as it was, bit for bit, on each plant's default grid (M=50 and
# M=1000)
@pytest.mark.parametrize("activation", ["relu", "linear"])
@pytest.mark.parametrize("plant", sorted(PLANT_GRIDS))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_an_output_row_does_not_depend_on_a_later_input(plant, activation,
                                                        data):
    op = plant_operator(plant, activation)
    n = op.grid.M + 1
    k = data.draw(st.integers(0, n - 1), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = data.draw(st.sampled_from([0.0, 1e-300, 1e-3, 1.0, 1e3]))
    batch = data.draw(st.sampled_from([1, 3]), label="batch")
    UU = rng.normal(size=(batch, n)).cumsum(axis=1)
    VV = UU.copy()
    VV[0, k:] = scale * rng.normal(size=n - k)
    Y, YV = op.forward_batch(UU)[0], op.forward_batch(VV)[0]
    assert np.array_equal(Y[0, :k], YV[0, :k])
    assert np.array_equal(Y[1:], YV[1:])


def test_the_untrained_operator_of_the_benchmark_is_causal():
    """The sensitivity probe at default settings: |dY_k/dU_j| for j > k is
    exactly zero, where the pair kernel read 7.8 after training."""
    op = BoundaryOperator(TimeGrid(5.0, 50), d_v=16, n_layers=2, seed=3)
    U = np.random.default_rng(3).normal(size=51).cumsum()
    Y = op.forward(U)
    for j in (1, 10, 25, 50):
        V = U.copy()
        V[j] += 1e-3
        dY = op.forward(V) - Y
        assert np.all(dY[:j] == 0.0)
        assert np.any(dY[j:] != 0.0)


def test_a_time_shifted_input_shifts_the_output():
    """With the bias networks, the constant channel and Q's bias at zero,
    every layer maps a zero history to zero, and its kernel sum weighs a
    lag the same at every row: an input that starts at zero, delayed by s
    rows, delays the output by s rows, the last row included."""
    op = BoundaryOperator(TimeGrid(1.0, 30), d_v=4, n_layers=2, seed=11)
    rng = np.random.default_rng(12)
    for p in op.params():
        p += 0.1 * rng.normal(size=p.shape)
    first = op.layers[0]
    first.W[:, 1] = 0.0
    W1, b1 = first.kappa.params()[2:]
    W1.reshape(first.dim_out, first.dim_in, -1)[:, 1] = 0.0
    b1.reshape(first.dim_out, first.dim_in)[:, 1] = 0.0
    for layer in op.layers:
        zero_all(layer.b.params()[2:])
    op.Q.params()[1][...] = 0.0
    U = np.concatenate([[0.0], rng.normal(size=30).cumsum()])
    Y = op.forward(U)
    for s in (1, 7, 20):
        YV = op.forward(np.concatenate([np.zeros(s), U[:31 - s]]))
        assert np.all(YV[:s] == 0.0)
        assert np.allclose(YV[s:], Y[:31 - s], rtol=0.0,
                           atol=1e-12 * np.max(np.abs(Y)))


def test_a_forward_at_the_parabolic_default_holds_less_than_n_squared():
    """A whole forward and one from a prior at row 500 at the parabolic
    default M=1000, d_v=16, as the filter makes them, peak by tracemalloc
    below 8 n^2 bytes, one float per (t_m, t_j) pair: so no array of a
    pass has n^2 rows. The pair kernel held (n^2, h) hidden features and
    masks, 581 MiB."""
    op = BoundaryOperator(TimeGrid(1.0, 1000), d_v=16, n_layers=2, seed=0)
    n = 1001
    U = np.linspace(0.0, 1.0, n)
    tracemalloc.start()
    try:
        _, prior = op.forward_batch(U[None])
        op.forward_batch(U[None], start=500, prior=[(prior, 0)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n


@pytest.mark.parametrize("start", [1000, 500])
def test_a_split_at_the_parabolic_default_holds_less_than_n_squared(start):
    """The rate split of one trajectory at M=1000, d_v=16, over the last
    row alone and over rows 500..1000, as the filter asks for it, peaks by
    tracemalloc below 8 n^2 bytes, the bound of the forward above: each
    block of rows copies its cut windows whole, and no copy holds more than
    a block's (2 MB)."""
    op = BoundaryOperator(TimeGrid(1.0, 1000), d_v=16, n_layers=2, seed=0)
    n = 1001
    _, cache = op.forward_batch(np.linspace(0.0, 1.0, n)[None])
    tracemalloc.start()
    try:
        op.decomposition(cache, start, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n


def test_a_training_step_holds_less_than_the_pair_features():
    """One training step at M=200, d_v=16, B=8 peaks by tracemalloc below
    n^2 * h floats, the kernel network's hidden features on the (t_m, t_j)
    pairs (9.9 MiB): no array of the step has n^2 rows. It holds about 4
    MiB; the step through blocks of the pair kernel's rows held about 42
    MiB."""
    op = BoundaryOperator(TimeGrid(1.0, 200), d_v=16, n_layers=2, seed=0)
    rng = np.random.default_rng(5)
    UU = rng.normal(size=(8, 201)).cumsum(axis=1)
    YY = rng.normal(size=(8, 201))
    tracemalloc.start()
    try:
        op.loss_and_grads(UU, YY, l2=1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 201 * 201 * 32 * 8


def test_the_lag_table_is_the_kernel_networks_output_on_the_lags():
    """A pass computes each kernel network's hidden layer on the n lags
    with the arithmetic of `Mlp.trace`, and its output layer read
    (d_out, d_in) per lag is the lag table's K(t_k), stored as K(t_k)^T
    blocks; it traces each bias network on the n times."""
    op = BoundaryOperator(TimeGrid(1.0, 20), d_v=16, n_layers=2, seed=3)
    _, cache = op.forward_batch(np.ones((1, 21)))
    t = op.grid.times()[:, None]
    for layer, lag in zip(op.layers, cache.lags):
        ref = layer.kappa.trace(t)
        assert np.array_equal(lag.kappa.inputs[0], t)
        assert np.array_equal(lag.kappa.inputs[1], ref.inputs[1])
        assert np.array_equal(lag.kappa.masks[0], ref.masks[0])
        K = ref.output.reshape(21, layer.dim_out, layer.dim_in)
        assert np.allclose(lag.table, K.transpose(0, 2, 1).reshape(
            21 * layer.dim_in, layer.dim_out), rtol=1e-14,
            atol=1e-14 * np.max(np.abs(K)))
        assert np.array_equal(lag.b.output, layer.b.forward(t))


def test_a_history_window_holds_the_past_and_then_zeros():
    x = np.arange(1.0, 31.0).reshape(2, 5, 3)
    w = np.array([0.5, 1.0, 2.0, 3.0, 4.0])
    for weights, wx in ((None, x), (w, x * w[:, None])):
        windows = _history(x, weights)
        assert windows.shape == (5, 2, 15)
        for m in range(5):
            blocks = windows[m].reshape(2, 5, 3)
            assert np.array_equal(blocks[:, :m + 1], wx[:, m::-1])
            assert not blocks[:, m + 1:].any()


class TestPartialForward:
    """forward_batch(UU, start, prior) runs every layer from row start on
    and takes the earlier rows from the prior, so its cache is bitwise
    that of the whole pass at every row."""

    N = 21
    # (M, d_v, start): at M=20, d_v=4 every window product is one block; at
    # M=80, d_v=16 a pass from a block's first row, its last row, mid-block
    # and row 64, a block's first row near the end (BLOCK_RANGES). At
    # M=600, d_v=1 a window product is a matrix-vector product, whose rows
    # round with the window's length on OpenBLAS, so a cut that moved with
    # start would show there
    STARTS = [pytest.param(20, 4, s, id=str(s))
              for s in (1, N // 2, N - 1)] + [
        pytest.param(80, 16, s, id=f"M80-{s}")
        for s in (ROWS, 2 * ROWS - 1, 2 * ROWS + ROWS // 2, 80 - ROWS)] + [
        pytest.param(600, 1, s, id=f"M600-{s}") for s in (100, 255, 300)]

    def case(self, n_layers, activation, batch=1, M=20, d_v=4):
        op = BoundaryOperator(TimeGrid(1.0, M), d_v=d_v, n_layers=n_layers,
                              activations=(activation,) * n_layers,
                              seed=7 + n_layers)
        UU = np.random.default_rng(n_layers).normal(
            size=(batch, M + 1)).cumsum(axis=1)
        return op, UU

    @pytest.mark.parametrize("activation", ["relu", "linear"])
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("M, d_v, start", STARTS)
    def test_a_pass_from_a_prior_is_the_whole_pass_from_start_on(
            self, M, d_v, start, n_layers, activation):
        """Inputs that agree with those of a prior pass before start, in a
        batch of two and in batches of one: every layer runs from start
        on, and at every row the output, every layer input, every mask,
        the rate split and the backward pass's gradients are bitwise those
        of the whole pass."""
        op, UU = self.case(n_layers, activation, 2, M, d_v)
        VV = UU[::-1].copy()
        VV[:, :start] = UU[:, :start]
        dY = np.random.default_rng(start).normal(size=(2, M + 1))
        for rows in ([0, 1], [0], [1]):
            _, prior = op.forward_batch(UU[rows])
            full, whole = op.forward_batch(VV[rows])
            part, cache = op.forward_batch(
                VV[rows], start, [(prior, i) for i in range(len(rows))])
            assert cache.lags is prior.lags
            assert np.array_equal(part, full)
            for a, b in zip(cache.vs, whole.vs, strict=True):
                assert np.array_equal(a, b)
            for a, b in zip(cache.masks, whole.masks, strict=True):
                assert a is b is None if activation == "linear" \
                    else np.array_equal(a, b)
            for i in range(len(rows)):
                for a, b in zip(op.decomposition(cache, trajectory=i),
                                op.decomposition(whole, trajectory=i)):
                    assert np.array_equal(a, b)
            for a, b in zip(op._backward(cache, dY[rows]),
                            op._backward(whole, dY[rows]), strict=True):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("batch", [2, 3])
    @pytest.mark.parametrize("activation", ["relu", "linear"])
    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("M, d_v, start", STARTS)
    def test_a_pass_from_priors_of_several_passes_is_the_whole_pass(
            self, M, d_v, start, n_layers, activation, batch):
        """Each row's prior is its own earlier pass, as the filter keeps one
        per row: the prior of row b is trajectory b of a pass over a batch
        of the same size, equal to row b before start, whose other rows are
        other inputs. (A trajectory's rows can round differently at another
        place in a batch: at M=600, d_v=1 in a batch of three.) Only that
        trajectory of each prior is read: at every row the output, every
        layer input, every mask, the rate split and the backward pass's
        gradients are bitwise those of the whole pass."""
        op, UU = self.case(n_layers, activation, batch, M, d_v)
        rng = np.random.default_rng(start)
        VV = UU.copy()
        VV[:, start:] = rng.normal(size=(batch, M + 1 - start)).cumsum(axis=1)
        prior = []
        for b in range(batch):
            WW = rng.normal(size=UU.shape).cumsum(axis=1)
            WW[b] = UU[b]
            prior.append((op.forward_batch(WW)[1], b))
        full, whole = op.forward_batch(VV)
        part, cache = op.forward_batch(VV, start, prior)
        assert np.array_equal(part, full)
        for a, b in zip(cache.vs, whole.vs, strict=True):
            assert np.array_equal(a, b)
        for a, b in zip(cache.masks, whole.masks, strict=True):
            assert a is b is None if activation == "linear" \
                else np.array_equal(a, b)
        for i in range(batch):
            for a, b in zip(op.decomposition(cache, trajectory=i),
                            op.decomposition(whole, trajectory=i)):
                assert np.array_equal(a, b)
        dY = rng.normal(size=(batch, M + 1))
        for a, b in zip(op._backward(cache, dY), op._backward(whole, dY),
                        strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("activation", ["relu", "linear"])
    @pytest.mark.parametrize("M, d_v, start", STARTS)
    def test_the_split_of_a_pass_from_a_prior_on_a_row_range(
            self, M, d_v, start, activation):
        """The split of a prior pass over a range that ends at start, one
        that crosses it, one that begins there and one to the last row is
        those rows of the whole pass's split: the rows before start, which
        the pass took from the prior, read as those it ran."""
        op, UU = self.case(2, activation, 1, M, d_v)
        _, prior = op.forward_batch(UU)
        VV = UU.copy()
        VV[:, start:] += 1.0
        _, whole = op.forward_batch(VV)
        _, cache = op.forward_batch(VV, start, [(prior, 0)])
        full = op.decomposition(whole)
        for lo, hi in ((0, start), (start - 1, start + 1),
                       (start, start + 1), (start, M + 1)):
            for a, b in zip(op.decomposition(cache, lo, hi), full,
                            strict=True):
                assert np.array_equal(a, b[lo:hi])

    def test_a_prior_over_another_input_is_refused(self):
        op, UU = self.case(2, "relu", batch=2)
        _, prior = op.forward_batch(UU)
        VV = UU.copy()
        VV[1, 5] += 1.0
        op.forward_batch(VV, 5, [(prior, 0), (prior, 1)])
        for start, rows in ((5, [1, 0]), (5, [0]), (6, [0, 1])):
            with pytest.raises(ValueError, match=f"before row {start}"):
                op.forward_batch(VV, start, [(prior, i) for i in rows])

    def test_a_pass_from_a_later_row_needs_a_prior(self):
        op, UU = self.case(2, "relu")
        with pytest.raises(ValueError, match="from row 3 needs a prior"):
            op.forward_batch(UU, 3)


class TestTrainingStep:
    """A training step, whose integrals run through the (n*d_in, d_out)
    lag table, is the step through each layer's whole causal Toeplitz
    kernel table (`oracles.dense_loss_and_grads`) to round-off, on grids
    of 6 to 81 rows, and its forward is the inference pass, bit for
    bit."""

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("activation", ["relu", "linear"])
    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("M", [5, 15, 20, 80])
    def test_the_step_is_the_dense_causal_toeplitz_step(
            self, M, n_layers, activation, batch):
        op = BoundaryOperator(TimeGrid(1.0, M), d_v=4, n_layers=n_layers,
                              activations=(activation,) * n_layers,
                              kappa_hidden=8, b_hidden=4, seed=40 + n_layers)
        rng = np.random.default_rng(M + batch)
        for p in op.params():
            p += 0.1 * rng.normal(size=p.shape)
        UU = rng.normal(size=(batch, M + 1)).cumsum(axis=1)
        YY = rng.normal(size=(batch, M + 1))
        loss, grads = op.loss_and_grads(UU, YY, l2=1e-3)
        ref_loss, ref_grads = dense_loss_and_grads(op, UU, YY, l2=1e-3)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert [g.shape for g in grads] == [p.shape for p in op.params()]
        for g, ref in zip(grads, ref_grads, strict=True):
            assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("activation", ["relu", "linear"])
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_the_training_forward_is_the_inference_one(
            self, n_layers, activation, batch):
        op = BoundaryOperator(TimeGrid(1.0, 20), d_v=4, n_layers=n_layers,
                              activations=(activation,) * n_layers,
                              seed=30 + n_layers)
        UU = np.random.default_rng(batch).normal(
            size=(batch, 21)).cumsum(axis=1)
        YY = np.random.default_rng(batch + 1).normal(size=UU.shape)
        loss, _ = op.loss_and_grads(UU, YY)
        inferred, _ = op.forward_batch(UU)
        assert loss == mean_square(inferred - YY)

    def test_two_steps_of_one_operator_are_those_of_fresh_ones(self):
        """Steps at batches of 3 and then 2 trajectories are the same
        steps on fresh operators, bit for bit: no step reuses another's
        arrays."""
        grid = TimeGrid(1.0, 20)

        def fresh():
            return BoundaryOperator(grid, d_v=4, n_layers=2, seed=34)

        rng = np.random.default_rng(1)
        op = fresh()
        for B in (3, 2):
            UU = rng.normal(size=(B, 21)).cumsum(axis=1)
            YY = rng.normal(size=(B, 21))
            loss, grads = op.loss_and_grads(UU, YY, l2=1e-3)
            ref_loss, ref_grads = fresh().loss_and_grads(UU, YY, l2=1e-3)
            assert loss == ref_loss
            for g, h in zip(grads, ref_grads, strict=True):
                assert g.tobytes() == h.tobytes()


class TestLossAndGradients:
    def test_perfect_fit_leaves_penalty_only(self):
        grid = TimeGrid(1.0, 4)
        op = identity_operator(grid)
        UU = np.array([[1.0, 2.0, 3.0, 4.0, 5.0],
                       [0.0, -1.0, 1.0, -1.0, 0.0]])
        loss, _ = op.loss_and_grads(UU, UU, l2=0.0)
        assert loss == 0.0
        loss, _ = op.loss_and_grads(UU, UU, l2=0.01)
        # weights: one first-layer entry and one readout entry
        assert np.allclose(loss, 0.01 * (1.0 + 1.0), rtol=1e-12)

    def test_zero_operator_unit_targets(self):
        op = BoundaryOperator(TimeGrid(1.0, 4), d_v=3, n_layers=1,
                              kappa_hidden=4, b_hidden=3, seed=14)
        zero_all(op.params())
        UU = np.ones((2, 5))
        loss, _ = op.loss_and_grads(UU, np.ones((2, 5)))
        assert loss == 1.0

    @pytest.mark.parametrize("target", ["one trajectory", "one row",
                                        "shorter"])
    def test_a_target_of_another_shape_is_an_error(self, target):
        """The target is not broadcast over the batch: a 1-D or one-row
        target of a batch of three, or one of another length, is an error
        naming both shapes."""
        op = BoundaryOperator(TimeGrid(1.0, 4), d_v=3, n_layers=1,
                              kappa_hidden=4, b_hidden=3, seed=14)
        UU = np.ones((3, 5))
        YY = {"one trajectory": UU[0], "one row": UU[:1],
              "shorter": UU[:, :-1]}[target]
        with pytest.raises(ConfigurationError) as info:
            op.loss_and_grads(UU, YY)
        assert f"target shape {YY.shape}" in str(info.value)
        assert f"input shape {UU.shape}" in str(info.value)

    @staticmethod
    def central_difference(op, UU, YY, p, idx, h=1e-6):
        keep = p[idx]
        p[idx] = keep + h
        up, _ = op.loss_and_grads(UU, YY, l2=1e-3)
        p[idx] = keep - h
        dn, _ = op.loss_and_grads(UU, YY, l2=1e-3)
        p[idx] = keep
        return (up - dn) / (2.0 * h)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradients_match_finite_differences_at_default_init(self, seed):
        """At the default initialization, every entry of the lag and time
        networks' hidden layers (W0 and b0) and one entry of every other
        parameter array. Their hidden biases start off zero: with zero
        biases every kernel unit sits at its ReLU kink at lag 0, the lag of
        every diagonal pair, where the backward pass takes one side."""
        op = BoundaryOperator(TimeGrid(1.0, 10), d_v=3, n_layers=2,
                              seed=seed)
        rng = np.random.default_rng(seed)
        UU = rng.normal(size=(2, 11)).cumsum(axis=1)
        YY = rng.normal(size=(2, 11))
        _, grads = op.loss_and_grads(UU, YY, l2=1e-3)
        hidden = {id(p) for layer in op.layers
                  for net in (layer.kappa, layer.b) for p in net.params()[:2]}
        assert all(np.all(layer.kappa.biases[0] != 0.0)
                   for layer in op.layers)
        for p, g in zip(op.params(), grads, strict=True):
            entries = list(np.ndindex(p.shape)) if id(p) in hidden \
                else [tuple(rng.integers(0, s) for s in p.shape)]
            for idx in entries:
                fd = self.central_difference(op, UU, YY, p, idx)
                assert abs(g[idx] - fd) <= 1e-5 * abs(fd) + 1e-7

    def test_gradients_match_finite_differences(self):
        """One entry of every parameter array, both layers included, with
        every parameter moved off its start."""
        grid = TimeGrid(1.0, 5)
        op = BoundaryOperator(grid, d_v=3, n_layers=2, kappa_hidden=4,
                              b_hidden=3, seed=16)
        rng = np.random.default_rng(17)
        for p in op.params():
            p += 0.1 * rng.normal(size=p.shape)
        UU = rng.normal(size=(2, 6))
        YY = rng.normal(size=(2, 6))
        _, grads = op.loss_and_grads(UU, YY, l2=1e-3)
        params = op.params()
        h = 1e-6
        checked = 0
        for pi in range(len(params)):
            p, g = params[pi], grads[pi]
            idx = tuple(rng.integers(0, s) for s in p.shape)
            keep = p[idx]
            p[idx] = keep + h
            up, _ = op.loss_and_grads(UU, YY, l2=1e-3)
            p[idx] = keep - h
            dn, _ = op.loss_and_grads(UU, YY, l2=1e-3)
            p[idx] = keep
            fd = (up - dn) / (2.0 * h)
            assert np.allclose(g[idx], fd, rtol=1e-4, atol=1e-7)
            checked += 1
        assert checked == len(params) == 20


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        grid = TimeGrid(1.5, 6)
        op = BoundaryOperator(grid, d_v=4, n_layers=2, kappa_hidden=8,
                              b_hidden=4, seed=18)
        path = tmp_path / "op.ckpt"
        op.save(path)
        back = BoundaryOperator.load(path)
        assert back.grid.T == grid.T and back.grid.M == grid.M
        for a, b in zip(back.params(), op.params(), strict=True):
            assert a.tobytes() == b.tobytes()
        U = np.linspace(-2.0, 2.0, 7)
        Ya = op.forward(U)
        Yb = back.forward(U)
        assert np.array_equal(Ya, Yb)

    def test_load_rejects_other_kinds(self, tmp_path):
        path = tmp_path / "other.ckpt"
        write_checkpoint(path, "bcbf", {"W0": np.zeros((1, 1))})
        with pytest.raises(ConfigurationError, match="not operator"):
            BoundaryOperator.load(path)

    @pytest.mark.parametrize("line, edit, message", [
        ("meta grid_T 1\n", "", "has no meta entry grid_T"),
        ("meta n_layers 2\n", "meta n_layers two\n",
         "meta entry n_layers 'two' is malformed"),
        ("meta n_layers 2\n", "meta n_layers 0\n",
         "n_layers must be >= 1, got 0"),
    ], ids=["missing", "malformed", "out-of-range"])
    def test_a_bad_meta_entry_names_the_checkpoint_and_the_key(
            self, tmp_path, line, edit, message):
        path = tmp_path / "op.ckpt"
        BoundaryOperator(TimeGrid(1.0, 4), d_v=3, n_layers=2, seed=1).save(
            path)
        text = path.read_text()
        assert line in text
        path.write_text(text.replace(line, edit))
        with pytest.raises(ConfigurationError) as info:
            BoundaryOperator.load(path)
        assert str(info.value).startswith(f"{path}: ")
        assert message in str(info.value)

    def test_a_layer_count_below_the_tensors_names_the_unread_ones(
            self, tmp_path):
        # with n_layers 1 a two-layer file would load as another function
        path = tmp_path / "op.ckpt"
        op = BoundaryOperator(TimeGrid(1.0, 4), d_v=3, n_layers=2,
                              kappa_hidden=4, b_hidden=3, seed=1)
        op.save(path)
        kind, tensors, meta = read_checkpoint(path)
        write_checkpoint(path, kind, tensors, {
            **meta, "n_layers": "1", "activations": "relu"})
        with pytest.raises(ConfigurationError) as info:
            BoundaryOperator.load(path)
        layer1 = [name for name in tensors if name.startswith("layer1.")]
        assert layer1 == ["layer1.W"] + [
            f"layer1.{net}.{p}{k}" for net in ("kappa", "b")
            for k in range(2) for p in "Wb"]
        assert str(info.value) == (f"{path}: checkpoint has tensors its "
                                   f"model does not name: {', '.join(layer1)}")

    def test_a_checkpoint_with_the_old_lift_is_an_error(self, tmp_path):
        """A checkpoint of the older layout holds a lift P and a (d_v, d_v)
        first layer; loading one names the lift's tensors rather than
        reporting a shape."""
        op = BoundaryOperator(TimeGrid(1.0, 4), d_v=3, n_layers=1,
                              kappa_hidden=4, b_hidden=3, seed=19)
        op.layers[0] = KernelLayer(3, 3, 4, 3, "relu", 1.0, seed=20)
        path = tmp_path / "op.ckpt"
        op.save(path)
        kind, tensors, meta = read_checkpoint(path)
        tensors.update({"P.W0": np.ones((3, 1)), "P.b0": np.zeros(3)})
        write_checkpoint(path, kind, tensors, meta)
        with pytest.raises(ConfigurationError,
                           match="does not name: P.W0, P.b0$"):
            BoundaryOperator.load(path)

    def test_a_pair_kernel_checkpoint_is_rejected_to_be_retrained(
            self, tmp_path):
        """A checkpoint of the pair kernel K(t_m, t_j), whose kernel
        networks read two inputs, names the file and asks for retraining
        rather than reporting a shape."""
        op = BoundaryOperator(TimeGrid(1.0, 4), d_v=3, n_layers=2,
                              kappa_hidden=4, b_hidden=3, seed=19)
        path = tmp_path / "op.ckpt"
        op.save(path)
        kind, tensors, meta = read_checkpoint(path)
        for i in range(2):
            tensors[f"layer{i}.kappa.W0"] = np.ones((4, 2))
        write_checkpoint(path, kind, tensors, meta)
        with pytest.raises(ConfigurationError) as info:
            BoundaryOperator.load(path)
        message = str(info.value)
        assert message.startswith(f"{path}: ")
        assert "pair kernel" in message and "retrain" in message

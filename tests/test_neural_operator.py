"""Oracle tests for the kernel-integral trajectory operator.

The forward map has enough structure to pin down exactly: configured as an
identity chain it must reproduce its input bitwise, a dense per-step
evaluation with explicit kernel matrices must agree with the batched table
path, and the (Lambda, mu) decomposition must satisfy the rate identity
dY/dt = Lambda * dU/dt + mu against finite differences of the forward pass.
"""

import numpy as np
import pytest

from safebc.checkpoint import write_checkpoint
from safebc.neural_operator import (BoundaryOperator, CacheStaleError,
                                    trapezoid_weights, u_dot_forward)
from safebc.pde_sim import ConfigurationError, TimeGrid


def zero_all(params):
    for p in params:
        p[...] = 0.0


def identity_operator(grid, d_v=4, n_layers=1):
    """Lift into the first channel, identity mixing, read the first channel."""
    op = BoundaryOperator(grid, d_v=d_v, n_layers=n_layers,
                          activations=("linear",) * n_layers, seed=0,
                          kappa_hidden=4, b_hidden=3)
    zero_all(op.params())
    op.P.params()[0][0, 0] = 1.0
    for layer in op.layers:
        layer.W[...] = np.eye(d_v)
    op.Q.params()[0][0, 0] = 1.0
    return op


def dense_forward(op, U):
    """Per-step reference with explicit kernel matrices, no table batching."""
    grid = op.grid
    n = grid.M + 1
    t = grid.times()
    w = trapezoid_weights(grid)
    v = op.P.forward(np.asarray(U, dtype=float)[:, None])
    for layer in op.layers:
        do, di = layer.dim_out, layer.dim_in
        b_tab = layer.b.forward(t[:, None])
        z = np.empty((n, do))
        for m in range(n):
            acc = layer.W @ v[m]
            for j in range(n):
                K = layer.kappa.forward(
                    np.array([[t[m], t[j]]]))[0].reshape(do, di)
                acc = acc + w[j] * (K @ v[j])
            z[m] = acc + b_tab[m]
        v = np.maximum(z, 0.0) if layer.activation == "relu" else z
    return op.Q.forward(v)[:, 0]


class TestBasics:
    def test_trapezoid_weights_sum_to_horizon(self):
        grid = TimeGrid(2.0, 10)
        w = trapezoid_weights(grid)
        assert w.shape == (11,)
        assert w[0] == w[-1] == grid.dt / 2.0
        assert np.allclose(w.sum(), grid.T, rtol=1e-13)

    def test_udot_forward_on_ramp(self):
        U = 3.0 * np.linspace(0.0, 1.0, 6)
        ud = u_dot_forward(U, 0.2)
        assert np.allclose(ud, 3.0, rtol=1e-12)
        assert ud[-1] == ud[-2]

    def test_constructor_validation(self):
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ConfigurationError):
            BoundaryOperator(grid, d_v=4, n_layers=0)
        with pytest.raises(ConfigurationError):
            BoundaryOperator(grid, d_v=4, n_layers=2, activations=("relu",))

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
        Y, _ = op.forward(np.linspace(-3.0, 5.0, 7))
        assert np.array_equal(Y, np.zeros(7))

    def test_identity_chain_reproduces_input(self):
        op = identity_operator(TimeGrid(1.0, 8))
        U = np.array([1.0, -2.0, 0.5, 3.25, -0.125, 7.0, 0.0, 2.5, -4.75])
        Y, _ = op.forward(U)
        assert np.array_equal(Y, U)

    def test_identity_chain_two_layers(self):
        op = identity_operator(TimeGrid(1.0, 5), n_layers=2)
        U = np.array([0.5, -1.5, 2.0, -2.5, 3.0, -3.5])
        Y, _ = op.forward(U)
        assert np.array_equal(Y, U)

    def test_dense_reference_agreement(self):
        grid = TimeGrid(1.5, 6)
        op = BoundaryOperator(grid, d_v=4, n_layers=2, kappa_hidden=8,
                              b_hidden=4, seed=3)
        rng = np.random.default_rng(5)
        U = rng.normal(size=7)
        Y, _ = op.forward(U)
        assert np.allclose(Y, dense_forward(op, U), rtol=1e-9, atol=1e-9)

    def test_dense_reference_agreement_linear(self):
        grid = TimeGrid(1.0, 5)
        op = BoundaryOperator(grid, d_v=3, n_layers=1,
                              activations=("linear",), kappa_hidden=4,
                              b_hidden=3, seed=4)
        rng = np.random.default_rng(6)
        U = rng.normal(size=6)
        Y, _ = op.forward(U)
        assert np.allclose(Y, dense_forward(op, U), rtol=1e-9, atol=1e-9)

    def test_batch_matches_single(self):
        op = BoundaryOperator(TimeGrid(1.0, 6), d_v=4, n_layers=2,
                              kappa_hidden=4, b_hidden=3, seed=7)
        rng = np.random.default_rng(8)
        UU = rng.normal(size=(3, 7))
        YY, _ = op.forward_batch(UU)
        for b in range(3):
            Yb, _ = op.forward(UU[b])
            assert np.allclose(YY[b], Yb, rtol=1e-12, atol=1e-13)


class TestDecomposition:
    def test_lambda_constant_without_kernel(self):
        """With the kernel tables zeroed, Lambda is the static chain product."""
        op = BoundaryOperator(TimeGrid(1.0, 8), d_v=4, n_layers=2,
                              activations=("linear", "linear"),
                              kappa_hidden=4, b_hidden=3, seed=9)
        for layer in op.layers:
            zero_all(layer.kappa.params())
        U = np.linspace(-1.0, 2.0, 9)
        _, cache = op.forward(U)
        lam, _ = op.decomposition(cache)
        p_vec = op.P.params()[0].ravel()
        q_vec = op.Q.params()[0].ravel()
        expected = q_vec @ op.layers[1].W @ op.layers[0].W @ p_vec
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
        _, cache = op.forward(U)
        lam, mu = op.decomposition(cache)
        assert np.array_equal(mu, np.zeros(7))
        assert not np.allclose(lam, 0.0)

    def test_rate_identity_piecewise_flat_tables(self):
        """Linear table networks make the output affine in the step time, so
        central differences of the forward pass recover Lambda*U_dot + mu to
        near machine precision at every interior step."""
        grid = TimeGrid(2.0, 20)
        op = BoundaryOperator(grid, d_v=4, n_layers=1,
                              activations=("linear",), kappa_hidden=4,
                              b_hidden=3, table_hidden="linear", seed=11)
        t = grid.times()
        U = 0.8 * np.sin(1.3 * t) + 0.3 * t
        Y, cache = op.forward(U)
        lam, mu = op.decomposition(cache)
        fd = (Y[2:] - Y[:-2]) / (2.0 * grid.dt)
        ud = (U[2:] - U[:-2]) / (2.0 * grid.dt)
        model = lam[1:-1] * ud + mu[1:-1]
        assert np.allclose(fd, model, rtol=1e-8, atol=1e-8)

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

    @pytest.mark.parametrize("seed", [0, 1])
    def test_dt_tables_match_central_differences(self, seed):
        """The kernel and bias time-derivative tables equal central
        differences of the kappa and b networks in the output time (the
        kernel's first slot), at entries whose ReLU pattern does not change
        across the difference."""
        grid = TimeGrid(2.0, 12)
        op = BoundaryOperator(grid, d_v=3, n_layers=2, kappa_hidden=8,
                              b_hidden=4, seed=seed)
        n, h = grid.M + 1, 1e-6
        pairs = op._pair_inputs()
        shift = np.zeros_like(pairs)
        shift[:, 0] = h
        t = grid.times()[:, None]

        def fd_and_smooth(net, x, dx):
            W0, b0 = net.params()[0], net.params()[1]
            signs = [(y @ W0.T + b0 > 0.0) for y in (x - dx, x, x + dx)]
            smooth = np.all((signs[0] == signs[1]) & (signs[1] == signs[2]),
                            axis=1)
            fd = (net.forward(x + dx) - net.forward(x - dx)) / (2.0 * h)
            return fd, smooth

        n_checked = 0
        for layer, (dK2, db_tab) in zip(op.layers, op._build_dt_tables()):
            do, di = layer.dim_out, layer.dim_in
            fd, smooth = fd_and_smooth(layer.kappa, pairs, shift)
            dK = dK2.reshape(n, do, n, di).transpose(0, 2, 1, 3)
            dK = dK.reshape(n * n, do * di)
            assert np.allclose(dK[smooth], fd[smooth], rtol=1e-6, atol=1e-8)
            fd, smooth = fd_and_smooth(layer.b, t, np.full_like(t, h))
            assert np.allclose(db_tab[smooth], fd[smooth], rtol=1e-6,
                               atol=1e-8)
            n_checked += int(smooth.sum())
        assert n_checked >= 0.9 * 2 * n

    def test_affine_in_udot(self):
        """The rate Lambda*U_dot + mu is affine in U_dot: (Lambda, mu) come
        from the cached pass alone, so a second decomposition (on cached dt
        tables) is bitwise the first, and a zero rate input recovers mu."""
        op = BoundaryOperator(TimeGrid(1.0, 6), d_v=4, n_layers=1,
                              kappa_hidden=4, b_hidden=3, seed=21)
        U = np.linspace(0.5, -1.5, 7)
        _, cache = op.forward(U)
        lam, mu = op.decomposition(cache)
        lam2, mu2 = op.decomposition(cache)
        assert np.array_equal(lam, lam2) and np.array_equal(mu, mu2)
        ud = np.full(7, 0.75)
        r1 = lam * ud + mu
        r2 = lam * (2.0 * ud) + mu
        r0 = lam * np.zeros(7) + mu
        assert np.array_equal(r0, mu)
        assert np.allclose(r2 - r1, lam * 0.75, rtol=1e-12)

    def test_time_derivative_entry(self):
        """One (Lambda, mu) entry per grid step, and batch_index picks one
        trajectory of a batched pass: it agrees with that trajectory's own
        pass."""
        op = BoundaryOperator(TimeGrid(1.0, 6), d_v=4, n_layers=1,
                              kappa_hidden=4, b_hidden=3, seed=12)
        UU = np.stack([np.linspace(1.0, -1.0, 7), np.linspace(-2.0, 0.5, 7)])
        _, batch_cache = op.forward_batch(UU)
        for b, U in enumerate(UU):
            lam, mu = op.decomposition(op.forward(U)[1])
            assert lam.shape == mu.shape == (7,)
            lam_b, mu_b = op.decomposition(batch_cache, batch_index=b)
            # BLAS may reorder the inner sums between the two batch shapes
            assert np.allclose(lam_b, lam, rtol=1e-12, atol=1e-13)
            assert np.allclose(mu_b, mu, rtol=1e-12, atol=1e-13)
            rate = lam * u_dot_forward(U, op.grid.dt) + mu
            assert np.all(np.isfinite(rate))

    def test_stale_cache_rejected(self):
        op = BoundaryOperator(TimeGrid(1.0, 5), d_v=3, n_layers=1,
                              kappa_hidden=4, b_hidden=3, seed=13)
        _, cache = op.forward(np.zeros(6))
        op.layers[0].W[0, 0] += 1.0
        with pytest.raises(CacheStaleError):
            op.decomposition(cache)


class TestLossAndGradients:
    def test_perfect_fit_leaves_penalty_only(self):
        grid = TimeGrid(1.0, 4)
        op = identity_operator(grid)
        UU = np.array([[1.0, 2.0, 3.0, 4.0, 5.0],
                       [0.0, -1.0, 1.0, -1.0, 0.0]])
        loss, _ = op.loss_and_grads(UU, UU, l2=0.0)
        assert loss == 0.0
        loss, _ = op.loss_and_grads(UU, UU, l2=0.01)
        # weights: one lift entry, the identity mixing, one readout entry
        assert np.allclose(loss, 0.01 * (1.0 + op.d_v + 1.0), rtol=1e-12)

    def test_zero_operator_unit_targets(self):
        op = BoundaryOperator(TimeGrid(1.0, 4), d_v=3, n_layers=1,
                              kappa_hidden=4, b_hidden=3, seed=14)
        zero_all(op.params())
        UU = np.ones((2, 5))
        loss, _ = op.loss_and_grads(UU, np.ones((2, 5)))
        assert loss == 1.0

    def test_gradients_match_finite_differences(self):
        grid = TimeGrid(1.0, 5)
        op = BoundaryOperator(grid, d_v=3, n_layers=1, kappa_hidden=4,
                              b_hidden=3, seed=16)
        rng = np.random.default_rng(17)
        UU = rng.normal(size=(2, 6))
        YY = rng.normal(size=(2, 6))
        _, grads = op.loss_and_grads(UU, YY, l2=1e-3)
        params = op.params()
        h = 1e-6
        checked = 0
        for pi in rng.permutation(len(params))[:5]:
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
        assert checked == 5


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        grid = TimeGrid(1.5, 6)
        op = BoundaryOperator(grid, d_v=4, n_layers=2, kappa_hidden=8,
                              b_hidden=4, seed=18)
        path = tmp_path / "op.ckpt"
        op.save(path)
        back = BoundaryOperator.load(path)
        assert back.grid.T == grid.T and back.grid.M == grid.M
        assert back.fingerprint() == op.fingerprint()
        U = np.linspace(-2.0, 2.0, 7)
        Ya, _ = op.forward(U)
        Yb, _ = back.forward(U)
        assert np.array_equal(Ya, Yb)

    def test_load_rejects_other_kinds(self, tmp_path):
        path = tmp_path / "other.ckpt"
        write_checkpoint(path, "mlp", {"W0": np.zeros((1, 1))})
        with pytest.raises(ConfigurationError):
            BoundaryOperator.load(path)

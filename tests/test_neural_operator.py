"""Oracle tests for the kernel-integral trajectory operator.

The forward map has enough structure to pin down exactly: configured as an
identity chain it must reproduce its input bitwise, a dense per-step
evaluation with explicit kernel matrices must agree with the batched table
path, and the (Lambda, mu) split that `predict` returns must satisfy the
rate identity dY/dt = Lambda * dU/dt + mu against finite differences of the
forward pass.
"""

import functools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safebc.checkpoint import read_checkpoint, write_checkpoint
from safebc.neural_operator import (BoundaryOperator, trapezoid_weights,
                                    u_dot_forward)
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
        """With the kernel tables zeroed, Lambda is the static chain product."""
        op = BoundaryOperator(TimeGrid(1.0, 8), d_v=4, n_layers=2,
                              activations=("linear", "linear"),
                              kappa_hidden=4, b_hidden=3, seed=9)
        for layer in op.layers:
            zero_all(layer.kappa.params())
        U = np.linspace(-1.0, 2.0, 9)
        _, lam, _ = op.predict(U)
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
        _, lam, mu = op.predict(U)
        assert np.array_equal(mu, np.zeros(7))
        assert not np.allclose(lam, 0.0)

    def test_rate_identity_piecewise_flat_tables(self):
        """Table networks whose hidden ReLUs are all active on the grid
        (W0 >= 0, b0 > 0, times >= 0) are affine there, which makes the
        output affine in the step time, so central differences of the
        forward pass recover Lambda*U_dot + mu to near machine precision at
        every interior step."""
        grid = TimeGrid(2.0, 20)
        op = BoundaryOperator(grid, d_v=4, n_layers=1,
                              activations=("linear",), kappa_hidden=4,
                              b_hidden=3, seed=11)
        for net in (op.layers[0].kappa, op.layers[0].b):
            W0, b0 = net.params()[:2]
            W0[...] = np.abs(W0)
            b0[...] = 0.1
        t = grid.times()
        U = 0.8 * np.sin(1.3 * t) + 0.3 * t
        Y, lam, mu = op.predict(U)
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
        """The kernel and bias time derivatives the rate split reads from
        the table traces, W1 (mask * W0[:, 0]), equal central differences of
        the kappa and b networks in the output time (the kernel's first
        slot), at entries whose ReLU pattern does not change across the
        difference."""
        grid = TimeGrid(2.0, 12)
        op = BoundaryOperator(grid, d_v=3, n_layers=2, kappa_hidden=8,
                              b_hidden=4, seed=seed)
        n, h = grid.M + 1, 1e-6
        t = grid.times()
        pairs = np.column_stack([np.repeat(t, n), np.tile(t, n)])
        shift = np.zeros_like(pairs)
        shift[:, 0] = h
        t = t[:, None]

        def fd_and_smooth(net, x, dx):
            W0, b0 = net.params()[0], net.params()[1]
            signs = [(y @ W0.T + b0 > 0.0) for y in (x - dx, x, x + dx)]
            smooth = np.all((signs[0] == signs[1]) & (signs[1] == signs[2]),
                            axis=1)
            fd = (net.forward(x + dx) - net.forward(x - dx)) / (2.0 * h)
            return fd, smooth

        def mask_tangent(net, trace):
            W0, _, W1, _ = net.params()
            return (trace.masks[0] * W0[:, 0]) @ W1.T

        n_checked = 0
        for layer, (_, kappa_trace, b_trace) in zip(
                op.layers, op._table_entry().layers):
            fd, smooth = fd_and_smooth(layer.kappa, pairs, shift)
            dK = mask_tangent(layer.kappa, kappa_trace)
            assert np.allclose(dK[smooth], fd[smooth], rtol=1e-6, atol=1e-8)
            fd, smooth = fd_and_smooth(layer.b, t, np.full_like(t, h))
            db = mask_tangent(layer.b, b_trace)
            assert np.allclose(db[smooth], fd[smooth], rtol=1e-6, atol=1e-8)
            n_checked += int(smooth.sum())
        assert n_checked >= 0.9 * 2 * n

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
                frozen_quadrature_eval(op, cache, lambda _: 0.7, t + s)
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
            rate = lam * u_dot_forward(U, op.grid.dt) + mu
            assert np.all(np.isfinite(rate))

    def test_predict_after_in_place_update_matches_a_fresh_operator(self):
        """An in-place parameter update (as Adam makes) invalidates the
        cached tables: predict then equals, bitwise, an operator built with
        the updated parameters from the start."""
        grid = TimeGrid(1.0, 5)
        op = BoundaryOperator(grid, d_v=3, n_layers=2, kappa_hidden=4,
                              b_hidden=3, seed=13)
        U = np.linspace(-1.0, 1.5, 6)
        op.predict(U)
        for p in op.params():
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


def test_the_table_entry_holds_one_dense_array_per_layer():
    """After predict at the benchmark's parabolic size (M=80, d_v=16), the
    kernel table K2 is the entry's one (n*d_v)^2 array per layer: the rate
    split reads the traces' masks and builds no derivative table."""
    op = BoundaryOperator(TimeGrid(1.0, 80), d_v=16, n_layers=2, seed=0)
    op.predict(np.linspace(0.0, 1.0, 81))
    arrays = []

    def walk(x):
        if isinstance(x, np.ndarray):
            arrays.append(x)
        elif isinstance(x, (list, tuple)):
            for y in x:
                walk(y)
        elif hasattr(x, "__dict__"):
            walk(list(vars(x).values()))

    walk(op._tables)
    dense = [a for a in arrays if a.size >= (81 * 16) ** 2]
    assert len(dense) == op.n_layers
    for a, (K2, _, _) in zip(dense, op._tables.layers):
        assert a is K2 and a.shape == (81 * 16, 81 * 16)


def test_a_rebuild_drops_the_stale_entry_before_it_builds(monkeypatch):
    """A new parameter state builds a new entry; the old one is released
    first, so the two are never held at once."""
    op = BoundaryOperator(TimeGrid(1.0, 5), d_v=3, n_layers=2,
                          kappa_hidden=4, b_hidden=3, seed=22)
    U = np.linspace(0.0, 1.0, 6)
    op.predict(U)
    stale = weakref.ref(op._tables)
    alive = []
    kappa = op.layers[0].kappa
    trace = kappa.trace

    def checked_trace(*args, **kwargs):
        alive.append(stale() is not None)
        return trace(*args, **kwargs)

    monkeypatch.setattr(kappa, "trace", checked_trace)
    op.layers[0].W[0, 0] += 0.1
    op.predict(U)
    assert alive == [False]
    assert op._tables is not None


class TestFingerprint:
    """The tables are keyed by one fingerprint of the parameters, taken once
    per forward pass; the rate split and the backward pass read the tables
    their pass carries and hash nothing."""

    @staticmethod
    def count_fingerprints(op, monkeypatch):
        calls = []
        fingerprint = op.fingerprint

        def counted():
            calls.append(1)
            return fingerprint()

        monkeypatch.setattr(op, "fingerprint", counted)
        return calls

    @pytest.mark.parametrize("call", ["predict", "forward", "loss_and_grads"])
    def test_one_fingerprint_per_call(self, call, monkeypatch):
        op = BoundaryOperator(TimeGrid(1.0, 5), d_v=3, n_layers=2,
                              kappa_hidden=4, b_hidden=3, seed=22)
        U = np.linspace(0.0, 1.0, 6)
        args = {"predict": (U,), "forward": (U,),
                "loss_and_grads": (U[None], U[None])}[call]
        calls = self.count_fingerprints(op, monkeypatch)
        for n in (1, 2):  # a cold call builds the tables, a warm one reuses
            getattr(op, call)(*args)
            assert len(calls) == n

    def test_the_rate_split_hashes_nothing(self, monkeypatch):
        op = BoundaryOperator(TimeGrid(1.0, 5), d_v=3, n_layers=2,
                              kappa_hidden=4, b_hidden=3, seed=22)
        _, cache = op.forward_batch(np.linspace(0.0, 1.0, 6)[None])
        calls = self.count_fingerprints(op, monkeypatch)
        op.decomposition(cache, 2, 3)
        op.decomposition(cache)
        assert calls == []


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
        Ya = op.forward(U)
        Yb = back.forward(U)
        assert np.array_equal(Ya, Yb)

    def test_load_rejects_other_kinds(self, tmp_path):
        path = tmp_path / "other.ckpt"
        write_checkpoint(path, "mlp", {"W0": np.zeros((1, 1))})
        with pytest.raises(ConfigurationError):
            BoundaryOperator.load(path)

    def test_table_hidden_meta_is_relu_or_an_error(self, tmp_path):
        """Checkpoints no longer name the table networks' hidden activation;
        older ones that name relu still load, and any other value is
        rejected rather than silently read as relu."""
        op = BoundaryOperator(TimeGrid(1.0, 4), d_v=3, n_layers=1,
                              kappa_hidden=4, b_hidden=3, seed=19)
        path = tmp_path / "op.ckpt"
        op.save(path)
        assert "table_hidden" not in path.read_text()
        kind, tensors, meta = read_checkpoint(path)
        write_checkpoint(path, kind, tensors, {**meta, "table_hidden": "relu"})
        assert BoundaryOperator.load(path).fingerprint() == op.fingerprint()
        write_checkpoint(path, kind, tensors,
                         {**meta, "table_hidden": "linear"})
        with pytest.raises(ConfigurationError, match="linear"):
            BoundaryOperator.load(path)

"""Oracle tests for the kernel-integral trajectory operator.

The forward map has enough structure to pin down exactly: configured as an
identity chain it must reproduce its input bitwise, a dense per-step
evaluation with explicit kernel matrices must agree with the batched table
path, and the (Lambda, mu) split that `predict` returns must satisfy the
rate identity dY/dt = Lambda * dU/dt + mu against finite differences of the
forward pass.
"""

import dataclasses
import functools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import dense_loss_and_grads
from safebc import neural_operator
from safebc.checkpoint import read_checkpoint, write_checkpoint
from safebc.nets import Trace
from safebc.neural_operator import (KERNEL_ROWS, BoundaryOperator,
                                    KernelLayer, trapezoid_weights)
from safebc.pde_sim import ConfigurationError, TimeGrid


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
    """Per-step reference with explicit kernel matrices, no table batching.

    The first layer reads the channels (U, 1), or with lift=(p_w, p_b) the
    lifted channels U p_w + p_b of the older layout, where layers[0] is a
    (d_v, d_v) layer. With split=True it returns (Y, Lambda, mu): each
    step's tangents along U_m (the local route) and along t_m (the table
    networks' time derivatives), carried through the layers."""
    grid = op.grid
    n = grid.M + 1
    t = grid.times()
    w = trapezoid_weights(grid)
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
        z, dz = np.empty((n, do)), np.empty((n, do))
        for m in range(n):
            acc, dacc = layer.W @ v[m], layer.W @ p[m]
            for j in range(n):
                pair = np.array([[t[m], t[j]]])
                K = layer.kappa.forward(pair)[0].reshape(do, di)
                dK = time_derivative(layer.kappa, pair)[0].reshape(do, di)
                acc = acc + w[j] * (K @ v[j])
                dacc = dacc + w[j] * (dK @ v[j])
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
    def test_trapezoid_weights_sum_to_horizon(self):
        grid = TimeGrid(2.0, 10)
        w = trapezoid_weights(grid)
        assert w.shape == (11,)
        assert w[0] == w[-1] == grid.dt / 2.0
        assert np.allclose(w.sum(), grid.T, rtol=1e-13)

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
        old.layers[0] = KernelLayer(d_v, d_v, 8, 4, activation, seed=31)
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
        """With the kernel tables zeroed, Lambda is the static chain product."""
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
        for layer, lt in zip(op.layers, op._table_entry().layers):
            fd, smooth = fd_and_smooth(layer.kappa, pairs, shift)
            dK = mask_tangent(layer.kappa, lt.kappa_trace)
            assert np.allclose(dK[smooth], fd[smooth], rtol=1e-6, atol=1e-8)
            fd, smooth = fd_and_smooth(layer.b, t, np.full_like(t, h))
            db = mask_tangent(layer.b, lt.b_trace)
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
            rate = lam[:-1] * (np.diff(U) / op.grid.dt) + mu[:-1]
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
            masks=[x if x is None else x[i:i + 1] for x in cache.masks])
        for start, stop in ((0, n), (0, 1), (1, 2), (5, 6), (6, n),
                            (n - 1, n)):
            for a, b in zip(op.decomposition(cache, start, stop,
                                             trajectory=i),
                            op.decomposition(view, start, stop)):
                assert np.array_equal(a, b)


def entry_arrays(entry):
    """Every numpy array a table entry holds."""
    arrays = []

    def walk(x):
        if isinstance(x, np.ndarray):
            arrays.append(x)
        elif isinstance(x, (list, tuple)):
            for y in x:
                walk(y)
        elif hasattr(x, "__dict__"):
            walk(list(vars(x).values()))

    walk(entry)
    return arrays


def test_no_table_entry_holds_a_kernel_table():
    """At the benchmark's parabolic size (M=80, d_v=16), no entry holds an
    array of n*n*d_out*d_in floats, a layer's whole kernel table: not the
    one predict builds, not after a training step reuses it, and not the
    one a training step builds. Inference contracts through the hidden
    features, and a training step builds kernel rows a block at a time and
    keeps none. kappa_hidden=24 keeps the hidden features' size apart from
    the first layer's table, n*n*2*16."""
    op = BoundaryOperator(TimeGrid(1.0, 80), d_v=16, n_layers=2,
                          kappa_hidden=24, seed=0)
    n = 81
    table_sizes = {n * n * layer.dim_out * layer.dim_in
                   for layer in op.layers}
    U = np.linspace(0.0, 1.0, n)

    def held_sizes():
        return {a.size for a in entry_arrays(op._tables)}

    op.predict(U)
    entry = op._tables
    assert not held_sizes() & table_sizes
    op.loss_and_grads(U[None], U[None])
    assert op._tables is entry
    assert not held_sizes() & table_sizes
    op.layers[1].W[0, 0] += 0.1
    op.loss_and_grads(U[None], U[None])
    assert op._tables is not entry
    assert not held_sizes() & table_sizes
    assert max(held_sizes()) < (n * 16) ** 2


def test_a_training_step_holds_less_than_one_kernel_table():
    """One training step at M=200, d_v=16, B=8 holds less at once, by
    tracemalloc's peak, than one later layer's whole kernel table,
    (n*d_v)^2 floats or 78.9 MiB; a step through the whole tables held
    about 290 MiB. The step holds the (n*n, h) hidden features of each
    layer and one block of kernel rows."""
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
    assert peak < (201 * 16) ** 2 * 8


def test_the_hidden_features_are_built_in_place():
    """Building the tables at M=200, d_v=16 peaks, by tracemalloc, less
    than half of one layer's hidden features H above what the entry holds
    after: H is the kernel network's pre-activation rectified in place, not
    a second (n*n, h) array beside it (a build holding both peaked 1.9 H
    above). At M=20 the features and ReLU patterns are bitwise those of the
    kernel network's own trace."""
    op = BoundaryOperator(TimeGrid(1.0, 200), d_v=16, n_layers=2, seed=0)
    tracemalloc.start()
    try:
        entry = op._table_entry()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held < 0.5 * entry.layers[0].kappa_trace.inputs[1].nbytes
    op = BoundaryOperator(TimeGrid(1.0, 20), d_v=16, n_layers=2, seed=3)
    for layer, lt in zip(op.layers, op._table_entry().layers):
        pairs = lt.kappa_trace.inputs[0]
        ref = layer.kappa.trace(pairs)
        assert np.array_equal(lt.kappa_trace.inputs[1], ref.inputs[1])
        assert np.array_equal(lt.kappa_trace.masks[0], ref.masks[0])


def test_a_rebuild_drops_the_stale_entry_before_it_builds(monkeypatch):
    """A new parameter state builds a new entry; the old one is released
    first, so the two are never held at once. The first trace the build
    makes is the first layer's kernel hidden layer."""
    op = BoundaryOperator(TimeGrid(1.0, 5), d_v=3, n_layers=2,
                          kappa_hidden=4, b_hidden=3, seed=22)
    U = np.linspace(0.0, 1.0, 6)
    op.predict(U)
    stale = weakref.ref(op._tables)
    alive = []

    def checked_trace(*args):
        alive.append(stale() is not None)
        return Trace(*args)

    monkeypatch.setattr(neural_operator, "Trace", checked_trace)
    op.layers[0].W[0, 0] += 0.1
    op.predict(U)
    assert alive == [False] * op.n_layers
    assert op._tables is not None


class TestPartialForward:
    """forward_batch(UU, start) runs the last layer and Q from row start
    on; `complete` fills the rows before it from the cached input of the
    last layer."""

    GRID = TimeGrid(1.0, 20)
    N = 21
    STARTS = (1, N // 2, N - 1)

    def case(self, n_layers, activation, batch=1):
        op = BoundaryOperator(self.GRID, d_v=4, n_layers=n_layers,
                              activations=(activation,) * n_layers,
                              seed=7 + n_layers)
        UU = np.random.default_rng(n_layers).normal(
            size=(batch, self.N)).cumsum(axis=1)
        return op, UU

    @staticmethod
    def poison_last_hidden(op, rows, fill="nan"):
        """Overwrite the hidden features H(t_m, t_j) of the cached entry's
        last kernel network at the given output rows m with NaN, or with
        +inf and -inf at alternate t_j: a sum over j that reads those
        makes inf - inf, an invalid operation even where its result is
        then thrown away."""
        n = op.grid.M + 1
        H = op._table_entry().layers[-1].kappa_trace.inputs[1]
        H = H.reshape(n, n, -1)  # a view: the entry's own H
        H[rows] = np.nan
        if fill == "inf":
            H[rows, 0::2] = np.inf
            H[rows, 1::2] = -np.inf

    @pytest.mark.parametrize("activation", ["relu", "linear"])
    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("start", STARTS)
    def test_rows_from_start_are_the_whole_pass(self, start, n_layers,
                                                activation):
        op, UU = self.case(n_layers, activation)
        full, _ = op.forward_batch(UU)
        part, cache = op.forward_batch(UU, start)
        assert cache.start == start
        assert np.array_equal(part[:, start:], full[:, start:])
        assert np.isnan(part[:, :start]).all()

    @pytest.mark.parametrize("fill", ["nan", "inf"])
    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("start", STARTS)
    def test_the_pass_reads_no_kernel_row_before_start(self, start,
                                                       n_layers, fill):
        op, UU = self.case(n_layers, "relu")
        full, _ = op.forward_batch(UU)
        self.poison_last_hidden(op, slice(None, start), fill)
        with np.errstate(invalid="raise"):
            part, _ = op.forward_batch(UU, start)
        assert np.array_equal(part[:, start:], full[:, start:])

    @pytest.mark.parametrize("activation", ["relu", "linear"])
    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("start", STARTS)
    def test_complete_is_the_whole_pass_before_start(self, start, n_layers,
                                                     activation):
        op, UU = self.case(n_layers, activation)
        full, _ = op.forward_batch(UU)
        _, cache = op.forward_batch(UU, start)
        # the completion reads only the hidden features of rows before start
        self.poison_last_hidden(op, slice(start, None), "inf")
        with np.errstate(invalid="raise"):
            assert np.array_equal(op.complete(cache, [0]), full[:, :start])

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("start", STARTS)
    def test_complete_on_chosen_trajectories_of_a_batch(self, start,
                                                        n_layers):
        # a multi-row product need not round like a one-row one
        op, UU = self.case(n_layers, "relu", batch=3)
        full, _ = op.forward_batch(UU)
        _, cache = op.forward_batch(UU, start)
        rows = op.complete(cache, [2, 0])
        assert rows.shape == (2, start)
        expected = full[[2, 0], :start]
        assert np.max(np.abs(rows - expected)) <= \
            1e-12 * np.max(np.abs(expected))
        # the cache is left as the pass wrote it
        assert np.isnan(cache.vs[-1][:, :start]).all()

    @pytest.mark.parametrize("activation", ["relu", "linear"])
    @pytest.mark.parametrize("start", STARTS)
    def test_the_split_of_a_partial_pass_from_start_on(self, start,
                                                       activation):
        op, UU = self.case(2, activation)
        _, full = op.forward_batch(UU)
        _, part = op.forward_batch(UU, start)
        for stop in (start + 1, self.N):
            for a, b in zip(op.decomposition(part, start, stop),
                            op.decomposition(full, start, stop)):
                assert np.array_equal(a, b)
        with pytest.raises(ValueError, match="from row %d" % start):
            op.decomposition(part, start - 1, start)
        with pytest.raises(ValueError):
            op.decomposition(part)

    def test_a_partial_pass_has_no_backward(self):
        op, UU = self.case(2, "relu")
        _, cache = op.forward_batch(UU, 3)
        with pytest.raises(ValueError, match="from row 3"):
            op._backward(cache, np.ones_like(UU))

    def test_a_non_finite_completed_row_raises(self):
        op, UU = self.case(2, "relu")
        _, cache = op.forward_batch(UU, 5)
        self.poison_last_hidden(op, slice(0, 1))
        with pytest.raises(FloatingPointError):
            op.complete(cache, [0])


class TestInferenceContraction:
    """Inference contracts each integral through the kernel networks'
    hidden features and then their output layer; a training step through
    rows of the kernel table, KERNEL_ROWS output rows at a time. The two
    orders agree to round-off, and no inference pass builds a kernel
    row."""

    GRID = TimeGrid(1.0, 20)
    N = 21

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("activation", ["relu", "linear"])
    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("start", [0, N // 2, N - 1])
    def test_the_inference_contraction_is_the_dense_one(
            self, start, n_layers, activation, batch):
        op = BoundaryOperator(self.GRID, d_v=4, n_layers=n_layers,
                              activations=(activation,) * n_layers,
                              seed=30 + n_layers)
        UU = np.random.default_rng(batch).normal(
            size=(batch, self.N)).cumsum(axis=1)
        dense, _ = op._forward(UU, blocked=True)
        part, cache = op.forward_batch(UU, start)
        rows = np.concatenate(
            [op.complete(cache, range(batch)), part[:, start:]], axis=1)
        assert np.max(np.abs(rows - dense)) <= \
            1e-12 * np.max(np.abs(dense))

    def test_a_training_step_builds_kernel_rows_in_blocks(self, monkeypatch):
        """The forward builds every block of each layer once; the backward
        builds each later layer's blocks again, to carry the input gradient
        through them, and none of the first layer's. No block's values are
        kept, so a step on the same parameters builds them all again, and
        no inference pass builds one."""
        op = BoundaryOperator(self.GRID, d_v=4, n_layers=2, seed=33)
        n = self.N
        UU = np.random.default_rng(0).normal(size=(3, n)).cumsum(axis=1)
        built, kernel_rows = [], op._kernel_rows

        def logged(li, tables, lo, hi):
            K = kernel_rows(li, tables, lo, hi)
            built.append((li, lo, hi, K.shape))
            return K

        monkeypatch.setattr(op, "_kernel_rows", logged)
        op.loss_and_grads(UU, UU)
        blocks = [(0, 8), (8, 16), (16, 21)]
        assert KERNEL_ROWS == 8
        step = [(li, lo, hi, ((hi - lo) * 4, n * di))
                for li, di in ((0, 2), (1, 4), (1, 4)) for lo, hi in blocks]
        assert built == step
        op.loss_and_grads(UU, UU)
        assert built == step + step
        built.clear()
        op.layers[1].W[0, 0] += 0.1
        _, cache = op.forward_batch(UU, 5)
        op.complete(cache, [0, 2])
        op.predict(UU[0])
        assert built == []


def test_training_steps_reuse_the_block_arrays_bit_for_bit():
    """Two steps of one operator, at batches of 3 and then 2 trajectories,
    are the same steps on fresh operators bit for bit; the second reuses
    the two block arrays the first made, and no result aliases them."""
    grid = TimeGrid(1.0, 20)

    def fresh():
        return BoundaryOperator(grid, d_v=4, n_layers=2, seed=34)

    rng = np.random.default_rng(1)
    batches = [(rng.normal(size=(B, 21)).cumsum(axis=1),
                rng.normal(size=(B, 21))) for B in (3, 2)]
    op = fresh()
    steps, buffers = [], None
    for UU, YY in batches:
        steps.append(op.loss_and_grads(UU, YY, l2=1e-3))
        if buffers is None:
            buffers = dict(op._blocks._buffers)
    assert sorted(buffers) == ["pair-major", "row-major"]
    assert all(op._blocks._buffers[k] is buffers[k] for k in buffers)
    for (loss, grads), (UU, YY) in zip(steps, batches):
        ref_loss, ref_grads = fresh().loss_and_grads(UU, YY, l2=1e-3)
        assert loss == ref_loss
        for g, h in zip(grads, ref_grads, strict=True):
            assert g.tobytes() == h.tobytes()
            assert not any(np.shares_memory(g, b) for b in buffers.values())
    # inference makes no block arrays
    inferred = fresh()
    inferred.forward_batch(batches[0][0], 5)
    inferred.predict(batches[0][0][0])
    assert inferred._blocks is None


class TestBlockedTrainingStep:
    """A training step through blocks of kernel rows is the step through
    each layer's whole kernel table (`oracles.dense_loss_and_grads`) to
    round-off, on grids with fewer rows than a block (M=5), a whole number
    of blocks (M=15), a partial last block (M=20) and many blocks (M=80)."""

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("activation", ["relu", "linear"])
    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("M", [5, 15, 20, 80])
    def test_the_blocked_step_is_the_whole_table_step(
            self, M, n_layers, activation, batch):
        op = BoundaryOperator(TimeGrid(1.0, M), d_v=4, n_layers=n_layers,
                              activations=(activation,) * n_layers,
                              kappa_hidden=8, b_hidden=4, seed=40 + n_layers)
        rng = np.random.default_rng(M + batch)
        # nonzero biases, so the masks vary over the pairs
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

    def test_gradients_match_finite_differences(self):
        """One entry of every parameter array, both layers included. The
        zero-initialized hidden biases put every table network's hidden unit
        at its kink at t = 0, so every parameter is moved off its start."""
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
        assert back.fingerprint() == op.fingerprint()
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
        op.layers[0] = KernelLayer(3, 3, 4, 3, "relu", seed=20)
        path = tmp_path / "op.ckpt"
        op.save(path)
        kind, tensors, meta = read_checkpoint(path)
        tensors.update({"P.W0": np.ones((3, 1)), "P.b0": np.zeros(3)})
        write_checkpoint(path, kind, tensors, meta)
        with pytest.raises(ConfigurationError,
                           match="does not name: P.W0, P.b0$"):
            BoundaryOperator.load(path)

"""Tests for the MLP substrate: the forward trace with its tangent, the
reverse sweep, Adam."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safebc.checkpoint import (CheckpointError, read_checkpoint,
                               write_checkpoint)
from safebc.nets import Adam, Mlp, subseed


def zeroed(mlp):
    for W, b in zip(mlp.weights, mlp.biases):
        W[...] = 0.0
        b[...] = 0.0
    return mlp


class TestForward:
    def test_zero_net_outputs_zero(self):
        mlp = zeroed(Mlp([3, 8, 2], seed=0))
        assert np.array_equal(mlp.forward([1.0, -2.0, 3.0]), [0.0, 0.0])

    def test_single_linear_layer(self):
        mlp = Mlp([1, 1], activations=("linear",), seed=0)
        mlp.weights[0][...] = [[2.0]]
        mlp.biases[0][...] = [3.0]
        assert mlp.forward([1.0]) == pytest.approx([5.0], abs=0.0)

    def test_matches_hand_rolled_matrix_trace(self):
        mlp = Mlp([2, 5, 4, 1], seed=42)
        x = np.array([0.3, -1.2])
        a = x
        for W, b, act in zip(mlp.weights, mlp.biases, mlp.activations):
            a = W @ a + b
            if act == "relu":
                a = np.maximum(a, 0.0)
        assert np.allclose(mlp.forward(x), a, rtol=0, atol=1e-14)

    def test_batch_and_single_agree(self):
        mlp = Mlp([3, 6, 2], seed=1)
        xs = np.random.default_rng(0).normal(size=(7, 3))
        batch = mlp.forward(xs)
        rows = np.stack([mlp.forward(x) for x in xs])
        # BLAS may reorder the inner sums between the two shapes, so allow
        # a few ulps rather than demanding bitwise equality.
        assert np.allclose(batch, rows, rtol=1e-14, atol=1e-15)

    def test_dimension_mismatch_raises(self):
        mlp = Mlp([3, 2], seed=0)
        with pytest.raises(ValueError):
            mlp.forward([1.0, 2.0])

    def test_final_layer_must_be_linear(self):
        with pytest.raises(ValueError):
            Mlp([2, 4, 1], activations=("relu", "relu"))

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=25, deadline=None)
    def test_relu_net_without_biases_is_positively_homogeneous(self, alpha):
        # Scaling the input by alpha > 0 never flips a ReLU unit when the
        # biases are zero, so the output scales by exactly alpha.
        mlp = Mlp([2, 8, 8, 1], seed=3)
        for b in mlp.biases:
            b[...] = 0.0
        x = np.array([0.7, -0.4])
        assert mlp.forward(alpha * x) == pytest.approx(
            alpha * mlp.forward(x), rel=1e-12)


def jacobian(mlp, x):
    """Input Jacobian at each row of x, (B, d_out, d_in), built one output
    row at a time from the reverse sweep's dx with a one-hot upstream."""
    x = np.atleast_2d(x)
    tr = mlp.trace(x)
    rows = []
    for k in range(mlp.out_dim):
        upstream = np.zeros((x.shape[0], mlp.out_dim))
        upstream[:, k] = 1.0
        rows.append(mlp.reverse(tr, upstream)[1])
    return np.stack(rows, axis=1)


def sweep(mlp, x, upstream):
    """(grads, dx) of upstream . f(x) from one trace and one reverse."""
    return mlp.reverse(mlp.trace(x), upstream)


class TestInputJacobian:
    def test_linear_net_jacobian_is_the_weight_row(self):
        # f(t, Y) = 3t + 2Y built by hand.
        mlp = Mlp([2, 1], activations=("linear",), seed=0)
        mlp.weights[0][...] = [[3.0, 2.0]]
        mlp.biases[0][...] = [0.0]
        _, dx = sweep(mlp, [0.5, 0.5], [1.0])
        assert np.array_equal(dx, [3.0, 2.0])

    def test_zero_weights_give_zero_jacobian(self):
        mlp = zeroed(Mlp([4, 6, 3], seed=0))
        assert np.array_equal(jacobian(mlp, [1.0, 2.0, 3.0, 4.0]),
                              np.zeros((1, 3, 4)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_jacobian_matches_central_differences(self, seed):
        mlp = Mlp([3, 16, 8, 2], seed=seed)
        rng = np.random.default_rng(seed + 100)
        h = 1e-5
        for _ in range(5):
            x = rng.normal(size=3)
            J = jacobian(mlp, x)[0]
            fd = np.empty_like(J)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd[:, j] = (mlp.forward(x + e) - mlp.forward(x - e)) / (2 * h)
            assert np.max(np.abs(J - fd)) <= 1e-6

    def test_batched_jacobian_matches_per_sample(self):
        mlp = Mlp([2, 8, 1], seed=9)
        xs = np.random.default_rng(5).normal(size=(6, 2))
        _, dx = sweep(mlp, xs, np.ones((6, 1)))
        assert dx.shape == (6, 2)
        for k, x in enumerate(xs):
            _, row = sweep(mlp, x, [1.0])
            # BLAS may reorder the inner sums between the two shapes
            assert np.allclose(dx[k], row, rtol=1e-14, atol=1e-15)


class TestParamGradients:
    def test_zero_upstream_gives_zero_gradients(self):
        mlp = Mlp([2, 4, 1], seed=0)
        grads, dx = sweep(mlp, [0.3, 0.4], [0.0])
        assert all(np.all(g == 0.0) for g in grads)
        assert np.array_equal(dx, [0.0, 0.0])

    def test_single_linear_layer_gradients(self):
        mlp = Mlp([1, 1], activations=("linear",), seed=0)
        mlp.weights[0][...] = [[2.0]]
        mlp.biases[0][...] = [0.5]
        grads, dx = sweep(mlp, [1.0], [1.0])
        assert np.array_equal(grads[0], [[1.0]])
        assert np.array_equal(grads[1], [1.0])
        assert np.array_equal(dx, [2.0])

    @pytest.mark.parametrize("seed", [0, 7])
    def test_gradients_match_finite_differences(self, seed):
        mlp = Mlp([2, 8, 4, 1], seed=seed)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 2))
        up = rng.normal(size=(3, 1))

        def loss():
            return float(np.sum(up * mlp.forward(x)))

        grads, _ = sweep(mlp, x, up)
        h = 1e-6
        params = mlp.params()
        for _ in range(5):
            pi = rng.integers(len(params))
            flat = params[pi].reshape(-1)
            ci = rng.integers(flat.size)
            keep = flat[ci]
            flat[ci] = keep + h
            up_val = loss()
            flat[ci] = keep - h
            down_val = loss()
            flat[ci] = keep
            fd = (up_val - down_val) / (2 * h)
            an = grads[pi].reshape(-1)[ci]
            assert an == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_directional_derivative_equals_jacobian_product(self):
        mlp = Mlp([3, 8, 2], seed=4)
        rng = np.random.default_rng(11)
        x = rng.normal(size=3)
        d = rng.normal(size=3)
        expect = jacobian(mlp, x)[0] @ d
        tr = mlp.trace(x, d)
        assert np.allclose(tr.tangents[-1][0], expect, rtol=1e-13, atol=0)
        assert np.array_equal(tr.output, mlp.forward(x))

    def test_directional_param_backprop_matches_finite_differences(self):
        # d/dtheta of upstream . (J(x) d), the reverse sweep's tangent term,
        # where the activation pattern is frozen, checked against
        # differencing the tangent of the trace.
        mlp = Mlp([2, 6, 1], seed=2)
        rng = np.random.default_rng(8)
        x = rng.normal(size=2)
        d = rng.normal(size=2)
        up = np.array([1.0])
        grads, dx = mlp.reverse(mlp.trace(x, d), tangent_upstream=up)
        assert np.array_equal(dx, np.zeros(2))
        h = 1e-6
        params = mlp.params()
        is_weight = mlp.param_is_weight()
        for pi in range(len(params)):
            if not is_weight[pi]:
                assert np.all(grads[pi] == 0.0)
                continue
            flat = params[pi].reshape(-1)
            ci = rng.integers(flat.size)
            keep = flat[ci]
            flat[ci] = keep + h
            up_val = float(up @ mlp.trace(x, d).tangents[-1][0])
            flat[ci] = keep - h
            down_val = float(up @ mlp.trace(x, d).tangents[-1][0])
            flat[ci] = keep
            fd = (up_val - down_val) / (2 * h)
            assert grads[pi].reshape(-1)[ci] == pytest.approx(
                fd, rel=1e-4, abs=1e-8)


    @pytest.mark.parametrize("bad", ["d", "upstream"])
    def test_directional_param_backprop_checks_batch_sizes(self, bad):
        # a 1-row d or upstream would otherwise broadcast against 4 rows of x
        mlp = Mlp([2, 6, 1], seed=2)
        x = np.random.default_rng(1).normal(size=(4, 2))
        d, up = np.ones((4, 2)), np.ones((4, 1))
        if bad == "d":
            d = d[:1]
        else:
            up = up[:1]
        with pytest.raises(ValueError, match="batch size"):
            mlp.reverse(mlp.trace(x, d), tangent_upstream=up)
        with pytest.raises(ValueError, match="batch size"):
            mlp.reverse(mlp.trace(x, d), up)

    def test_directional_derivative_checks_batch_size(self):
        mlp = Mlp([2, 6, 1], seed=2)
        with pytest.raises(ValueError, match="batch size"):
            mlp.trace(np.ones((4, 2)), np.ones((1, 2)))

    def test_fused_sweep_is_the_sum_of_the_two_terms(self):
        # one reverse with both upstreams equals the tangent term plus the
        # value term, in that order, bitwise; dx comes from the value term
        mlp = Mlp([2, 8, 4, 1], seed=6)
        rng = np.random.default_rng(6)
        x, d = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        up, tup = rng.normal(size=(5, 1)), rng.normal(size=(5, 1))
        tr = mlp.trace(x, d)
        fused, dx = mlp.reverse(tr, up, tup)
        tangent_part, _ = mlp.reverse(tr, tangent_upstream=tup)
        value_part, value_dx = mlp.reverse(tr, up)
        for g, t_, v in zip(fused, tangent_part, value_part):
            assert np.array_equal(g, t_ + v)
        assert np.array_equal(dx, value_dx)

    def test_tangent_upstream_needs_a_direction(self):
        mlp = Mlp([2, 6, 1], seed=2)
        with pytest.raises(ValueError, match="direction"):
            mlp.reverse(mlp.trace(np.ones((4, 2))),
                        tangent_upstream=np.ones((4, 1)))


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = [np.array([1.0, -2.0])]
        adam = Adam(p, lr=0.01)
        adam.step(p, [np.zeros(2)])
        assert np.array_equal(p[0], [1.0, -2.0])

    def test_first_step_moves_by_learning_rate(self):
        # Bias-corrected first step: delta = -lr * g / (|g| + eps_term).
        p = [np.array([0.0])]
        adam = Adam(p, lr=0.01)
        adam.step(p, [np.array([0.5])])
        assert p[0][0] == pytest.approx(-0.01, rel=1e-6)

    def test_decay_schedule_after_epoch_boundaries(self):
        adam = Adam([np.zeros(1)], lr=0.01, decay_factor=0.2, decay_every=4)
        for epoch in range(9):
            adam.start_epoch(epoch)
        # decays at epochs 4 and 8: 0.01 * 0.2 * 0.2
        assert adam.lr == pytest.approx(0.01 * 0.04, rel=1e-12)

    def test_decay_applies_once_at_epoch_four(self):
        adam = Adam([np.zeros(1)], lr=0.01, decay_factor=0.2, decay_every=4)
        for epoch in range(5):
            adam.start_epoch(epoch)
        assert adam.lr == pytest.approx(0.002, rel=1e-12)

    def test_nonfinite_gradient_rejected(self):
        p = [np.array([1.0])]
        adam = Adam(p, lr=0.1)
        with pytest.raises(ValueError):
            adam.step(p, [np.array([np.nan])])
        assert np.array_equal(p[0], [1.0])

    def test_decay_settings_must_come_together(self):
        with pytest.raises(ValueError):
            Adam([np.zeros(1)], lr=0.1, decay_factor=0.5)


class TestCheckpointFormat:
    def test_header_and_roundtrip_value_exact(self, tmp_path):
        path = tmp_path / "net.ckpt"
        rng = np.random.default_rng(0)
        tensors = {"W0": rng.normal(size=(3, 2)), "b0": rng.normal(size=3)}
        write_checkpoint(path, "mlp", tensors, meta={"dims": "2,3"})
        first = path.read_text().splitlines()[0]
        assert first == "CKPT v1 kind=mlp"
        kind, back, meta = read_checkpoint(path)
        assert kind == "mlp" and meta["dims"] == "2,3"
        assert np.array_equal(back["W0"], tensors["W0"])
        assert np.array_equal(back["b0"], np.atleast_2d(tensors["b0"]))

    def test_seventeen_digit_decimal_survives_tricky_floats(self, tmp_path):
        path = tmp_path / "vals.ckpt"
        vals = np.array([np.pi, 1.0 / 3.0, 1e-300, -1e300, 0.1])
        write_checkpoint(path, "mlp", {"v": vals})
        _, back, _ = read_checkpoint(path)
        assert np.array_equal(back["v"][0], vals)

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            write_checkpoint(tmp_path / "x.ckpt", "widget", {})

    def test_truncated_tensor_detected(self, tmp_path):
        path = tmp_path / "trunc.ckpt"
        path.write_text("CKPT v1 kind=mlp\nW0 2 2\n1 2\n")
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_mlp_tensors_roundtrip_through_file(self, tmp_path):
        mlp = Mlp([2, 4, 1], seed=5)
        path = tmp_path / "mlp.ckpt"
        write_checkpoint(path, "mlp", mlp.tensors())
        clone = Mlp([2, 4, 1], seed=99)
        _, tensors, _ = read_checkpoint(path)
        clone.set_tensors(tensors)
        x = np.array([0.2, -0.9])
        assert np.array_equal(clone.forward(x), mlp.forward(x))


class TestSeeding:
    def test_subseed_distinguishes_children(self):
        a = Mlp([2, 4, 1], seed=subseed(0, 1))
        b = Mlp([2, 4, 1], seed=subseed(0, 2))
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_same_seed_same_init(self):
        a = Mlp([2, 4, 1], seed=subseed(3, 1))
        b = Mlp([2, 4, 1], seed=subseed(3, 1))
        assert all(np.array_equal(x, y) for x, y in zip(a.params(), b.params()))

    def test_subseed_flattens_tuples(self):
        assert subseed((1, 2), 3) == (1, 2, 3)
        assert subseed(1, 2) == (1, 2)

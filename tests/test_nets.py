"""Tests for the MLP substrate: the forward trace with its tangent, the
reverse sweep, Adam. Every network takes (..., d) batches; an (R, 1, d)
stack runs each row as its own one-row product."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safebc.checkpoint import (CheckpointError, ConfigurationError,
                               load_tensors, read_checkpoint,
                               write_checkpoint)
from safebc.nets import Adam, Mlp, WorkStore, subseed


def zeroed(mlp):
    for W, b in zip(mlp.weights, mlp.biases):
        W[...] = 0.0
        b[...] = 0.0
    return mlp


class TestForward:
    def test_zero_net_outputs_zero(self):
        mlp = zeroed(Mlp([3, 8, 2], seed=0))
        assert np.array_equal(mlp.forward([[1.0, -2.0, 3.0]]), [[0.0, 0.0]])

    def test_single_linear_layer(self):
        mlp = Mlp([1, 1], seed=0)
        mlp.weights[0][...] = [[2.0]]
        mlp.biases[0][...] = [3.0]
        assert np.array_equal(mlp.forward([[1.0]]), [[5.0]])

    def test_matches_hand_rolled_matrix_trace(self):
        # ReLU on every layer but the last, which is linear
        mlp = Mlp([2, 5, 4, 1], seed=42)
        x = np.array([0.3, -1.2])
        a = x
        for k, (W, b) in enumerate(zip(mlp.weights, mlp.biases)):
            a = W @ a + b
            if k < len(mlp.weights) - 1:
                a = np.maximum(a, 0.0)
        assert np.allclose(mlp.forward(x[None])[0], a, rtol=0, atol=1e-14)

    def test_batch_and_single_agree(self):
        mlp = Mlp([3, 6, 2], seed=1)
        xs = np.random.default_rng(0).normal(size=(7, 3))
        batch = mlp.forward(xs)
        rows = np.concatenate([mlp.forward(x[None]) for x in xs])
        # BLAS may reorder the inner sums between the two shapes, so allow
        # a few ulps rather than demanding bitwise equality.
        assert np.allclose(batch, rows, rtol=1e-14, atol=1e-15)

    def test_dimension_mismatch_raises(self):
        mlp = Mlp([3, 2], seed=0)
        with pytest.raises(ValueError, match="batch"):
            mlp.forward([[1.0, 2.0]])

    @pytest.mark.parametrize("shape", [(3,), ()])
    def test_only_a_batch_is_an_input(self, shape):
        mlp = Mlp([3, 2], seed=0)
        with pytest.raises(ValueError, match="batch"):
            mlp.forward(np.ones(shape))
        with pytest.raises(ValueError, match="batch"):
            mlp.trace(np.ones((1, 3)), np.ones(shape))
        tr = mlp.trace(np.ones((1, 3)))
        with pytest.raises(ValueError, match="batch"):
            mlp.reverse(tr, np.ones(shape[:-1] + (2,)))

    def test_a_direction_or_upstream_needs_the_inputs_batch_shape(self):
        # a (1, 1, 3) stack is an input, but not a direction or upstream
        # for a (1, 3) batch, nor a (1, 3) one for the stack
        mlp = Mlp([3, 2], seed=0)
        assert mlp.forward(np.ones((1, 1, 3))).shape == (1, 1, 2)
        for x, other in (((1, 3), (1, 1)), ((1, 1, 3), (1,))):
            with pytest.raises(ValueError, match="batch"):
                mlp.trace(np.ones(x), np.ones(other + (3,)))
            with pytest.raises(ValueError, match="batch"):
                mlp.reverse(mlp.trace(np.ones(x)), np.ones(other + (2,)))

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=25, deadline=None)
    def test_relu_net_without_biases_is_positively_homogeneous(self, alpha):
        # Scaling the input by alpha > 0 never flips a ReLU unit when the
        # biases are zero, so the output scales by exactly alpha.
        mlp = Mlp([2, 8, 8, 1], seed=3)
        for b in mlp.biases:
            b[...] = 0.0
        x = np.array([[0.7, -0.4]])
        assert mlp.forward(alpha * x)[0] == pytest.approx(
            alpha * mlp.forward(x)[0], rel=1e-12)


def jacobian(mlp, x):
    """Input Jacobian at each row of a (B, d_in) batch x, (B, d_out, d_in),
    built one output row at a time from the reverse sweep's dx with a
    one-hot upstream."""
    x = np.asarray(x, dtype=float)
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
        mlp = Mlp([2, 1], seed=0)
        mlp.weights[0][...] = [[3.0, 2.0]]
        mlp.biases[0][...] = [0.0]
        _, dx = sweep(mlp, [[0.5, 0.5]], [[1.0]])
        assert np.array_equal(dx, [[3.0, 2.0]])

    def test_zero_weights_give_zero_jacobian(self):
        mlp = zeroed(Mlp([4, 6, 3], seed=0))
        assert np.array_equal(jacobian(mlp, [[1.0, 2.0, 3.0, 4.0]]),
                              np.zeros((1, 3, 4)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_jacobian_matches_central_differences(self, seed):
        mlp = Mlp([3, 16, 8, 2], seed=seed)
        rng = np.random.default_rng(seed + 100)
        h = 1e-5
        for _ in range(5):
            x = rng.normal(size=(1, 3))
            J = jacobian(mlp, x)[0]
            fd = np.empty_like(J)
            for j in range(3):
                e = np.zeros((1, 3))
                e[0, j] = h
                fd[:, j] = (mlp.forward(x + e) - mlp.forward(x - e))[0] \
                    / (2 * h)
            assert np.max(np.abs(J - fd)) <= 1e-6

    def test_batched_jacobian_matches_per_sample(self):
        mlp = Mlp([2, 8, 1], seed=9)
        xs = np.random.default_rng(5).normal(size=(6, 2))
        _, dx = sweep(mlp, xs, np.ones((6, 1)))
        assert dx.shape == (6, 2)
        for k, x in enumerate(xs):
            _, row = sweep(mlp, x[None], [[1.0]])
            # BLAS may reorder the inner sums between the two shapes
            assert np.allclose(dx[k], row[0], rtol=1e-14, atol=1e-15)


class TestParamGradients:
    def test_zero_upstream_gives_zero_gradients(self):
        mlp = Mlp([2, 4, 1], seed=0)
        grads, dx = sweep(mlp, [[0.3, 0.4]], [[0.0]])
        assert all(np.all(g == 0.0) for g in grads)
        assert np.array_equal(dx, [[0.0, 0.0]])

    def test_single_linear_layer_gradients(self):
        mlp = Mlp([1, 1], seed=0)
        mlp.weights[0][...] = [[2.0]]
        mlp.biases[0][...] = [0.5]
        grads, dx = sweep(mlp, [[1.0]], [[1.0]])
        assert np.array_equal(grads[0], [[1.0]])
        assert np.array_equal(grads[1], [1.0])
        assert np.array_equal(dx, [[2.0]])

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
        x = rng.normal(size=(1, 3))
        d = rng.normal(size=(1, 3))
        expect = jacobian(mlp, x)[0] @ d[0]
        tr = mlp.trace(x, d)
        assert np.allclose(tr.tangents[-1][0], expect, rtol=1e-13, atol=0)
        assert np.array_equal(tr.output, mlp.forward(x))

    def test_directional_param_backprop_matches_finite_differences(self):
        # d/dtheta of upstream . (J(x) d), the reverse sweep's tangent term,
        # where the activation pattern is frozen, checked against
        # differencing the tangent of the trace.
        mlp = Mlp([2, 6, 1], seed=2)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 2))
        d = rng.normal(size=(1, 2))
        up = np.array([1.0])
        grads, dx = mlp.reverse(mlp.trace(x, d), tangent_upstream=up[None])
        assert np.array_equal(dx, np.zeros((1, 2)))
        h = 1e-6
        params = mlp.params()
        for pi in range(len(params)):
            if params[pi].ndim == 1:  # a bias
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

    @pytest.mark.parametrize("batch", [1, 5])
    def test_input_gradient_only_sweep_gives_the_same_dx(self, batch):
        mlp = Mlp([2, 8, 4, 3], seed=7)
        rng = np.random.default_rng(7)
        x, up = rng.normal(size=(batch, 2)), rng.normal(size=(batch, 3))
        tr = mlp.trace(x)
        grads, dx = mlp.reverse(tr, up, param_grads=False)
        assert grads is None
        assert np.array_equal(dx, mlp.reverse(tr, up)[1])

    def test_input_gradient_only_sweep_rejects_a_tangent_upstream(self):
        mlp = Mlp([2, 6, 1], seed=2)
        tr = mlp.trace(np.ones((4, 2)), np.ones((4, 2)))
        with pytest.raises(ValueError, match="param_grads"):
            mlp.reverse(tr, tangent_upstream=np.ones((4, 1)),
                        param_grads=False)


class TestStackedBatches:
    """An (R, 1, d) stack is R one-row batches: every value bitwise, and the
    parameter gradients those of the (R, d) batch up to rounding."""

    @pytest.mark.parametrize("dims", [[2, 16, 64, 16, 1], [3, 8, 2]])
    def test_a_stack_is_its_rows_traced_and_swept_alone(self, dims):
        mlp = Mlp(dims, seed=4)
        R, d_in, d_out = 9, dims[0], dims[-1]
        rng = np.random.default_rng(4)
        x, d = rng.normal(size=(R, d_in)), rng.normal(size=(R, d_in))
        up, tup = rng.normal(size=(R, d_out)), rng.normal(size=(R, d_out))

        def stack(a):
            return a.reshape(R, 1, a.shape[1])

        tr = mlp.trace(stack(x), stack(d))
        _, dx = mlp.reverse(tr, stack(up), stack(tup))
        _, dx_only = mlp.reverse(tr, stack(up), param_grads=False)
        assert tr.output.shape == (R, 1, d_out) and dx.shape == (R, 1, d_in)
        for k in range(R):
            one = mlp.trace(x[k:k + 1], d[k:k + 1])
            _, one_dx = mlp.reverse(one, up[k:k + 1], tup[k:k + 1])
            for a, b in zip(tr.inputs + tr.tangents,
                            one.inputs + one.tangents):
                assert np.array_equal(a[k], b)
            assert np.array_equal(dx[k], one_dx)
            assert np.array_equal(dx_only[k], one_dx)

    def test_a_stacks_parameter_gradients_are_the_batchs(self):
        mlp = Mlp([2, 16, 64, 16, 1], seed=5)
        R = 12
        rng = np.random.default_rng(5)
        x, d = rng.normal(size=(R, 2)), rng.normal(size=(R, 2))
        up, tup = rng.normal(size=(R, 1)), rng.normal(size=(R, 1))
        batch, _ = mlp.reverse(mlp.trace(x, d), up, tup)
        stacked, _ = mlp.reverse(mlp.trace(x[:, None], d[:, None]),
                                 up[:, None], tup[:, None])
        for g, h in zip(stacked, batch):
            assert g.shape == h.shape
            assert np.allclose(g, h, rtol=1e-12, atol=1e-12 * np.abs(h).max())


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


class TestWorkStore:
    """A pass in a caller's work store is the pass without one, bit for bit,
    and a batch no larger than an earlier one reuses the store's buffers."""

    @staticmethod
    def run(mlp, x, d, up, tup, store):
        """Copies of everything a trace and a sweep return."""
        tr = mlp.trace(x, d, store=store)
        out = [a.copy() for a in tr.inputs + tr.tangents]
        out += [m.copy() for m in tr.masks if m is not None]
        grads, dx = mlp.reverse(tr, up, tup, store=store)
        out += list(grads) + [dx.copy()]
        _, dx_only = mlp.reverse(tr, up, param_grads=False, store=store)
        return out + [dx_only.copy()]

    @pytest.mark.parametrize("dims", [[2, 16, 64, 16, 1], [3, 8, 5, 7, 2],
                                      [3, 2]])
    @pytest.mark.parametrize("direction, tangent", [
        (False, False), (True, False), (True, True)])
    def test_a_pass_in_a_store_is_the_pass_without_one(self, dims, direction,
                                                       tangent):
        mlp = Mlp(dims, seed=6)
        rng = np.random.default_rng(6)
        store = WorkStore()
        buffers = None
        for rows in (64, 26, 64):
            x = rng.normal(size=(rows, dims[0]))
            d = rng.normal(size=x.shape) if direction else None
            up = rng.normal(size=(rows, dims[-1]))
            tup = rng.normal(size=up.shape) if tangent else None
            alone = self.run(mlp, x, d, up, tup, None)
            stored = self.run(mlp, x, d, up, tup, store)
            assert len(stored) == len(alone)
            assert all(same_bits(a, b) for a, b in zip(stored, alone))
            if buffers is None:
                buffers = dict(store._buffers)
        # the second 64-row pass allocates no new buffer
        assert store._buffers.keys() == buffers.keys()
        assert all(store._buffers[k] is buffers[k] for k in buffers)

    def test_a_stored_trace_lives_until_the_next_pass(self):
        mlp = Mlp([2, 4, 3], seed=7)
        rng = np.random.default_rng(7)
        store = WorkStore()
        x = rng.normal(size=(5, 2))
        tr = mlp.trace(x, store=store)
        assert not np.shares_memory(tr.inputs[0], tr.output)
        again = mlp.trace(rng.normal(size=(3, 2)), store=store)
        # every layer array of the second pass reuses the first's memory
        for a, b in zip(tr.inputs[1:] + tr.masks[:1],
                        again.inputs[1:] + again.masks[:1]):
            assert np.shares_memory(a, b)
        grads, dx = mlp.reverse(again, np.ones((3, 3)), store=store)
        assert not any(np.shares_memory(g, b) for g in grads
                       for b in store._buffers.values())
        assert any(np.shares_memory(dx, b) for b in store._buffers.values())

    def test_a_store_grows_only_for_a_larger_request(self):
        store = WorkStore()
        a = store.array("k", (4, 3))
        assert a.shape == (4, 3) and a.flags.c_contiguous
        assert np.shares_memory(store.array("k", (2, 5)), a)
        assert store.array("k", (6, 2)).base is a.base
        b = store.array("k", (5, 3))
        assert not np.shares_memory(b, a)
        assert store.array("m", (2,), bool).dtype == bool


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

    def test_nonfinite_gradient_rejected(self):
        p = [np.array([1.0])]
        adam = Adam(p, lr=0.1)
        with pytest.raises(ValueError):
            adam.step(p, [np.array([np.nan])])
        assert np.array_equal(p[0], [1.0])


class TestCheckpointFormat:
    def test_header_and_roundtrip_value_exact(self, tmp_path):
        path = tmp_path / "net.ckpt"
        rng = np.random.default_rng(0)
        tensors = {"W0": rng.normal(size=(3, 2)), "b0": rng.normal(size=3)}
        write_checkpoint(path, "bcbf", tensors, meta={"dims": "2,3"})
        first = path.read_text().splitlines()[0]
        assert first == "CKPT v2 kind=bcbf"
        kind, back, meta = read_checkpoint(path)
        assert kind == "bcbf" and meta["dims"] == "2,3"
        assert np.array_equal(back["W0"], tensors["W0"])
        assert np.array_equal(back["b0"], np.atleast_2d(tensors["b0"]))

    def test_tricky_floats_read_back_exactly(self, tmp_path):
        path = tmp_path / "vals.ckpt"
        vals = np.array([np.pi, 1.0 / 3.0, 1e-300, -1e300, 0.1])
        write_checkpoint(path, "bcbf", {"v": vals})
        _, back, _ = read_checkpoint(path)
        assert np.array_equal(back["v"][0], vals)

    @pytest.mark.parametrize("kind", ["widget", "mlp"])
    def test_unknown_kind_rejected(self, tmp_path, kind):
        # the operator and the barrier are the only kinds; a bare MLP is none
        with pytest.raises(CheckpointError, match="kind"):
            write_checkpoint(tmp_path / "x.ckpt", kind, {})
        path = tmp_path / "y.ckpt"
        path.write_text(f"CKPT v2 kind={kind}\nW0 1 1\n3ff0000000000000\n")
        with pytest.raises(CheckpointError, match="kind"):
            read_checkpoint(path)

    def test_truncated_tensor_detected(self, tmp_path):
        path = tmp_path / "trunc.ckpt"
        path.write_text("CKPT v2 kind=bcbf\nW0 2 2\n"
                        "3ff0000000000000 4000000000000000\n")
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(path)

    def test_mlp_tensors_roundtrip_through_file(self, tmp_path):
        mlp = Mlp([2, 4, 1], seed=5)
        path = tmp_path / "mlp.ckpt"
        write_checkpoint(path, "bcbf", mlp.tensors())
        clone = Mlp([2, 4, 1], seed=99)
        _, tensors, _ = read_checkpoint(path)
        load_tensors(path, tensors, clone.tensors())
        x = np.array([[0.2, -0.9]])
        assert np.array_equal(clone.forward(x), mlp.forward(x))

    def test_set_tensors_takes_biases_as_vectors_or_rows(self):
        # a model's own tensors, whose biases are vectors; a file's are rows
        mlp = Mlp([2, 4, 1], seed=5)
        clone = Mlp([2, 4, 1], seed=99)
        load_tensors("net.ckpt", mlp.tensors(), clone.tensors())
        assert all(np.array_equal(a, b)
                   for a, b in zip(clone.params(), mlp.params()))

    @pytest.mark.parametrize("name, shape", [("W0", (2, 4)), ("W0", (8,)),
                                             ("b0", (4, 1)), ("b1", (2,))])
    def test_set_tensors_rejects_another_shape_naming_it(self, name, shape):
        mlp = Mlp([2, 4, 1], seed=5)
        tensors = mlp.tensors("net.")
        tensors["net." + name] = np.zeros(shape)
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"'net.{name}' has shape {shape}")):
            load_tensors("net.ckpt", tensors, Mlp([2, 4, 1]).tensors("net."))

    def test_set_tensors_names_a_missing_tensor(self):
        tensors = Mlp([2, 4, 1], seed=5).tensors()
        del tensors["W1"]
        with pytest.raises(ConfigurationError, match="no tensor 'W1'"):
            load_tensors("net.ckpt", tensors, Mlp([2, 4, 1]).tensors())


class TestSeeding:
    def test_subseed_distinguishes_children(self):
        a = Mlp([2, 4, 1], seed=subseed(0, 1))
        b = Mlp([2, 4, 1], seed=subseed(0, 2))
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_same_seed_same_init(self):
        a = Mlp([2, 4, 1], seed=subseed(3, 1))
        b = Mlp([2, 4, 1], seed=subseed(3, 1))
        assert all(np.array_equal(x, y)
                   for x, y in zip(a.params(), b.params()))

    def test_subseed_flattens_tuples(self):
        assert subseed((1, 2), 3) == (1, 2, 3)
        assert subseed(1, 2) == (1, 2)

"""Kernel-integral neural operator mapping boundary input to boundary output.

The operator lifts a scalar trajectory U sampled on a uniform time grid,
applies a stack of kernel integral layers

    v_{l+1}(t_m) = sigma(W v_l(t_m) + sum_j w_j K_l(t_m, t_j) v_l(t_j) + b_l(t_m))

with trapezoidal quadrature weights w_j, and projects back to a scalar
trajectory Y.  The kernel K_l and bias b_l are small MLPs evaluated on grid
times, so the exact time derivative of the discretized operator decomposes as

    dY/dt(t_m) = Lambda(t_m) * dU/dt(t_m) + mu(t_m)

where Lambda chains the local linear routes through the activation masks and
mu accumulates the kernel/bias time derivatives through the same masks.

`predict(U)` returns (Y, Lambda, mu): one `forward_batch` pass, then
`decomposition` over all rows. `decomposition(cache, start, stop)` gives the
split at a row range of a pass and computes the kernel term for those rows
only, so a caller that needs the split at one step pays for one step. The
kernel and bias time derivatives come from the ReLU masks in the traces of
the one-hidden-layer table networks, so no derivative table is built. The
kernel and bias tables and their traces sit in one entry keyed by a
fingerprint of the parameters; each forward cache carries its entry, so the
rate split and the backward pass read their own pass's.
"""

import zlib
from dataclasses import dataclass

import numpy as np

from .checkpoint import read_checkpoint, write_checkpoint
from .nets import Mlp, subseed
from .pde_sim import ConfigurationError, TimeGrid


def trapezoid_weights(grid):
    """Quadrature weights for the uniform grid: dt * [1/2, 1, ..., 1, 1/2]."""
    w = np.full(grid.M + 1, grid.dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def u_dot_forward(U, dt):
    """Forward-difference rates (U[m+1] - U[m]) / dt, last entry repeated."""
    U = np.asarray(U, dtype=float)
    ud = np.empty_like(U)
    ud[:-1] = np.diff(U) / dt
    ud[-1] = ud[-2]
    return ud


def mean_square(diff):
    """Mean of the squared entries of a trajectory error, the L_G loss."""
    return float(np.sum(diff * diff)) / diff.size


class KernelLayer:
    """One integral layer: local matrix W, kernel MLP, bias MLP, activation.

    The kernel and bias networks have one ReLU hidden layer each, whose
    masks give the rate split their time derivatives.
    """

    def __init__(self, dim_in, dim_out, kappa_hidden, b_hidden, activation,
                 seed):
        rng = np.random.default_rng(seed)
        bound = np.sqrt(6.0 / dim_in)
        self.W = rng.uniform(-bound, bound, size=(dim_out, dim_in))
        self.kappa = Mlp([2, kappa_hidden, dim_out * dim_in],
                         seed=subseed(seed, 1))
        self.b = Mlp([1, b_hidden, dim_out], seed=subseed(seed, 2))
        self.activation = activation
        self.dim_in = dim_in
        self.dim_out = dim_out

    def params(self):
        return [self.W] + self.kappa.params() + self.b.params()


@dataclass(eq=False)
class TableEntry:
    """The tables of one parameter state. layers holds per kernel layer
    (K2, kappa_trace, b_trace): the kernel on the (t_m, t_j) grid as an
    (n*d_out, n*d_in) matrix and the traces of the kernel and bias networks,
    kept for the backward pass (b_trace.output is the bias at each t_m).
    Their masks also give the rate split its time derivatives, so K2 is
    the entry's only (n*d_out, n*d_in) array."""
    fingerprint: int
    layers: list


@dataclass(eq=False)
class OperatorCache:
    """Activations of one forward pass and the tables it was computed with."""
    tables: TableEntry
    vs: list  # layer inputs: vs[0] lifted, ..., vs[L] input to Q
    masks: list  # per kernel layer: bool ReLU pattern, or None
    p_trace: object  # traces of the lift P and the readout Q
    q_trace: object


class BoundaryOperator:
    """Trajectory-to-trajectory map built from kernel integral layers."""

    def __init__(self, grid, d_v, n_layers, activations=None, seed=0,
                 kappa_hidden=32, b_hidden=16):
        if n_layers < 1:
            raise ConfigurationError("n_layers must be >= 1")
        if activations is None:
            activations = ("relu",) * n_layers
        if len(activations) != n_layers:
            raise ConfigurationError("one activation per layer required")
        self.grid = grid
        self.d_v = d_v
        self.n_layers = n_layers
        self.P = Mlp([1, d_v], activations=("linear",), seed=subseed(seed, 0))
        self.layers = [
            KernelLayer(d_v, d_v, kappa_hidden, b_hidden, activations[i],
                        seed=subseed(seed, 1 + i))
            for i in range(n_layers)
        ]
        self.Q = Mlp([d_v, 1], activations=("linear",), seed=subseed(seed, 99))
        self._weights = trapezoid_weights(grid)
        self._tables = None

    # -- parameters -------------------------------------------------------

    def params(self):
        out = list(self.P.params())
        for layer in self.layers:
            out.extend(layer.params())
        out.extend(self.Q.params())
        return out

    def fingerprint(self):
        crc = zlib.crc32(np.asarray([self.grid.T, self.grid.M]).tobytes())
        for p in self.params():
            crc = zlib.crc32(p.tobytes(), crc)
        return crc

    # -- cached kernel and bias tables ------------------------------------

    def _table_entry(self):
        """The tables of the current parameters: the cached entry when its
        fingerprint matches, else a fresh one that replaces it."""
        fp = self.fingerprint()
        if self._tables is not None and self._tables.fingerprint == fp:
            return self._tables
        # drop the stale entry before building, so the operator never
        # holds two
        self._tables = None
        n = self.grid.M + 1
        t = self.grid.times()
        pairs = np.empty((n * n, 2))  # (t_m, t_j), m major
        pairs[:, 0] = np.repeat(t, n)
        pairs[:, 1] = np.tile(t, n)
        layers = []
        for layer in self.layers:
            do, di = layer.dim_out, layer.dim_in
            kappa_trace = layer.kappa.trace(pairs)
            # K2 is the only copy of the kernel kept; reverse never reads
            # the trace's output
            K = kappa_trace.inputs.pop().reshape(n, n, do, di)
            K2 = K.transpose(0, 2, 1, 3).reshape(n * do, n * di)
            b_trace = layer.b.trace(t[:, None])
            layers.append((K2, kappa_trace, b_trace))
        self._tables = TableEntry(fp, layers)
        return self._tables

    # -- forward -----------------------------------------------------------

    def _check_grid(self, U):
        if U.shape[-1] != self.grid.M + 1:
            raise ConfigurationError(
                "trajectory length %d does not match grid M=%d"
                % (U.shape[-1], self.grid.M))

    def forward_batch(self, UU):
        """Map a batch of input trajectories (B, M+1) to outputs (B, M+1).

        Returns (YY, cache); the cache stores every layer activation and
        the table entry of the pass, so the rate split and the backward
        pass read the tables this pass used.
        """
        UU = np.atleast_2d(np.asarray(UU, dtype=float))
        self._check_grid(UU)
        B, n = UU.shape
        tables = self._table_entry()
        w = self._weights
        p_trace = self.P.trace(UU.reshape(-1, 1))
        v = p_trace.output.reshape(B, n, self.d_v)
        vs = [v]
        masks = []
        for layer, (K2, _, b_trace) in zip(self.layers, tables.layers):
            vw = v * w[None, :, None]
            integ = (vw.reshape(B, -1) @ K2.T).reshape(B, n, layer.dim_out)
            z = v @ layer.W.T + integ + b_trace.output[None]
            masks.append(z > 0.0 if layer.activation == "relu" else None)
            v = np.maximum(z, 0.0) if layer.activation == "relu" else z
            vs.append(v)
        q_trace = self.Q.trace(v.reshape(-1, self.d_v))
        YY = q_trace.output.reshape(B, n)
        cache = OperatorCache(tables, vs, masks, p_trace, q_trace)
        if not np.all(np.isfinite(YY)):
            raise FloatingPointError("non-finite operator output")
        return YY, cache

    def forward(self, U):
        """Single-trajectory forward pass: U (M+1,) to Y (M+1,)."""
        return self.forward_batch(np.asarray(U, dtype=float)[None])[0][0]

    def predict(self, U):
        """One trajectory's output and rate split: U (M+1,) to (Y, Lambda,
        mu), each (M+1,), from one forward pass and the split over all of
        its rows."""
        YY, cache = self.forward_batch(np.asarray(U, dtype=float)[None])
        return (YY[0],) + self.decomposition(cache)

    def decomposition(self, cache, start=0, stop=None):
        """(Lambda, mu) at rows [start, stop) (default: all) of the first
        trajectory of a forward cache, read from that pass's tables.

        Each table network has one ReLU hidden layer, so its time
        derivative is W1 (mask * W0[:, 0]), read from the masks of its
        stored trace. The kernel term of row m, sum_j w_j dK(t_m, t_j) v_j,
        runs for the rows asked for only, one row per product, so a row
        does not depend on the range on any BLAS. The small per-row products
        run over every row, as a one-row product need not round like the
        same row of the n-row one; so each entry is the matching entry of
        the split over all rows.
        """
        n = self.grid.M + 1
        stop = n if stop is None else stop
        w = self._weights
        q_vec = self.Q.params()[0].ravel()

        A = np.broadcast_to(self.P.params()[0].ravel(), (n, self.d_v)).copy()
        p = np.zeros((n, self.d_v))
        for layer, (_, kappa_trace, b_trace), v, mask in zip(
                self.layers, cache.tables.layers, cache.vs, cache.masks):
            kW0, _, kW1, _ = layer.kappa.params()
            bW0, _, bW1, _ = layer.b.params()
            vw = v[0] * w[:, None]
            # (rows, d_in, h): w v contracted over j with the hidden-layer
            # tangent along t_m at (t_m, t_j), mask * W0[:, 0]
            G = (vw.T @ kappa_trace.masks[0].reshape(n, n, -1)[start:stop]) \
                * kW0[:, 0]
            # then W1 as (d_in*h, d_out), row by row
            dinteg = G.reshape(stop - start, 1, -1) \
                @ kW1.reshape(layer.dim_out, -1).T
            A = A @ layer.W.T
            p = p @ layer.W.T
            # rows outside [start, stop) miss their kernel term; they are
            # never returned
            p[start:stop] += dinteg[:, 0]
            p += (b_trace.masks[0] * bW0[:, 0]) @ bW1.T
            if mask is not None:
                A, p = A * mask[0], p * mask[0]
        return (A @ q_vec)[start:stop], (p @ q_vec)[start:stop]

    # -- training loss -----------------------------------------------------

    def loss_and_grads(self, UU, YY, l2=0.0):
        """Mean squared trajectory error with l2 weight penalty."""
        UU = np.atleast_2d(np.asarray(UU, dtype=float))
        YY = np.atleast_2d(np.asarray(YY, dtype=float))
        Yhat, cache = self.forward_batch(UU)
        diff = Yhat - YY
        loss = mean_square(diff)

        # the penalty covers the weights, which are 2-D; biases are 1-D
        params = self.params()
        if l2:
            loss += l2 * sum(float(np.sum(p * p))
                             for p in params if p.ndim == 2)

        dY = (2.0 / diff.size) * diff
        grads = self._backward(cache, dY)
        if l2:
            for g, p in zip(grads, params):
                if p.ndim == 2:
                    g += 2.0 * l2 * p
        return loss, grads

    def _backward(self, cache, dY):
        """Reverse accumulation of d(loss)/d(params) given d(loss)/dY: one
        sweep over the traces of the cached forward pass and of the tables;
        no network runs forward."""
        B, n = dY.shape
        w = self._weights

        q_grads, dvL = self.Q.reverse(cache.q_trace, dY.reshape(-1, 1))
        dv = dvL.reshape(B, n, self.d_v)

        layer_grads = []
        for li in range(self.n_layers - 1, -1, -1):
            layer = self.layers[li]
            K2, kappa_trace, b_trace = cache.tables.layers[li]
            mask = cache.masks[li]
            v_in = cache.vs[li]
            dz = dv if mask is None else dv * mask
            dW = dz.reshape(-1, layer.dim_out).T @ v_in.reshape(-1, layer.dim_in)
            db_rows = dz.sum(axis=0)
            b_grads, _ = layer.b.reverse(b_trace, db_rows)
            vw = v_in * w[None, :, None]
            dK2 = dz.reshape(B, -1).T @ vw.reshape(B, -1)
            dK = dK2.reshape(n, layer.dim_out, n, layer.dim_in)
            up_kappa = dK.transpose(0, 2, 1, 3).reshape(n * n, -1)
            kappa_grads, _ = layer.kappa.reverse(kappa_trace, up_kappa)
            dv = dz @ layer.W
            dv += (dz.reshape(B, -1) @ K2).reshape(B, n, layer.dim_in) \
                * w[None, :, None]
            layer_grads.append([dW] + kappa_grads + b_grads)

        p_grads, _ = self.P.reverse(cache.p_trace, dv.reshape(-1, self.d_v))

        grads = list(p_grads)
        for lg in reversed(layer_grads):
            grads.extend(lg)
        grads.extend(q_grads)
        return grads

    # -- serialization -----------------------------------------------------

    def save(self, path):
        tensors = dict(self.P.tensors("P."))
        for i, layer in enumerate(self.layers):
            tensors["layer%d.W" % i] = layer.W
            tensors.update(layer.kappa.tensors("layer%d.kappa." % i))
            tensors.update(layer.b.tensors("layer%d.b." % i))
        tensors.update(self.Q.tensors("Q."))
        meta = {
            "n_layers": str(self.n_layers),
            "d_v": str(self.d_v),
            "grid_T": "%.17g" % self.grid.T,
            "grid_M": str(self.grid.M),
            "activations": ",".join(l.activation for l in self.layers),
        }
        write_checkpoint(path, "operator", tensors, meta)

    @classmethod
    def load(cls, path):
        kind, tensors, meta = read_checkpoint(path)
        if kind != "operator":
            raise ConfigurationError("checkpoint kind %r is not operator" % kind)
        if meta.get("table_hidden", "relu") != "relu":  # older checkpoints
            raise ConfigurationError("unsupported table_hidden %r"
                                     % meta["table_hidden"])
        grid = TimeGrid(float(meta["grid_T"]), int(meta["grid_M"]))
        n_layers = int(meta["n_layers"])
        d_v = int(meta["d_v"])
        activations = tuple(meta["activations"].split(","))
        kappa_hidden = tensors["layer0.kappa.W0"].shape[0]
        b_hidden = tensors["layer0.b.W0"].shape[0]
        op = cls(grid, d_v=d_v, n_layers=n_layers, activations=activations,
                 kappa_hidden=kappa_hidden, b_hidden=b_hidden)
        op.P.set_tensors(tensors, "P.")
        for i, layer in enumerate(op.layers):
            W = tensors["layer%d.W" % i]
            if W.shape != layer.W.shape:
                raise ConfigurationError("layer %d W shape mismatch" % i)
            layer.W = W.copy()
            layer.kappa.set_tensors(tensors, "layer%d.kappa." % i)
            layer.b.set_tensors(tensors, "layer%d.b." % i)
        op.Q.set_tensors(tensors, "Q.")
        return op

"""Kernel-integral neural operator mapping boundary input to boundary output.

The operator reads a scalar trajectory U sampled on a uniform time grid as
the two channels v_0(t_m) = (U_m, 1), applies a stack of kernel integral
layers

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
the one-hidden-layer table networks, so no derivative table is built.

The constant channel carries the terms W p and sum_j w_j K(t_m, t_j) p of a
constant input p, which a layer on U alone could not form. A lift
u p_w + p_b in front would add parameters but no functions, as its weight
and bias fold into the first layer's W and kernel.

The kernel network's output layer is linear, K = W1 phi + b1 with phi its
ReLU hidden layer, so a layer integral can be contracted in either order:

    sum_j w_j K(t_m, t_j) v_j = W1 (sum_j w_j phi(t_m, t_j) v_j)
                                + b1 (sum_j w_j v_j)

with W1 and b1 read as (d_out, d_in, h) and (d_out, d_in). Every pass but
a training step takes the right-hand side, through the hidden features H
(n*n, h) of the (t_m, t_j) pairs. A training step takes the left-hand side,
which at a batch of many trajectories and a backward pass costs fewer
multiply-adds, but never holds the whole kernel table (n*d_out, n*d_in):
it builds the table's rows from H and W1 in blocks of KERNEL_ROWS output
rows, applies each block before building the next, and builds each block
again in the backward pass (rebuilding in place of storing, as in Chen et
al., arXiv 1604.06174). Every block of every step is written into the same
two arrays, which the operator makes on its first training step and keeps,
so the steps of a fit reuse their memory; no other pass touches them. The
hidden traces and the bias traces sit in one entry keyed by the exact bytes
of the grid and the parameters, the same for training and inference; each
forward cache carries its entry, so the rate split and the backward pass
read their own pass's.

`forward_batch(UU, start)` runs the last layer and Q at rows [start, n)
only: each earlier layer runs in full, as the last one's integral reads its
whole input, but the last one's integral then reads only the rows of H for
output rows from start on, the bulk of the pass at large n. Rows before
start read NaN until `complete(cache, trajectories)` computes them from the
cached input of the last layer, reading only H's rows for them; it runs no
earlier layer. A partial pass gives the rate split from row start on and
has no backward pass; training always runs whole passes.
"""

from dataclasses import dataclass

import numpy as np

from .checkpoint import (check_tensor_names, checkpoint_tensor,
                         read_checkpoint, write_checkpoint)
from .nets import Mlp, Trace, WorkStore, subseed
from .pde_sim import ConfigurationError, TimeGrid

# Output rows of a layer's kernel that a training step builds at once, a
# (KERNEL_ROWS*d_out, n*d_in) block: few enough that a block stays small at
# any grid, enough that each block's products stay large. At d_v=16 and a
# batch of 54, 4 and 8 rows tie on step time from M=50 to M=200, and 16 or
# 32 rows are slower.
KERNEL_ROWS = 8


def trapezoid_weights(grid):
    """Quadrature weights for the uniform grid: dt * [1/2, 1, ..., 1, 1/2]."""
    w = np.full(grid.M + 1, grid.dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def check_architecture(d_v, n_layers, activations=None):
    """ConfigurationError unless d_v and n_layers are >= 1 and activations,
    when given, names "relu" or "linear" (an affine layer) per layer."""
    for name, value in (("d_v", d_v), ("n_layers", n_layers)):
        if not value >= 1:
            raise ConfigurationError(f"{name} must be >= 1, got {value!r}")
    if activations is not None and len(activations) != n_layers:
        raise ConfigurationError(f"activations must name one per layer "
                                 f"({n_layers}), got {tuple(activations)!r}")
    for a in activations or ():
        if a not in ("relu", "linear"):
            raise ConfigurationError(
                f"activations must each be 'relu' or 'linear', got {a!r}")


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
class LayerTables:
    """The tables of one kernel layer.

    kappa_trace is the kernel network's trace up to its hidden layer on the
    (t_m, t_j) pairs, m major: inputs [pairs, H], H (n*n, h), and masks
    [H > 0]. It stops there, as inference applies the linear output layer
    after the sum over j; `Mlp.reverse` reads no more of it. b_trace is the
    bias network's trace (b_trace.output is the bias at each t_m). The
    masks of both give the rate split its time derivatives. No kernel
    table is kept: a training step builds its rows from H a block at a
    time (`_kernel_rows`)."""
    kappa_trace: Trace
    b_trace: Trace


@dataclass(eq=False)
class TableEntry:
    """The tables of one parameter state, under its key (`fingerprint()`):
    one LayerTables per kernel layer, for training and inference alike. Its
    largest arrays are the (n*n, h) hidden features and masks; it never
    holds an (n*d_out, n*d_in) kernel table."""
    key: bytes
    layers: list


@dataclass(eq=False)
class OperatorCache:
    """Activations of one forward pass and the tables it was computed with.

    A pass from row start > 0 ran the last layer and Q at rows [start, n)
    only: before start, the last layer's activation and Q's output read NaN
    and its mask False; every earlier layer input is whole."""
    tables: TableEntry
    vs: list  # layer inputs: vs[0] the channels (U, 1), ..., vs[L] to Q
    masks: list  # per kernel layer: bool ReLU pattern, or None
    q_trace: object  # trace of the readout Q
    start: int = 0  # first row of the last layer and Q that the pass ran


class BoundaryOperator:
    """Trajectory-to-trajectory map built from kernel integral layers."""

    def __init__(self, grid, d_v, n_layers, activations=None, seed=0,
                 kappa_hidden=32, b_hidden=16):
        check_architecture(d_v, n_layers, activations)
        activations = activations or ("relu",) * n_layers
        self.grid = grid
        self.d_v = d_v
        self.n_layers = n_layers
        self.layers = [
            KernelLayer(d_v if i else 2, d_v, kappa_hidden, b_hidden,
                        activations[i], seed=subseed(seed, 1 + i))
            for i in range(n_layers)
        ]
        self.Q = Mlp([d_v, 1], seed=subseed(seed, 99))
        self._weights = trapezoid_weights(grid)
        self._tables = None
        self._blocks = None  # a training step's block arrays (`_block_arrays`)

    # -- parameters -------------------------------------------------------

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        out.extend(self.Q.params())
        return out

    def fingerprint(self):
        """The table key: the bytes of the grid and of every parameter.
        Equal keys mean equal tables, with no hash to collide."""
        return b"".join([np.asarray([self.grid.T, self.grid.M]).tobytes()]
                        + [p.tobytes() for p in self.params()])

    # -- cached kernel and bias tables ------------------------------------

    def _table_entry(self):
        """The tables of the current parameters: the cached entry when its
        key matches, else a fresh one that replaces it."""
        key = self.fingerprint()
        if self._tables is not None and self._tables.key == key:
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
            # the kernel network's hidden layer, as Mlp.trace computes it
            W0, b0 = layer.kappa.params()[:2]
            z = pairs @ W0.T
            z += b0
            mask = z > 0.0
            np.maximum(z, 0.0, out=z)  # in place: H, with no second array
            kappa_trace = Trace([pairs, z], [mask], [])
            layers.append(LayerTables(kappa_trace, layer.b.trace(t[:, None])))
        self._tables = TableEntry(key, layers)
        return self._tables

    def _block_arrays(self, layer, rows):
        """The two arrays that hold a block of `rows` kernel rows of a
        layer: pair-major, (rows*n, d_out*d_in), one row per (t_m, t_j)
        pair as the kernel network's output layer gives it, and row-major,
        (rows*d_out, n*d_in), the block of the kernel table. They are views
        of two buffers that the operator makes on its first training step
        and keeps for every later block, of any layer and any step."""
        if self._blocks is None:
            self._blocks = WorkStore()
        n, do, di = self.grid.M + 1, layer.dim_out, layer.dim_in
        return (self._blocks.array("pair-major", (rows * n, do * di)),
                self._blocks.array("row-major", (rows * do, n * di)))

    def _kernel_rows(self, li, tables, lo, hi):
        """Rows [lo, hi) of layer li's kernel as an ((hi-lo)*d_out, n*d_in)
        matrix: the kernel network's output layer on H's rows for them,
        H W1^T + b1, as Mlp.trace computes it, written into the pair-major
        block array and copied, transposed, into the row-major one. It
        returns a view of the row-major array, which the next block
        overwrites: a training step builds one block of KERNEL_ROWS rows at
        a time and applies it before building the next."""
        layer = self.layers[li]
        n, do, di = self.grid.M + 1, layer.dim_out, layer.dim_in
        _, _, W1, b1 = layer.kappa.params()
        H = tables.layers[li].kappa_trace.inputs[1][lo * n:hi * n]
        pair_major, row_major = self._block_arrays(layer, hi - lo)
        np.matmul(H, W1.T, out=pair_major)
        pair_major += b1
        np.copyto(row_major.reshape(hi - lo, do, n, di),
                  pair_major.reshape(hi - lo, n, do, di).transpose(0, 2, 1, 3))
        return row_major

    # -- forward -----------------------------------------------------------

    def _check_grid(self, U):
        if U.shape[-1] != self.grid.M + 1:
            raise ConfigurationError(
                "trajectory length %d does not match grid M=%d"
                % (U.shape[-1], self.grid.M))

    def _preactivation(self, li, tables, v, lo, hi, blocked=False):
        """Layer li's pre-activation at rows [lo, hi) of a batch, from its
        whole input v (B, n, d_in). The integral runs through H and then
        the kernel network's output layer, one product per row, and reads
        only H's rows for rows [lo, hi); with blocked (a training step) it
        runs through the kernel's rows for them, built and applied
        KERNEL_ROWS rows at a time. The local term runs at every row, as a
        product over fewer rows need not round like the same rows of the
        whole one, so each row is the same row of the whole pass."""
        layer = self.layers[li]
        lt = tables.layers[li]
        do, di, B = layer.dim_out, layer.dim_in, len(v)
        vw = v * self._weights[None, :, None]
        if blocked:
            vw = vw.reshape(B, -1)
            integ = np.concatenate(
                [vw @ self._kernel_rows(li, tables, a,
                                        min(a + KERNEL_ROWS, hi)).T
                 for a in range(lo, hi, KERNEL_ROWS)],
                axis=1).reshape(B, hi - lo, do)
        else:
            n = v.shape[1]
            _, _, W1, b1 = layer.kappa.params()
            H = lt.kappa_trace.inputs[1].reshape(n, n, -1)[lo:hi]
            # per row m: sum_j w_j v_j H(t_m, t_j) as (B*d_in, h), then W1
            # as (d_in*h, d_out); the rows are stacked, one product each
            G = vw.transpose(0, 2, 1).reshape(B * di, n) @ H
            G = G.reshape(hi - lo, B, di * W1.shape[1]) \
                @ W1.reshape(do, -1).T
            # b1 as (d_out, d_in), on sum_j w_j v_j, the same at every row
            bias = vw.sum(axis=1) @ b1.reshape(do, di).T
            integ = G.transpose(1, 0, 2) + bias[:, None]
        return (v @ layer.W.T)[:, lo:hi] + integ + lt.b_trace.output[lo:hi]

    def forward_batch(self, UU, start=0):
        """Map a batch of input trajectories (B, M+1) to outputs (B, M+1).

        Returns (YY, cache); the cache stores every layer activation and
        the table entry of the pass, so the rate split and the backward
        pass read the tables this pass used. Every layer before the last
        runs at all rows, as the last one's integral reads its whole
        input; the last layer and Q run at rows [start, n) only. Earlier
        rows of YY, and of the last activation and mask, are NaN and False;
        `complete` computes them from the cache. The integrals run through
        the kernel networks' hidden features; no kernel row is built.
        """
        return self._forward(UU, start)

    def _forward(self, UU, start=0, blocked=False):
        """`forward_batch`, or with blocked the pass of a training step,
        whose integrals run through blocks of the kernel's rows."""
        UU = np.atleast_2d(np.asarray(UU, dtype=float))
        self._check_grid(UU)
        B, n = UU.shape
        tables = self._table_entry()
        v = np.stack([UU, np.ones_like(UU)], axis=-1)
        vs = [v]
        masks = []
        for li, layer in enumerate(self.layers):
            lo = start if li == self.n_layers - 1 else 0
            z = self._preactivation(li, tables, v, lo, n, blocked)
            if lo:
                z = np.concatenate(
                    [np.full((B, lo, layer.dim_out), np.nan), z], axis=1)
            masks.append(z > 0.0 if layer.activation == "relu" else None)
            v = np.maximum(z, 0.0) if layer.activation == "relu" else z
            vs.append(v)
        # Q maps the NaN rows to NaN, and rounds each row as a whole pass
        q_trace = self.Q.trace(v.reshape(-1, self.d_v))
        YY = q_trace.output.reshape(B, n)
        if not np.all(np.isfinite(YY[:, start:])):
            raise FloatingPointError("non-finite operator output")
        return YY, OperatorCache(tables, vs, masks, q_trace, start)

    def complete(self, cache, trajectories):
        """Rows [0, cache.start) of the outputs of the trajectories (a
        sequence of indices) of a forward pass, (len(trajectories),
        cache.start): the last layer and Q at those rows, from the cached
        input of the last layer. It runs no earlier layer and reads only
        H's rows for them."""
        start = cache.start
        z = self._preactivation(self.n_layers - 1, cache.tables,
                                np.take(cache.vs[-2], trajectories, axis=0),
                                0, start)
        # a copy: the cache keeps the rows the pass left NaN
        v = np.take(cache.vs[-1], trajectories, axis=0)
        v[:, :start] = (np.maximum(z, 0.0)
                        if self.layers[-1].activation == "relu" else z)
        Y = self.Q.forward(v.reshape(-1, self.d_v))
        Y = Y.reshape(len(v), -1)[:, :start]
        if not np.all(np.isfinite(Y)):
            raise FloatingPointError("non-finite operator output")
        return Y

    def forward(self, U):
        """Single-trajectory forward pass: U (M+1,) to Y (M+1,)."""
        return self.forward_batch(np.asarray(U, dtype=float)[None])[0][0]

    def predict(self, U):
        """One trajectory's output and rate split: U (M+1,) to (Y, Lambda,
        mu), each (M+1,), from one forward pass and the split over all of
        its rows."""
        YY, cache = self.forward_batch(np.asarray(U, dtype=float)[None])
        return (YY[0],) + self.decomposition(cache)

    def decomposition(self, cache, start=0, stop=None, trajectory=0):
        """(Lambda, mu) at rows [start, stop) (default: all) of one
        trajectory (default: 0) of a forward cache, from that pass's tables.

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
        if start < cache.start:
            raise ValueError(f"rows from {start} asked of a pass that ran "
                             f"its last layer from row {cache.start}")
        w = self._weights
        q_vec = self.Q.params()[0].ravel()

        # the tangents of the channels (U, 1) along U_m and along t_m
        A = np.tile([1.0, 0.0], (n, 1))
        p = np.zeros((n, 2))
        for layer, lt, v, mask in zip(self.layers, cache.tables.layers,
                                      cache.vs, cache.masks):
            kW0, _, kW1, _ = layer.kappa.params()
            bW0, _, bW1, _ = layer.b.params()
            vw = v[trajectory] * w[:, None]
            # (rows, d_in, h): w v contracted over j with the hidden-layer
            # tangent along t_m at (t_m, t_j), mask * W0[:, 0]
            mask0 = lt.kappa_trace.masks[0].reshape(n, n, -1)
            G = (vw.T @ mask0[start:stop]) * kW0[:, 0]
            # then W1 as (d_in*h, d_out), row by row
            dinteg = G.reshape(stop - start, 1, -1) \
                @ kW1.reshape(layer.dim_out, -1).T
            A = A @ layer.W.T
            p = p @ layer.W.T
            # rows outside [start, stop) miss their kernel term; they are
            # never returned
            p[start:stop] += dinteg[:, 0]
            p += (lt.b_trace.masks[0] * bW0[:, 0]) @ bW1.T
            if mask is not None:
                A, p = A * mask[trajectory], p * mask[trajectory]
        return (A @ q_vec)[start:stop], (p @ q_vec)[start:stop]

    # -- training loss -----------------------------------------------------

    def loss_and_grads(self, UU, YY, l2=0.0):
        """Mean squared trajectory error with l2 weight penalty, and its
        gradients in params() order. YY must have UU's shape.

        Each layer's kernel runs as a table of rows, KERNEL_ROWS output
        rows (KERNEL_ROWS*d_out by n*d_in) at a time: the forward builds a
        block from H's rows and applies it to the batch before building the
        next, and the backward builds it again to carry the input gradient
        through it. So a step holds the entry's (n*n, h) hidden features and
        one block, never an n*n*d_out*d_in kernel. Every block, and the
        backward's kernel-network upstream of a block, is written into the
        operator's two block arrays (`_block_arrays`), which the first step
        makes and every later step reuses; the results never alias them."""
        UU = np.asarray(UU, dtype=float)
        YY = np.asarray(YY, dtype=float)
        if YY.shape != UU.shape:
            raise ConfigurationError(f"target shape {YY.shape} does not "
                                     f"match input shape {UU.shape}")
        UU, YY = np.atleast_2d(UU, YY)
        Yhat, cache = self._forward(UU, blocked=True)
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
        no network runs forward. Each kernel network is swept once per
        block of KERNEL_ROWS output rows, over a view of its trace at that
        block's pairs, and its gradients are summed over the blocks. The
        pass must have run every row."""
        if cache.start:
            raise ValueError("backward pass over a forward that ran its "
                             f"last layer from row {cache.start}")
        B, n = dY.shape
        w = self._weights

        q_grads, dvL = self.Q.reverse(cache.q_trace, dY.reshape(-1, 1))
        dv = dvL.reshape(B, n, self.d_v)

        layer_grads = []
        for li in range(self.n_layers - 1, -1, -1):
            layer = self.layers[li]
            lt = cache.tables.layers[li]
            do, di = layer.dim_out, layer.dim_in
            mask = cache.masks[li]
            v_in = cache.vs[li]
            dz = dv if mask is None else dv * mask
            dW = dz.reshape(-1, do).T @ v_in.reshape(-1, di)
            db_rows = dz.sum(axis=0)
            b_grads, _ = layer.b.reverse(lt.b_trace, db_rows)
            vw = (v_in * w[None, :, None]).reshape(B, -1)
            dz_flat = dz.reshape(B, -1)
            pairs, H = lt.kappa_trace.inputs
            hidden_mask = lt.kappa_trace.masks[0]
            kappa_grads = [np.zeros_like(p) for p in layer.kappa.params()]
            dv_kernel = np.zeros((B, n * di)) if li else None
            for lo in range(0, n, KERNEL_ROWS):
                hi = min(lo + KERNEL_ROWS, n)
                dz_rows = dz_flat[:, lo * do:hi * do]
                # the kernel's gradient at the block's (t_m, t_j) pairs, a
                # block of the table's rows and then one row per pair; the
                # sweep consumes it before the block arrays are built again
                up, up_rows = self._block_arrays(layer, hi - lo)
                np.matmul(dz_rows.T, vw, out=up_rows)
                np.copyto(up.reshape(hi - lo, n, do, di),
                          up_rows.reshape(hi - lo, do, n, di)
                          .transpose(0, 2, 1, 3))
                rows = slice(lo * n, hi * n)
                block_grads, _ = layer.kappa.reverse(
                    Trace([pairs[rows], H[rows]], [hidden_mask[rows]], []), up)
                for total, g in zip(kappa_grads, block_grads):
                    total += g
                if li:  # the input channels (U, 1) need no gradient
                    dv_kernel += dz_rows @ self._kernel_rows(
                        li, cache.tables, lo, hi)
            layer_grads.append([dW] + kappa_grads + b_grads)
            if li:
                dv = dz @ layer.W \
                    + dv_kernel.reshape(B, n, di) * w[None, :, None]

        grads = []
        for lg in reversed(layer_grads):
            grads.extend(lg)
        grads.extend(q_grads)
        return grads

    # -- serialization -----------------------------------------------------

    def tensors(self):
        """Every parameter array by its checkpoint name."""
        tensors = {}
        for i, layer in enumerate(self.layers):
            tensors["layer%d.W" % i] = layer.W
            tensors.update(layer.kappa.tensors("layer%d.kappa." % i))
            tensors.update(layer.b.tensors("layer%d.b." % i))
        tensors.update(self.Q.tensors("Q."))
        return tensors

    def save(self, path):
        meta = {
            "n_layers": str(self.n_layers),
            "d_v": str(self.d_v),
            "grid_T": "%.17g" % self.grid.T,
            "grid_M": str(self.grid.M),
            "activations": ",".join(l.activation for l in self.layers),
        }
        write_checkpoint(path, "operator", self.tensors(), meta)

    @classmethod
    def load(cls, path):
        kind, tensors, meta = read_checkpoint(path)
        if kind != "operator":
            raise ConfigurationError("checkpoint kind %r is not operator" % kind)

        def entry(key, parse):
            if key not in meta:
                raise ConfigurationError(f"{path}: checkpoint has no meta "
                                         f"entry {key}")
            try:
                return parse(meta[key])
            except ValueError as exc:
                raise ConfigurationError(
                    f"{path}: meta entry {key} {meta[key]!r} is malformed: "
                    f"{exc}") from None

        T, M = entry("grid_T", float), entry("grid_M", int)
        n_layers, d_v = entry("n_layers", int), entry("d_v", int)
        activations = entry("activations", lambda s: tuple(s.split(",")))
        try:
            grid = TimeGrid(T, M)
            check_architecture(d_v, n_layers, activations)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}: {exc}") from None
        kappa_hidden = checkpoint_tensor(tensors, "layer0.kappa.W0").shape[0]
        b_hidden = checkpoint_tensor(tensors, "layer0.b.W0").shape[0]
        op = cls(grid, d_v=d_v, n_layers=n_layers, activations=activations,
                 kappa_hidden=kappa_hidden, b_hidden=b_hidden)
        check_tensor_names(path, tensors, op.tensors())
        for i, layer in enumerate(op.layers):
            layer.W[...] = checkpoint_tensor(tensors, "layer%d.W" % i,
                                             layer.W.shape)
            layer.kappa.set_tensors(tensors, "layer%d.kappa." % i)
            layer.b.set_tensors(tensors, "layer%d.b." % i)
        op.Q.set_tensors(tensors, "Q.")
        return op

"""Causal kernel-integral neural operator from boundary input to output.

The operator reads a scalar trajectory U sampled on a uniform time grid as
the two channels v_0(t_m) = (U_m, 1), applies a stack of kernel integral
layers

    v_{l+1}(t_m) = sigma(W v_l(t_m)
                         + sum_{j <= m} w_j K_l(t_m - t_j) v_l(t_j) + b_l(t_m))

with quadrature weights w_j = dt [1/2, 1, ..., 1] (`quadrature_weights`),
and projects back to a scalar trajectory Y. The weights do not depend on
the row that reads them, and every row m >= 1 weighs its diagonal, lag 0,
by dt, the weight the rate split's boundary term below assumes. The kernel
K_l is a small MLP of the lag alone, evaluated at the n grid lags t_k = k
dt (the lag of (t_m, t_j) is t_{m-j}), and it reads only inputs up to t_m:
each layer is a causal, time-invariant (Volterra) convolution, as both
plants are (Kovachki et al., arXiv 2108.08481). So an output row never
depends on a later input, bit for bit: the sums over j <= m never read a
later input, and every product and sum of a row runs at the same shape
whatever the other rows hold. The bias b_l is a small MLP of t_m. Between
t_m and t_{m+1} the integral extends as sum_{j <= m} w_j K(t - t_j) v_j +
(t - t_m) K(t - t_m) v_m, the quadrature at the frozen nodes plus the panel
that grows from t_m, so its time derivative at t_m is sum_{j <= m} w_j
K'(t_{m-j}) v_j + K(0) v_m, the derivative of a Volterra integral with its
boundary term. The exact time derivative of the operator so extended
decomposes as

    dY/dt(t_m) = Lambda(t_m) * dU/dt(t_m) + mu(t_m)

where Lambda chains the local linear routes through the activation masks and
mu accumulates the kernel's lag derivative, its boundary term and the bias's
time derivative through the same masks. Without the boundary term, mu would
miss a term as large as itself, and Lambda * dU/dt + mu would not follow
the grid differences of Y as dt shrinks.

`predict(U)` returns (Y, Lambda, mu): one `forward_batch` pass, then
`decomposition` over all rows. `decomposition(cache, start, stop)` gives the
split at a row range of a pass and computes the kernel term for those rows
only, so a caller that needs the split at one step pays for one step. The
kernel and bias derivatives come from the ReLU masks in the traces of the
one-hidden-layer lag and time networks: the kernel's makes a lag table of
its own, built once per pass when the split is first asked for.

The constant channel carries the terms W p and sum_{j<=m} w_j
K(t_m - t_j) p of a constant input p, which a layer on U alone could not
form. A lift u p_w + p_b in front would add parameters but no functions,
as its weight and bias fold into the first layer's W and kernel.

Each pass evaluates every kernel network on the n lags, whose output
layer makes the layer's lag table of blocks K(t_k)^T, (n*d_in, d_out),
and traces every bias network on the n times: (n, .) arrays that it keeps
in its forward cache (`LagArrays`); nothing is cached between passes, and
no array of a pass has n*n rows. Row m of a layer's integral is the
product of the lag table with the history window of the weighted input,
w_m v_m, w_{m-1} v_{m-1}, ..., w_0 v_0 (`_history`), a strided view of one
copy of w v reversed in time and zero-padded. The rows run in fixed blocks
counted from row 0, and each block's windows and lag table are cut after
the history of the block's last row (`_window_products`), so the products
skip about half the zeros of whole windows. A batch of two or more
trajectories multiplies the strided windows in place, one small product
per row; one trajectory (a one-row re-forward, every rate split) copies
each block's windows into one array and makes one GEMM of it, always over
the whole block, which reads the lag table once per block instead of once
per row. No later input enters a row, and a row's product has a shape
fixed by its row and the batch size alone. Training and inference run the
same pass. The backward pass forms the kernel's gradient lag by lag,
carries the input gradient through blocked products of history windows of
the same form in reversed time, and sweeps the kernel network over the n
lags.

`forward_batch(UU)` runs every layer at every row. Since the operator is
causal, a caller that changed only inputs from row start on keeps its
earlier outputs from the pass before: given that pass as the prior
(`forward_batch(UU, start, prior)`), every layer runs from row start on,
taking its earlier rows, their masks and the lag arrays from there, and Q
runs at every row. So every cache is that of the whole pass, with the rate
split at any row and a backward pass: bitwise when each row's prior is that
row's own index of a pass over a batch of the same size, and otherwise
equal only to rounding (a trajectory's rows can round differently at
another place in a batch, as at M=600, d_v=1 in a batch of three).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .checkpoint import (check_tensor_names, checkpoint_tensor,
                         read_checkpoint, write_checkpoint)
from .nets import Mlp, Trace, subseed
from .pde_sim import ConfigurationError, TimeGrid


# floats of a history window per block of rows of a window product
WINDOW_FLOATS = 256


def quadrature_weights(grid):
    """Weights w_j of the kernel sums over j <= m on the uniform grid,
    dt * [1/2, 1, ..., 1]: the trapezoid rule's first node, then a whole
    panel per node. Every row m >= 1 weighs its diagonal node, lag 0, by
    dt, the weight the rate split's boundary term K(0) v_m assumes, and no
    weight depends on the row that reads it, so a kernel sum is the same
    function of the input's history at every row, the last one included."""
    w = np.full(grid.M + 1, grid.dt)
    w[0] *= 0.5
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


def _history(x, w=None):
    """The history windows of a batch x (B, n, a), weighted by w along
    time when given, an (n, B, n*a) view: window m holds w_m x_m,
    w_{m-1} x_{m-1}, ..., w_0 x_0 in its first m+1 blocks of a, and zeros
    in the rest, which `_window_products` cuts off a block of rows at a
    time. Against a lag table (n*a, b) whose block k is lag t_k, window m
    sums table[k] w_{m-k} x_{m-k} over k <= m, and no later x enters it.
    Every window is a slice of one copy of w x, reversed in time and
    zero-padded behind to 2n-1 blocks."""
    B, n, a = x.shape
    padded = np.zeros((B, 2 * n - 1, a))
    if w is None:
        padded[:, :n] = x[:, ::-1]
    else:
        np.multiply(x[:, ::-1], w[::-1, None], out=padded[:, :n])
    step = padded.itemsize
    # window r of this view starts at block r, which holds x_{n-1-r}
    view = np.ndarray((n, B, n * a), padded.dtype, padded, 0,
                      (a * step, (2 * n - 1) * a * step, step))
    view.flags.writeable = False
    return view[::-1]


def _window_products(hist, table, lo, hi):
    """Rows [lo, hi) of hist @ table, (hi-lo, B, b), for `_history` windows
    hist (n, B, n*a) and a lag table (n*a, b).

    Window m holds zeros after its first (m+1)*a floats, so the rows run in
    blocks of WINDOW_FLOATS // a counted from row 0, and each block's
    windows are cut after the history of its last row: one product per
    block, about half the multiplications of the uncut windows. The
    product takes one of two forms, chosen by the batch size B:

    - B >= 2: a stack of one (B, k) by (k, b) product per row over the
      rows asked for, which reads the strided windows in place. Rows where
      a cut would save less than a block of floats per window join the
      last block, so a late row range is one product of whole windows.
      Training runs here, and a per-row product can round with its
      window's length: without the join the last rows' windows would be
      shorter, and a trained checkpoint can change in its last bits (the
      diffusion-long benchmark's operator checkpoint does).
    - B = 1: the windows of the whole block are copied into one contiguous
      (rows, k) array and multiplied by the table in one GEMM, which reads
      each panel of the table once for all of the block's rows instead of
      once per row (a stack of GEMVs); the rows asked for are taken from
      it. The copy pays off for one trajectory alone: at B = 2 it breaks
      even, and at a training batch of 54 it takes twice the stack. The
      last block is the rows left over, with no join, so that no copy
      holds more than a block of whole windows.

    Either way row m's product has a shape that depends on m (and n, a, B)
    alone, so a row of any range is bitwise that row of the whole product,
    and no later input enters it."""
    n, B = hist.shape[:2]
    a = len(table) // n
    rows = max(1, WINDOW_FLOATS // a)
    # the last block's first row: a batch's last block takes the rows a
    # cut saves little on, one trajectory's is the rows left over
    last = n if B == 1 else max(0, (n // rows - 1) * rows)
    out = np.empty((hi - lo, B, table.shape[1]))
    s = min(lo - lo % rows, last)
    while s < hi:
        e = min(s + rows, n) if s < last else n
        k = e * a  # the window of the block's last row, e - 1
        r0, r1 = max(s, lo), min(e, hi)
        if B == 1:
            block = np.ascontiguousarray(hist[s:e, 0, :k]) @ table[:k]
            out[r0 - lo:r1 - lo, 0] = block[r0 - s:r1 - s]
        else:
            np.matmul(hist[r0:r1, :, :k], table[:k],
                      out=out[r0 - lo:r1 - lo])
        s = e
    return out


class LagArrays:
    """What one kernel layer's parameters give on the grid, (n, .) arrays
    at the n lags or times, built once per pass or taken over from a prior
    pass of the same parameters: the kernel network's trace up to its
    hidden layer on the lags (features phi and masks), the lag table that
    its linear output layer makes of phi, and the bias network's trace on
    the times. The rate split's terms are built the first time a caller
    reads them."""

    def __init__(self, layer, t):
        self.layer = layer
        n, di, do = len(t), layer.dim_in, layer.dim_out
        # the kernel network's hidden layer, as Mlp.trace computes it; the
        # trace stops there, and Mlp.reverse reads no more of it
        W0, b0, W1, b1 = layer.kappa.params()
        phi = t @ W0.T
        phi += b0
        mask = phi > 0.0
        np.maximum(phi, 0.0, out=phi)
        self.kappa = Trace([t, phi], [mask], [])
        # the output layer, its rows read (d_out, d_in), taken in the order
        # (d_in, d_out): the table of blocks K(t_k)^T, (n*d_in, d_out),
        # that history windows multiply
        self.W1T = W1.reshape(do, di, -1).transpose(1, 0, 2).reshape(
            di * do, -1).T
        table = phi @ self.W1T
        table += b1.reshape(do, di).T.ravel()
        self.table = table.reshape(n * di, do)
        self.b = layer.b.trace(t)

    @cached_property
    def rates(self):
        """(the lag table's lag derivative, K(0)^T, the bias's time
        derivative): a network's derivative is W1 (mask * W0[:, 0]), from
        the mask of its trace."""
        layer = self.layer
        kW0 = layer.kappa.params()[0]
        bW0, _, bW1, _ = layer.b.params()
        dK = (self.kappa.masks[0] * kW0[:, 0]) @ self.W1T
        return (dK.reshape(-1, layer.dim_out), self.table[:layer.dim_in],
                (self.b.masks[0] * bW0[:, 0]) @ bW1.T)


class KernelLayer:
    """One integral layer: local matrix W, lag-kernel MLP, bias MLP,
    activation.

    The kernel and bias networks have one ReLU hidden layer each, whose
    masks give the rate split their derivatives. Each reads a lag or a
    time in [0, horizon], and each hidden unit starts with its kink at a
    point drawn uniformly there (its bias -W0 tau for a drawn tau), not at
    0: every diagonal pair has lag 0, where zero biases put every kernel
    unit at its kink at every step, and half the units (those with W0 < 0)
    dead at every positive lag. So every unit starts active on part of the
    grid, and almost surely none at a kink on it.
    """

    def __init__(self, dim_in, dim_out, kappa_hidden, b_hidden, activation,
                 horizon, seed):
        rng = np.random.default_rng(seed)
        bound = np.sqrt(6.0 / dim_in)
        self.W = rng.uniform(-bound, bound, size=(dim_out, dim_in))
        self.kappa = Mlp([1, kappa_hidden, dim_out * dim_in],
                         seed=subseed(seed, 1))
        self.b = Mlp([1, b_hidden, dim_out], seed=subseed(seed, 2))
        for net in (self.kappa, self.b):
            W0, b0 = net.params()[:2]
            b0[...] = -W0[:, 0] * rng.uniform(0.0, horizon, size=b0.shape)
        self.activation = activation
        self.dim_in = dim_in
        self.dim_out = dim_out

    def params(self):
        return [self.W] + self.kappa.params() + self.b.params()


@dataclass(eq=False)
class OperatorCache:
    """Activations of one forward pass, the lag arrays it was computed
    with, one `LagArrays` per kernel layer, and the history windows its
    integrals read. A pass from a prior holds the prior's rows before its
    start, so every cache is that of a whole pass."""
    lags: list  # per kernel layer: its LagArrays
    vs: list  # layer inputs: vs[0] the channels (U, 1), ..., vs[L] to Q
    hists: list  # per kernel layer: the `_history` windows of w v
    masks: list  # per kernel layer: bool ReLU pattern, or None
    q_trace: object  # trace of the readout Q


class BoundaryOperator:
    """Trajectory-to-trajectory map built from causal kernel integral
    layers."""

    def __init__(self, grid, d_v, n_layers, activations=None, seed=0,
                 kappa_hidden=32, b_hidden=16):
        check_architecture(d_v, n_layers, activations)
        activations = activations or ("relu",) * n_layers
        self.grid = grid
        self.d_v = d_v
        self.n_layers = n_layers
        self.layers = [
            KernelLayer(d_v if i else 2, d_v, kappa_hidden, b_hidden,
                        activations[i], grid.T, seed=subseed(seed, 1 + i))
            for i in range(n_layers)
        ]
        self.Q = Mlp([d_v, 1], seed=subseed(seed, 99))
        self._weights = quadrature_weights(grid)

    # -- parameters -------------------------------------------------------

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        out.extend(self.Q.params())
        return out

    # -- forward -----------------------------------------------------------

    def _check_grid(self, U):
        if U.shape[-1] != self.grid.M + 1:
            raise ConfigurationError(
                "trajectory length %d does not match grid M=%d"
                % (U.shape[-1], self.grid.M))

    def _preactivation(self, layer, lag, v, out):
        """A layer's pre-activation at the last rows [lo, n) of a batch,
        written to out (B, n-lo, d_out), from its whole input v
        (B, n, d_in) and its lag arrays. Returns the history windows of
        w v that its integral read: row m's integral is window m against
        the lag table, both cut after the history of the last row of m's
        block (`_window_products`), whatever lo is. Every other row-wise
        term runs at every row, as a product over fewer rows need not round
        like the same rows of the whole one, so each row is the same row of
        the whole pass."""
        n = v.shape[1]
        lo = n - out.shape[1]
        hist = _history(v, self._weights)
        np.add((v @ layer.W.T)[:, lo:],
               _window_products(hist, lag.table, lo, n).transpose(1, 0, 2),
               out=out)
        out += lag.b.output[lo:]
        return hist

    def forward_batch(self, UU, start=0, prior=None):
        """Map a batch of input trajectories (B, M+1) to outputs (B, M+1).

        Returns (YY, cache); the cache stores every layer activation and
        the lag arrays of the pass, so the rate split and the backward
        pass read those of this pass. A pass from row start > 0 needs a
        prior (ValueError without one): one (cache, trajectory) per row of
        UU, an earlier pass of this operator, with the same parameters,
        over an input equal to that row before start. By causality every
        layer's rows and masks are then the same before start, so the pass
        takes those, and its lag arrays, from there, runs every layer from
        row start on and Q at every row: each row is that row of the whole
        pass, bitwise when row i's prior is trajectory i of a pass over B
        rows, and otherwise only to rounding, since a trajectory's rows can
        round differently at another place in a batch.
        """
        UU = np.atleast_2d(np.asarray(UU, dtype=float))
        self._check_grid(UU)
        B, n = UU.shape
        if prior is None:
            if start:
                raise ValueError(f"a pass from row {start} needs a prior")
            t = self.grid.times()[:, None]  # the times, which are the lags
            lags = [LagArrays(layer, t) for layer in self.layers]
        else:
            if len(prior) != B or any(
                    (c.vs[0][i, :start, 0] != U[:start]).any()
                    for (c, i), U in zip(prior, UU)):
                raise ValueError("a prior pass must give one trajectory per "
                                 f"input, equal to it before row {start}")
            lags = prior[0][0].lags
        v = np.empty((B, n, 2))
        v[..., 0], v[..., 1] = UU, 1.0
        vs, hists, masks = [v], [], []
        for li, layer in enumerate(self.layers):
            relu = layer.activation == "relu"
            z = np.empty((B, n, layer.dim_out))
            hists.append(self._preactivation(layer, lags[li], v,
                                             z[:, start:]))
            v, mask = z, np.empty(z.shape, dtype=bool) if relu else None
            if relu:
                np.greater(z[:, start:], 0.0, out=mask[:, start:])
                np.maximum(z[:, start:], 0.0, out=v[:, start:])
            for b, (c, i) in enumerate(prior if start else ()):
                v[b, :start] = c.vs[li + 1][i, :start]
                if relu:
                    mask[b, :start] = c.masks[li][i, :start]
            masks.append(mask)
            vs.append(v)
        # Q at every row, so each rounds as in the whole pass
        q_trace = self.Q.trace(v.reshape(-1, self.d_v))
        YY = q_trace.output.reshape(B, n)
        if not np.isfinite(YY).all():
            raise FloatingPointError("non-finite operator output")
        return YY, OperatorCache(lags, vs, hists, masks, q_trace)

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
        trajectory (default: 0) of a forward cache, from that pass's
        traces.

        Each lag or time network has one ReLU hidden layer, so its
        derivative is W1 (mask * W0[:, 0]), read from the masks of its
        stored trace. The kernel term of row m, sum_{j<=m} w_j dK(t_{m-j})
        v_j, runs for the blocks of rows that hold the rows asked for only:
        the trajectory's history windows of w v against the lag table's
        derivative, cut per block of rows as the forward's integral and,
        as it reads one trajectory, one GEMM per block over the block's
        copied windows (`_window_products`), so a row does not depend on
        the range on any BLAS. A one-row split thus pays for the row's
        whole block, and a split over many rows reads each panel of the
        table once per block; the boundary term K(0) v_m is one of the
        small per-row products.
        The small per-row products run over every row, as a one-row product
        need not round like the same row of the n-row one; so each entry is
        the matching entry of the split over all rows. ValueError unless
        0 <= start <= stop <= n and 0 <= trajectory < B, the pass's batch.
        """
        n = self.grid.M + 1
        stop = n if stop is None else stop
        if not 0 <= start <= stop <= n:
            raise ValueError(f"row range [{start}, {stop}) is not a range "
                             f"of the pass's {n} rows")
        B = len(cache.vs[0])
        if not 0 <= trajectory < B:
            raise ValueError(f"trajectory {trajectory} is not one of the "
                             f"pass's {B} trajectories")
        q_vec = self.Q.params()[0].ravel()

        # the tangents of the channels (U, 1) along U_m, (1, 0), and along
        # t_m, 0: through the first W, W[:, 0] at every row and 0
        A, p = self.layers[0].W[:, 0], 0.0
        for li, (layer, lag, v, hist, mask) in enumerate(zip(
                self.layers, cache.lags, cache.vs, cache.hists, cache.masks)):
            dK, K0T, db = lag.rates
            # per row: its history window of w v against the lag table's
            # derivative, both cut per block of rows
            dinteg = _window_products(hist[:, trajectory:trajectory + 1],
                                      dK, start, stop)
            if li:
                A, p = A @ layer.W.T, p @ layer.W.T
            # the boundary term K(0) v_m and the bias's time derivative;
            # rows outside [start, stop) miss their kernel term, and they
            # are never returned
            p = p + v[trajectory] @ K0T + db
            p[start:stop] += dinteg[:, 0]
            if mask is not None:
                A, p = A * mask[trajectory], p * mask[trajectory]
        lam = A @ q_vec
        if lam.ndim == 0:  # every layer linear: one Lambda for every row
            lam = np.full(n, lam)
        return lam[start:stop], (p @ q_vec)[start:stop]

    # -- training loss -----------------------------------------------------

    def loss_and_grads(self, UU, YY, l2=0.0):
        """Mean squared trajectory error with l2 weight penalty, and its
        gradients in params() order. YY must have UU's shape.

        Each layer's integral runs through its (n, d_out*d_in) lag table,
        one product per block of output rows over their cut windows, and
        the backward pass runs the same windows: no array of a step has n*n
        rows."""
        UU = np.asarray(UU, dtype=float)
        YY = np.asarray(YY, dtype=float)
        if YY.shape != UU.shape:
            raise ConfigurationError(f"target shape {YY.shape} does not "
                                     f"match input shape {UU.shape}")
        UU, YY = np.atleast_2d(UU, YY)
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
        sweep over the traces of the cached forward pass; no network runs
        forward.

        With the integral z_m = sum_{j<=m} K(t_{m-j}) (w v)_j, the kernel's
        gradient at lag k is sum_{m>=k} dz_m (w v)_{m-k}^T, one product per
        lag, and the gradient of (w v)_j is sum_{m>=j} K(t_{m-j})^T dz_m:
        reversed in time, a sum of the same form as the forward's, the
        history windows of dz against the lag table read (d_out, d_in), cut
        per block of reversed rows (`_window_products`)."""
        B, n = dY.shape
        w = self._weights

        q_grads, dvL = self.Q.reverse(cache.q_trace, dY.reshape(-1, 1))
        dv = dvL.reshape(B, n, self.d_v)

        layer_grads = []
        for li in range(self.n_layers - 1, -1, -1):
            layer, lag = self.layers[li], cache.lags[li]
            do, di = layer.dim_out, layer.dim_in
            mask = cache.masks[li]
            v_in = cache.vs[li]
            dz = dv if mask is None else dv * mask
            dW = dz.reshape(-1, do).T @ v_in.reshape(-1, di)
            b_grads, _ = layer.b.reverse(lag.b, dz.sum(axis=0))
            # lag by lag, over time-major (n*B, .) rows: dz from t_k on
            # against w v up to t_{n-1-k}
            vw_t = (v_in * w[None, :, None]).transpose(1, 0, 2) \
                .reshape(n * B, di)
            dz_t = dz.transpose(1, 0, 2).reshape(n * B, do)
            dK = np.empty((n, do, di))
            for k in range(n):
                np.matmul(dz_t[k * B:].T, vw_t[:(n - k) * B], out=dK[k])
            kappa_grads, _ = layer.kappa.reverse(lag.kappa,
                                                 dK.reshape(n, -1))
            layer_grads.append([dW] + kappa_grads + b_grads)
            if li:  # the input channels (U, 1) need no gradient
                K = lag.table.reshape(n, di, do).transpose(0, 2, 1)
                dvw = _window_products(_history(dz[:, ::-1]),
                                       K.reshape(n * do, di), 0, n)
                dv = dz @ layer.W \
                    + dvw[::-1].transpose(1, 0, 2) * w[None, :, None]

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
        kappa_hidden, kappa_in = checkpoint_tensor(tensors,
                                                   "layer0.kappa.W0").shape
        if kappa_in != 1:
            raise ConfigurationError(
                f"{path}: the operator's kernel reads {kappa_in} inputs, a "
                "pair kernel K(t_m, t_j) of an older version; the kernel is "
                "now causal, K(t_m - t_j), so retrain the model")
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

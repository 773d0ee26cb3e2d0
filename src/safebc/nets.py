"""Minimal neural substrate: MLPs (ReLU hidden layers, linear output) over
(..., d) batches with one forward pass and one reverse sweep, and Adam at a
constant learning rate.

`Mlp.trace` is the one forward pass. It stores every layer input and ReLU
mask and, given a direction d, carries the tangent J(x) . d along with the
activation pattern frozen at x. `Mlp.reverse` is the one reverse sweep over
a stored trace. It gives the parameter gradients of upstream . f(x) +
tangent_upstream . (J(x) . d) and the input gradient upstream . J(x); a
one-hot upstream yields one row of the input Jacobian. A caller that needs
several derivatives of one batch traces it once and sweeps it once.

The leading axes of an input are the batch. A (B, d) batch runs each layer
as one (B, d) product; an (R, 1, d) stack runs it as R (1, d) products, one
per stacked row, so each row is bitwise the row evaluated alone (a multi-row
product may round differently from a one-row one). Parameter gradients sum
over every leading axis.

Both passes compute each layer in place: one product, then the bias, the
ReLU and the mask applied to that product's own array. Each product and
mask is written through an `out=` array, and that is all a `WorkStore`
changes: a caller that runs many passes, such as a training loop, can hand
both passes a store it keeps, and `out=` is then the leading elements of
the store's buffer for that array, which grows only for a larger batch, so
the passes reuse their memory instead of faulting in fresh pages. Without
a store `out=` is None and numpy allocates the array. Both run the same
code, so the values are the same, bit for bit. A trace made with a store
aliases it: its layer outputs (from inputs[1] on, so the output too), its
masks and its tangents (from tangents[1] on) are store buffers, as is the
dx of a sweep with a store. Each stays valid until the next pass with that
store. inputs[0], tangents[0] and the parameter gradients never alias it.

Everything is float64 numpy. Reductions run in fixed index order so repeated
runs with the same seed are bitwise identical on the same machine.
"""

import math

import numpy as np


def subseed(seed, k):
    """Derive a child seed: flattens tuple seeds so numpy accepts them."""
    if isinstance(seed, tuple):
        return (*seed, k)
    return (seed, k)


def _as_batch(x, dim, name="x"):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != dim:
        raise ValueError(
            f"{name} must be a (..., {dim}) batch, got {x.shape}")
    return x


def _rows(a):
    """The batch's rows as one (N, d) matrix; a (B, d) batch is itself."""
    return a.reshape(-1, a.shape[-1])


def _out(store, key, shape, dtype=np.float64):
    """The `out=` array of a pass: the store's buffer for key, or None
    (numpy allocates) without a store."""
    return None if store is None else store.array(key, shape, dtype)


class WorkStore:
    """Work arrays that the passes of one caller reuse.

    Each key names one flat buffer. `array(key, shape)` returns its leading
    elements as a C-ordered array of that shape, and replaces the buffer
    only when it is too small, so a pass over a batch no larger than an
    earlier one allocates nothing. An array stays valid until the next
    request of its key.
    """

    def __init__(self):
        self._buffers = {}

    def array(self, key, shape, dtype=np.float64):
        size = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._buffers[key] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


class Trace:
    """One forward pass of an Mlp over a (..., d_in) batch.

    inputs holds the per-layer inputs as (..., .) batches: inputs[0] is x and
    the last entry the output. masks holds each hidden layer's ReLU pattern
    as a bool array, and None for the linear output layer. When the pass
    carried a direction d, tangents holds the tangent of each entry of
    inputs (tangents[-1] is J(x) . d); else it is empty.
    """

    def __init__(self, inputs, masks, tangents):
        self.inputs = inputs
        self.masks = masks
        self.tangents = tangents

    @property
    def output(self):
        """f(x), (..., d_out)."""
        return self.inputs[-1]


class Mlp:
    """Fully connected network: ReLU hidden layers, a linear output layer.

    Parameters
    ----------
    layer_dims : sequence of int
        Sizes [d_in, d_h1, ..., d_out]; at least two entries.
    seed : int or numpy seed-like
        Seeds the He-uniform weight initialization (biases start at zero).
    """

    def __init__(self, layer_dims, seed=0):
        dims = [int(d) for d in layer_dims]
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError(f"bad layer dims {layer_dims}")
        self.layer_dims = dims
        rng = np.random.default_rng(seed)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = np.sqrt(6.0 / fan_in)
            self.weights.append(
                rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))

    @property
    def in_dim(self):
        return self.layer_dims[0]

    @property
    def out_dim(self):
        return self.layer_dims[-1]

    def params(self):
        """The parameter arrays (live views) in `tensors()` order: W0, b0,
        W1, b1, ..."""
        return list(self.tensors().values())

    def forward(self, x):
        """Evaluate the network on a (..., d_in) batch."""
        return self.trace(x).output

    def trace(self, x, d=None, store=None):
        """The one forward pass over a (..., d_in) batch x, carrying the
        tangent d (same shape as x) when given, with the activation pattern
        frozen at x. At a ReLU kink the inactive subgradient (0) is used.
        With a store (a `WorkStore`), the layer arrays are the store's
        buffers, valid until its next pass.
        """
        a = _as_batch(x, self.in_dim)
        tr = Trace([a], [], [])
        u = None
        if d is not None:
            u = _as_batch(d, self.in_dim, "d")
            if u.shape != a.shape:
                raise ValueError("direction batch size does not match x")
            tr.tangents.append(u)
        batch = a.shape[:-1]
        last = len(self.weights) - 1
        for k, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = np.matmul(a, W.T, out=_out(store, ("z", k),
                                           batch + (W.shape[0],)))
            z += b
            mask = None
            if k < last:
                mask = np.greater(z, 0.0,
                                  out=_out(store, ("mask", k), z.shape, bool))
                np.maximum(z, 0.0, out=z)
            a = z
            tr.inputs.append(a)
            tr.masks.append(mask)
            if u is not None:
                u = np.matmul(u, W.T, out=_out(store, ("u", k), z.shape))
                if mask is not None:
                    u *= mask
                tr.tangents.append(u)
        return tr

    def _upstream(self, upstream, batch):
        up = _as_batch(upstream, self.out_dim, "upstream")
        if up.shape[:-1] != batch:
            raise ValueError("upstream batch size does not match x")
        return up

    def reverse(self, trace, upstream=None, tangent_upstream=None,
                param_grads=True, store=None):
        """The one reverse sweep over a trace of this network.

        Returns (grads, dx): the parameter gradients, in params() order and
        summed over the batch b (every leading axis), of
            upstream[b] . f(x[b]) + tangent_upstream[b] . (J(x[b]) . d[b])
        and dx = d/dx of the first term, (..., d_in); a missing upstream is
        zero. With a one-hot upstream, dx holds that output's row of the
        input Jacobian. The second term holds the activation masks locally
        constant (exact away from kinks), so it adds nothing to the bias
        gradients. The trace's output entry is not read. With
        param_grads=False the sweep computes dx only and grads is None; a
        tangent upstream, which only reaches the parameters, is then an
        error. With a store, the sweep's arrays, dx among them, are the
        store's buffers (two per upstream, used in turn), and the trace may
        be one made with the same store.
        """
        batch = trace.inputs[0].shape[:-1]
        delta = np.zeros(batch + (self.out_dim,)) if upstream is None \
            else self._upstream(upstream, batch)
        g = None
        if tangent_upstream is not None:
            if not param_grads:
                raise ValueError("tangent upstream needs param_grads")
            if not trace.tangents:
                raise ValueError("tangent upstream needs a traced direction")
            g = self._upstream(tangent_upstream, batch)
        n = len(self.weights)
        grads = [None] * (2 * n) if param_grads else None
        for k in range(n - 1, -1, -1):
            W = self.weights[k]
            # the final layer is linear, so the upstreams are dL/dz there
            if param_grads:
                grads[2 * k] = _rows(delta).T @ _rows(trace.inputs[k])
                grads[2 * k + 1] = _rows(delta).sum(axis=0)
            # from here on delta and g are the sweep's own arrays
            delta = np.matmul(delta, W, out=_out(store, ("delta", k % 2),
                                                 batch + (W.shape[1],)))
            if g is not None:
                grads[2 * k] += _rows(g).T @ _rows(trace.tangents[k])
                g = np.matmul(g, W, out=_out(store, ("g", k % 2),
                                             delta.shape))
            if k > 0:
                delta *= trace.masks[k - 1]
                if g is not None:
                    g *= trace.masks[k - 1]
        return grads, delta

    def tensors(self, prefix=""):
        """Every parameter array (a live view) by its checkpoint name:
        {prefix}W0, {prefix}b0, {prefix}W1, ..."""
        out = {}
        for k, (W, b) in enumerate(zip(self.weights, self.biases)):
            out[f"{prefix}W{k}"] = W
            out[f"{prefix}b{k}"] = b
        return out


class Adam:
    """Adam with bias correction at a constant learning rate."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = float(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads):
        """One in-place update. Rejects non-finite gradients."""
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ValueError("params/grads do not match optimizer state")
        for g in grads:
            if not np.all(np.isfinite(g)):
                raise ValueError("non-finite gradient; update rejected")
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)

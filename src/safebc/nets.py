"""Minimal neural substrate: ReLU/linear MLPs with one forward pass and one
reverse sweep, and an Adam optimizer with stepped learning-rate decay.

`Mlp.trace` is the one forward pass. It stores every layer input and ReLU
mask and, given a direction d, carries the tangent J(x) . d along with the
activation pattern frozen at x. `Mlp.reverse` is the one reverse sweep over
a stored trace. It gives the parameter gradients of upstream . f(x) +
tangent_upstream . (J(x) . d) and the input gradient upstream . J(x); a
one-hot upstream yields one row of the input Jacobian. A caller that needs
several derivatives of one batch traces it once and sweeps it once.

Everything is float64 numpy. Reductions run in fixed index order so repeated
runs with the same seed are bitwise identical on the same machine.
"""

from __future__ import annotations

import numpy as np

_ACTIVATIONS = ("relu", "linear")


def subseed(seed, k):
    """Derive a child seed: flattens tuple seeds so numpy accepts them."""
    if isinstance(seed, tuple):
        return (*seed, k)
    return (seed, k)


def _as_batch(x, dim, name="x"):
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"{name} must have {dim} features, got shape {x.shape}")
    return x, squeeze


class Trace:
    """One forward pass of an Mlp over a batch.

    inputs holds the per-layer inputs as (B, .) batches: inputs[0] is x and
    the last entry the output. masks holds each layer's ReLU pattern as a
    bool array (None for linear layers). When the pass carried a direction
    d, tangents holds the tangent of each entry of inputs (tangents[-1] is
    J(x) . d); else it is empty. squeeze says whether x was one sample.
    """

    def __init__(self, inputs, masks, tangents, squeeze):
        self.inputs = inputs
        self.masks = masks
        self.tangents = tangents
        self.squeeze = squeeze

    @property
    def output(self):
        """f(x), shaped like x."""
        return self.inputs[-1][0] if self.squeeze else self.inputs[-1]


class Mlp:
    """Fully connected network; the final layer is always linear.

    Parameters
    ----------
    layer_dims : sequence of int
        Sizes [d_in, d_h1, ..., d_out]; at least two entries.
    activations : sequence of str, optional
        One tag per layer from {"relu", "linear"}. Defaults to relu on every
        hidden layer and linear on the output layer.
    seed : int or numpy seed-like
        Seeds the He-uniform weight initialization (biases start at zero).
    """

    def __init__(self, layer_dims, activations=None, seed=0):
        dims = [int(d) for d in layer_dims]
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError(f"bad layer dims {layer_dims}")
        n_layers = len(dims) - 1
        if activations is None:
            activations = ["relu"] * (n_layers - 1) + ["linear"]
        activations = list(activations)
        if len(activations) != n_layers:
            raise ValueError("need one activation per layer")
        if any(a not in _ACTIVATIONS for a in activations):
            raise ValueError(f"activations must be in {_ACTIVATIONS}")
        if activations[-1] != "linear":
            raise ValueError("final layer must be linear")
        self.layer_dims = dims
        self.activations = activations
        rng = np.random.default_rng(seed)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = np.sqrt(6.0 / fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))

    @property
    def in_dim(self):
        return self.layer_dims[0]

    @property
    def out_dim(self):
        return self.layer_dims[-1]

    def params(self):
        """Parameter arrays in fixed order [W0, b0, W1, b1, ...] (live views)."""
        out = []
        for W, b in zip(self.weights, self.biases):
            out.append(W)
            out.append(b)
        return out

    def param_is_weight(self):
        """Parallel to params(): True for weight matrices, False for biases."""
        return [True, False] * len(self.weights)

    def forward(self, x):
        """Evaluate the network; x is (d_in,) or (B, d_in)."""
        return self.trace(x).output

    def trace(self, x, d=None):
        """The one forward pass over x, (d_in,) or (B, d_in), carrying the
        tangent d (same shape as x) when given, with the activation pattern
        frozen at x. At a ReLU kink the inactive subgradient (0) is used.
        """
        a, squeeze = _as_batch(x, self.in_dim)
        tr = Trace([a], [], [], squeeze)
        u = None
        if d is not None:
            u, _ = _as_batch(d, self.in_dim, "d")
            if u.shape[0] != a.shape[0]:
                raise ValueError("direction batch size does not match x")
            tr.tangents.append(u)
        for W, b, act in zip(self.weights, self.biases, self.activations):
            z = a @ W.T + b
            mask = z > 0.0 if act == "relu" else None
            a = z if mask is None else np.maximum(z, 0.0)
            tr.inputs.append(a)
            tr.masks.append(mask)
            if u is not None:
                u = u @ W.T
                u = u if mask is None else u * mask
                tr.tangents.append(u)
        return tr

    def _upstream(self, upstream, batch):
        up, _ = _as_batch(upstream, self.out_dim, "upstream")
        if up.shape[0] != batch:
            raise ValueError("upstream batch size does not match x")
        return up

    def reverse(self, trace, upstream=None, tangent_upstream=None):
        """The one reverse sweep over a trace of this network.

        Returns (grads, dx): the parameter gradients, in params() order and
        summed over the batch b, of
            upstream[b] . f(x[b]) + tangent_upstream[b] . (J(x[b]) . d[b])
        and dx = d/dx of the first term, shaped like x; a missing upstream
        is zero. With a one-hot upstream, dx holds that output's row of the
        input Jacobian. The second term holds the activation masks locally
        constant (exact away from kinks), so it adds nothing to the bias
        gradients. The trace's output entry is not read.
        """
        batch = trace.inputs[0].shape[0]
        delta = np.zeros((batch, self.out_dim)) if upstream is None \
            else self._upstream(upstream, batch)
        g = None
        if tangent_upstream is not None:
            if not trace.tangents:
                raise ValueError("tangent upstream needs a traced direction")
            g = self._upstream(tangent_upstream, batch)
        n = len(self.weights)
        grads = [None] * (2 * n)
        for k in range(n - 1, -1, -1):
            # the final layer is linear, so the upstreams are dL/dz there
            grads[2 * k] = delta.T @ trace.inputs[k]
            grads[2 * k + 1] = delta.sum(axis=0)
            delta = delta @ self.weights[k]
            if g is not None:
                grads[2 * k] += g.T @ trace.tangents[k]
                g = g @ self.weights[k]
            if k > 0 and trace.masks[k - 1] is not None:
                delta = delta * trace.masks[k - 1]
                g = None if g is None else g * trace.masks[k - 1]
        return grads, delta[0] if trace.squeeze else delta

    def tensors(self, prefix=""):
        out = {}
        for k, (W, b) in enumerate(zip(self.weights, self.biases)):
            out[f"{prefix}W{k}"] = W
            out[f"{prefix}b{k}"] = b
        return out

    def set_tensors(self, tensors, prefix=""):
        for k in range(len(self.weights)):
            W = np.asarray(tensors[f"{prefix}W{k}"], dtype=np.float64)
            b = np.asarray(tensors[f"{prefix}b{k}"], dtype=np.float64)
            self.weights[k][...] = W.reshape(self.weights[k].shape)
            self.biases[k][...] = b.reshape(self.biases[k].shape)


class Adam:
    """Adam with bias correction; the learning rate can decay by a fixed factor
    every `decay_every` epochs (applied via start_epoch)."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8,
                 decay_factor=None, decay_every=None):
        self.lr = float(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.decay_factor = decay_factor
        self.decay_every = decay_every
        if (decay_factor is None) != (decay_every is None):
            raise ValueError("decay_factor and decay_every go together")
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def start_epoch(self, epoch):
        """Apply the decay schedule on entry to 0-based `epoch`."""
        if (self.decay_factor is not None and epoch > 0
                and epoch % self.decay_every == 0):
            self.lr *= self.decay_factor

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

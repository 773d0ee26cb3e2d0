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
"""

import zlib

import numpy as np

from .checkpoint import read_checkpoint, write_checkpoint
from .nets import Mlp, subseed
from .pde_sim import ConfigurationError, TimeGrid


class CacheStaleError(RuntimeError):
    """Raised when cached activations no longer match the parameters."""


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


class KernelLayer:
    """One integral layer: local matrix W, kernel MLP, bias MLP, activation."""

    def __init__(self, dim_in, dim_out, kappa_hidden, b_hidden, activation, seed,
                 table_hidden="relu"):
        rng = np.random.default_rng(seed)
        bound = np.sqrt(6.0 / dim_in)
        self.W = rng.uniform(-bound, bound, size=(dim_out, dim_in))
        self.kappa = Mlp([2, kappa_hidden, dim_out * dim_in],
                         activations=(table_hidden, "linear"),
                         seed=subseed(seed, 1))
        self.b = Mlp([1, b_hidden, dim_out], activations=(table_hidden, "linear"),
                     seed=subseed(seed, 2))
        self.activation = activation
        self.dim_in = dim_in
        self.dim_out = dim_out

    def params(self):
        return [self.W] + self.kappa.params() + self.b.params()

    def param_is_weight(self):
        return [True] + self.kappa.param_is_weight() + self.b.param_is_weight()


class OperatorCache:
    """Activations of one forward pass, tied to a parameter fingerprint."""

    def __init__(self, fingerprint, U, vs, zs):
        self.fingerprint = fingerprint
        self.U = U
        self.vs = vs    # layer inputs: vs[0] lifted, ..., vs[L] input to Q
        self.zs = zs    # pre-activations per kernel layer


class BoundaryOperator:
    """Trajectory-to-trajectory map built from kernel integral layers."""

    def __init__(self, grid, d_v=16, n_layers=2, activations=None, seed=0,
                 kappa_hidden=32, b_hidden=16, table_hidden="relu"):
        if n_layers < 1:
            raise ConfigurationError("n_layers must be >= 1")
        if activations is None:
            activations = ("relu",) * n_layers
        if len(activations) != n_layers:
            raise ConfigurationError("one activation per layer required")
        self.grid = grid
        self.d_v = d_v
        self.n_layers = n_layers
        self.table_hidden = table_hidden
        self.P = Mlp([1, d_v], activations=("linear",), seed=subseed(seed, 0))
        self.layers = [
            KernelLayer(d_v, d_v, kappa_hidden, b_hidden, activations[i],
                        seed=subseed(seed, 1 + i), table_hidden=table_hidden)
            for i in range(n_layers)
        ]
        self.Q = Mlp([d_v, 1], activations=("linear",), seed=subseed(seed, 99))
        self._weights = trapezoid_weights(grid)
        self._tables = None
        self._dt_tables = None
        self._table_fp = None
        self._dt_table_fp = None

    # -- parameters -------------------------------------------------------

    def params(self):
        out = list(self.P.params())
        for layer in self.layers:
            out.extend(layer.params())
        out.extend(self.Q.params())
        return out

    def param_is_weight(self):
        out = list(self.P.param_is_weight())
        for layer in self.layers:
            out.extend(layer.param_is_weight())
        out.extend(self.Q.param_is_weight())
        return out

    def fingerprint(self):
        crc = zlib.crc32(np.asarray([self.grid.T, self.grid.M]).tobytes())
        for p in self.params():
            crc = zlib.crc32(p.tobytes(), crc)
        return crc

    def with_grid(self, grid):
        """Same parameters evaluated on a different time grid."""
        other = object.__new__(BoundaryOperator)
        other.__dict__.update(self.__dict__)
        other.grid = grid
        other._weights = trapezoid_weights(grid)
        other._tables = None
        other._dt_tables = None
        other._table_fp = None
        other._dt_table_fp = None
        return other

    # -- cached kernel and bias tables ------------------------------------

    def _pair_inputs(self):
        t = self.grid.times()
        n = t.size
        pairs = np.empty((n * n, 2))
        pairs[:, 0] = np.repeat(t, n)
        pairs[:, 1] = np.tile(t, n)
        return pairs

    def _build_tables(self):
        fp = self.fingerprint()
        if self._tables is not None and self._table_fp == fp:
            return self._tables
        n = self.grid.M + 1
        t = self.grid.times()
        pairs = self._pair_inputs()
        tables = []
        for layer in self.layers:
            do, di = layer.dim_out, layer.dim_in
            K = layer.kappa.forward(pairs).reshape(n, n, do, di)
            K2 = K.transpose(0, 2, 1, 3).reshape(n * do, n * di)
            b_tab = layer.b.forward(t[:, None])
            tables.append((K2, b_tab))
        self._tables = tables
        self._table_fp = fp
        return tables

    def _build_dt_tables(self):
        """Time derivatives of the kernel (in its first slot) and bias: one
        tangent pass of each table network along its time input."""
        fp = self.fingerprint()
        if self._dt_tables is not None and self._dt_table_fp == fp:
            return self._dt_tables
        n = self.grid.M + 1
        t = self.grid.times()
        pairs = self._pair_inputs()
        tables = []
        e_t = np.zeros_like(pairs)
        e_t[:, 0] = 1.0
        for layer in self.layers:
            do, di = layer.dim_out, layer.dim_in
            dK = layer.kappa.directional_derivative(pairs, e_t)
            dK2 = dK.reshape(n, n, do, di).transpose(0, 2, 1, 3) \
                .reshape(n * do, n * di)
            db_tab = layer.b.directional_derivative(t[:, None], np.ones((n, 1)))
            tables.append((dK2, db_tab))
        self._dt_tables = tables
        self._dt_table_fp = fp
        return tables

    # -- forward -----------------------------------------------------------

    def _check_grid(self, U):
        if U.shape[-1] != self.grid.M + 1:
            raise ConfigurationError(
                "trajectory length %d does not match grid M=%d"
                % (U.shape[-1], self.grid.M))

    def forward_batch(self, UU):
        """Map a batch of input trajectories (B, M+1) to outputs (B, M+1).

        Returns (YY, cache); the cache stores every layer activation so the
        derivative decomposition and backward pass can reuse them.
        """
        UU = np.atleast_2d(np.asarray(UU, dtype=float))
        self._check_grid(UU)
        B, n = UU.shape
        tables = self._build_tables()
        w = self._weights
        v = self.P.forward(UU.reshape(-1, 1)).reshape(B, n, self.d_v)
        vs = [v]
        zs = []
        for layer, (K2, b_tab) in zip(self.layers, tables):
            vw = v * w[None, :, None]
            integ = (vw.reshape(B, -1) @ K2.T).reshape(B, n, layer.dim_out)
            z = v @ layer.W.T + integ + b_tab[None]
            zs.append(z)
            v = np.maximum(z, 0.0) if layer.activation == "relu" else z
            vs.append(v)
        YY = self.Q.forward(v.reshape(-1, self.d_v)).reshape(B, n)
        cache = OperatorCache(self._table_fp, UU, vs, zs)
        if not np.all(np.isfinite(YY)):
            raise FloatingPointError("non-finite operator output")
        return YY, cache

    def forward(self, U):
        """Single-trajectory forward pass: U (M+1,) to (Y (M+1,), cache)."""
        YY, cache = self.forward_batch(np.asarray(U, dtype=float)[None])
        return YY[0], cache

    def _check_cache(self, cache):
        if cache.fingerprint != self.fingerprint():
            raise CacheStaleError(
                "cached activations predate a parameter update; rerun forward")

    def _masks(self, cache, b):
        masks = []
        for layer, z in zip(self.layers, cache.zs):
            if layer.activation == "relu":
                masks.append((z[b] > 0.0).astype(float))
            else:
                masks.append(np.ones_like(z[b]))
        return masks

    # -- derivative decomposition -----------------------------------------

    def decomposition(self, cache, batch_index=0):
        """Lambda and mu arrays over the whole grid for one cached pass."""
        self._check_cache(cache)
        n = self.grid.M + 1
        w = self._weights
        dt_tables = self._build_dt_tables()
        masks = self._masks(cache, batch_index)
        q_vec = self.Q.params()[0].ravel()

        A = np.broadcast_to(self.P.params()[0].ravel(), (n, self.d_v)).copy()
        p = np.zeros((n, self.d_v))
        for li, layer in enumerate(self.layers):
            dK2, db_tab = dt_tables[li]
            v = cache.vs[li][batch_index]
            vw = v * w[:, None]
            dinteg = (dK2 @ vw.ravel()).reshape(n, layer.dim_out)
            A = (A @ layer.W.T) * masks[li]
            p = (p @ layer.W.T + dinteg + db_tab) * masks[li]
        Lambda = A @ q_vec
        mu = p @ q_vec
        return Lambda, mu

    def time_derivative(self, U_dot, cache, m, batch_index=0):
        """Decomposition at step m and the rate Lambda[m]*U_dot[m] + mu[m]."""
        Lambda, mu = self.decomposition(cache, batch_index)
        dY = Lambda[m] * np.asarray(U_dot, dtype=float)[m] + mu[m]
        return (Lambda[m], mu[m]), dY

    # -- training loss -----------------------------------------------------

    def loss_and_grads(self, UU, YY, l2=0.0):
        """Mean squared trajectory error with l2 weight penalty."""
        UU = np.atleast_2d(np.asarray(UU, dtype=float))
        YY = np.atleast_2d(np.asarray(YY, dtype=float))
        Yhat, cache = self.forward_batch(UU)
        diff = Yhat - YY
        loss = float(np.sum(diff * diff)) / diff.size

        params = self.params()
        is_weight = self.param_is_weight()
        if l2:
            loss += l2 * sum(float(np.sum(p * p))
                             for p, wgt in zip(params, is_weight) if wgt)

        dY = (2.0 / diff.size) * diff
        grads = self._backward(cache, dY)
        if l2:
            for g, p, wgt in zip(grads, params, is_weight):
                if wgt:
                    g += 2.0 * l2 * p
        return loss, grads

    def _backward(self, cache, dY):
        """Reverse accumulation of d(loss)/d(params) given d(loss)/dY."""
        B, n = dY.shape
        w = self._weights
        tables = self._build_tables()
        t = self.grid.times()
        pairs = self._pair_inputs()

        vL = cache.vs[-1].reshape(-1, self.d_v)
        q_grads, dvL, _ = self.Q.backprop(vL, dY.reshape(-1, 1))
        dv = dvL.reshape(B, n, self.d_v)

        layer_grads = []
        for li in range(self.n_layers - 1, -1, -1):
            layer = self.layers[li]
            K2, _ = tables[li]
            z = cache.zs[li]
            v_in = cache.vs[li]
            if layer.activation == "relu":
                dz = dv * (z > 0.0)
            else:
                dz = dv
            dW = dz.reshape(-1, layer.dim_out).T @ v_in.reshape(-1, layer.dim_in)
            db_rows = dz.sum(axis=0)
            b_grads, _, _ = layer.b.backprop(t[:, None], db_rows)
            vw = v_in * w[None, :, None]
            dK2 = dz.reshape(B, -1).T @ vw.reshape(B, -1)
            dK = dK2.reshape(n, layer.dim_out, n, layer.dim_in)
            up_kappa = dK.transpose(0, 2, 1, 3).reshape(n * n, -1)
            kappa_grads, _, _ = layer.kappa.backprop(pairs, up_kappa)
            dv = dz @ layer.W
            dv += (dz.reshape(B, -1) @ K2).reshape(B, n, layer.dim_in) \
                * w[None, :, None]
            layer_grads.append([dW] + kappa_grads + b_grads)

        v0_up = dv.reshape(-1, self.d_v)
        p_grads, _, _ = self.P.backprop(cache.U.reshape(-1, 1), v0_up)

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
            "table_hidden": self.table_hidden,
        }
        write_checkpoint(path, "operator", tensors, meta)

    @classmethod
    def load(cls, path):
        kind, tensors, meta = read_checkpoint(path)
        if kind != "operator":
            raise ConfigurationError("checkpoint kind %r is not operator" % kind)
        grid = TimeGrid(float(meta["grid_T"]), int(meta["grid_M"]))
        n_layers = int(meta["n_layers"])
        d_v = int(meta["d_v"])
        activations = tuple(meta["activations"].split(","))
        kappa_hidden = tensors["layer0.kappa.W0"].shape[0]
        b_hidden = tensors["layer0.b.W0"].shape[0]
        op = cls(grid, d_v=d_v, n_layers=n_layers, activations=activations,
                 kappa_hidden=kappa_hidden, b_hidden=b_hidden,
                 table_hidden=meta.get("table_hidden", "relu"))
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

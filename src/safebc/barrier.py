"""Neural barrier function over (t, Y) with finite-time convergence constants
and the training losses that shape it.

The barrier phi maps (t, Y) to a scalar whose zero-sublevel set marks
predicted-safe boundary outputs.  The decrease condition enforced along
trajectories is

    dphi_dY * dY/dt + dphi_dt + alpha * phi + C * phi(0, Y_0) <= 0

where C = alpha / (e^{alpha T} - 1) makes the condition drive phi to zero
or below by the horizon T.  The filter and the loss enforce it as a
forward-Euler step on a grid of step dt, which bounds phi at the horizon
only when alpha * dt < 1 (`FeasibilityConstants.check_step`); the
`decrease_condition_oracle` checks the discrete form of that implication on
explicit sequences, where it holds only for some of them.

Training shapes phi with two losses, each one trace and one reverse sweep
of its own samples: `loss_safe_set` takes the class hinges and the sublevel
margin on labeled samples, and `loss_decrease_condition` the residual hinge
on rate samples together with their distinct initial values. Both take an
optional `WorkStore` for those passes. Each consumes its trace before it
returns, so the two can share one store, which then holds the larger of
their passes' arrays.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import (check_tensor_names, checkpoint_tensor,
                         read_checkpoint, write_checkpoint)
from .nets import Mlp
from .pde_sim import ConfigurationError


@dataclass(frozen=True)
class FeasibilityConstants:
    """Bundle of (alpha, T, C) fixing the decrease condition; C = alpha /
    (e^{alpha T} - 1) follows from the other fields."""

    alpha: float = 1e-5
    T: float = 5.0
    C: float = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("alpha", "T"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ConfigurationError(
                    f"{name} must be finite and positive, got {value!r}")
        C = self.alpha / np.expm1(self.alpha * self.T)
        object.__setattr__(self, "C", C)

    def check_step(self, dt):
        """ConfigurationError unless alpha * dt < 1, where the forward-Euler
        decrease condition on a grid of step dt bounds phi at the horizon
        (see `decrease_condition_oracle`)."""
        if not self.alpha * dt < 1.0:
            raise ConfigurationError(
                f"alpha * dt must be below 1, got alpha={self.alpha!r} and "
                f"dt={dt!r}, whose product is {self.alpha * dt!r}")

    def residual(self, rate, phi, phi0):
        """The decrease-condition residual rate + alpha * phi + C * phi0,
        summed in that order; rate is dphi/dt along the trajectory and phi0
        the barrier at its start. The condition holds where it is <= 0."""
        return rate + self.alpha * phi + self.C * phi0


class BarrierFunction:
    """Scalar MLP barrier phi(t, Y) with exact partial derivatives.

    Hidden layout is (16, 64, 16) ReLU with a linear scalar head over the
    input (t, Y).
    """

    def __init__(self, hidden=(16, 64, 16), seed=0):
        self.net = Mlp([2] + list(hidden) + [1], seed=seed)

    def params(self):
        return self.net.params()

    def _inputs(self, t, Y):
        shape = np.broadcast_shapes(np.shape(t), np.shape(Y))
        x = np.empty(shape + (2,))
        x[..., 0], x[..., 1] = t, Y
        return x.reshape(-1, 2), shape

    def value(self, t, Y):
        """phi at (t, Y); broadcasts and preserves the input shape."""
        x, shape = self._inputs(t, Y)
        out = self.net.forward(x)[:, 0].reshape(shape)
        return out if shape else float(out)

    def partials(self, t, Y):
        """(phi, dphi_dt, dphi_dY) at (t, Y) from one forward pass and one
        input-gradient-only reverse sweep. The points are traced as an
        (R, 1, 2) stack, so each point's values are bitwise those of the
        point alone, in any batch and in any order."""
        x, shape = self._inputs(t, Y)
        tr = self.net.trace(x.reshape(len(x), 1, 2))
        _, dx = self.net.reverse(tr, np.ones(tr.output.shape),
                                 param_grads=False)
        phi, dt_, dY_ = (a.reshape(shape) for a in (
            tr.output[:, 0, 0], dx[:, 0, 0], dx[:, 0, 1]))
        if shape:
            return phi, dt_, dY_
        return float(phi), float(dt_), float(dY_)

    def save(self, path):
        write_checkpoint(path, "bcbf", self.net.tensors())

    @classmethod
    def load(cls, path):
        kind, tensors, meta = read_checkpoint(path)
        if kind != "bcbf":
            raise ConfigurationError("checkpoint kind %r is not bcbf" % kind)
        # a barrier always reads (t, Y), so no writer puts meta in its file
        if meta:
            raise ConfigurationError(
                f"{path}: a barrier checkpoint has no meta entries, got "
                f"{', '.join(meta)}; retrain the barrier")
        # the layers are W0, b0, W1, ...: the first W missing ends them
        n_layers = next(k for k in itertools.count() if f"W{k}" not in tensors)
        hidden = [checkpoint_tensor(tensors, "W%d" % k).shape[0]
                  for k in range(n_layers - 1)]
        bar = cls(hidden=hidden)
        check_tensor_names(path, tensors, bar.net.tensors())
        bar.net.set_tensors(tensors)
        return bar


def loss_safe_set(bar, t, Y, suffix_safe_sel, unsafe_sel, lambda_S,
                  reg_weight, margin, store=None):
    """Classification hinge and sublevel margin from one pass of the
    labeled samples.

    L_S is the mean of [phi]_+ over trailing-safe samples plus the mean of
    [-phi]_+ over unsafe ones, so the loss scale does not depend on how many
    samples fall in either class. reg is the mean of [phi + margin]_+ over
    the trailing-safe samples: it pushes phi below -margin inside the safe
    class so the zero-sublevel set keeps volume instead of collapsing toward
    the decision boundary. Returns (L_S, reg, grads) with grads the gradient
    of lambda_S * L_S + reg_weight * reg. A term whose weight is not
    positive is left out and reads 0; without L_S the unsafe samples are
    not traced. Raises if both classes are empty. The pass runs in the
    store's buffers when one is given (`nets.WorkStore`); the results are
    the same bit for bit, and none of them aliases the store.
    """
    t = np.ravel(np.asarray(t, dtype=float))
    Y = np.ravel(np.asarray(Y, dtype=float))
    safe = np.ravel(np.asarray(suffix_safe_sel, dtype=bool))
    unsafe = np.ravel(np.asarray(unsafe_sel, dtype=bool))
    if not (safe.any() or unsafe.any()):
        raise ValueError("safe-set loss needs at least one labeled sample")
    unsafe = unsafe & (lambda_S > 0)
    rows = safe | unsafe
    x, _ = bar._inputs(t[rows], Y[rows])
    tr = bar.net.trace(x, store=store)
    phi = tr.output[:, 0]
    safe, unsafe = safe[rows], unsafe[rows]
    n_s, n_u = int(safe.sum()), int(unsafe.sum())
    loss, reg = 0.0, 0.0
    up = np.zeros(phi.size)
    if lambda_S > 0:
        # hinge of sign * phi per class: +1 for trailing-safe, -1 for unsafe
        for sel, n_c, sign in ((safe, n_s, 1.0), (unsafe, n_u, -1.0)):
            if n_c:
                h = sign * phi[sel]
                loss += float(np.sum(np.maximum(h, 0.0))) / n_c
                up[sel] += lambda_S * sign * (h > 0.0) / n_c
    if reg_weight > 0 and n_s:
        h = phi[safe] + margin
        reg = float(np.sum(np.maximum(h, 0.0))) / n_s
        up[safe] += reg_weight * (h > 0.0) / n_s
    grads, _ = bar.net.reverse(tr, up[:, None], store=store)
    return loss, reg, grads


def loss_decrease_condition(bar, t, Y, dY_dt, Y0, constants, store=None):
    """Hinge of the decrease-condition residual at each sample.

    Y0 carries the initial boundary value of the trajectory each sample came
    from, entering through the C * phi(0, Y0) term.  dY_dt is supplied by the
    caller (trajectory finite differences or an operator decomposition).
    The samples and the distinct (0, Y0) points are traced as one batch, the
    points with a zero direction, and swept once: each point's upstream is
    the sum of the C-term upstreams of its samples. The pass runs in the
    store's buffers when one is given (`nets.WorkStore`); the results are
    the same bit for bit, and none of them aliases the store.
    """
    t = np.ravel(np.asarray(t, dtype=float))
    Y = np.ravel(np.asarray(Y, dtype=float))
    dY_dt = np.ravel(np.asarray(dY_dt, dtype=float))
    Y0 = np.ravel(np.asarray(Y0, dtype=float))
    n = t.size
    if n == 0:
        return 0.0, [np.zeros_like(p) for p in bar.params()]

    Y0s, point = np.unique(Y0, return_inverse=True)
    k = Y0s.size
    x, _ = bar._inputs(np.concatenate([t, np.zeros(k)]),
                       np.concatenate([Y, Y0s]))
    d = np.zeros_like(x)
    d[:n, 0], d[:n, 1] = 1.0, dY_dt
    tr = bar.net.trace(x, d, store=store)
    phi = tr.output[:, 0]
    resid = constants.residual(tr.tangents[-1][:n, 0], phi[:n],
                               phi[n:][point])
    loss = float(np.sum(np.maximum(resid, 0.0))) / n

    up = (resid > 0.0).astype(float) / n
    # the directional and alpha terms reach the samples' rows, the C term
    # each point's row, summed over the samples that share it
    upstream = np.concatenate([constants.alpha * up, constants.C
                               * np.bincount(point, weights=up, minlength=k)])
    grads, _ = bar.net.reverse(tr, upstream[:, None],
                               np.concatenate([up, np.zeros(k)])[:, None],
                               store=store)
    return loss, grads


def decrease_condition_oracle(psi, dt, constants, premise_tol=0.0,
                              slack=1e-9):
    """Check the finite-time convergence implication on a sampled sequence.

    psi[m] is the barrier value along a trajectory at times m*dt.  The premise
    is the discrete residual (psi[m+1] - psi[m])/dt + alpha*psi[m] +
    C*psi[0] <= premise_tol at every step.  When the premise holds, the
    checks are that the auxiliary function g(t) = e^{alpha t} psi(t) +
    (C/alpha) e^{alpha t} psi(0) is non-increasing (within slack) and that
    psi ends negative.

    The premise is a forward-Euler step of the continuous condition, so it
    does not imply the checks for every sequence.  For alpha*dt < 1 and
    premise_tol = 0 it bounds psi[M] by psi[0] * ((1 + C/alpha) q -
    C/alpha) with q = (1 - alpha*dt)^M, and q < e^{-alpha T} makes that
    factor negative.  For psi[0] > 0 the bound is negative; for psi[0] < 0
    it is positive, and psi can end positive: alpha=0.5, T=5, M=5,
    psi[0]=-10 with every residual -0.01 ends at psi[M] = +0.53.  When
    alpha*dt is small the bound is close to 0.

    Returns a dict with fields premise_holds, g_nonincreasing, final_negative.
    """
    psi = np.ravel(np.asarray(psi, dtype=float))
    if psi.size < 2:
        raise ValueError("need at least two samples")
    alpha, C = constants.alpha, constants.C
    resid = constants.residual(np.diff(psi) / dt, psi[:-1], psi[0])
    premise = bool(np.all(resid <= premise_tol))
    out = {"premise_holds": premise, "g_nonincreasing": None,
           "final_negative": None}
    if premise:
        times = dt * np.arange(psi.size)
        g = np.exp(alpha * times) * psi + (C / alpha) * np.exp(alpha * times) \
            * psi[0]
        out["g_nonincreasing"] = bool(np.all(np.diff(g) <= slack))
        out["final_negative"] = bool(psi[-1] < 0.0)
    return out

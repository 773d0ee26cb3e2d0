"""Neural barrier function over (t, Y) with finite-time convergence constants
and the training losses that shape it.

The barrier phi maps (t, Y) (or Y alone in time-independent mode) to a scalar
whose zero-sublevel set marks predicted-safe boundary outputs.  The decrease
condition enforced along trajectories is

    dphi_dY * dY/dt + dphi_dt + alpha * phi + C * phi(0, Y_0) <= 0

where C = alpha / (e^{alpha T} - 1) for finite-horizon convergence and C = 0
for the asymptotic variant.  A trajectory satisfying the condition at every
time drives phi to zero or below by the horizon; the
`decrease_condition_oracle` checks the discrete form of that implication on
explicit sequences, where it holds only for some of them.
"""

from dataclasses import dataclass, field

import numpy as np

from .checkpoint import read_checkpoint, write_checkpoint
from .nets import Mlp
from .pde_sim import ConfigurationError


def finite_time_constant(alpha, T, asymptotic=False):
    """C = alpha / (e^{alpha T} - 1), or exactly 0 in asymptotic mode."""
    if asymptotic:
        return 0.0
    if alpha <= 0.0 or T <= 0.0:
        raise ConfigurationError("alpha and T must be positive")
    return alpha / np.expm1(alpha * T)


@dataclass(frozen=True)
class FeasibilityConstants:
    """Bundle of (alpha, T, C) fixing the decrease condition; C follows
    from the other fields."""

    alpha: float = 1e-5
    T: float = 5.0
    asymptotic: bool = False
    C: float = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "C", finite_time_constant(
            self.alpha, self.T, self.asymptotic))


class BarrierFunction:
    """Scalar MLP barrier with exact partial derivatives.

    Hidden layout is (16, 64, 16) ReLU with a linear scalar head; the input
    is (t, Y) when time_dependent else just Y.
    """

    def __init__(self, time_dependent, hidden=(16, 64, 16), seed=0):
        self.time_dependent = bool(time_dependent)
        in_dim = 2 if self.time_dependent else 1
        dims = [in_dim] + list(hidden) + [1]
        self.net = Mlp(dims, seed=seed)

    def params(self):
        return self.net.params()

    def _inputs(self, t, Y):
        Y = np.asarray(Y, dtype=float)
        if self.time_dependent:
            t = np.asarray(t, dtype=float)
            t, Y = np.broadcast_arrays(t, Y)
            x = np.stack([np.ravel(t), np.ravel(Y)], axis=1)
        else:
            x = np.ravel(Y)[:, None]
        return x, Y.shape

    def value(self, t, Y):
        """phi at (t, Y); broadcasts and preserves the input shape."""
        x, shape = self._inputs(t, Y)
        out = self.net.forward(x)[:, 0].reshape(shape)
        return out if shape else float(out)

    def partials(self, t, Y):
        """(phi, dphi_dt, dphi_dY) at (t, Y) from one forward and reverse
        pass; dphi_dt is exactly 0 in time-independent mode."""
        x, shape = self._inputs(t, Y)
        tr = self.net.trace(x)
        _, dx = self.net.reverse(tr, np.ones((x.shape[0], 1)))
        phi = tr.output[:, 0].reshape(shape)
        if self.time_dependent:
            dt_ = dx[:, 0].reshape(shape)
            dY_ = dx[:, 1].reshape(shape)
        else:
            dt_ = np.zeros(shape)
            dY_ = dx[:, 0].reshape(shape)
        if shape:
            return phi, dt_, dY_
        return float(phi), float(dt_), float(dY_)

    def save(self, path):
        meta = {"time_dependent": "1" if self.time_dependent else "0"}
        write_checkpoint(path, "bcbf", self.net.tensors(), meta)

    @classmethod
    def load(cls, path):
        kind, tensors, meta = read_checkpoint(path)
        if kind != "bcbf":
            raise ConfigurationError("checkpoint kind %r is not bcbf" % kind)
        time_dependent = meta.get("time_dependent", "1") == "1"
        n_layers = len([k for k in tensors if k.startswith("W")])
        hidden = [tensors["W%d" % k].shape[0] for k in range(n_layers - 1)]
        bar = cls(time_dependent=time_dependent, hidden=hidden)
        bar.net.set_tensors(tensors)
        return bar


def _zero_grads(bar):
    return [np.zeros_like(p) for p in bar.params()]


def _accumulate(total, extra):
    for g, e in zip(total, extra):
        g += e
    return total


def loss_safe_set(bar, t, Y, suffix_safe_sel, unsafe_sel):
    """Classification hinge: phi <= 0 on trailing-safe samples, >= 0 on unsafe.

    Each class contributes the mean of its hinge so the loss scale does not
    depend on how many samples fall in either class.  Raises if both classes
    are empty.
    """
    t = np.ravel(np.asarray(t, dtype=float))
    Y = np.ravel(np.asarray(Y, dtype=float))
    suffix_safe_sel = np.ravel(np.asarray(suffix_safe_sel, dtype=bool))
    unsafe_sel = np.ravel(np.asarray(unsafe_sel, dtype=bool))
    n_s = int(suffix_safe_sel.sum())
    n_u = int(unsafe_sel.sum())
    if n_s == 0 and n_u == 0:
        raise ValueError("safe-set loss needs at least one labeled sample")
    loss = 0.0
    grads = _zero_grads(bar)
    # hinge of sign * phi per class: +1 for trailing-safe, -1 for unsafe
    for sel, n_c, sign in ((suffix_safe_sel, n_s, 1.0),
                           (unsafe_sel, n_u, -1.0)):
        if n_c:
            x, _ = bar._inputs(t[sel], Y[sel])
            tr = bar.net.trace(x)
            phi = sign * tr.output[:, 0]
            loss += float(np.sum(np.maximum(phi, 0.0))) / n_c
            up = sign * (phi > 0.0).astype(float)[:, None] / n_c
            _accumulate(grads, bar.net.reverse(tr, up)[0])
    return loss, grads


def loss_decrease_condition(bar, t, Y, dY_dt, Y0, constants):
    """Hinge of the decrease-condition residual at each sample.

    Y0 carries the initial boundary value of the trajectory each sample came
    from, entering through the C * phi(0, Y0) term.  dY_dt is supplied by the
    caller (trajectory finite differences or an operator decomposition).
    """
    t = np.ravel(np.asarray(t, dtype=float))
    Y = np.ravel(np.asarray(Y, dtype=float))
    dY_dt = np.ravel(np.asarray(dY_dt, dtype=float))
    Y0 = np.ravel(np.asarray(Y0, dtype=float))
    n = t.size
    if n == 0:
        return 0.0, _zero_grads(bar)

    x, _ = bar._inputs(t, Y)
    x0, _ = bar._inputs(np.zeros(n), Y0)
    if bar.time_dependent:
        d = np.stack([np.ones(n), dY_dt], axis=1)
    else:
        d = dY_dt[:, None]
    tr = bar.net.trace(x, d)
    tr0 = bar.net.trace(x0)
    resid = tr.tangents[-1][:, 0] + constants.alpha * tr.output[:, 0] \
        + constants.C * tr0.output[:, 0]
    loss = float(np.sum(np.maximum(resid, 0.0))) / n

    up = (resid > 0.0).astype(float)[:, None] / n
    grads = _zero_grads(bar)
    # the directional and alpha terms share one sweep of x; the C term of
    # x0 is added to their sum
    ga, _ = bar.net.reverse(tr, constants.alpha * up, up)
    _accumulate(grads, ga)
    gc, _ = bar.net.reverse(tr0, constants.C * up)
    _accumulate(grads, gc)
    return loss, grads


def loss_sublevel_margin(bar, t, Y, margin=0.1):
    """Mean of [phi + margin]_+ over trailing-safe samples.

    Pushes phi below -margin inside the safe class so the zero-sublevel set
    keeps volume instead of collapsing toward the decision boundary.
    """
    t = np.ravel(np.asarray(t, dtype=float))
    Y = np.ravel(np.asarray(Y, dtype=float))
    n = t.size
    if n == 0:
        return 0.0, _zero_grads(bar)
    x, _ = bar._inputs(t, Y)
    tr = bar.net.trace(x)
    phi = tr.output[:, 0]
    loss = float(np.sum(np.maximum(phi + margin, 0.0))) / n
    up = (phi + margin > 0.0).astype(float)[:, None] / n
    grads, _ = bar.net.reverse(tr, up)
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
    does not imply the checks for every sequence.  For alpha*dt < 1, C > 0
    and premise_tol = 0 it bounds psi[M] by psi[0] * ((1 + C/alpha) q -
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
    resid = np.diff(psi) / dt + alpha * psi[:-1] + C * psi[0]
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

"""Shared reference implementations used by several test modules.

`whole_trajectory_filter` is the safety filter as a plain loop that predicts
the whole trajectory (output and rate split at every row) before each step
it reads a changed input at; the filter proper must match it.

The operator's time derivative differentiates the output-time slot only: the
kernel's first argument, the bias, and the local path through U(t).  The
matching finite-difference oracle therefore evaluates the operator at
perturbed output times while keeping the integration nodes (and the layer
activations stored at them) frozen.
"""

import numpy as np

from safebc.neural_operator import trapezoid_weights
from safebc.safety_filter import (FilterInfeasibleError, FilterReport,
                                  StepRecord, qp_filter_step,
                                  rate_to_trajectory)


def whole_trajectory_filter(operator, bcbf, U_nominal, config):
    """`filter_trajectory` with a full `predict` (Y, Lambda and mu at every
    row) before the first step and after each step that changed the input,
    and a `forward` at the end when the last prediction is stale."""
    U_nom = np.asarray(U_nominal, dtype=float)
    grid = operator.grid
    n = grid.M + 1
    if U_nom.shape != (n,):
        raise ValueError(f"nominal trajectory has shape {U_nom.shape}")
    dt = grid.dt
    times = grid.times()
    du_nom = np.diff(U_nom)
    du_safe = du_nom.copy()
    U_safe = U_nom.copy()

    Y_pred, Lambda, mu = operator.predict(U_safe)
    phi0 = float(bcbf.value(0.0, U_nom[0]))

    records = []
    stale = False
    for m in range(1, n):
        if stale:
            Y_pred, Lambda, mu = operator.predict(U_safe)
            stale = False
        phi, dphi_dt, dphi_dY = bcbf.partials(times[m], Y_pred[m])
        step = qp_filter_step(dphi_dt, dphi_dY, phi, phi0,
                              (Lambda[m], mu[m]), config.constants,
                              du_nom[m - 1] / dt)
        if step.infeasible and config.infeasible_policy == "abort":
            raise FilterInfeasibleError(m)
        du_qp = step.u_dot_safe * dt
        if step.infeasible:
            executed, accepted = du_nom[m - 1], False
        elif not step.constraint_active:
            executed, accepted = du_nom[m - 1], True
        elif abs(du_qp - du_nom[m - 1]) <= config.eta:
            executed, accepted = du_qp, True
        else:
            executed, accepted = du_nom[m - 1], False
        if executed != du_safe[m - 1]:
            du_safe[m - 1] = executed
            U_safe = rate_to_trajectory(du_safe, U_nom[0])
            stale = True
        records.append(StepRecord(m, float(du_nom[m - 1]), float(du_qp),
                                  accepted, step.constraint_active,
                                  step.infeasible))
    if stale:
        Y_pred = operator.forward(U_safe)
    return FilterReport(records, U_safe, Y_pred)


def frozen_quadrature_eval(op, cache, u_func, t, batch=0):
    """Operator output at an arbitrary output time.

    Returns (value, signs) where signs collects the sign pattern of every
    ReLU argument touched by the evaluation (layer activations and the
    hidden layers of the table networks); comparing patterns across nearby
    times detects kink crossings exactly.
    """
    w = trapezoid_weights(op.grid)
    nodes = op.grid.times()
    n = nodes.size
    signs = []
    v_t = op.P.forward(np.array([[float(u_func(t))]]))[0]
    for li, layer in enumerate(op.layers):
        v_nodes = cache.vs[li][batch]
        pairs = np.empty((n, 2))
        pairs[:, 0] = t
        pairs[:, 1] = nodes
        if layer.kappa.activations[0] == "relu":
            W0, b0 = layer.kappa.params()[0], layer.kappa.params()[1]
            signs.append((pairs @ W0.T + b0 > 0.0).ravel())
        K = layer.kappa.forward(pairs).reshape(n, layer.dim_out, layer.dim_in)
        integ = np.einsum("j,joi,ji->o", w, K, v_nodes)
        if layer.b.activations[0] == "relu":
            W0, b0 = layer.b.params()[0], layer.b.params()[1]
            signs.append((np.array([[t]]) @ W0.T + b0 > 0.0).ravel())
        z = layer.W @ v_t + integ + layer.b.forward(np.array([[t]]))[0]
        if layer.activation == "relu":
            signs.append(z > 0.0)
            v_t = np.maximum(z, 0.0)
        else:
            v_t = z
    value = float(op.Q.forward(v_t[None])[0, 0])
    return value, np.concatenate(signs) if signs else np.zeros(0, dtype=bool)


def rate_identity_check(op, u_func, du_func, h=1e-5, rel_tol=1e-3):
    """Compare Lambda*U_dot + mu against the frozen-quadrature central
    difference at every grid step.

    Returns (n_pass, n_offkink, n_total); a step counts as off-kink when the
    ReLU sign patterns at t-h, t, t+h all agree.
    """
    t_nodes = op.grid.times()
    U = np.array([u_func(t) for t in t_nodes])
    _, lam, mu = op.predict(U)
    _, cache = op.forward_batch(U[None])
    n_pass = n_off = 0
    for m, t in enumerate(t_nodes):
        lo, s_lo = frozen_quadrature_eval(op, cache, u_func, t - h)
        hi, s_hi = frozen_quadrature_eval(op, cache, u_func, t + h)
        _, s_mid = frozen_quadrature_eval(op, cache, u_func, t)
        if not (np.array_equal(s_lo, s_mid) and np.array_equal(s_mid, s_hi)):
            continue
        n_off += 1
        fd = (hi - lo) / (2.0 * h)
        model = lam[m] * du_func(t) + mu[m]
        if abs(fd - model) <= rel_tol * max(abs(fd), 1e-9):
            n_pass += 1
    return n_pass, n_off, t_nodes.size

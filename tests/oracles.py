"""Shared reference implementations used by several test modules.

`sequential_rollout` is the rollout loop one episode at a time, raising at
the first non-finite step; each row of a batched `rollout` must equal it.

`loop_step_hyperbolic` is the transport step on one state, each upwind
substep as whole-array expressions over its points; `step_hyperbolic`,
which steps a point-major copy of its states in place, must equal it
bitwise on every state.

`impulse_response` gives the plant's exact linear map from two rollouts:
both plants are linear and time-invariant, so Y = H @ U with H built from
the response g to U[0] (which also sets the initial profile) and the
impulse response h to one later input step.

`loss_safe_set`, `loss_sublevel_margin` and `loss_decrease_condition` are
the barrier losses with one trace and one reverse sweep per class and per
term, and one (0, Y0) row per rate sample; the one-pass losses of
`safebc.barrier` must match them.

`dense_loss_and_grads` is the operator's training step through each layer's
whole causal Toeplitz kernel table; the step proper, which runs through the
(n, d_out*d_in) lag table alone, must match it to round-off.

`cell_table_text`, `cell_checkpoint_text` and `cell_dataset_text` write
the file formats one cell at a time (a table's integer cell as
`str(int(v))`, any other one as `format(float(v), ".17g")`, a checkpoint
value as the hex of its `struct.pack(">d", v)` bytes), and
`cell_read_table`, `cell_read_checkpoint` and `cell_read_dataset` parse
them one cell at a time with `int`, `float` or `struct.unpack`; the
columnar writers of `safebc.checkpoint` must write the same bytes, and its
readers, which decode a tensor in one call and parse the rows of a block of
table lines per `np.loadtxt` call, the same values.

`whole_trajectory_filter` is the safety filter as a plain loop that predicts
the whole trajectory (output and rate split at every row) before each step
it reads a changed input at; the filter proper must match it.

The operator's time derivative differentiates the output time only: the
kernel's lag t - t_j, the integral's last panel, the bias, and the local
path through U(t).  The matching finite-difference oracle therefore
evaluates the operator at perturbed output times while keeping the
integration nodes (and the layer activations stored at them) and the causal
mask [j <= m] frozen, with the last panel growing from t_m.
"""

import struct

import numpy as np

from safebc.checkpoint import CheckpointError, DatasetFormatError
from safebc.neural_operator import quadrature_weights
from safebc.pde_sim import (FromFile, HyperbolicConfig,
                            SimulationDivergedError, rollout,
                            TimeGrid, step_hyperbolic, step_parabolic)
from safebc.safety_filter import (FilterInfeasibleError, FilterReport,
                                  StepRecord, qp_filter_step,
                                  rate_to_trajectory)
from safebc.trajectories import parse_safe_set


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
            U_safe[m:] = rate_to_trajectory(du_safe[m - 1:],
                                            U_safe[m - 1])[1:]
            stale = True
        records.append(StepRecord(m, float(du_nom[m - 1]), float(du_qp),
                                  accepted, step.constraint_active,
                                  step.infeasible))
    if stale:
        Y_pred = operator.forward(U_safe)
    return FilterReport(records, U_safe, Y_pred)


def frozen_quadrature_eval(op, cache, u_func, t, m, batch=0):
    """Operator output at an arbitrary output time t near step m.

    The integration nodes t_j, the layer activations stored at them and the
    causal mask [j <= m] stay frozen, and the last panel grows from t_m:
    layer l's integral is sum_{j <= m} w_j K(t - t_j) v_j
    + (t - t_m) K(t - t_m) v_m, which at t = t_m is the operator's.
    Returns (value, signs) where signs collects the sign pattern of every
    ReLU argument touched by the evaluation (layer activations and the
    hidden layers of the lag and time networks); comparing patterns across
    nearby times detects kink crossings exactly.
    """
    w = quadrature_weights(op.grid)[:m + 1]
    nodes = op.grid.times()[:m + 1]
    signs = []
    v_t = np.array([float(u_func(t)), 1.0])
    for li, layer in enumerate(op.layers):
        v_nodes = cache.vs[li][batch][:m + 1]
        lags = (t - nodes)[:, None]
        # the lag and time networks' one hidden layer is ReLU
        W0, b0 = layer.kappa.params()[0], layer.kappa.params()[1]
        signs.append((lags @ W0.T + b0 > 0.0).ravel())
        K = layer.kappa.forward(lags).reshape(m + 1, layer.dim_out,
                                              layer.dim_in)
        integ = np.einsum("j,joi,ji->o", w, K, v_nodes) \
            + (t - nodes[m]) * (K[m] @ v_nodes[m])
        W0, b0 = layer.b.params()[0], layer.b.params()[1]
        signs.append((np.array([[t]]) @ W0.T + b0 > 0.0).ravel())
        z = layer.W @ v_t + integ + layer.b.forward(np.array([[t]]))[0]
        if layer.activation == "relu":
            signs.append(z > 0.0)
            v_t = np.maximum(z, 0.0)
        else:
            v_t = z
    value = float(op.Q.forward(v_t[None])[0, 0])
    return value, np.concatenate(signs)


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
        (lo, s_lo), (_, s_mid), (hi, s_hi) = (
            frozen_quadrature_eval(op, cache, u_func, t + s, m)
            for s in (-h, 0.0, h))
        if not (np.array_equal(s_lo, s_mid) and np.array_equal(s_mid, s_hi)):
            continue
        n_off += 1
        fd = (hi - lo) / (2.0 * h)
        model = lam[m] * du_func(t) + mu[m]
        if abs(fd - model) <= rel_tol * max(abs(fd), 1e-9):
            n_pass += 1
    return n_pass, n_off, t_nodes.size


def dense_loss_and_grads(op, UU, YY, l2=0.0):
    """`BoundaryOperator.loss_and_grads` through each layer's whole causal
    Toeplitz kernel table K2 (n*d_out, n*d_in), whose block (m, j) is
    K(t_{m-j}) for j <= m and zero above the diagonal, built once from a
    trace of the kernel network on the n lags and used in both passes; the
    kernel's gradient at lag k sums the blocks of K2's gradient on the k-th
    block diagonal. `loss_and_grads` never builds K2."""
    UU = np.atleast_2d(np.asarray(UU, dtype=float))
    YY = np.atleast_2d(np.asarray(YY, dtype=float))
    B, n = UU.shape
    w = quadrature_weights(op.grid)
    t = op.grid.times()[:, None]

    v = np.stack([UU, np.ones_like(UU)], axis=-1)
    vs, masks, tables = [v], [], []
    for layer in op.layers:
        do, di = layer.dim_out, layer.dim_in
        kappa_trace = layer.kappa.trace(t)
        b_trace = layer.b.trace(t)
        K = kappa_trace.output.reshape(n, do, di)
        K2 = np.zeros((n, do, n, di))
        for m in range(n):
            for j in range(m + 1):
                K2[m, :, j] = K[m - j]
        K2 = K2.reshape(n * do, n * di)
        tables.append((kappa_trace, b_trace, K2))
        vw = v * w[None, :, None]
        z = v @ layer.W.T + (vw.reshape(B, -1) @ K2.T).reshape(B, n, do) \
            + b_trace.output
        masks.append(z > 0.0 if layer.activation == "relu" else None)
        v = np.maximum(z, 0.0) if layer.activation == "relu" else z
        vs.append(v)
    q_trace = op.Q.trace(v.reshape(-1, op.d_v))
    diff = q_trace.output.reshape(B, n) - YY
    loss = float(np.sum(diff * diff)) / diff.size
    params = op.params()
    if l2:
        loss += l2 * sum(float(np.sum(p * p))
                         for p in params if p.ndim == 2)

    dY = (2.0 / diff.size) * diff
    q_grads, dv = op.Q.reverse(q_trace, dY.reshape(-1, 1))
    dv = dv.reshape(B, n, op.d_v)
    layer_grads = []
    for li in range(op.n_layers - 1, -1, -1):
        layer = op.layers[li]
        kappa_trace, b_trace, K2 = tables[li]
        do, di = layer.dim_out, layer.dim_in
        dz = dv if masks[li] is None else dv * masks[li]
        v_in = vs[li]
        dW = dz.reshape(-1, do).T @ v_in.reshape(-1, di)
        b_grads, _ = layer.b.reverse(b_trace, dz.sum(axis=0))
        vw = v_in * w[None, :, None]
        dK2 = (dz.reshape(B, -1).T @ vw.reshape(B, -1)).reshape(n, do, n, di)
        up = np.zeros((n, do, di))
        for m in range(n):
            for j in range(m + 1):
                up[m - j] += dK2[m, :, j]
        kappa_grads, _ = layer.kappa.reverse(kappa_trace, up.reshape(n, -1))
        layer_grads.append([dW] + kappa_grads + b_grads)
        dv = dz @ layer.W + (dz.reshape(B, -1) @ K2).reshape(B, n, di) \
            * w[None, :, None]
    grads = [g for lg in reversed(layer_grads) for g in lg] + q_grads
    if l2:
        for g, p in zip(grads, params):
            if p.ndim == 2:
                g += 2.0 * l2 * p
    return loss, grads


def sequential_rollout(env_cfg, controller, U0, episode_seed=None):
    """One closed-loop episode as a plain loop over single-state steps:
    `(U, Y, states)` of shapes (M+1,), (M+1,) and (M+1, n_points).

    Raises SimulationDivergedError, with .step the first step whose input
    or state is not finite, when the controller or the plant blows up; the
    batched `rollout` must match it row by row."""
    grid = env_cfg.grid
    step = step_hyperbolic if isinstance(env_cfg, HyperbolicConfig) \
        else step_parabolic
    out = env_cfg.output_index
    states = np.empty((grid.M + 1, env_cfg.n_points))
    states[0] = float(U0)
    U = np.empty(grid.M + 1)
    U[0] = float(U0)
    # the controller drives a batch of one
    episodes = controller.start(np.array([float(U0)]), grid, [episode_seed])
    for m in range(1, grid.M + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            u_m = float(controller.control(episodes, m, m * grid.dt,
                                           states[m - 1, [out]])[0])
            if not np.isfinite(u_m):
                raise SimulationDivergedError("input diverged", step=m)
            states[m] = step(states[m - 1], u_m, env_cfg)
        if not np.all(np.isfinite(states[m])):
            raise SimulationDivergedError("step diverged", step=m)
        U[m] = u_m
    return U, states[:, out].copy(), states


def loop_step_hyperbolic(state, u_boundary, cfg):
    """One grid step of one (n_points,) transport plant state: each of the
    cfg.substeps upwind substeps adds r * (u_{i+1} - u_i) + dt_sub * beta
    * u_0 to points 0..N-2, then writes the ramped boundary value into the
    last point."""
    u = np.asarray(state, dtype=np.float64)
    b = float(u_boundary)
    n_sub = cfg.substeps
    dt_sub = cfg.grid.dt / n_sub
    r = dt_sub / cfg.dx
    b_prev = u[-1]
    new = u.copy()
    for j in range(1, n_sub + 1):
        incr = r * (new[1:] - new[:-1]) + dt_sub * cfg.beta * new[:1]
        new[:-1] += incr
        new[-1] = b_prev + (j / n_sub) * (b - b_prev)
    return new


def impulse_response(env_cfg):
    """(g, h): the output for U = e_0 from the profile 1, and for U = e_1
    from the profile 0, each (M+1,)."""
    e = np.eye(env_cfg.grid.M + 1)
    g, h = rollout(env_cfg, [FromFile(e[0]), FromFile(e[1])], [1.0, 0.0]).Y
    return g, h


def plant_matrix(env_cfg):
    """The (M+1, M+1) lower-triangular H with Y = H @ U for any input U
    whose rollout starts from the profile U[0]."""
    g, h = impulse_response(env_cfg)
    n = g.size
    H = np.zeros((n, n))
    H[:, 0] = g
    for j in range(1, n):
        H[j:, j] = h[1:n - j + 1]
    return H


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
    tr = bar.net.trace(x, np.stack([np.ones(n), dY_dt], axis=1))
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


def _cell(value):
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))
    return format(float(value), ".17g")


def cell_table_text(columns, rows, comments=()):
    """A table's text: comment lines, the header, then one line per row of
    cells."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(columns))
    lines.extend(",".join(map(_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def cell_read_table(path, types=None):
    """(header, rows, comments) of a table file; `types` holds one callable
    per column that converts its cells (default float)."""
    header, rows, comments = None, [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                comments.append(line[1:].strip())
                continue
            cells = line.split(",")
            if header is None:
                header = tuple(cells)
                convert = types if types is not None else [float] * len(header)
                continue
            try:
                rows.append(tuple([f(c) for f, c in zip(convert, cells,
                                                        strict=True)]))
            except ValueError:
                raise DatasetFormatError(path, f"bad row {line!r}",
                                         lineno) from None
    if header is None:
        raise DatasetFormatError(path, "missing header")
    return header, rows, comments


def cell_checkpoint_text(kind, tensors, meta=None):
    lines = [f"CKPT v2 kind={kind}"]
    lines.extend(f"meta {key} {value}" for key, value in (meta or {}).items())
    for name, arr in tensors.items():
        a = np.atleast_2d(np.asarray(arr, dtype=np.float64))
        lines.append(f"{name} {a.shape[0]} {a.shape[1]}")
        lines.extend(" ".join(struct.pack(">d", v).hex() for v in row)
                     for row in a)
    return "\n".join(lines) + "\n"


def cell_read_checkpoint(path):
    """(kind, tensors, meta) of a checkpoint file; tensors come out 2-D."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    kind = lines[0].split("kind=", 1)[1]
    meta, tensors = {}, {}
    i = 1
    while i < len(lines) and lines[i].startswith("meta "):
        _, key, value = lines[i].split(" ", 2)
        meta[key] = value
        i += 1
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        name, rows, cols = lines[i].split()
        data = np.empty((int(rows), int(cols)))
        for r in range(int(rows)):
            i += 1
            if i >= len(lines):
                raise CheckpointError(f"{path}: truncated tensor {name!r}")
            values = lines[i].split()
            if len(values) != int(cols):
                raise CheckpointError(f"{path}:{i + 1}: expected {cols} "
                                      f"values, got {len(values)}")
            for c, v in enumerate(values):
                data[r, c], = struct.unpack(">d", bytes.fromhex(v))
        tensors[name] = data
        i += 1
    return kind, tensors, meta


DATASET_TYPES = (int, int, float, float)


def cell_dataset_text(dataset):
    comments = [f"{key}={value}" for key, value in dataset.meta.items()]
    comments += [f"safe_set={dataset.safe_set.describe()}",
                 f"grid_T={_cell(dataset.grid.T)}",
                 f"grid_M={dataset.grid.M}"]
    rows = [(k, m, u, y) for k, cols in enumerate(zip(dataset.U, dataset.Y))
            for m, (u, y) in enumerate(zip(*cols))]
    return cell_table_text(("traj_id", "step", "U", "Y"), rows, comments)


def cell_read_dataset(path):
    """(grid, U, Y, safe_set, meta) of a dataset file, its rows read one at
    a time, each at the (trajectory, step) its place in the file gives."""
    _, rows, comments = cell_read_table(path, DATASET_TYPES)
    meta = dict(c.split("=", 1) for c in comments if "=" in c)
    grid = TimeGrid(float(meta.pop("grid_T")), int(meta.pop("grid_M")))
    safe_set = parse_safe_set(meta.pop("safe_set"))
    width = grid.M + 1
    if len(rows) % width:
        raise DatasetFormatError(path, f"{len(rows)} rows, not whole "
                                 f"trajectories of {width} steps")
    U = np.empty((len(rows) // width, width))
    Y = np.empty_like(U)
    for r, (traj_id, step, u, y) in enumerate(rows):
        if (traj_id, step) != divmod(r, width):
            raise DatasetFormatError(path, f"row {r} is step {step} of "
                                     f"trajectory {traj_id}")
        U[traj_id, step], Y[traj_id, step] = u, y
    return grid, U, Y, safe_set, meta

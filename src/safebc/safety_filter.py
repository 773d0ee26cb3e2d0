"""Input-rate safety filter.

At each time step the nominal boundary input rate is projected onto the
half-line where the barrier decrease condition

    dphi_dY * (Lambda * u_dot + mu) + dphi_dt + alpha * phi + C * phi0 <= 0

holds.  The decision variable is scalar, so the projection is closed form:
keep the nominal rate when it already satisfies the constraint, otherwise
move to the boundary -c/a.  The trajectory-level procedure walks the grid
left to right and only accepts a modification when the per-step input change
stays within a threshold eta.  It walks a whole batch of trajectories at
once: each step makes one operator forward over the rows whose input the
step before changed.  The operator is causal, so a change at step m-1,
which moves the input from row m-1 on, leaves every earlier row of every
layer as it was: such a re-forward runs from row m-1 on only, taking the
earlier rows from the prediction before, and the row keeps that
prediction's earlier outputs.  A row keeps its current prediction, and the
rate split and the barrier's partials are evaluated once per prediction:
at its first step alone, then over the rest of its trajectory at its
second step. So a step makes at most one barrier pass, over every
(row, step) pair that a new or second-step prediction needs, and none when
no prediction is new.
The walk runs to the end, and the abort policy is checked after it.

The condition is a forward-Euler step of the continuous one, which bounds
phi at the horizon only when alpha * dt < 1; a walk whose constants do not
meet its grid that way raises ConfigurationError before it starts.

Step bookkeeping is in per-step increments dU = u_dot * dt: reports store
dU values and eta is compared against |dU_qp - dU_nominal|.

The walk reads an operator through this surface alone, which any operator
class the filter runs must give:

- `grid`, the `TimeGrid` of its inputs and outputs;
- `forward_batch(UU, start, prior)`, the outputs of a (B, M+1) batch of
  inputs as (Y, cache), exact at rows start..M. `start` defaults to 0;
  from a later start, `prior` gives one (cache, trajectory) per row of
  UU, an earlier pass over an input equal to that row before `start`,
  which the pass may read its earlier rows from. The outputs must be
  causal, bit for bit: rows 0..k-1 of the outputs of two inputs that
  agree at rows 0..k-1 are equal, so the walk keeps them from an earlier
  pass;
- `decomposition(cache, start, stop, trajectory)`, the rate split
  (Lambda, mu) at rows start..stop-1 of one trajectory of a cache.

Evaluation's `_load_models` also reads the class's `load(path)`, and
checks `grid` against the environment's.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .barrier import FeasibilityConstants
from .checkpoint import ConfigurationError, write_table

INFEASIBLE_POLICIES = ("fallback-nominal", "abort")


class FilterInfeasibleError(RuntimeError):
    """Raised under the abort policy at an unsatisfiable step; row is the
    batch row, and an episode, once set, is named in the message."""

    def __init__(self, step, row=0):
        super().__init__(step, row)
        self.step, self.row, self.episode = step, row, None

    def __str__(self):
        where = "" if self.episode is None else f" of episode {self.episode}"
        return f"constraint unsatisfiable at step {self.step}{where}"


@dataclass
class FilterConfig:
    constants: FeasibilityConstants = field(
        default_factory=FeasibilityConstants)
    eta: float = 2.0
    infeasible_policy: str = "fallback-nominal"

    def __post_init__(self):
        if not self.eta >= 0:
            raise ConfigurationError(f"eta must be >= 0, got {self.eta!r}")
        if self.infeasible_policy not in INFEASIBLE_POLICIES:
            raise ConfigurationError(
                f"unknown infeasible policy {self.infeasible_policy!r}")


@dataclass
class QpStep:
    u_dot_safe: float
    constraint_active: bool
    infeasible: bool


@dataclass
class StepRecord:
    """One filtering decision; du values are per-step increments."""
    step: int
    du_nom: float
    du_qp: float
    accepted: bool
    active: bool
    infeasible: bool


@dataclass
class FilterReport:
    records: list
    U_safe: np.ndarray
    Y_predicted: np.ndarray

    def write_csv(self, path):
        """One row per step, columns as the StepRecord fields."""
        write_table(path, {f.name: np.array([getattr(r, f.name)
                                             for r in self.records])
                           for f in fields(StepRecord)})

    @property
    def n_modified(self):
        return sum(1 for r in self.records
                   if r.active and r.accepted and not r.infeasible)


def qp_filter_step(dphi_dt, dphi_dY, phi, phi0, decomp, constants,
                   u_dot_nominal):
    """Closed-form scalar projection onto the feasible half-line.

    decomp is the (Lambda, mu) pair of the output-rate decomposition at the
    step under consideration.  Returns the projected rate plus flags; when
    the constraint cannot be satisfied (a == 0, c > 0) the nominal rate is
    returned with the infeasible flag set and the caller applies its policy.
    A boundary -c/a that is not finite (a subnormal, or non-finite inputs)
    counts as unsatisfiable too, so the returned rate is always the nominal
    one or finite.
    """
    Lambda, mu = decomp
    # Python floats: the division below overflows to inf without a warning
    a = float(dphi_dY * Lambda)
    c = float(constants.residual(dphi_dY * mu + dphi_dt, phi, phi0))
    if a * u_dot_nominal + c <= 0.0:
        return QpStep(float(u_dot_nominal), False, False)
    u_dot_safe = -c / a if a != 0.0 else math.inf
    if math.isfinite(u_dot_safe):
        return QpStep(u_dot_safe, True, False)
    return QpStep(float(u_dot_nominal), True, True)


def rate_to_trajectory(values, U0):
    """Cumulative trajectory from per-step increments dU (M entries)."""
    values = np.asarray(values, dtype=float)
    # strictly sequential accumulation starting at U0, so rebuilding from
    # np.diff of the result reproduces it bitwise
    return np.cumsum(np.concatenate([[float(U0)], values]))


def filter_trajectory(operator, bcbf, U_nominal, config):
    """`filter_batch` over one nominal input trajectory (M+1,)."""
    U_nom = np.asarray(U_nominal, dtype=float)
    if U_nom.shape != (operator.grid.M + 1,):
        raise ValueError(f"nominal trajectory has shape {U_nom.shape}, "
                         f"operator grid needs ({operator.grid.M + 1},)")
    return filter_batch(operator, bcbf, U_nom[None], config)[0]


def filter_batch(operator, bcbf, UU_nominal, config):
    """Filter a batch of nominal input trajectories (B, M+1) through the
    barrier QP: one FilterReport per row, from one walk over the grid.

    Each step m = 1..M solves each row's scalar QP at its predicted output,
    accepts a row's result only if |dU_qp - dU_nominal| <= eta, and
    rebuilds that row's input from row m on, accumulating the increments
    from its row m-1, so that earlier rows keep their bits. A step starts
    with one operator forward over the rows whose input changed at the step
    before (all rows at the first), and none when no row's did, so rows
    that accept nothing (eta = 0 in particular) keep their nominal input
    bitwise. A row keeps its prediction as (forward cache, trajectory in
    it, first step) and per-step lists of the rate split and of the
    barrier's partials, which a prediction's first step fills for its row
    alone and a second step for the rest of the trajectory. The step's one
    barrier pass covers those (row, step) pairs of every row, and there is
    none when no row needs one (at eta = 0: one pass at step 1 and one at
    step 2). One more pass, before the walk, gives each row's phi(0, U0).
    The first prediction is a whole forward; one made at step m > 1,
    after a change at step m-1, runs from row m-1 on with the row's
    prediction before as its prior, and keeps the row's earlier outputs,
    which by causality are those of the new input; so is one after a change
    at the last step, made after the walk. Each report's Y_predicted is the
    forward of its U_safe (to the last bits in a larger batch).

    Step m pairs the barrier at (t_m, Y_m) with U[m] - U[m-1], the increment
    arriving at m; the barrier is trained on forward differences there,
    (Y[m+1] - Y[m]) / dt, or Lambda_m (U[m+1] - U[m]) / dt from the operator.

    A batch of one is bitwise the one-trajectory walk. A row of a larger
    batch may differ from it in the last bits, as a multi-row operator
    product need not round like a one-row one; its phi(0, U0) and barrier
    partials do not, as each point is its own one-row product. Under the
    abort policy the error names, after the whole walk, the lowest row with
    an infeasible step at its first such step; an error the walk raises (a
    non-finite operator output at a row a forward ran) comes first.
    Constants with alpha * dt >= 1 on the operator's grid raise
    ConfigurationError before the walk, and a nominal value that is not
    finite raises ValueError there, naming the lowest such row and its
    first such step.
    """
    UU_nom = np.asarray(UU_nominal, dtype=float)
    grid, n = operator.grid, operator.grid.M + 1
    if UU_nom.ndim != 2 or UU_nom.shape[1] != n:
        raise ValueError(f"nominal batch has shape {UU_nom.shape}, operator "
                         f"grid needs (B, {n})")
    if not np.isfinite(UU_nom).all():
        row, step = np.argwhere(~np.isfinite(UU_nom))[0]
        raise ValueError(f"nominal input row {row} is not finite at step "
                         f"{step} (U = {UU_nom[row, step]})")
    config.constants.check_step(grid.dt)
    B, dt, times = len(UU_nom), grid.dt, grid.times()
    du_nom = np.diff(UU_nom, axis=1)
    du_safe, U_safe, Y_pred = du_nom.copy(), UU_nom.copy(), np.empty((B, n))
    # a stacked pass, so each row's phi(0, U0) is that of its point alone
    phi0 = bcbf.partials(0.0, UU_nom[:, 0])[0].tolist()

    records = [[] for _ in range(B)]
    preds = [None] * B
    # per row, lists of its prediction's Lambda, mu, phi, dphi_dt and
    # dphi_dY by step
    reads = [[[0.0] * n for _ in range(5)] for _ in range(B)]
    stale = list(range(B))  # rows whose prediction is stale, ascending

    def reforward(m):
        """New predictions for the stale rows, changed at step m - 1 (all
        rows at m = 1): their outputs from row m - 1 on."""
        lo = m - 1
        prior = [preds[b][:2] for b in stale] if lo else None
        Y, cache = operator.forward_batch(U_safe[stale], lo, prior)
        Y_pred[stale, lo:] = Y[:, lo:]
        for i, b in enumerate(stale):
            preds[b] = (cache, i, m)
        stale.clear()

    du_rows = du_nom.tolist()
    for m in range(1, n):
        if stale:
            reforward(m)
        fills, bs, ks = [], [], []  # (row, stop); the pairs, row-major
        for b in range(B):
            cache, i, first = preds[b]
            if m - first < 2:  # the first step alone, then the rest once
                stop = m + 1 if m == first else n
                for q, a in zip(reads[b], operator.decomposition(
                        cache, m, stop, trajectory=i)):
                    q[m:stop] = a.tolist()
                fills.append((b, stop))
                bs += [b] * (stop - m)
                ks += range(m, stop)
        if fills:
            out = bcbf.partials(times[ks], Y_pred[bs, ks])
            j = 0
            for b, stop in fills:
                for q, a in zip(reads[b][2:], out):
                    q[m:stop] = a[j:j + stop - m].tolist()
                j += stop - m
        for b in range(B):
            Lam, Mu, Phi, Phi_t, Phi_Y = reads[b]
            lam, mu, phi, dphi_dt, dphi_dY = (Lam[m], Mu[m], Phi[m],
                                              Phi_t[m], Phi_Y[m])
            du = du_rows[b][m - 1]
            step = qp_filter_step(dphi_dt, dphi_dY, phi, phi0[b], (lam, mu),
                                  config.constants, du / dt)
            du_qp = step.u_dot_safe * dt
            if step.infeasible:
                executed, accepted = du, False
            elif not step.constraint_active:
                executed, accepted = du, True
            elif abs(du_qp - du) <= config.eta:
                executed, accepted = du_qp, True
            else:
                executed, accepted = du, False
            if executed != du_safe[b, m - 1]:
                du_safe[b, m - 1] = executed
                # from row m on, so earlier rows keep their bits
                U_safe[b, m:] = rate_to_trajectory(du_safe[b, m - 1:],
                                                   U_safe[b, m - 1])[1:]
                stale.append(b)
            records[b].append(StepRecord(m, du, float(du_qp), accepted,
                                         step.constraint_active,
                                         step.infeasible))
    if stale:  # changed at the last step
        reforward(n)
    if config.infeasible_policy == "abort":
        for b, row in enumerate(records):
            for r in row:
                if r.infeasible:
                    raise FilterInfeasibleError(r.step, row=b)
    return [FilterReport(r, U, Y) for r, U, Y in zip(records, U_safe, Y_pred)]

"""Input-rate safety filter.

At each time step the nominal boundary input rate is projected onto the
half-line where the barrier decrease condition

    dphi_dY * (Lambda * u_dot + mu) + dphi_dt + alpha * phi + C * phi0 <= 0

holds.  The decision variable is scalar, so the projection is closed form:
keep the nominal rate when it already satisfies the constraint, otherwise
move to the boundary -c/a.  The trajectory-level procedure walks the grid
left to right and only accepts a modification when the per-step input change
stays within a threshold eta.  It runs one operator forward per prediction
(the first, then one after each step that changed the input) and evaluates
the operator's rate split only at the rows the walk reads.

Step bookkeeping is in per-step increments dU = u_dot * dt: reports store
dU values and eta is compared against |dU_qp - dU_nominal|.
"""

import math
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .barrier import FeasibilityConstants
from .checkpoint import ConfigurationError, write_table

INFEASIBLE_POLICIES = ("fallback-nominal", "abort")


class FilterInfeasibleError(RuntimeError):
    """Raised under the abort policy when a step's constraint is unsatisfiable."""

    def __init__(self, step):
        super().__init__(f"constraint unsatisfiable at step {step}")
        self.step = step


@dataclass
class FilterConfig:
    constants: FeasibilityConstants = field(default_factory=FeasibilityConstants)
    eta: float = 2.0
    infeasible_policy: str = "fallback-nominal"

    def __post_init__(self):
        if self.eta < 0:
            raise ConfigurationError("eta must be >= 0")
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
        write_table(path, [f.name for f in fields(StepRecord)],
                    map(astuple, self.records))

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
    """Filter a whole nominal input trajectory through the barrier QP.

    Walks steps m = 1..M.  Each step evaluates the barrier and its partials
    at the current predicted output in one network pass, solves the scalar
    QP for the step's rate, accepts the result only if
    |dU_qp - dU_nominal| <= eta, and rebuilds the input prefix.

    There is one operator forward per prediction: the first, and one after
    each step that changed the input, which leaves accepted-nothing runs
    (eta = 0 in particular) bitwise equal to the nominal input.  The rate
    split is evaluated at the rows the walk reads: a prediction's first
    step gets its row alone, and a second step on the same prediction gets
    the rest of the trajectory in one split.
    """
    U_nom = np.asarray(U_nominal, dtype=float)
    grid = operator.grid
    n = grid.M + 1
    if U_nom.shape != (n,):
        raise ValueError(
            f"nominal trajectory has shape {U_nom.shape}, operator grid "
            f"needs ({n},)")
    dt = grid.dt
    times = grid.times()
    du_nom = np.diff(U_nom)
    du_safe = du_nom.copy()
    U_safe = U_nom.copy()
    phi0 = float(bcbf.value(0.0, U_nom[0]))

    records = []
    stale = True
    for m in range(1, n):
        if stale:
            YY, cache = operator.forward_batch(U_safe[None])
            Y_pred = YY[0]
            lo = hi = m  # rows [lo, hi) of this prediction are split
            stale = False
        if m == hi:
            lo, hi = m, (m + 1 if lo == hi else n)
            Lambda, mu = operator.decomposition(cache, lo, hi)
        phi, dphi_dt, dphi_dY = bcbf.partials(times[m], Y_pred[m])
        step = qp_filter_step(dphi_dt, dphi_dY, phi, phi0,
                              (Lambda[m - lo], mu[m - lo]), config.constants,
                              du_nom[m - 1] / dt)
        if step.infeasible and config.infeasible_policy == "abort":
            raise FilterInfeasibleError(m)
        du_qp = step.u_dot_safe * dt
        if step.infeasible:
            executed, accepted = du_nom[m - 1], False
        elif not step.constraint_active:
            executed, accepted = du_nom[m - 1], True
        else:
            if abs(du_qp - du_nom[m - 1]) <= config.eta:
                executed, accepted = du_qp, True
            else:
                executed, accepted = du_nom[m - 1], False
        if not step.constraint_active:
            assert executed == du_nom[m - 1]
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

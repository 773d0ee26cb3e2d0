"""Finite-difference simulators for two unstable 1-D boundary-controlled
plants, scripted nominal controllers, rollouts, and a stabilization reward.

Both plants live on x in [0, 1], are actuated through the Dirichlet condition
at x = 1, and are observed at a single output location:

* transport with recirculation (hyperbolic): u_t = u_x + beta * u(0, t),
  output Y = u(0, t). First-order upwind in space. The grid step subdivides
  into the fewest upwind substeps that keep the CFL bound dt_sub <= dx, so
  it holds even when the control grid is coarser than the spatial grid; the
  boundary value ramps linearly across the substeps between consecutive
  control samples, which keeps the pure-transport delay identity exact for
  ramp inputs.

* reaction-diffusion (parabolic): u_t = eps * u_xx + lam * u with u(0, t) = 0,
  output Y = u(0.5, t). Crank-Nicolson diffusion plus trapezoidal reaction,
  unconditionally stable in dt.

A plant state is the (n_points,) array of samples of u(., t) on the uniform
spatial grid over [0, 1], and a rollout keeps every state in one
(M+1, n_points) array. Rollouts start from the constant profile
u(x, 0) = U0 and are pure functions of (config, controller, U0, grid,
episode_seed). A recorded input is replayed by a rollout with a FromFile
controller, which reproduces the recorded run's states bitwise.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .checkpoint import (ConfigurationError, DatasetFormatError, read_table,
                         write_table)


class SimulationDivergedError(RuntimeError):
    """Raised when a step produces non-finite state; carries the step index."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid t_m = m * dt, m = 0..M, with dt = T / M."""

    T: float
    M: int

    def __post_init__(self):
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ConfigurationError(f"horizon T must be positive, got {self.T}")
        if self.M < 2:
            raise ConfigurationError(f"need at least 2 steps, got M={self.M}")

    @property
    def dt(self):
        return self.T / self.M

    def times(self):
        return np.arange(self.M + 1) * self.dt


def _default_hyperbolic_grid():
    return TimeGrid(5.0, 50)


def _default_parabolic_grid():
    return TimeGrid(1.0, 1000)


@dataclass(frozen=True)
class HyperbolicConfig:
    """Transport plant u_t = u_x + beta * u(0,t); output at x = 0.

    Each grid step runs `substeps` upwind substeps, the fewest that keep
    the CFL bound dt/substeps <= dx (ceil(dt/dx) with a 1e-9 tolerance
    against floating roundoff). When dx divides dt each substep has Courant
    number 1, so pure transport is an exact shift by one cell; more
    substeps would only add numerical diffusion.
    """

    beta: float = 5.0
    n_points: int = 101
    grid: TimeGrid = field(default_factory=_default_hyperbolic_grid)

    def __post_init__(self):
        if self.n_points < 3:
            raise ConfigurationError("need at least 3 spatial points")
        if not math.isfinite(self.beta):
            raise ConfigurationError("beta must be finite")

    @property
    def dx(self):
        return 1.0 / (self.n_points - 1)

    @property
    def substeps(self):
        return max(1, math.ceil(self.grid.dt / self.dx - 1e-9))

    @property
    def output_index(self):
        return 0


@dataclass(frozen=True)
class ParabolicConfig:
    """Reaction-diffusion plant u_t = eps*u_xx + lam*u; output at x_out."""

    eps: float = 0.05
    lam: float = 1.0
    n_points: int = 101
    grid: TimeGrid = field(default_factory=_default_parabolic_grid)
    x_out: float = 0.5

    def __post_init__(self):
        if self.eps <= 0.0:
            raise ConfigurationError("diffusivity eps must be positive")
        if self.n_points < 3:
            raise ConfigurationError("need at least 3 spatial points")
        if not 0.0 <= self.x_out <= 1.0:
            raise ConfigurationError("x_out must lie in [0, 1]")

    @property
    def dx(self):
        return 1.0 / (self.n_points - 1)

    @property
    def output_index(self):
        return int(round(self.x_out * (self.n_points - 1)))


ENVIRONMENTS = {"hyperbolic": HyperbolicConfig, "parabolic": ParabolicConfig}


def _check_step(state, u_boundary, cfg):
    """The state as a float array, once it and the boundary value fit cfg."""
    if not np.isfinite(u_boundary):
        raise ConfigurationError("boundary value must be finite")
    u = np.asarray(state, dtype=np.float64)
    if u.shape != (cfg.n_points,):
        raise ConfigurationError(
            f"state has shape {u.shape}, config has n_points={cfg.n_points}")
    return u


def step_hyperbolic(state, u_boundary, cfg):
    """Advance the transport plant's (n_points,) state by one grid step dt.

    The step runs cfg.substeps upwind substeps
    u_i <- u_i + (dt_sub/dx)(u_{i+1} - u_i) + dt_sub * beta * u_0 for
    i = 0..N-2, writing the (linearly ramped) boundary value into the
    rightmost point after each substep.

    Raises ConfigurationError if the state does not have cfg.n_points
    points.
    """
    u = _check_step(state, u_boundary, cfg)
    n_sub = cfg.substeps
    dt_sub = cfg.grid.dt / n_sub
    r = dt_sub / cfg.dx
    b_prev = u[-1]
    new = u.copy()
    for j in range(1, n_sub + 1):
        incr = r * (new[1:] - new[:-1]) + dt_sub * cfg.beta * new[0]
        new[:-1] += incr
        new[-1] = b_prev + (j / n_sub) * (u_boundary - b_prev)
    if not np.all(np.isfinite(new)):
        raise SimulationDivergedError("transport step diverged")
    return new


def step_parabolic(state, u_boundary, cfg):
    """Advance the reaction-diffusion plant's (n_points,) state by one grid
    step dt.

    Crank-Nicolson in the diffusion term (tridiagonal solve) and trapezoidal
    treatment of the reaction term. `u_boundary` is the Dirichlet value at
    x = 1 at the new time level; the old level's value is read from the state.
    Raises ConfigurationError if the state does not have cfg.n_points points.
    """
    u = _check_step(state, u_boundary, cfg)
    dt = cfg.grid.dt
    a = cfg.eps / cfg.dx**2
    n_int = u.size - 2
    ab = np.zeros((3, n_int))
    ab[0, 1:] = -0.5 * dt * a
    ab[1, :] = 1.0 + dt * a - 0.5 * dt * cfg.lam
    ab[2, :-1] = -0.5 * dt * a
    lap = u[2:] - 2.0 * u[1:-1] + u[:-2]
    rhs = u[1:-1] + 0.5 * dt * (a * lap + cfg.lam * u[1:-1])
    rhs[-1] += 0.5 * dt * a * u_boundary  # new-time right boundary
    sol = solve_banded((1, 1), ab, rhs, overwrite_ab=True, overwrite_b=True,
                       check_finite=False)
    new = np.empty_like(u)
    new[0] = 0.0
    new[1:-1] = sol
    new[-1] = u_boundary
    if not np.all(np.isfinite(new)):
        raise SimulationDivergedError("reaction-diffusion step diverged")
    return new


def _stepper(cfg):
    if isinstance(cfg, HyperbolicConfig):
        return step_hyperbolic
    if isinstance(cfg, ParabolicConfig):
        return step_parabolic
    raise ConfigurationError(f"unknown environment config {type(cfg).__name__}")


class Controller:
    """Scripted nominal controller interface.

    reset is called once per episode; control produces U_m for m >= 1 given
    the latest measured output Y_{m-1}. U_0 is always the episode's U0.
    """

    # (spec name, {spec key: (constructor parameter, type)}) of the spec
    # string that describe writes and parse_controller reads
    SPEC = None

    def reset(self, U0, grid, episode_seed=None):
        pass

    def control(self, m, t, y_prev):
        raise NotImplementedError

    def describe(self):
        """The spec string naming every constructor parameter, each float
        as its shortest repr that round-trips."""
        if self.SPEC is None:
            return type(self).__name__
        name, keys = self.SPEC
        return f"{name}:" + ",".join(f"{key}={getattr(self, param)!r}"
                                     for key, (param, _) in keys.items())


class Proportional(Controller):
    """Output feedback U_m = -gain * Y_{m-1}."""

    SPEC = ("proportional", {"gain": ("gain", float)})

    def __init__(self, gain):
        self.gain = float(gain)

    def control(self, m, t, y_prev):
        return -self.gain * y_prev


class Constant(Controller):
    """Holds a fixed value; value=None holds the episode's U0."""

    SPEC = ("constant", {"value": ("value", float)})

    def __init__(self, value=None):
        self.value = None if value is None else float(value)
        self._held = 0.0

    def reset(self, U0, grid, episode_seed=None):
        self._held = U0 if self.value is None else self.value

    def control(self, m, t, y_prev):
        return self._held

    def describe(self):
        return "constant:hold-U0" if self.value is None \
            else super().describe()


class SmoothRandom(Controller):
    """U0 plus a random multi-sine that vanishes at t = 0.

    The episode seed (when given) is mixed with the controller's own seed, so
    a shared instance still produces distinct signals across collected
    trajectories while staying deterministic.
    """

    SPEC = ("smooth", {"seed": ("seed", int), "modes": ("num_modes", int),
                       "amplitude": ("amplitude", float),
                       "min_frequency": ("min_frequency", float),
                       "max_frequency": ("max_frequency", float)})

    def __init__(self, seed=0, num_modes=3, amplitude=2.0,
                 min_frequency=0.2, max_frequency=1.5):
        if num_modes < 1:
            raise ConfigurationError("need at least one mode")
        if not 0.0 < min_frequency <= max_frequency:
            raise ConfigurationError("bad frequency range")
        self.seed = int(seed)
        self.num_modes = int(num_modes)
        self.amplitude = float(amplitude)
        self.min_frequency = float(min_frequency)
        self.max_frequency = float(max_frequency)
        self._U0 = 0.0
        self._amps = np.zeros(num_modes)
        self._freqs = np.ones(num_modes)

    def reset(self, U0, grid, episode_seed=None):
        key = self.seed if episode_seed is None else (self.seed, int(episode_seed))
        rng = np.random.default_rng(key)
        self._amps = rng.uniform(-self.amplitude, self.amplitude, self.num_modes)
        self._freqs = rng.uniform(self.min_frequency, self.max_frequency,
                                  self.num_modes)
        self._U0 = U0

    def control(self, m, t, y_prev):
        return self._U0 + float(np.sum(self._amps * np.sin(self._freqs * t)))


class FromFile(Controller):
    """Replays a fixed boundary input: the U column of a trajectory CSV
    (step,t,U[,Y]) given by path, or an array of U values.

    Replaying the U recorded by a closed-loop rollout, from its U[0],
    reproduces that rollout's states bitwise: rollout applies the same
    values through the same step arithmetic.
    """

    def __init__(self, source):
        if isinstance(source, (str, os.PathLike)):
            self.path = str(source)
            self._U = read_trajectory_csv(self.path)
        else:
            self.path = None
            self._U = np.array(source, dtype=np.float64)

    @property
    def U(self):
        return self._U.copy()

    def reset(self, U0, grid, episode_seed=None):
        if self._U.shape != (grid.M + 1,):
            raise ConfigurationError(
                f"{self.path or 'replayed input'}: trajectory has shape "
                f"{self._U.shape}, grid wants {(grid.M + 1,)}")

    def control(self, m, t, y_prev):
        return self._U[m]

    def describe(self):
        return f"file:{self.path}" if self.path else "replay"


def parse_controller(text):
    """Controller from a spec string, the inverse of `describe` (a replayed
    array, described as "replay", has no spec).

    Formats: constant | constant:hold-U0 | constant:value=V |
    proportional:gain=K |
    smooth[:seed=S,modes=N,amplitude=A,min_frequency=F,max_frequency=F] |
    file:PATH; keys left out of a smooth spec keep their defaults.
    """
    name, _, rest = text.partition(":")
    if name == "file" and rest:
        return FromFile(rest)
    if name == "constant" and rest in ("", "hold-U0"):
        return Constant()
    specs = {c.SPEC[0]: c for c in (Constant, Proportional, SmoothRandom)}
    try:
        cls, kwargs = specs[name], {}
        for item in rest.split(",") if rest else ():
            key, _, val = item.partition("=")
            param, kind = cls.SPEC[1][key]
            kwargs[param] = kind(val)
        return cls(**kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"bad controller spec {text!r}: {exc!r}") from exc


class RolloutResult:
    """Boundary input/output trajectories, each (M+1,), plus the state
    history as one (M+1, n_points) array."""

    def __init__(self, U, Y, states):
        self.U = U
        self.Y = Y
        self.states = states


def rollout(env_cfg, controller, U0, episode_seed=None):
    """Run one closed-loop episode from the constant profile u(x,0) = U0.

    Raises SimulationDivergedError, with .step the first step whose state is
    not finite, when the plant blows up."""
    if not np.isfinite(U0):
        raise ConfigurationError("U0 must be finite")
    grid = env_cfg.grid
    step = _stepper(env_cfg)
    out = env_cfg.output_index
    dt = grid.dt
    states = np.empty((grid.M + 1, env_cfg.n_points))
    states[0] = float(U0)
    U = np.empty(grid.M + 1)
    U[0] = float(U0)
    controller.reset(float(U0), grid, episode_seed)
    for m in range(1, grid.M + 1):
        u_m = float(controller.control(m, m * dt, states[m - 1, out]))
        if not np.isfinite(u_m):
            raise ConfigurationError(f"controller produced non-finite U at step {m}")
        try:
            states[m] = step(states[m - 1], u_m, env_cfg)
        except SimulationDivergedError as exc:
            exc.step = m
            raise
        U[m] = u_m
    return RolloutResult(U, states[:, out].copy(), states)


_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def stabilization_reward(states):
    """-(1/n) sum_m ||u(., t_m)||^2_{L2[0,1]} over the n rows of an
    (n, n_points) state array, with trapezoidal quadrature."""
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2 or len(states) == 0:
        raise ConfigurationError("need a non-empty (n, n_points) state array")
    norms = _trapezoid(states**2, dx=1.0 / (states.shape[1] - 1), axis=1)
    # a running sum in step order (np.sum would add pairwise)
    return -np.cumsum(norms)[-1] / len(states)


def write_states_csv(path, states, grid):
    """State-snapshot CSV of an (n, n_points) state array: header step,t,x,u;
    one row per (step, spatial point)."""
    dx = 1.0 / (np.shape(states)[1] - 1)
    write_table(path, ("step", "t", "x", "u"),
                ((m, m * grid.dt, i * dx, v) for m, row in enumerate(states)
                 for i, v in enumerate(row)))


def write_trajectory_csv(path, U, grid, Y=None):
    """Boundary trajectory CSV: step,t,U[,Y]."""
    U = np.asarray(U, dtype=np.float64)
    columns = ("step", "t", "U") + (("Y",) if Y is not None else ())
    write_table(path, columns,
                ((m, m * grid.dt, U[m]) + ((Y[m],) if Y is not None else ())
                 for m in range(U.size)))


def read_trajectory_csv(path):
    """Read back the U column of a boundary trajectory CSV."""
    table = read_table(path)
    if "U" not in table.columns:
        raise DatasetFormatError(path, "missing U column")
    u_col = table.columns.index("U")
    return np.array([row[u_col] for row in table.rows], dtype=np.float64)

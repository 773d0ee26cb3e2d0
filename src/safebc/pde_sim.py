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
  unconditionally stable in dt. The step's matrix inverse is built once per
  config; each state's step is one product of its right-hand side with it.

A plant state is the (n_points,) array of samples of u(., t) on the uniform
spatial grid over [0, 1]. A rollout runs B episodes side by side: one step
call per grid step advances their (B, n_points) states, and every state is
kept in one (B, M+1, n_points) array. Each episode starts from the constant
profile u(x, 0) = U0 and is a pure function of (config, controller, U0,
grid, episode_seed), bitwise the same in any batch. A recorded input is
replayed by a rollout with a FromFile controller, which reproduces the
recorded run's states bitwise.
"""

import copy
import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import (ConfigurationError, DatasetFormatError,
                         finite_float, read_table, write_table)


class SimulationDivergedError(RuntimeError):
    """Raised when a simulation's input or state turns non-finite; carries
    the step index. rollout marks such episodes in `diverged` instead."""

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
        if not 0.0 < self.eps < math.inf:
            raise ConfigurationError("diffusivity eps must be finite and "
                                     f"positive, got {self.eps!r}")
        if not math.isfinite(self.lam):
            raise ConfigurationError(f"lam must be finite, got {self.lam!r}")
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
    """The state and boundary values as float arrays, once they fit cfg."""
    u = np.asarray(state, dtype=np.float64)
    if u.ndim == 0 or u.shape[-1] != cfg.n_points:
        raise ConfigurationError(
            f"state has shape {u.shape}, config has n_points={cfg.n_points}")
    b = np.asarray(u_boundary, dtype=np.float64)
    if b.shape != u.shape[:-1]:
        raise ConfigurationError(
            f"boundary values have shape {b.shape}, states {u.shape}")
    if not np.all(np.isfinite(b)):
        raise ConfigurationError("boundary value must be finite")
    return u, b


def step_hyperbolic(state, u_boundary, cfg):
    """Advance (..., n_points) transport plant states, each with its own
    boundary value, by one grid step dt.

    The step runs cfg.substeps upwind substeps
    u_i <- u_i + (dt_sub/dx)(u_{i+1} - u_i) + dt_sub * beta * u_0 for
    i = 0..N-2, writing the (linearly ramped) boundary value into the
    rightmost point after each substep. An overflowing state comes back
    non-finite; the caller checks for that.

    Raises ConfigurationError if the states do not have cfg.n_points
    points or a boundary value is not finite.
    """
    u, b = _check_step(state, u_boundary, cfg)
    n_sub = cfg.substeps
    dt_sub = cfg.grid.dt / n_sub
    r = dt_sub / cfg.dx
    b_prev = u[..., -1]
    new = u.copy()
    for j in range(1, n_sub + 1):
        incr = r * (new[..., 1:] - new[..., :-1]) \
            + dt_sub * cfg.beta * new[..., :1]
        new[..., :-1] += incr
        new[..., -1] = b_prev + (j / n_sub) * (b - b_prev)
    return new


def step_parabolic(state, u_boundary, cfg):
    """Advance (..., n_points) reaction-diffusion plant states, each with its
    own boundary value, by one grid step dt.

    Crank-Nicolson in the diffusion term and trapezoidal treatment of the
    reaction term: each state's right-hand side is multiplied by the
    inverse of the interior tridiagonal matrix, built once per config, as
    its own (1, n_int) row product, so every state steps bitwise as it
    would alone. `u_boundary` is the Dirichlet value at x = 1 at the new
    time level; the old level's value is read from the state. An
    overflowing state comes back non-finite; the caller checks for that.

    Raises ConfigurationError if the states do not have cfg.n_points
    points or a boundary value is not finite.
    """
    u, b = _check_step(state, u_boundary, cfg)
    dt = cfg.grid.dt
    a = cfg.eps / cfg.dx**2
    lap = u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]
    rhs = u[..., 1:-1] + 0.5 * dt * (a * lap + cfg.lam * u[..., 1:-1])
    rhs[..., -1] += 0.5 * dt * a * b  # new-time right boundary
    inv_T = _crank_nicolson_inverse_T(cfg)
    new = np.empty_like(u)
    new[..., 0] = 0.0
    new[..., 1:-1] = (rhs[..., None, :] @ inv_T)[..., 0, :]
    new[..., -1] = b
    return new


@functools.lru_cache(maxsize=16)
def _crank_nicolson_inverse_T(cfg):
    """The transposed inverse of the (n_int, n_int) Crank-Nicolson matrix
    I - (dt/2)(eps * D2 + lam) on the interior points, read-only: it is
    shared by every step on an equal config."""
    dt = cfg.grid.dt
    n_int = cfg.n_points - 2
    r = 0.5 * dt * (cfg.eps / cfg.dx**2)
    A = ((1.0 + 2.0 * r - 0.5 * dt * cfg.lam) * np.eye(n_int)
         - r * (np.eye(n_int, k=1) + np.eye(n_int, k=-1)))
    inv_T = np.linalg.inv(A).T.copy()
    inv_T.setflags(write=False)
    return inv_T


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
    A rollout drives each episode with its own deep copy of the controller
    it was given, so that copy holds all per-episode state: episodes run
    side by side never share it, and the caller's instance is not changed.
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
        self.gain = finite_float(gain, "gain")

    def control(self, m, t, y_prev):
        return -self.gain * y_prev


class Constant(Controller):
    """Holds a fixed value; value=None holds the episode's U0."""

    SPEC = ("constant", {"value": ("value", float)})

    def __init__(self, value=None):
        self.value = None if value is None else finite_float(value, "value")
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
        self.seed = int(seed)
        self.num_modes = int(num_modes)
        self.amplitude = finite_float(amplitude, "amplitude")
        self.min_frequency = finite_float(min_frequency, "min_frequency")
        self.max_frequency = finite_float(max_frequency, "max_frequency")
        if not 0.0 < min_frequency <= max_frequency:
            raise ConfigurationError("bad frequency range")
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
        if not np.all(np.isfinite(self._U)):
            raise ConfigurationError(
                f"{self.path or 'replayed input'}: values must be finite")

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
        if name not in specs:
            raise ValueError(f"unknown controller {name!r}")
        cls, kwargs = specs[name], {}
        for item in rest.split(",") if rest else ():
            key, _, val = item.partition("=")
            if key not in cls.SPEC[1]:
                raise ValueError(f"unknown key {key!r} for {name}")
            param, kind = cls.SPEC[1][key]
            kwargs[param] = kind(val)
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"bad controller spec {text!r}: {exc}") from exc


class RolloutResult:
    """Boundary input/output trajectories of B episodes, each (B, M+1), the
    state histories as one (B, M+1, n_points) array, and `diverged`, per
    episode the first step whose input or state is not finite (0 when both
    stayed finite). A diverged episode reads NaN from that step on."""

    def __init__(self, U, Y, states, diverged):
        self.U = U
        self.Y = Y
        self.states = states
        self.diverged = diverged


def rollout(env_cfg, controllers, U0, episode_seeds=None):
    """Run B closed-loop episodes together, episode b on its own copy of
    controllers[b] from the constant profile u(x,0) = U0[b].

    Each grid step makes one step call on the running episodes' states. An
    episode whose input (an overflowing feedback, say) or state turns
    non-finite is marked in `diverged` and dropped; the others run on."""
    U0 = np.asarray(U0, dtype=np.float64)
    if U0.shape != (len(controllers),):
        raise ConfigurationError(
            f"{len(controllers)} controllers but U0 has shape {U0.shape}")
    if not np.all(np.isfinite(U0)):
        raise ConfigurationError("U0 must be finite")
    grid = env_cfg.grid
    step = _stepper(env_cfg)
    out = env_cfg.output_index
    controllers = [copy.deepcopy(c) for c in controllers]
    seeds = [None] * len(U0) if episode_seeds is None else episode_seeds
    for c, u0, seed in zip(controllers, U0, seeds, strict=True):
        c.reset(float(u0), grid, seed)
    states = np.empty((len(U0), grid.M + 1, env_cfg.n_points))
    states[:, 0] = U0[:, None]
    U = np.empty((len(U0), grid.M + 1))
    U[:, 0] = U0
    diverged = np.zeros(len(U0), dtype=int)
    live = np.arange(len(U0))
    for m in range(1, grid.M + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            for b in live:
                U[b, m] = controllers[b].control(m, m * grid.dt,
                                                 states[b, m - 1, out])
            finite = np.isfinite(U[live, m])
            stepped = live[finite]
            states[stepped, m] = step(states[stepped, m - 1], U[stepped, m],
                                      env_cfg)
        # a row runs on while its input and its new state are finite
        finite[finite] = np.isfinite(states[stepped, m]).all(axis=1)
        if not finite.all():
            diverged[live[~finite]] = m
            states[live[~finite], m:] = U[live[~finite], m:] = np.nan
            live = live[finite]
    return RolloutResult(U, states[:, :, out].copy(), states, diverged)


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
    states = np.asarray(states)
    n, points = states.shape
    dx = 1.0 / (points - 1)
    steps = np.arange(n)
    write_table(path, {"step": np.repeat(steps, points),
                       "t": np.repeat(steps * grid.dt, points),
                       "x": np.tile(np.arange(points) * dx, n),
                       "u": states.ravel()})


def write_trajectory_csv(path, U, grid, Y=None):
    """Boundary trajectory CSV: step,t,U[,Y]."""
    U = np.asarray(U, dtype=np.float64)
    steps = np.arange(U.size)
    columns = {"step": steps, "t": steps * grid.dt, "U": U}
    if Y is not None:
        columns["Y"] = np.asarray(Y)
    write_table(path, columns)


def read_trajectory_csv(path):
    """Read back the U column of a boundary trajectory CSV."""
    table = read_table(path)
    if "U" not in table.columns:
        raise DatasetFormatError(path, "missing U column")
    return np.ascontiguousarray(table.data["U"])

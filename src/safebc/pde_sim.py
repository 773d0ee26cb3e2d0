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
  ramp inputs. A step copies its states once into a point-major working
  array, one contiguous row per spatial point, and runs every substep in
  place on those rows; each state steps bitwise as it would alone.

* reaction-diffusion (parabolic): u_t = eps * u_xx + lam * u with u(0, t) = 0,
  output Y = u(0.5, t). Crank-Nicolson diffusion plus trapezoidal reaction,
  unconditionally stable in dt. The step's matrix inverse is built once per
  config; each state's step is one product of its right-hand side with it.

Each plant's step is a kernel built from its config with the config's
constants bound in; a rollout builds it once and calls it at every grid
step with no check, and the public step_hyperbolic and step_parabolic
check their arguments and then run the same kernel.

A plant state is the (n_points,) array of samples of u(., t) on the uniform
spatial grid over [0, 1]. A rollout runs B episodes side by side, and its
controllers act on batches: the episodes are grouped by controller
instance, and each grid step makes one control call per instance, on its
episodes still running, and one kernel call that advances the running
episodes' (B, n_points) states, then one finiteness test of the new
states: a non-finite input lands in its new state, so that test finds a
diverged input and a diverged state alike. It returns every state's
squared L2 norm, which the stabilization reward sums, and keeps the
(B, M+1, n_points) state histories only when asked. Each episode starts
from the constant profile u(x, 0) = U0 and is a pure function of (config,
controller, U0, grid, episode_seed), bitwise the same in any batch. A
recorded input, or a stack of them, is replayed by a rollout with a
FromFile controller, which reproduces the recorded runs' states bitwise.
"""

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import (ConfigurationError, DatasetFormatError,
                         finite_float, read_table, table_row_line,
                         write_table)


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
            raise ConfigurationError(
                f"horizon T must be positive, got {self.T}")
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
    boundary value, by one grid step dt: cfg's `_transport_kernel`, once
    the states and boundary values are checked. The result is a new
    C-contiguous array of the states' shape; the states passed in are left
    unchanged. An overflowing state comes back non-finite; the caller
    checks for that.

    Raises ConfigurationError if the states do not have cfg.n_points
    points or a boundary value is not finite.
    """
    return _transport_kernel(cfg)(*_check_step(state, u_boundary, cfg))


def step_parabolic(state, u_boundary, cfg):
    """Advance (..., n_points) reaction-diffusion plant states, each with its
    own boundary value, by one grid step dt: cfg's `_diffusion_kernel`,
    once the states and boundary values are checked. `u_boundary` is the
    Dirichlet value at x = 1 at the new time level; the old level's value
    is read from the state. An overflowing state comes back non-finite;
    the caller checks for that.

    Raises ConfigurationError if the states do not have cfg.n_points
    points or a boundary value is not finite.
    """
    return _diffusion_kernel(cfg)(*_check_step(state, u_boundary, cfg))


def _transport_kernel(cfg):
    """The transport plant's grid step with cfg's constants bound in: a
    function of float (..., n_points) states and their (...) boundary
    values that checks neither.

    The step runs cfg.substeps upwind substeps
    u_i <- u_i + (dt_sub/dx)(u_{i+1} - u_i) + dt_sub * beta * u_0 for
    i = 0..N-2, writing the (linearly ramped) boundary value into the
    rightmost point after each substep, so a non-finite boundary value
    reaches the new state at the last substep. The K states (K the product
    of the leading axes) are copied once into an (n_points, K) point-major
    array, and each substep updates its rows in place through two
    preallocated work arrays; the boundary values of all substeps are
    ramped before the loop. Every state goes through the same operations in
    the same order whatever K is, so it steps bitwise as it would alone."""
    n = cfg.n_points
    n_sub = cfg.substeps
    dt_sub = cfg.grid.dt / n_sub
    r = dt_sub / cfg.dx
    gain = dt_sub * cfg.beta
    fractions = (np.arange(1, n_sub + 1) / n_sub)[:, None]

    def step(u, b):
        # the point-major working copy: row i holds point i of every state
        new = np.empty((n, b.size))
        new[...] = u.reshape(b.size, n).T
        b_prev = new[-1]
        ramp = b_prev + fractions * (b.reshape(-1) - b_prev)
        head, tail = new[:-1], new[1:]
        incr = np.empty_like(head)
        recirc = np.empty_like(b_prev)
        for j in range(n_sub):
            np.subtract(tail, head, out=incr)
            incr *= r
            np.multiply(gain, new[0], out=recirc)
            incr += recirc
            head += incr
            new[-1] = ramp[j]
        return np.ascontiguousarray(new.T).reshape(u.shape)

    return step


def _diffusion_kernel(cfg):
    """The reaction-diffusion plant's grid step with cfg's constants bound
    in: a function of float (..., n_points) states and their (...) boundary
    values that checks neither.

    Crank-Nicolson in the diffusion term and trapezoidal treatment of the
    reaction term: each state's right-hand side is multiplied by the
    inverse of the interior tridiagonal matrix, looked up once per kernel,
    as its own (1, n_int) row product written into the new state, so every
    state steps bitwise as it would alone. The boundary value is written
    into the new state's last point, a non-finite one included."""
    half_dt = 0.5 * cfg.grid.dt
    a = cfg.eps / cfg.dx**2
    # 0.5 * dt * a * b is evaluated left to right, so this is its prefix
    half_dt_a = half_dt * a
    lam = cfg.lam
    inv_T = _crank_nicolson_inverse_T(cfg)

    def step(u, b):
        lap = u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]
        rhs = u[..., 1:-1] + half_dt * (a * lap + lam * u[..., 1:-1])
        rhs[..., -1] += half_dt_a * b  # new-time right boundary
        new = np.empty_like(u)
        new[..., 0] = 0.0
        np.matmul(rhs[..., None, :], inv_T, out=new[..., None, 1:-1])
        new[..., -1] = b
        return new

    return step


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


def _kernel(cfg):
    if isinstance(cfg, HyperbolicConfig):
        return _transport_kernel(cfg)
    if isinstance(cfg, ParabolicConfig):
        return _diffusion_kernel(cfg)
    raise ConfigurationError(
        f"unknown environment config {type(cfg).__name__}")


class Controller:
    """Scripted nominal controller interface, acting on a batch of episodes.

    A rollout calls `start` once with the (k,) initial values and episode
    seeds of the k episodes an instance drives; it returns their
    per-episode arrays, which the instance does not keep. At each grid
    step m >= 1 the rollout then makes one `control` call with those
    arrays, the indices `rows` (into the k) of the episodes still running
    and their latest measured outputs Y_{m-1}, and gets back their U_m.
    U_0 is always each episode's U0. So an instance holds settings only:
    one shared by many episodes, or by several rollouts, is never changed.
    """

    # (spec name, {spec key: (constructor parameter, type)}) of the spec
    # string that describe writes and parse_controller reads
    SPEC = None

    def start(self, U0, grid, episode_seeds):
        return None

    def control(self, episodes, rows, m, t, y_prev):
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

    def control(self, episodes, rows, m, t, y_prev):
        return -self.gain * y_prev


class Constant(Controller):
    """Holds a fixed value; value=None holds each episode's U0."""

    SPEC = ("constant", {"value": ("value", float)})

    def __init__(self, value=None):
        self.value = None if value is None else finite_float(value, "value")

    def start(self, U0, grid, episode_seeds):
        held = np.array(U0, dtype=np.float64)
        if self.value is not None:
            held[:] = self.value
        return held

    def control(self, held, rows, m, t, y_prev):
        return held[rows]

    def describe(self):
        return "constant:hold-U0" if self.value is None \
            else super().describe()


class SmoothRandom(Controller):
    """U0 plus a random multi-sine that vanishes at t = 0.

    Each episode draws its amplitudes and frequencies from its own stream,
    keyed by the controller's seed and the episode seed (when given), so a
    shared instance still produces distinct signals across collected
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

    def start(self, U0, grid, episode_seeds):
        """(U0, amplitudes, frequencies): (k,), (k, modes) and (k, modes)."""
        U0 = np.array(U0, dtype=np.float64)
        amps = np.empty((U0.size, self.num_modes))
        freqs = np.empty((U0.size, self.num_modes))
        for i, episode_seed in enumerate(episode_seeds):
            key = self.seed if episode_seed is None \
                else (self.seed, int(episode_seed))
            rng = np.random.default_rng(key)
            amps[i] = rng.uniform(-self.amplitude, self.amplitude,
                                  self.num_modes)
            freqs[i] = rng.uniform(self.min_frequency, self.max_frequency,
                                   self.num_modes)
        return U0, amps, freqs

    def control(self, episodes, rows, m, t, y_prev):
        U0, amps, freqs = episodes
        return U0[rows] + np.sum(amps[rows] * np.sin(freqs[rows] * t),
                                 axis=1)


class FromFile(Controller):
    """Replays a fixed boundary input: the U column of a trajectory CSV
    (step,t,U[,Y]) given by path, or an array of U values. A (M+1,) input
    is replayed in every episode the instance drives; a (k, M+1) stack
    gives row i to its i-th episode, so k replays run on one instance.

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

    def start(self, U0, grid, episode_seeds):
        """The (k, M+1) inputs of the k episodes."""
        shape = (len(U0), grid.M + 1)
        if self._U.shape not in (shape[1:], shape):
            raise ConfigurationError(
                f"{self.path or 'replayed input'}: trajectory has shape "
                f"{self._U.shape}, grid and episodes want {shape[1:]} or "
                f"{shape}")
        return np.broadcast_to(self._U, shape)

    def control(self, inputs, rows, m, t, y_prev):
        return inputs[rows, m]

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
    """Boundary input/output trajectories of B episodes, each (B, M+1);
    `sq_norms`, the (B, M+1) squared L2[0,1] norms of every state (see
    `squared_norms`), which `stabilization_reward` sums; `diverged`, per
    episode the first step whose input or state is not finite (0 when both
    stayed finite); and `states`, the (B, M+1, n_points) state histories
    when the rollout was asked to keep them, else None. A diverged episode
    reads NaN from that step on."""

    def __init__(self, U, Y, sq_norms, diverged, states=None):
        self.U = U
        self.Y = Y
        self.sq_norms = sq_norms
        self.diverged = diverged
        self.states = states


def rollout(env_cfg, controllers, U0, episode_seeds=None, keep_states=False):
    """Run B closed-loop episodes together, episode b driven by
    controllers[b] from the constant profile u(x,0) = U0[b].

    The episodes are grouped by controller instance: each instance starts
    once on the episodes it drives, and each grid step makes one control
    call per instance, on its episodes still running, then one call of the
    plant's step kernel, built once per rollout, on the running episodes'
    (B, n_points) states. A non-finite input (an overflowing feedback, say)
    lands in its new state, so one finiteness test of the new states per
    step finds every episode that diverged there; it is marked in
    `diverged` and dropped, and the others run on. The state histories are
    kept only with keep_states."""
    U0 = np.asarray(U0, dtype=np.float64)
    B = len(controllers)
    if U0.shape != (B,):
        raise ConfigurationError(
            f"{B} controllers but U0 has shape {U0.shape}")
    if not np.all(np.isfinite(U0)):
        raise ConfigurationError("U0 must be finite")
    seeds = [None] * B if episode_seeds is None else list(episode_seeds)
    if len(seeds) != B:
        raise ConfigurationError(
            f"{B} controllers but {len(seeds)} episode seeds")
    grid = env_cfg.grid
    dt = grid.dt
    step = _kernel(env_cfg)
    out = env_cfg.output_index
    # each episode's controller instance, numbered in order of appearance,
    # and its index among the episodes of that instance
    number = {}
    owner = np.array([number.setdefault(id(c), len(number))
                      for c in controllers], dtype=int)
    local = np.empty(B, dtype=int)
    started = []
    for g in range(len(number)):
        members = np.flatnonzero(owner == g)
        local[members] = np.arange(members.size)
        c = controllers[members[0]]
        started.append((c, c.start(U0[members], grid,
                                   [seeds[b] for b in members])))

    def driven(live):
        """(controller, its start arrays, rows, positions in `live`) of
        every instance with an episode in `live`."""
        at = owner[live]
        return [(c, episodes, local[live[pos]], pos)
                for g, (c, episodes) in enumerate(started)
                if (pos := np.flatnonzero(at == g)).size]

    U = np.empty((B, grid.M + 1))
    Y = np.empty((B, grid.M + 1))
    sq_norms = np.empty((B, grid.M + 1))
    state = np.repeat(U0[:, None], env_cfg.n_points, axis=1)
    states = None
    if keep_states:
        states = np.empty((B, grid.M + 1, env_cfg.n_points))
        states[:, 0] = state
    diverged = np.zeros(B, dtype=int)
    live = np.arange(B)
    # the running rows of the results: all of them, as a slice, until an
    # episode diverges, and the index `live` from then on
    at = slice(None)
    groups = driven(live)
    with np.errstate(over="ignore", invalid="ignore"):
        U[:, 0], Y[:, 0], sq_norms[:, 0] = U0, U0, squared_norms(state)
        for m in range(1, grid.M + 1):
            if not live.size:
                break
            u = np.empty(live.size)
            for c, episodes, rows, pos in groups:
                u[pos] = c.control(episodes, rows, m, m * dt,
                                   state[pos, out])
            U[at, m] = u
            state = step(state, u)
            finite = np.isfinite(state)
            if not finite.all():
                ok = finite.all(axis=1)
                dead = live[~ok]
                diverged[dead] = m
                U[dead, m:] = Y[dead, m:] = sq_norms[dead, m:] = np.nan
                if keep_states:
                    states[dead, m:] = np.nan
                state = state[ok]
                at = live = live[ok]
                groups = driven(live)
            Y[at, m] = state[:, out]
            sq_norms[at, m] = squared_norms(state)
            if keep_states:
                states[at, m] = state
    return RolloutResult(U, Y, sq_norms, diverged, states)


def squared_norms(states):
    """||u||^2_{L2[0,1]} of each state of a (..., n_points) array, with
    trapezoidal quadrature (numpy's trapezoid arithmetic, without its
    per-call overhead); each state's value is bitwise its own, in any
    batch and in any memory layout (a state is summed along its own
    contiguous row)."""
    sq = np.ascontiguousarray(states, dtype=np.float64)**2
    dx = 1.0 / (sq.shape[-1] - 1)
    return (dx * (sq[..., 1:] + sq[..., :-1]) / 2.0).sum(axis=-1)


def stabilization_reward(sq_norms):
    """-(1/n) sum_m ||u(., t_m)||^2_{L2[0,1]} over the last axis of an
    (..., n) array of squared state norms (`squared_norms`): one reward
    per episode of a (B, M+1) `RolloutResult.sq_norms`."""
    sq_norms = np.asarray(sq_norms, dtype=np.float64)
    if sq_norms.ndim == 0 or sq_norms.shape[-1] == 0:
        raise ConfigurationError("need a non-empty array of squared norms")
    # a running sum in step order (np.sum would add pairwise)
    return -np.cumsum(sq_norms, axis=-1)[..., -1] / sq_norms.shape[-1]


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
    """Read back the U column of a boundary trajectory CSV. Its rows must
    be at steps 0..M in order: the first row that is not (a shuffled,
    gapped or repeated step) is named by its line."""
    table = read_table(path, ints=("step",))
    for name in ("step", "U"):
        if name not in table.columns:
            raise DatasetFormatError(path, f"missing {name} column")
    step = table.data["step"]
    out_of_place = np.flatnonzero(step != np.arange(step.size))
    if out_of_place.size:
        row = int(out_of_place[0])
        raise DatasetFormatError(
            path, f"row at step {step[row]}, expected step {row}: steps "
            "must run 0..M in order", table_row_line(path, row))
    return np.ascontiguousarray(table.data["U"])

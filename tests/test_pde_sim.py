"""Tests for the two finite-difference plants, controllers, and rollouts."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import loop_step_hyperbolic, sequential_rollout
from safebc import pde_sim
from safebc.pde_sim import (ConfigurationError, Constant, FromFile,
                            HyperbolicConfig, ParabolicConfig, Proportional,
                            RolloutResult, SimulationDivergedError,
                            SmoothRandom, TimeGrid, parse_controller,
                            read_trajectory_csv, rollout, squared_norms,
                            stabilization_reward, step_hyperbolic,
                            step_parabolic, write_states_csv,
                            write_trajectory_csv)
from safebc.checkpoint import DatasetFormatError


def one(env, controller, U0, episode_seed=None):
    """Row 0 of a rollout batch of one episode, with its states."""
    res = rollout(env, [controller], [U0], episode_seeds=[episode_seed],
                  keep_states=True)
    return RolloutResult(res.U[0], res.Y[0], res.sq_norms[0],
                         res.diverged[0], res.states[0])


def control_once(controller, U0, m, t, y_prev, episode_seeds=None):
    """U_m of a batch of episodes started from U0."""
    U0 = np.atleast_1d(np.asarray(U0, dtype=float))
    seeds = [None] * U0.size if episode_seeds is None else episode_seeds
    episodes = controller.start(U0, TimeGrid(5.0, 50), seeds)
    return controller.control(episodes, m, t,
                              np.broadcast_to(y_prev, U0.shape))


class Ramp(pde_sim.Controller):
    """Open-loop ramp U(t) = t, used for the transport-delay check."""

    def control(self, episodes, m, t, y_prev):
        return np.full(len(y_prev), t)

    def describe(self):
        return "ramp"


class TestTimeGrid:
    def test_times_span_zero_to_horizon(self):
        g = TimeGrid(5.0, 50)
        t = g.times()
        assert t[0] == 0.0 and t[-1] == 5.0 and t.size == 51
        assert g.dt == pytest.approx(0.1)

    def test_bad_grids_rejected(self):
        with pytest.raises(ConfigurationError):
            TimeGrid(-1.0, 50)
        with pytest.raises(ConfigurationError):
            TimeGrid(5.0, 1)


class TestTransportPlant:
    def test_constant_profile_is_a_fixed_point_without_recirculation(self):
        cfg = HyperbolicConfig(beta=0.0, n_points=11, grid=TimeGrid(5.0, 50))
        s = np.full(11, 5.0)
        s2 = step_hyperbolic(s, 5.0, cfg)
        assert np.array_equal(s2, s)

    @pytest.mark.parametrize("n_points", [101, 201])
    def test_ramp_input_reappears_at_output_after_unit_delay(self, n_points):
        cfg = HyperbolicConfig(beta=0.0, n_points=n_points)
        res = one(cfg, Ramp(), 0.0)
        t = cfg.grid.times()
        mask = t >= 1.0 + 1e-9
        err = np.max(np.abs(res.Y[mask] - (t[mask] - 1.0)))
        assert err <= cfg.dx

    def test_recirculation_gain_five_is_unstable(self):
        cfg = HyperbolicConfig(beta=5.0)
        res = one(cfg, Constant(0.0), 1.0)
        sup = np.max(np.abs(res.states), axis=1)
        assert sup[-1] > 100.0 * sup[0]
        assert res.Y[-1] > res.Y[0]

    def test_automatic_substeps_satisfy_cfl(self):
        # the fewest substeps that keep dt / substeps <= dx
        for n_points, T, M in ((101, 5.0, 50), (101, 5.0, 20), (101, 5.0, 80),
                               (51, 4.0, 40), (11, 1.0, 50)):
            cfg = HyperbolicConfig(n_points=n_points, grid=TimeGrid(T, M))
            n_sub, dt, bound = cfg.substeps, cfg.grid.dt, cfg.dx * (1 + 1e-9)
            assert dt / n_sub <= bound
            assert n_sub == 1 or dt / (n_sub - 1) > bound

    def test_pure_transport_is_a_shift_at_the_cfl_minimum(self):
        # dt = 10 dx: ten substeps at Courant number 1 move the input one
        # cell each, so the output is the input one time unit late
        cfg = HyperbolicConfig(beta=0.0, grid=TimeGrid(4.0, 40))
        U = np.random.default_rng(0).uniform(-1.0, 1.0, 41)
        Y = one(cfg, FromFile(U), U[0]).Y
        assert cfg.substeps == 10
        assert np.all(Y[:11] == U[0])
        assert np.max(np.abs(Y[10:] - U[:-10])) <= 1e-15

    def test_nonfinite_boundary_rejected(self):
        cfg = HyperbolicConfig(n_points=11, grid=TimeGrid(5.0, 50))
        with pytest.raises(ConfigurationError):
            step_hyperbolic(np.zeros(11), np.inf, cfg)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 5.0])
    @pytest.mark.parametrize("grid", [TimeGrid(5.0, 50), TimeGrid(5.0, 30)],
                             ids=["courant-1", "courant-0.98"])
    @pytest.mark.parametrize("shape", [(), (1,), (50,), (2, 3), (0,)],
                             ids=["one", "1", "50", "2x3", "0"])
    def test_the_step_equals_the_per_state_loop_bitwise(self, beta, grid,
                                                        shape):
        cfg = HyperbolicConfig(beta=beta, grid=grid)
        rng = np.random.default_rng(len(shape) + sum(shape))
        states = rng.normal(size=shape + (cfg.n_points,)) \
            * 10.0 ** rng.integers(-100, 100, shape + (1,))
        boundary = rng.normal(size=shape)
        assert_steps_like_the_loop(states, boundary, cfg)

    @pytest.mark.parametrize("grid", [TimeGrid(5.0, 50), TimeGrid(5.0, 30)],
                             ids=["courant-1", "courant-0.98"])
    def test_states_holding_inf_and_nan_step_like_the_loop(self, grid):
        cfg = HyperbolicConfig(beta=0.5, grid=grid)
        states = np.random.default_rng(6).normal(size=(5, cfg.n_points))
        states[0, 40] = np.inf
        states[1, -1] = -np.inf
        states[2, 0] = np.nan
        states[3, [10, 70]] = np.inf, np.nan
        states[4] *= 1e307  # overflows as it steps
        with np.errstate(over="ignore", invalid="ignore"):
            assert_steps_like_the_loop(states, np.linspace(-1, 1, 5), cfg)

    @pytest.mark.parametrize("n_points", [201, 11])
    def test_state_length_must_match_the_config(self, n_points):
        # dx and the substep count both come from the config, so a state
        # on another spatial grid is rejected rather than mis-stepped
        cfg = HyperbolicConfig()
        with pytest.raises(ConfigurationError,
                           match=f"{n_points}.*n_points=101"):
            step_hyperbolic(np.zeros(n_points), 0.0, cfg)


@pytest.mark.parametrize("step, cfg", [
    (step_hyperbolic, HyperbolicConfig(n_points=11, grid=TimeGrid(5.0, 50))),
    (step_parabolic, ParabolicConfig(n_points=11, grid=TimeGrid(1.0, 10)))],
    ids=["transport", "diffusion"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
def test_a_public_step_rejects_a_nonfinite_boundary_value(step, cfg, value):
    # a rollout leaves the check to its one test of the new states; a
    # caller of the public steps still gets the typed error, for one state
    # and for one bad value in a batch
    with pytest.raises(ConfigurationError, match="must be finite"):
        step(np.zeros(11), value, cfg)
    with pytest.raises(ConfigurationError, match="must be finite"):
        step(np.zeros((3, 11)), np.array([0.0, value, 1.0]), cfg)


def assert_steps_like_the_loop(states, boundary, cfg):
    """step_hyperbolic of the states is C-contiguous, leaves them as they
    were, and holds bitwise the per-state loop's step of each, up to the
    sign and payload of a NaN: IEEE 754 leaves open which of two NaN
    operands an operation passes on, and numpy's loops for one state and
    for a batch differ in that."""
    before = states.copy()
    stepped = step_hyperbolic(states, boundary, cfg)
    assert stepped.flags.c_contiguous
    assert states.tobytes() == before.tobytes()
    expected = np.empty_like(states)
    for idx in np.ndindex(states.shape[:-1]):
        expected[idx] = loop_step_hyperbolic(states[idx], boundary[idx], cfg)
    assert stepped.shape == states.shape and stepped.dtype == np.float64
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(stepped), nan)
    assert stepped[~nan].tobytes() == expected[~nan].tobytes()


class TestReactionDiffusionPlant:
    def test_constant_boundary_settles_to_linear_profile(self):
        # With no reaction the steady state is u(x) = U0 * x, so the midpoint
        # output approaches U0 / 2.
        cfg = ParabolicConfig(lam=0.0)
        res = one(replace(cfg, grid=TimeGrid(15.0, 600)), Constant(), 2.0)
        assert res.Y[-1] == pytest.approx(1.0, abs=1e-2)

    def test_single_mode_decays_at_the_exact_rate(self):
        eps = 0.05
        cfg = ParabolicConfig(eps=eps, lam=0.0, n_points=41,
                              grid=TimeGrid(1.0, 100))
        x = np.linspace(0.0, 1.0, 41)
        s = np.sin(np.pi * x)
        for _ in range(100):
            s = step_parabolic(s, 0.0, cfg)
        exact = np.exp(-eps * np.pi**2) * np.sin(np.pi * x)
        assert np.max(np.abs(s - exact)) <= 1e-3

    def test_reaction_gain_above_diffusion_cutoff_grows(self):
        eps = 0.05
        lam = 2.0 * eps * np.pi**2
        cfg = ParabolicConfig(eps=eps, lam=lam, n_points=41,
                              grid=TimeGrid(1.0, 100))
        x = np.linspace(0.0, 1.0, 41)
        s = np.sin(np.pi * x)
        for _ in range(100):
            s = step_parabolic(s, 0.0, cfg)
        exact = np.exp(eps * np.pi**2) * np.sin(np.pi * x)
        assert np.max(s) > 1.5  # grew from amplitude 1
        assert np.max(np.abs(s - exact)) <= 5e-3

    @pytest.mark.parametrize("n_points", [201, 11])
    def test_state_length_must_match_the_config(self, n_points):
        cfg = ParabolicConfig(grid=TimeGrid(1.0, 10))
        with pytest.raises(ConfigurationError,
                           match=f"{n_points}.*n_points=101"):
            step_parabolic(np.zeros(n_points), 0.0, cfg)

    def test_scheme_error_shrinks_at_second_order(self):
        errors = []
        for n_points, M in ((21, 50), (41, 100)):
            cfg = ParabolicConfig(eps=0.05, lam=0.0, n_points=n_points,
                                  grid=TimeGrid(1.0, M))
            x = np.linspace(0.0, 1.0, n_points)
            s = np.sin(np.pi * x)
            for _ in range(M):
                s = step_parabolic(s, 0.0, cfg)
            exact = np.exp(-0.05 * np.pi**2) * np.sin(np.pi * x)
            errors.append(np.max(np.abs(s - exact)))
        order = np.log2(errors[0] / errors[1])
        assert order >= 1.8

    @pytest.mark.parametrize("cfg", [
        ParabolicConfig(),
        ParabolicConfig(eps=0.2, lam=-3.0, n_points=7),
        ParabolicConfig(n_points=3),
    ], ids=["default", "n7", "one-interior-point"])
    def test_step_solves_the_crank_nicolson_system(self, cfg):
        # the scheme written out point by point: A u_new = rhs on the
        # interior, with u(0) = 0 and u(1) = b at both time levels
        n, dt = cfg.n_points, cfg.grid.dt
        r = 0.5 * dt * cfg.eps / cfg.dx**2
        A = np.zeros((n - 2, n - 2))
        for i in range(n - 2):
            A[i, i] = 1.0 + 2.0 * r - 0.5 * dt * cfg.lam
            if i > 0:
                A[i, i - 1] = -r
            if i < n - 3:
                A[i, i + 1] = -r
        rng = np.random.default_rng(11)
        states = rng.normal(size=(2, 3, n))
        states[..., 0] = 0.0
        b = rng.normal(size=(2, 3))
        new = step_parabolic(states, b, cfg)
        rhs = np.empty((2, 3, n - 2))
        for i in range(1, n - 1):
            rhs[..., i - 1] = (
                (1.0 - 2.0 * r + 0.5 * dt * cfg.lam) * states[..., i]
                + r * (states[..., i - 1] + states[..., i + 1]))
        rhs[..., -1] += r * b
        residual = new[..., 1:-1] @ A.T - rhs
        scale = np.max(np.abs(rhs), axis=-1, keepdims=True)
        assert np.all(np.abs(residual) <= 1e-12 * scale)
        assert np.all(new[..., 0] == 0.0)
        assert np.array_equal(new[..., -1], b)

    def test_the_cached_inverse_is_read_only(self):
        inv_T = pde_sim._crank_nicolson_inverse_T(ParabolicConfig())
        with pytest.raises(ValueError):
            inv_T[0, 0] = 0.0

    def test_a_config_builds_its_inverse_once(self, monkeypatch):
        calls = []
        inv = np.linalg.inv

        def counting_inv(a):
            calls.append(a.shape)
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        pde_sim._crank_nicolson_inverse_T.cache_clear()
        cfg = ParabolicConfig(eps=0.07, n_points=9, grid=TimeGrid(1.0, 5))
        rollout(cfg, [Constant(), Proportional(0.5)], [1.0, -0.5])
        assert calls == [(7, 7)]
        # an equal config, built anew, finds the same entry
        rollout(replace(cfg, grid=TimeGrid(1.0, 5)), [Constant()], [2.0])
        assert calls == [(7, 7)]

    def test_a_rollout_looks_up_its_inverse_once(self):
        # the rollout builds its step kernel once, so M steps make one
        # lookup; the public step, which the oracle calls, makes one a step
        cache = pde_sim._crank_nicolson_inverse_T
        cache.cache_clear()
        cfg = ParabolicConfig(n_points=9, grid=TimeGrid(1.0, 40))
        rollout(cfg, [Constant(), Proportional(0.5)], [1.0, -0.5])
        info = cache.cache_info()
        assert (info.hits, info.misses) == (0, 1)
        sequential_rollout(cfg, Constant(), 1.0)
        info = cache.cache_info()
        assert (info.hits, info.misses) == (40, 1)


class TestRollout:
    def test_constant_hold_with_stable_plant_is_flat(self):
        cfg = HyperbolicConfig(beta=0.0)
        res = one(cfg, Constant(), 0.7)
        assert np.all(res.U == 0.7)
        assert np.max(np.abs(res.Y - 0.7)) <= 1e-12

    def test_repeated_rollouts_are_bitwise_identical(self):
        cfg = HyperbolicConfig()
        ctrl = SmoothRandom(seed=3)
        a = one(cfg, ctrl, 2.0, episode_seed=17)
        b = one(cfg, ctrl, 2.0, episode_seed=17)
        assert np.array_equal(a.U, b.U) and np.array_equal(a.Y, b.Y)

    def test_trajectories_cover_the_whole_grid(self):
        cfg = HyperbolicConfig()
        res = one(cfg, Constant(0.0), 1.0)
        assert res.U.shape == res.Y.shape == (cfg.grid.M + 1,)
        assert res.states.shape == (cfg.grid.M + 1, cfg.n_points)
        assert res.U[0] == 1.0 and res.Y[0] == 1.0

    def test_initial_state_is_the_constant_profile(self):
        cfg = ParabolicConfig()
        res = one(replace(cfg, grid=TimeGrid(0.01, 10)), Constant(0.0),
                      3.0)
        assert np.all(res.states[0] == 3.0)

    def test_proportional_feedback_matches_hand_stepped_trace(self):
        # Re-derive the closed loop with plain Python loops: M=10 control
        # steps on an 11-point grid, recirculation gain 5, U0 = 3.
        gain, beta, U0 = 0.8, 5.0, 3.0
        cfg = HyperbolicConfig(beta=beta, n_points=11, grid=TimeGrid(5.0, 10))
        res = one(cfg, Proportional(gain), U0)

        n_points, M, dt, dx = 11, 10, 0.5, 0.1
        n_sub = int(np.ceil(dt / dx - 1e-9))
        dt_sub = dt / n_sub
        r = dt_sub / dx
        u = np.full(n_points, U0)
        U, Y = [U0], [u[0]]
        for m in range(1, M + 1):
            u_m = -gain * Y[m - 1]
            b_prev = u[-1]
            new = u.copy()
            for j in range(1, n_sub + 1):
                prev = new.copy()
                for i in range(n_points - 1):
                    new[i] = prev[i] + (r * (prev[i + 1] - prev[i])
                                        + dt_sub * beta * prev[0])
                new[-1] = b_prev + (j / n_sub) * (u_m - b_prev)
            u = new
            U.append(u_m)
            Y.append(u[0])
        assert np.array_equal(res.U, U)
        assert np.array_equal(res.Y, Y)

    def test_replaying_recorded_inputs_reproduces_outputs_bitwise(self):
        for cfg in (HyperbolicConfig(),
                    ParabolicConfig(grid=TimeGrid(1.0, 40))):
            closed = one(cfg, Proportional(0.5), 2.0)
            replay = one(cfg, FromFile(closed.U), closed.U[0])
            assert np.array_equal(replay.U, closed.U)
            assert np.array_equal(replay.Y, closed.Y)
            assert np.array_equal(replay.states, closed.states)

    def test_replay_checks_input_length(self):
        cfg = HyperbolicConfig()
        with pytest.raises(ConfigurationError):
            one(cfg, FromFile(np.zeros(7)), 0.0)
        with pytest.raises(ConfigurationError):
            one(cfg, FromFile(np.zeros((2, 51))), 0.0)

    def test_divergence_names_the_first_nonfinite_step(self):
        # beta=200 grows the transport state ~1e12-fold per step of 0.25,
        # so it overflows within 40 steps
        cfg = DIVERGING
        n_sub = cfg.substeps
        r, dt_sub = cfg.grid.dt / n_sub / cfg.dx, cfg.grid.dt / n_sub
        with pytest.raises(SimulationDivergedError) as err:
            sequential_rollout(cfg, Proportional(0.5), 1.0)
        res = one(cfg, Proportional(0.5), 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            # the same upwind arithmetic and feedback, unchecked
            u, first = np.full(cfg.n_points, 1.0), None
            for m in range(1, cfg.grid.M + 1):
                b_prev, u_m = u[-1], -0.5 * u[0]
                for j in range(1, n_sub + 1):
                    u[:-1] += r * (u[1:] - u[:-1]) + dt_sub * cfg.beta * u[0]
                    u[-1] = b_prev + (j / n_sub) * (u_m - b_prev)
                if not np.all(np.isfinite(u)):
                    first = m
                    break
        assert first is not None and first > 1
        assert err.value.step == first
        assert res.diverged == first

    def test_nonfinite_initial_condition_rejected(self):
        with pytest.raises(ConfigurationError):
            one(HyperbolicConfig(), Constant(0.0), np.nan)

    def test_nonfinite_controller_output_rejected(self):
        # a controller whose setting is not finite is not built
        with pytest.raises(ConfigurationError,
                           match="value must be a finite number"):
            Constant(np.inf)

    def test_an_overflowing_controller_marks_only_its_episode_diverged(self):
        # every setting is finite, but -1e6 * Y overflows at step 45, where
        # the state is still finite; the episode beside it runs as alone
        env = HyperbolicConfig(beta=400.0, grid=TimeGrid(5.0, 50))
        res = rollout(env, [Proportional(1e6), Constant()], [1.0, 0.5],
                      keep_states=True)
        assert res.diverged[0] == 45
        assert np.isfinite(res.states[0, :45]).all()
        assert np.isnan(res.U[0, 45:]).all()
        assert np.isnan(res.states[0, 45:]).all()
        with pytest.raises(SimulationDivergedError) as err:
            sequential_rollout(env, Proportional(1e6), 1.0)
        assert err.value.step == 45
        alone = one(env, Constant(), 0.5)
        assert res.diverged[1] == alone.diverged
        for got, want in ((res.U[1], alone.U), (res.Y[1], alone.Y),
                          (res.states[1], alone.states)):
            assert np.array_equal(got, want, equal_nan=True)

    def test_one_initial_value_per_controller(self):
        with pytest.raises(ConfigurationError, match="2 controllers"):
            rollout(HyperbolicConfig(), [Constant(), Constant()], [1.0])


# beta=200 amplifies any nonzero state past float range within the horizon
DIVERGING = HyperbolicConfig(beta=200.0, grid=TimeGrid(10.0, 40))


TRANSPORT_05 = HyperbolicConfig(beta=0.5, grid=TimeGrid(5.0, 50))
TRANSPORT_5 = HyperbolicConfig(beta=5.0, grid=TimeGrid(5.0, 50))
# 17 substeps a grid step, each at Courant number 0.98
TRANSPORT_SUB1 = HyperbolicConfig(beta=0.5, grid=TimeGrid(5.0, 30))
DIFFUSION = ParabolicConfig(grid=TimeGrid(1.0, 80))
# dt = dx: one substep a grid step, whose ramp writes the boundary value
# into the last point alone
TRANSPORT_ONE_SUBSTEP = HyperbolicConfig(beta=0.5, n_points=11,
                                         grid=TimeGrid(5.0, 50))


class TestPlantOracle:
    """Both plants are linear and time-invariant, so two rollouts give the
    exact input-output matrix (see oracles.impulse_response)."""

    @pytest.mark.parametrize("env", [TRANSPORT_05, TRANSPORT_5, DIFFUSION],
                             ids=["transport-0.5", "transport-5",
                                  "diffusion"])
    def test_plant_matrix_reproduces_a_smooth_rollout(self, env):
        from oracles import plant_matrix
        res = one(env, SmoothRandom(seed=2), 1.3, episode_seed=5)
        err = np.max(np.abs(plant_matrix(env) @ res.U - res.Y))
        assert err <= 1e-12 * np.max(np.abs(res.Y))

    def test_transport_delays_the_input_by_one_time_unit(self):
        from oracles import impulse_response
        _, h = impulse_response(TRANSPORT_05)
        k = round(1.0 / TRANSPORT_05.grid.dt)
        assert np.all(h[:k + 1] == 0.0)
        assert h[k + 1] != 0.0

    def test_diffusion_responds_at_once_but_barely(self):
        from oracles import impulse_response
        _, h = impulse_response(DIFFUSION)
        assert h[0] == 0.0
        assert 0.0 < abs(h[1]) < 1e-11


def mixed_batch(env):
    """Controllers and initial values of a batch that holds every kind of
    controller: smooth, proportional, constant and replayed."""
    n = env.grid.M + 1
    U = np.sin(0.3 * np.arange(n))
    controllers = [SmoothRandom(seed=2), Proportional(0.5), Constant(),
                   Constant(-0.4), FromFile(U), SmoothRandom(seed=7),
                   Proportional(2.0)]
    return controllers, [1.3, 0.8, 1.9, 0.2, U[0], 0.6, 1.1]


class Counting(pde_sim.Controller):
    """Wraps a controller and records each control call's step and number
    of episodes."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def start(self, U0, grid, episode_seeds):
        return self.inner.start(U0, grid, episode_seeds)

    def control(self, episodes, m, t, y_prev):
        self.calls.append((m, len(y_prev)))
        return self.inner.control(episodes, m, t, y_prev)


class Spoils(pde_sim.Controller):
    """Wraps a controller and gives its episode `row` (an index into the
    episodes it drives) the input `value` at step `at`."""

    def __init__(self, inner, row, at, value):
        self.inner, self.row, self.at, self.value = inner, row, at, value

    def start(self, U0, grid, episode_seeds):
        return self.inner.start(U0, grid, episode_seeds)

    def control(self, episodes, m, t, y_prev):
        u = np.array(self.inner.control(episodes, m, t, y_prev))
        if m == self.at:
            u[self.row] = self.value
        return u


class TestBatchedRollout:
    """A batch runs one control call per controller instance and one step
    call per grid step on all running episodes; each row must equal the
    episode run alone by the sequential oracle."""

    @pytest.mark.parametrize("env", [TRANSPORT_05, TRANSPORT_5, DIFFUSION],
                             ids=["transport-0.5", "transport-5",
                                  "diffusion"])
    def test_each_row_equals_the_sequential_oracle_bitwise(self, env):
        controllers, U0 = mixed_batch(env)
        res = rollout(env, controllers, U0, episode_seeds=range(7),
                      keep_states=True)
        assert res.U.shape == res.Y.shape == (7, env.grid.M + 1)
        assert res.states.shape == (7, env.grid.M + 1, env.n_points)
        assert not res.diverged.any()
        for b, (c, u0) in enumerate(zip(controllers, U0)):
            U, Y, states = sequential_rollout(env, c, u0, episode_seed=b)
            assert np.array_equal(res.U[b], U)
            assert np.array_equal(res.Y[b], Y)
            assert np.array_equal(res.states[b], states)
            assert np.array_equal(res.sq_norms[b], squared_norms(states))

    def test_an_evaluation_shaped_batch_equals_the_oracle_bitwise(self):
        # one shared smooth instance drives 13 of 20 episodes; the 7
        # feedback episodes between them gain 1e100 per delay, so they
        # overflow at steps that their initial values set, and the smooth
        # rows run on beside them
        smooth, feedback = SmoothRandom(seed=5), Proportional(1e100)
        controllers = [feedback if b % 3 == 1 else smooth for b in range(20)]
        U0 = np.linspace(0.1, 2.0, 20)
        U0[1::3] = 10.0 ** (-20.0 * np.arange(7))
        res = rollout(TRANSPORT_05, controllers, U0, episode_seeds=range(20),
                      keep_states=True)
        for b, (c, u0) in enumerate(zip(controllers, U0)):
            if c is feedback:
                with pytest.raises(SimulationDivergedError) as err:
                    sequential_rollout(TRANSPORT_05, c, u0, episode_seed=b)
                assert res.diverged[b] == err.value.step > 1
                assert np.isnan(res.sq_norms[b, err.value.step:]).all()
                continue
            U, Y, states = sequential_rollout(TRANSPORT_05, c, u0,
                                              episode_seed=b)
            assert res.diverged[b] == 0
            assert np.array_equal(res.U[b], U)
            assert np.array_equal(res.Y[b], Y)
            assert np.array_equal(res.states[b], states)
            assert np.array_equal(res.sq_norms[b], squared_norms(states))
        assert len(set(res.diverged[1::3])) > 1
        # without the histories the other results are bitwise the same
        lean = rollout(TRANSPORT_05, controllers, U0, episode_seeds=range(20))
        assert lean.states is None
        for key in ("U", "Y", "sq_norms", "diverged"):
            assert np.array_equal(getattr(lean, key), getattr(res, key),
                                  equal_nan=True), key

    @pytest.mark.parametrize("env", [TRANSPORT_05, DIFFUSION],
                             ids=["transport-0.5", "diffusion"])
    def test_a_replay_shaped_batch_equals_the_oracle_bitwise(self, env):
        # recorded inputs replayed by one instance each, and all of them by
        # one instance that holds them stacked
        inputs = rollout(env, [SmoothRandom(seed=3)] * 5,
                         np.linspace(0.2, 1.0, 5), episode_seeds=range(5)).U
        apart = rollout(env, [FromFile(U) for U in inputs], inputs[:, 0],
                        keep_states=True)
        stacked = rollout(env, [FromFile(inputs)] * 5, inputs[:, 0],
                          keep_states=True)
        for b, U_rec in enumerate(inputs):
            U, Y, states = sequential_rollout(env, FromFile(U_rec), U_rec[0])
            for res in (apart, stacked):
                assert np.array_equal(res.U[b], U)
                assert np.array_equal(res.Y[b], Y)
                assert np.array_equal(res.states[b], states)

    @pytest.mark.parametrize("shape", ["evaluation", "collection"])
    def test_one_control_call_per_instance_per_step(self, shape):
        # evaluation drives every episode with one instance, collection
        # cycles its instances; each call is on all of the instance's
        # episodes, diverged ones included. At a gain of 1e100 per delay,
        # episodes from 1 .. 1e-84 overflow at step 34 and those from 1e-96
        # on at step 45: when every episode is feedback, the rollout stops
        # at step 45, and otherwise it runs to the end.
        feedback = Counting(Proportional(1e100))
        if shape == "evaluation":
            instances = [feedback]
        else:
            instances = [Counting(SmoothRandom(seed=1)), feedback,
                         Counting(Constant())]
        controllers = [instances[b % len(instances)] for b in range(12)]
        res = rollout(TRANSPORT_05, controllers,
                      10.0 ** (-12.0 * np.arange(12)),
                      episode_seeds=range(12))
        last = 45 if shape == "evaluation" else TRANSPORT_05.grid.M
        for c in instances:
            k = sum(d is c for d in controllers)
            assert c.calls == [(m, k) for m in range(1, last + 1)]
        steps = set(res.diverged[controllers.index(feedback)::
                                 len(instances)].tolist())
        assert steps == {34, 45}

    @pytest.mark.parametrize("env", [TRANSPORT_05, DIFFUSION],
                             ids=["transport-0.5", "diffusion"])
    def test_a_permuted_batch_gives_permuted_rows(self, env):
        controllers, U0 = mixed_batch(env)
        res = rollout(env, controllers, U0, episode_seeds=range(7),
                      keep_states=True)
        order = [4, 0, 6, 2, 5, 1, 3]
        back = rollout(env, [controllers[i] for i in order],
                       [U0[i] for i in order], episode_seeds=order,
                       keep_states=True)
        assert np.array_equal(back.states, res.states[order])
        assert np.array_equal(back.U, res.U[order])

    def test_a_diverged_row_leaves_its_neighbours_unchanged(self):
        # the episode of test_divergence_names_the_first_nonfinite_step,
        # one that overflows later from a tiny profile, and two that stay 0
        controllers = [Constant(0.0), Proportional(0.5), Proportional(0.5),
                       Proportional(0.5)]
        U0 = [0.0, 1.0, 1e-100, 0.0]
        res = rollout(DIVERGING, controllers, U0, keep_states=True)
        steps = []
        for b, (c, u0) in enumerate(zip(controllers, U0)):
            try:
                U, Y, states = sequential_rollout(DIVERGING, c, u0)
            except SimulationDivergedError as err:
                steps.append(err.step)
                assert res.diverged[b] == err.step
                assert np.isnan(res.states[b, err.step:]).all()
                assert np.isnan(res.U[b, err.step:]).all()
                assert np.isnan(res.Y[b, err.step:]).all()
                assert np.isfinite(res.states[b, :err.step]).all()
            else:
                assert res.diverged[b] == 0
                assert np.array_equal(res.states[b], states)
                assert np.array_equal(res.U[b], U)
        assert len(steps) == 2 and 1 < steps[0] < steps[1]
        alone = rollout(DIVERGING, controllers[::3], U0[::3],
                        keep_states=True)
        assert np.array_equal(alone.states, res.states[::3])

    @pytest.mark.parametrize("env", [TRANSPORT_05, TRANSPORT_SUB1,
                                     TRANSPORT_ONE_SUBSTEP, DIFFUSION],
                             ids=["transport-0.5", "transport-courant-0.98",
                                  "transport-one-substep", "diffusion"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("at", [1, 17, "M"])
    def test_a_nonfinite_input_diverges_its_episode_at_that_step(
            self, env, value, at):
        # the input lands in the new state (its last point, or the last
        # substep's ramp), so the one test of the new states finds it; a
        # shared instance spoils its second episode, episode 3 of 7
        assert env is not TRANSPORT_ONE_SUBSTEP or env.substeps == 1
        at = env.grid.M if at == "M" else at
        controllers, U0 = mixed_batch(env)
        smooth = controllers[0]
        spoiled = Spoils(smooth, 1, at, value)
        controllers[0] = controllers[3] = controllers[5] = spoiled
        res = rollout(env, controllers, U0, episode_seeds=range(7),
                      keep_states=True)
        assert res.diverged.tolist() == [at if b == 3 else 0
                                         for b in range(7)]
        with pytest.raises(SimulationDivergedError) as err:
            sequential_rollout(env, Spoils(smooth, 0, at, value), U0[3],
                               episode_seed=3)
        assert err.value.step == at
        U, Y, states = sequential_rollout(env, smooth, U0[3], episode_seed=3)
        got = (res.U[3], res.Y[3], res.sq_norms[3], res.states[3])
        for g, want in zip(got, (U, Y, squared_norms(states), states)):
            assert np.array_equal(g[:at], want[:at])
            assert np.isnan(g[at:]).all()
        for b, (c, u0) in enumerate(zip(controllers, U0)):
            if b == 3:
                continue
            U, Y, states = sequential_rollout(
                env, smooth if c is spoiled else c, u0, episode_seed=b)
            assert np.array_equal(res.U[b], U)
            assert np.array_equal(res.Y[b], Y)
            assert np.array_equal(res.states[b], states)
            assert np.array_equal(res.sq_norms[b], squared_norms(states))

    def test_a_shared_controller_runs_as_separate_instances(self):
        shared = SmoothRandom(seed=4)
        before = {k: np.copy(v) for k, v in vars(shared).items()}
        a = rollout(TRANSPORT_05, [shared] * 3, [0.5, 1.0, 1.5],
                    episode_seeds=[0, 1, 2])
        b = rollout(TRANSPORT_05, [SmoothRandom(seed=4) for _ in range(3)],
                    [0.5, 1.0, 1.5], episode_seeds=[0, 1, 2])
        assert np.array_equal(a.sq_norms, b.sq_norms)
        assert np.array_equal(a.U, b.U)
        assert len(np.unique(a.U[:, 1])) == 3
        for key, value in vars(shared).items():
            assert np.array_equal(value, before[key]), key

    @pytest.mark.parametrize("env", [TRANSPORT_5, TRANSPORT_SUB1, DIFFUSION],
                             ids=["transport-5", "transport-courant-0.98",
                                  "diffusion"])
    def test_a_stacked_step_equals_the_single_steps(self, env):
        step = step_hyperbolic if isinstance(env, HyperbolicConfig) \
            else step_parabolic
        states = np.random.default_rng(3).normal(size=(2, 3, env.n_points))
        boundary = np.array([[0.1, -2.0, 3.0], [0.0, 1e-3, -0.5]])
        stacked = step(states, boundary, env)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(
                    stacked[i, j], step(states[i, j], boundary[i, j], env))
        with pytest.raises(ConfigurationError, match="boundary values"):
            step(states, boundary[0], env)


# small grids, so a drawn batch and its oracle runs take milliseconds
SMALL_TRANSPORT = HyperbolicConfig(beta=0.5, n_points=11,
                                   grid=TimeGrid(5.0, 20))
SMALL_DIFFUSION = ParabolicConfig(n_points=11, grid=TimeGrid(1.0, 20))


def check_against_oracle(env, controllers, U0, seeds):
    """Roll out a batch and check it row by row against the sequential
    oracle: a finite row is bitwise its oracle run, and a diverged one has
    the oracle's step and NaN from then on. Each instance must be called
    once per step, on all of its episodes, up to the step where the last
    episode diverged when every episode does, and to M otherwise. Returns
    the rollout's result."""
    counted = {id(c): Counting(c) for c in controllers}
    res = rollout(env, [counted[id(c)] for c in controllers], U0,
                  episode_seeds=seeds, keep_states=True)
    last = res.diverged.max() if res.diverged.all() else env.grid.M
    for c in counted.values():
        k = sum(d is c.inner for d in controllers)
        assert c.calls == [(m, k) for m in range(1, last + 1)]
    for b, (c, u0, seed) in enumerate(zip(controllers, U0, seeds)):
        got = (res.U[b], res.Y[b], res.sq_norms[b], res.states[b])
        try:
            U, Y, states = sequential_rollout(env, c, u0, episode_seed=seed)
        except SimulationDivergedError as err:
            assert res.diverged[b] == err.step
            for g in got:
                assert np.isnan(g[err.step:]).all()
            assert np.isfinite(res.states[b, :err.step]).all()
            # the same prefix as the episode run alone in a batch of one
            alone = rollout(env, [c], [u0], episode_seeds=[seed],
                            keep_states=True)
            assert np.array_equal(alone.states[0], res.states[b],
                                  equal_nan=True)
        else:
            assert res.diverged[b] == 0
            # a finite state past 1e154 has an infinite squared norm
            with np.errstate(over="ignore"):
                sq_norms = squared_norms(states)
            for g, want in zip(got, (U, Y, sq_norms, states)):
                assert np.array_equal(g, want)
    return res


@st.composite
def mixed_rollout_batches(draw):
    """(env, controllers, U0, episode seeds) of a batch of 1..6 episodes
    on a small transport or diffusion grid, driven by 1..3 instances of
    proportional feedback (some gains overflow), constant holds and smooth
    signals, shared by several episodes or not."""
    env = draw(st.sampled_from([SMALL_TRANSPORT, SMALL_DIFFUSION]))
    instance = st.one_of(
        st.builds(Proportional,
                  st.sampled_from([0.5, -1.5, 1e100, -1e200, 1e300])),
        st.builds(Constant, st.none() | st.floats(-2.0, 2.0)),
        st.builds(SmoothRandom, seed=st.integers(0, 9)))
    pool = draw(st.lists(instance, min_size=1, max_size=3))
    B = draw(st.integers(1, 6))
    controllers = draw(st.lists(st.sampled_from(pool), min_size=B,
                                max_size=B))
    # tiny initial values make overflowing feedback diverge late
    U0 = draw(st.lists(st.builds(lambda sign, e, x: sign * x * 10.0 ** e,
                                 st.sampled_from([-1.0, 1.0]),
                                 st.integers(-300, 0), st.floats(0.0, 2.0)),
                       min_size=B, max_size=B))
    seeds = draw(st.lists(st.integers(0, 99), min_size=B, max_size=B))
    return env, controllers, U0, seeds


def every_episode_diverging():
    """A diffusion batch whose four episodes overflow at steps 4, 6, 5 and
    7 of 20, two of them on one shared instance."""
    shared = Proportional(1e100)
    return (SMALL_DIFFUSION,
            [shared, shared, Proportional(1e100), Proportional(1e100)],
            [1.0, 1e-200, 1e-100, 1e-300], [0, 1, 2, 3])


@given(mixed_rollout_batches())
@example(every_episode_diverging())
@settings(max_examples=60, deadline=None)
def test_a_mixed_batch_equals_the_oracle_row_by_row(batch):
    check_against_oracle(*batch)


def test_a_batch_that_all_diverges_stops_at_its_last_divergence():
    # the controllers' calls stop at step 7 of 20, the largest of the four
    res = check_against_oracle(*every_episode_diverging())
    assert res.diverged.tolist() == [4, 6, 5, 7]


class TestControllers:
    def test_proportional_is_output_feedback(self):
        assert control_once(Proportional(2.0), [0.0, 1.0], 1, 0.1,
                            [3.0, -0.5]).tolist() == [-6.0, 1.0]

    def test_constant_holds_initial_condition_by_default(self):
        assert control_once(Constant(), [4.2, -1.0], 5, 0.5,
                            99.0).tolist() == [4.2, -1.0]

    def test_constant_with_value_ignores_initial_condition(self):
        assert control_once(Constant(-3.0), [4.2, 1.0], 5, 0.5,
                            99.0).tolist() == [-3.0, -3.0]

    def test_smooth_random_vanishes_at_time_zero(self):
        assert control_once(SmoothRandom(seed=0, amplitude=5.0), [1.5, 0.2],
                            0, 0.0, 0.0,
                            episode_seeds=[1, 2]).tolist() == [1.5, 0.2]

    def test_smooth_random_episode_seed_changes_signal(self):
        a, b = control_once(SmoothRandom(seed=0), [1.0, 1.0], 10, 1.0, 0.0,
                            episode_seeds=[1, 2])
        assert a != b

    def test_smooth_random_draws_each_episode_from_its_own_stream(self):
        # U0 + sum_j a_j sin(f_j t), each episode's a and f drawn from the
        # stream keyed (seed, episode seed), or seed alone without one
        for modes in (3, 5, 17):
            c = SmoothRandom(seed=3, num_modes=modes, amplitude=0.7)
            for t in (0.3, 1.3, 4.9):
                got = control_once(c, [1.5, -0.2, 0.4], 10, t, 0.0,
                                   episode_seeds=[9, None, 4])
                for u0, key, value in zip((1.5, -0.2, 0.4),
                                          ((3, 9), 3, (3, 4)), got):
                    rng = np.random.default_rng(key)
                    a = rng.uniform(-0.7, 0.7, modes)
                    f = rng.uniform(0.2, 1.5, modes)
                    assert value == u0 + float(np.sum(a * np.sin(f * t)))

    def test_a_controller_answers_for_every_episode_it_started(self):
        # one value per episode that start saw, each as it would be alone
        c = SmoothRandom(seed=0)
        grid = TimeGrid(5.0, 50)
        U0, seeds = [0.5, 1.0, 1.5], [7, 8, 9]
        every = c.control(c.start(np.array(U0), grid, seeds), 10, 1.0,
                          np.zeros(3))
        assert every.shape == (3,)
        for b in range(3):
            alone = c.control(c.start(np.array(U0[b:b + 1]), grid,
                                      seeds[b:b + 1]), 10, 1.0, np.zeros(1))
            assert np.array_equal(alone, every[b:b + 1])

    def test_smooth_random_validates_configuration(self):
        with pytest.raises(ConfigurationError):
            SmoothRandom(num_modes=0)
        with pytest.raises(ConfigurationError):
            SmoothRandom(min_frequency=2.0, max_frequency=1.0)

    @pytest.mark.parametrize("make, name", [
        (lambda: Constant(np.nan), "value"),
        (lambda: Proportional(np.nan), "gain"),
        (lambda: Proportional(-np.inf), "gain"),
        (lambda: SmoothRandom(amplitude=np.inf), "amplitude"),
        (lambda: SmoothRandom(min_frequency=np.nan), "min_frequency"),
        (lambda: SmoothRandom(max_frequency=np.inf), "max_frequency"),
        (lambda: parse_controller("smooth:amplitude=inf"), "amplitude"),
        (lambda: parse_controller("proportional:gain=nan"), "gain")],
        ids=["constant-nan", "gain-nan", "gain-inf", "amplitude-inf",
             "min-frequency-nan", "max-frequency-inf", "spec-amplitude-inf",
             "spec-gain-nan"])
    def test_a_nonfinite_setting_is_rejected_when_built(self, make, name):
        with pytest.raises(ConfigurationError,
                           match=f"{name} must be a finite number"):
            make()

    def test_a_replayed_input_with_a_nonfinite_value_is_rejected(self,
                                                                  tmp_path):
        with pytest.raises(ConfigurationError, match="values must be finite"):
            FromFile([0.0, np.inf, 1.0])
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, [0.0, np.nan, 1.0], TimeGrid(1.0, 2))
        with pytest.raises(ConfigurationError, match="values must be finite"):
            FromFile(path)

    def test_from_file_replays_and_length_checks(self, tmp_path):
        grid = TimeGrid(5.0, 50)
        U = np.linspace(0.0, 2.0, 51)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, U, grid)
        c = FromFile(path)
        assert c.describe() == f"file:{path}"
        inputs = c.start(U[:2], grid, [None, None])
        assert c.control(inputs, 7, 0.7, np.zeros(2)).tolist() \
            == [U[7], U[7]]
        with pytest.raises(ConfigurationError):
            c.start(U[:1], TimeGrid(5.0, 10), [None])

    def test_array_replay_copies_its_input(self):
        U = np.linspace(0.0, 2.0, 51)
        c = FromFile(U)
        U[7] = 99.0
        inputs = c.start([0.0], TimeGrid(5.0, 50), [None])
        assert c.control(inputs, 7, 0.7, np.zeros(1))[0] \
            == np.linspace(0.0, 2.0, 51)[7]
        assert c.describe() == "replay"

    def test_a_stacked_replay_gives_each_episode_its_row(self):
        grid = TimeGrid(5.0, 10)
        stack = np.arange(33.0).reshape(3, 11)
        c = FromFile(stack)
        inputs = c.start(stack[:, 0], grid, [None] * 3)
        assert c.control(inputs, 4, 2.0, np.zeros(3)).tolist() \
            == [4.0, 15.0, 26.0]
        with pytest.raises(ConfigurationError, match=r"\(2, 11\)"):
            c.start(stack[:2, 0], grid, [None] * 2)

    def test_describe_round_trips_key_settings(self):
        assert "gain=2" in Proportional(2.0).describe()
        assert Constant().describe() == "constant:hold-U0"
        assert "value=-3" in Constant(-3.0).describe()

    def test_parse_controller_rebuilds_every_described_controller(
            self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, np.linspace(0.0, 2.0, 51),
                             TimeGrid(5.0, 50))
        controllers = [
            Constant(), Constant(0.123456789), Constant(-1e-17),
            Proportional(1.0 / 3.0), Proportional(2.0),
            SmoothRandom(),
            SmoothRandom(min_frequency=0.5, max_frequency=0.7),
            SmoothRandom(seed=9, num_modes=5, amplitude=0.1 + 0.2,
                         min_frequency=1.0 / 7.0, max_frequency=np.pi),
            FromFile(path)]
        for c in controllers:
            back = parse_controller(c.describe())
            assert type(back) is type(c)
            # the constructor parameters, not the per-episode state
            public = {k: v for k, v in vars(c).items()
                      if not k.startswith("_")}
            assert {k: v for k, v in vars(back).items()
                    if not k.startswith("_")} == public, c.describe()

    @pytest.mark.parametrize("text", [
        "constant:gain=1", "proportional", "smooth:modez=3", "file:",
        "pid:gain=1"])
    def test_parse_controller_rejects_bad_specs(self, text):
        with pytest.raises(ConfigurationError):
            parse_controller(text)

    @pytest.mark.parametrize("text, reason", [
        ("proportional:gain=nan", "gain must be a finite number, got nan"),
        ("proportional:gian=1", "unknown key 'gian' for proportional"),
        ("smooth:modes=abc",
         "invalid literal for int() with base 10: 'abc'"),
        ("proportional", "missing key 'gain' for proportional"),
        ("proportional:", "missing key 'gain' for proportional"),
        ("file", "missing path, as in file:PATH"),
        ("file:", "missing path, as in file:PATH"),
        ("proportional:gain=1,gain=2", "repeated key 'gain' for proportional"),
        ("smooth:seed=1,seed=5", "repeated key 'seed' for smooth"),
        ("proportional:gain",
         "item 'gain' is not key=value for proportional")],
        ids=["nan-gain", "unknown-key", "non-integer-modes", "no-gain",
             "no-gain-after-colon", "no-path", "no-path-after-colon",
             "repeated-gain", "repeated-seed", "item-without-value"])
    def test_a_bad_spec_is_named_with_its_reason(self, text, reason):
        # the reason as a sentence, not the repr of the error behind it
        with pytest.raises(ConfigurationError) as info:
            parse_controller(text)
        assert str(info.value) == f"bad controller spec {text!r}: {reason}"


class TestReward:
    def test_zero_states_give_zero_reward(self):
        states = np.zeros((5, 11))
        assert stabilization_reward(squared_norms(states)) == 0.0

    def test_unit_profile_gives_minus_one(self):
        states = np.ones((4, 11))
        assert stabilization_reward(squared_norms(states)) == \
            pytest.approx(-1.0)

    def test_two_step_hand_quadrature(self):
        states = np.array([np.ones(11), 2.0 * np.ones(11)])
        assert stabilization_reward(squared_norms(states)) == \
            pytest.approx(-2.5)

    def test_reward_sums_the_state_norms_in_step_order(self):
        states = np.random.default_rng(2).normal(size=(7, 11)) \
            * np.logspace(-8, 8, 7)[:, None]
        total = 0.0
        for row in states:
            total += np.sum((row[1:]**2 + row[:-1]**2) / 2.0 * 0.1)
        assert stabilization_reward(squared_norms(states)) == -total / 7

    def test_a_batch_gives_each_episode_its_reward_bitwise(self):
        # (B, M+1, n_points) histories -> (B, M+1) norms -> (B,) rewards
        states = np.random.default_rng(4).normal(size=(5, 9, 11)) \
            * np.logspace(-6, 6, 9)[:, None]
        rewards = stabilization_reward(squared_norms(states))
        assert rewards.shape == (5,)
        for b in range(5):
            assert rewards[b] == stabilization_reward(
                squared_norms(states[b]))
            for m in range(9):
                assert squared_norms(states[:, m])[b] == \
                    squared_norms(states[b, m])

    def test_squared_norms_are_numpy_trapezoid_bitwise(self):
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        states = np.random.default_rng(5).normal(size=(6, 4, 101)) \
            * np.logspace(-50, 50, 6)[:, None, None]
        assert np.array_equal(
            squared_norms(states),
            trapezoid(states**2, dx=0.01, axis=-1))

    def test_squared_norms_do_not_depend_on_memory_layout(self):
        states = np.random.default_rng(7).normal(size=(50, 101)) \
            * np.logspace(-8, 8, 50)[:, None]
        fortran = np.asfortranarray(states)
        transposed = np.ascontiguousarray(states.T).T
        for batch in (fortran, transposed):
            assert not batch.flags.c_contiguous
            norms = squared_norms(batch)
            for b in range(50):
                assert norms[b] == squared_norms(states[b])

    def test_reward_is_never_positive(self):
        rng = np.random.default_rng(0)
        states = rng.normal(size=(3, 11))
        assert stabilization_reward(squared_norms(states)) <= 0.0


class TestTrajectoryCsv:
    def test_round_trip_is_value_exact(self, tmp_path):
        grid = TimeGrid(5.0, 50)
        U = np.random.default_rng(1).normal(size=51)
        path = tmp_path / "u.csv"
        write_trajectory_csv(path, U, grid, Y=U * 2.0)
        assert np.array_equal(read_trajectory_csv(path), U)

    @pytest.mark.parametrize("steps, line", [
        ((2, 0, 5), 2), ((0, 1, 3), 4), ((0, 1, 1), 4), ((0, 2, 1), 3)],
        ids=["shuffled", "gapped", "duplicated", "swapped"])
    def test_rows_off_steps_zero_to_m_are_named(self, tmp_path, steps,
                                                line):
        # a nominal read in file order would be filtered silently shuffled
        path = tmp_path / "u.csv"
        path.write_text("step,t,U\n" + "".join(
            f"{k},{0.1 * k},{u}\n" for k, u in zip(steps, (0.3, 0.1, 0.2))))
        with pytest.raises(DatasetFormatError) as err:
            read_trajectory_csv(path)
        assert err.value.line == line
        assert f"u.csv:{line}: row at step {steps[line - 2]}" \
            in str(err.value)
        with pytest.raises(DatasetFormatError):
            FromFile(path)

    def test_a_step_that_is_not_an_integer_is_rejected(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("step,t,U\n0,0,1\n1.5,0.1,2\n")
        with pytest.raises(DatasetFormatError) as err:
            read_trajectory_csv(path)
        assert err.value.line == 3

    def test_missing_u_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("step,t,V\n0,0.0,1.0\n")
        with pytest.raises(ConfigurationError):
            read_trajectory_csv(path)

    def test_states_csv_has_one_row_per_space_time_point(self, tmp_path):
        grid = TimeGrid(1.0, 2)
        states = np.zeros((3, 5))
        path = tmp_path / "states.csv"
        write_states_csv(path, states, grid)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,t,x,u"
        assert len(lines) == 1 + 3 * 5

"""Tests for the two finite-difference plants, controllers, and rollouts."""

from dataclasses import replace

import numpy as np
import pytest

from safebc.pde_sim import (ConfigurationError, Constant, FromFile,
                            HyperbolicConfig, ParabolicConfig, Proportional,
                            SimulationDivergedError, SmoothRandom, TimeGrid,
                            parse_controller, read_trajectory_csv, rollout,
                            stabilization_reward, step_hyperbolic,
                            step_parabolic, write_states_csv,
                            write_trajectory_csv)


class Ramp:
    """Open-loop ramp U(t) = t, used for the transport-delay check."""

    def reset(self, U0, grid, episode_seed=None):
        pass

    def control(self, m, t, y_prev):
        return t

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
        res = rollout(cfg, Ramp(), 0.0)
        t = cfg.grid.times()
        mask = t >= 1.0 + 1e-9
        err = np.max(np.abs(res.Y[mask] - (t[mask] - 1.0)))
        assert err <= cfg.dx

    def test_recirculation_gain_five_is_unstable(self):
        cfg = HyperbolicConfig(beta=5.0)
        res = rollout(cfg, Constant(0.0), 1.0)
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
        Y = rollout(cfg, FromFile(U), U[0]).Y
        assert cfg.substeps == 10
        assert np.all(Y[:11] == U[0])
        assert np.max(np.abs(Y[10:] - U[:-10])) <= 1e-15

    def test_nonfinite_boundary_rejected(self):
        cfg = HyperbolicConfig(n_points=11, grid=TimeGrid(5.0, 50))
        with pytest.raises(ConfigurationError):
            step_hyperbolic(np.zeros(11), np.inf, cfg)

    @pytest.mark.parametrize("n_points", [201, 11])
    def test_state_length_must_match_the_config(self, n_points):
        # dx and the substep count both come from the config, so a state
        # on another spatial grid is rejected rather than mis-stepped
        cfg = HyperbolicConfig()
        with pytest.raises(ConfigurationError,
                           match=f"{n_points}.*n_points=101"):
            step_hyperbolic(np.zeros(n_points), 0.0, cfg)


class TestReactionDiffusionPlant:
    def test_constant_boundary_settles_to_linear_profile(self):
        # With no reaction the steady state is u(x) = U0 * x, so the midpoint
        # output approaches U0 / 2.
        cfg = ParabolicConfig(lam=0.0)
        res = rollout(replace(cfg, grid=TimeGrid(15.0, 600)), Constant(), 2.0)
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


class TestRollout:
    def test_constant_hold_with_stable_plant_is_flat(self):
        cfg = HyperbolicConfig(beta=0.0)
        res = rollout(cfg, Constant(), 0.7)
        assert np.all(res.U == 0.7)
        assert np.max(np.abs(res.Y - 0.7)) <= 1e-12

    def test_repeated_rollouts_are_bitwise_identical(self):
        cfg = HyperbolicConfig()
        ctrl = SmoothRandom(seed=3)
        a = rollout(cfg, ctrl, 2.0, episode_seed=17)
        b = rollout(cfg, ctrl, 2.0, episode_seed=17)
        assert np.array_equal(a.U, b.U) and np.array_equal(a.Y, b.Y)

    def test_trajectories_cover_the_whole_grid(self):
        cfg = HyperbolicConfig()
        res = rollout(cfg, Constant(0.0), 1.0)
        assert res.U.shape == res.Y.shape == (cfg.grid.M + 1,)
        assert res.states.shape == (cfg.grid.M + 1, cfg.n_points)
        assert res.U[0] == 1.0 and res.Y[0] == 1.0

    def test_initial_state_is_the_constant_profile(self):
        cfg = ParabolicConfig()
        res = rollout(replace(cfg, grid=TimeGrid(0.01, 10)), Constant(0.0),
                      3.0)
        assert np.all(res.states[0] == 3.0)

    def test_proportional_feedback_matches_hand_stepped_trace(self):
        # Re-derive the closed loop with plain Python loops: M=10 control
        # steps on an 11-point grid, recirculation gain 5, U0 = 3.
        gain, beta, U0 = 0.8, 5.0, 3.0
        cfg = HyperbolicConfig(beta=beta, n_points=11, grid=TimeGrid(5.0, 10))
        res = rollout(cfg, Proportional(gain), U0)

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
            closed = rollout(cfg, Proportional(0.5), 2.0)
            replay = rollout(cfg, FromFile(closed.U), closed.U[0])
            assert np.array_equal(replay.U, closed.U)
            assert np.array_equal(replay.Y, closed.Y)
            assert np.array_equal(replay.states, closed.states)

    def test_replay_checks_input_length(self):
        cfg = HyperbolicConfig()
        with pytest.raises(ConfigurationError):
            rollout(cfg, FromFile(np.zeros(7)), 0.0)
        with pytest.raises(ConfigurationError):
            rollout(cfg, FromFile(np.zeros((1, 51))), 0.0)

    def test_divergence_names_the_first_nonfinite_step(self):
        # beta=200 grows the transport state ~1e12-fold per step of 0.25,
        # so it overflows within 40 steps
        cfg = HyperbolicConfig(beta=200.0, grid=TimeGrid(10.0, 40))
        n_sub = cfg.substeps
        r, dt_sub = cfg.grid.dt / n_sub / cfg.dx, cfg.grid.dt / n_sub
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationDivergedError) as err:
                rollout(cfg, Proportional(0.5), 1.0)
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

    def test_nonfinite_initial_condition_rejected(self):
        with pytest.raises(ConfigurationError):
            rollout(HyperbolicConfig(), Constant(0.0), np.nan)


class TestControllers:
    def test_proportional_is_output_feedback(self):
        c = Proportional(2.0)
        assert c.control(1, 0.1, 3.0) == -6.0

    def test_constant_holds_initial_condition_by_default(self):
        c = Constant()
        c.reset(4.2, TimeGrid(5.0, 50))
        assert c.control(5, 0.5, 99.0) == 4.2

    def test_constant_with_value_ignores_initial_condition(self):
        c = Constant(-3.0)
        c.reset(4.2, TimeGrid(5.0, 50))
        assert c.control(5, 0.5, 99.0) == -3.0

    def test_smooth_random_vanishes_at_time_zero(self):
        c = SmoothRandom(seed=0, amplitude=5.0)
        c.reset(1.5, TimeGrid(5.0, 50))
        assert c.control(0, 0.0, 0.0) == 1.5

    def test_smooth_random_episode_seed_changes_signal(self):
        c = SmoothRandom(seed=0)
        c.reset(1.0, TimeGrid(5.0, 50), episode_seed=1)
        a = c.control(10, 1.0, 0.0)
        c.reset(1.0, TimeGrid(5.0, 50), episode_seed=2)
        b = c.control(10, 1.0, 0.0)
        assert a != b

    def test_smooth_random_validates_configuration(self):
        with pytest.raises(ConfigurationError):
            SmoothRandom(num_modes=0)
        with pytest.raises(ConfigurationError):
            SmoothRandom(min_frequency=2.0, max_frequency=1.0)

    def test_from_file_replays_and_length_checks(self, tmp_path):
        grid = TimeGrid(5.0, 50)
        U = np.linspace(0.0, 2.0, 51)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, U, grid)
        c = FromFile(path)
        assert c.describe() == f"file:{path}"
        c.reset(U[0], grid)
        assert c.control(7, 0.7, 0.0) == U[7]
        with pytest.raises(ConfigurationError):
            c.reset(U[0], TimeGrid(5.0, 10))

    def test_array_replay_copies_its_input(self):
        U = np.linspace(0.0, 2.0, 51)
        c = FromFile(U)
        U[7] = 99.0
        c.reset(0.0, TimeGrid(5.0, 50))
        assert c.control(7, 0.7, 0.0) == np.linspace(0.0, 2.0, 51)[7]
        assert c.describe() == "replay"

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


class TestReward:
    def test_zero_states_give_zero_reward(self):
        states = np.zeros((5, 11))
        assert stabilization_reward(states) == 0.0

    def test_unit_profile_gives_minus_one(self):
        states = np.ones((4, 11))
        assert stabilization_reward(states) == pytest.approx(-1.0)

    def test_two_step_hand_quadrature(self):
        states = np.array([np.ones(11), 2.0 * np.ones(11)])
        assert stabilization_reward(states) == pytest.approx(-2.5)

    def test_reward_sums_the_state_norms_in_step_order(self):
        states = np.random.default_rng(2).normal(size=(7, 11)) \
            * np.logspace(-8, 8, 7)[:, None]
        total = 0.0
        for row in states:
            total += np.sum((row[1:]**2 + row[:-1]**2) / 2.0 * 0.1)
        assert stabilization_reward(states) == -total / 7

    def test_reward_is_never_positive(self):
        rng = np.random.default_rng(0)
        states = rng.normal(size=(3, 11))
        assert stabilization_reward(states) <= 0.0


class TestTrajectoryCsv:
    def test_round_trip_is_value_exact(self, tmp_path):
        grid = TimeGrid(5.0, 50)
        U = np.random.default_rng(1).normal(size=51)
        path = tmp_path / "u.csv"
        write_trajectory_csv(path, U, grid, Y=U * 2.0)
        assert np.array_equal(read_trajectory_csv(path), U)

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

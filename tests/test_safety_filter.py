"""Tests for the scalar QP step and the trajectory-level safety filter."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from safebc.barrier import BarrierFunction, FeasibilityConstants
from safebc.neural_operator import BoundaryOperator
from safebc.pde_sim import (ConfigurationError, HyperbolicConfig,
                            SmoothRandom, TimeGrid, rollout)
from safebc.safety_filter import (FilterConfig, FilterInfeasibleError,
                                  filter_trajectory, qp_filter_step,
                                  rate_to_trajectory)

GRID = TimeGrid(5.0, 20)
CONSTANTS = FeasibilityConstants(alpha=1e-5, T=5.0)
finite = st.floats(min_value=-1e3, max_value=1e3)


def nominal(seed):
    env = HyperbolicConfig(beta=0.5, grid=GRID)
    return rollout(env, SmoothRandom(seed=2), 1.5, episode_seed=seed).U


def models(seed):
    return (BoundaryOperator(GRID, d_v=4, n_layers=2, seed=1),
            BarrierFunction(time_dependent=True, seed=seed))


class TestQpStep:
    @given(finite, finite, finite, finite, finite, finite, finite)
    @settings(max_examples=200, deadline=None)
    def test_active_step_lands_on_the_constraint(self, dphi_dt, dphi_dY, phi,
                                                 phi0, lam, mu, u_nom):
        step = qp_filter_step(dphi_dt, dphi_dY, phi, phi0, (lam, mu),
                              CONSTANTS, u_nom)
        a = dphi_dY * lam
        c = dphi_dY * mu + dphi_dt + CONSTANTS.alpha * phi + CONSTANTS.C * phi0
        if not step.constraint_active:
            assert step.u_dot_safe == u_nom
            assert a * u_nom + c <= 0.0
            return
        assume(not step.infeasible)
        scale = max(abs(a * step.u_dot_safe), abs(c), 1.0)
        assert a * step.u_dot_safe + c <= 1e-12 * scale

    def test_zero_gain_with_positive_residual_is_infeasible(self):
        step = qp_filter_step(1.0, 0.0, 0.0, 0.0, (2.0, 0.0), CONSTANTS, 3.0)
        assert step.constraint_active and step.infeasible
        assert step.u_dot_safe == 3.0

    def test_subnormal_gain_is_infeasible_not_infinite(self):
        # a = 1e-160 * 1e-160 is subnormal, and -c/a = -1/a overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            step = qp_filter_step(1.0, 1e-160, 0.0, 0.0,
                                  (np.float64(1e-160), 0.0), CONSTANTS, 0.0)
        assert step.constraint_active and step.infeasible
        assert step.u_dot_safe == 0.0

    def test_satisfied_constraint_keeps_the_nominal_rate(self):
        step = qp_filter_step(-1.0, 1.0, 0.0, 0.0, (1.0, 0.0), CONSTANTS, 0.5)
        assert not step.constraint_active
        assert step.u_dot_safe == 0.5


class TestRateToTrajectory:
    def test_diff_round_trip_is_bitwise(self):
        U = nominal(0)
        assert np.array_equal(rate_to_trajectory(np.diff(U), U[0]), U)


class TestFilterTrajectory:
    @pytest.mark.parametrize("seed", range(4))
    def test_zero_threshold_returns_the_nominal_input_bitwise(self, seed):
        op, bar = models(seed)
        U = nominal(seed)
        rep = filter_trajectory(op, bar, U, FilterConfig(eta=0.0))
        assert np.array_equal(rep.U_safe, U)
        assert np.array_equal(rep.Y_predicted, op.forward(U)[0])
        assert rep.n_modified == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_one_record_per_step_and_modified_steps_move(self, seed):
        op, bar = models(seed)
        U = nominal(seed)
        rep = filter_trajectory(op, bar, U, FilterConfig(eta=1e9))
        assert [r.step for r in rep.records] == list(range(1, GRID.M + 1))
        executed = [r.du_qp if r.active and r.accepted and not r.infeasible
                    else r.du_nom for r in rep.records]
        assert np.array_equal(rep.U_safe, rate_to_trajectory(executed, U[0]))

    def test_some_fixture_modifies_steps(self):
        # keeps the test above from passing on fixtures that never act
        reps = [filter_trajectory(*models(s), nominal(s), FilterConfig(eta=1e9))
                for s in range(4)]
        assert sum(r.n_modified for r in reps) > 0

    def test_abort_policy_raises_on_an_infeasible_step(self):
        op, bar = models(0)
        rep = filter_trajectory(op, bar, nominal(0), FilterConfig(eta=1e9))
        first = next(r.step for r in rep.records if r.infeasible)
        with pytest.raises(FilterInfeasibleError) as info:
            filter_trajectory(op, bar, nominal(0),
                              FilterConfig(eta=1e9, infeasible_policy="abort"))
        assert info.value.step == first

    def test_wrong_length_is_rejected(self):
        op, bar = models(0)
        with pytest.raises(ValueError):
            filter_trajectory(op, bar, np.zeros(7), FilterConfig())


@pytest.mark.parametrize("kwargs", [{"eta": -1.0},
                                    {"infeasible_policy": "ignore"}])
def test_bad_filter_config_raises_a_configuration_error(kwargs):
    with pytest.raises(ConfigurationError):
        FilterConfig(**kwargs)

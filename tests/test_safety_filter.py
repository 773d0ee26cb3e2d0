"""Tests for the scalar QP step and the trajectory-level safety filter.

The filter evaluates the operator's rate split and the barrier only at the
rows it reads, once per prediction; `oracles.whole_trajectory_filter`
predicts every row and evaluates the barrier before each use, and the two
must agree. A batch of one is bitwise that filter; each row of a
larger batch matches its nominal filtered alone in every step's flags and
to 1e-12 relative in its values, as a multi-row product need not round like
a one-row one.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from safebc import safety_filter
from safebc.barrier import BarrierFunction, FeasibilityConstants
from safebc.neural_operator import BoundaryOperator
from safebc.pde_sim import (ConfigurationError, HyperbolicConfig,
                            ParabolicConfig, SmoothRandom, TimeGrid, rollout)
from safebc.safety_filter import (FilterConfig, FilterInfeasibleError,
                                  filter_batch, filter_trajectory,
                                  qp_filter_step, rate_to_trajectory)

GRID = TimeGrid(5.0, 20)
CONSTANTS = FeasibilityConstants(alpha=1e-5, T=5.0)
finite = st.floats(min_value=-1e3, max_value=1e3)
ETAS = (0.0, 0.5, 2.0, 1e9)


def nominal(seed):
    env = HyperbolicConfig(beta=0.5, grid=GRID)
    return rollout(env, [SmoothRandom(seed=2)], [1.5],
                   episode_seeds=[seed]).U[0]


def models(seed):
    return (BoundaryOperator(GRID, d_v=4, n_layers=2, seed=1),
            BarrierFunction(seed=seed))


def parabolic_models(U0=(1.0,)):
    """An operator at the benchmark's parabolic grid (M=80, d_v=16), a
    barrier and a nominal input on which the filter modifies steps; with
    several U0, a (B, M+1) batch of nominals, the first of them that input."""
    grid = TimeGrid(1.0, 80)
    UU = rollout(ParabolicConfig(grid=grid), [SmoothRandom(seed=0)] * len(U0),
                 U0, episode_seeds=range(len(U0))).U
    return (BoundaryOperator(grid, d_v=16, n_layers=2, seed=0),
            BarrierFunction(seed=5),
            UU if len(U0) > 1 else UU[0])


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
        assert np.array_equal(rep.Y_predicted, op.forward(U))
        assert rep.n_modified == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_one_record_per_step_and_modified_steps_move(self, seed):
        op, bar = models(seed)
        U = nominal(seed)
        rep = filter_trajectory(op, bar, U, FilterConfig(eta=1e9))
        assert [r.step for r in rep.records] == list(range(1, GRID.M + 1))
        executed = [r.du_qp if r.active and r.accepted and not r.infeasible
                    else r.du_nom for r in rep.records]
        # the nominal bits up to the first changed step, then the executed
        # increments accumulated from the row before it
        f = next((r.step for r in rep.records if r.du_qp != r.du_nom
                  and r.active and r.accepted and not r.infeasible), None)
        expected = U.copy()
        if f is not None:
            expected[f:] = rate_to_trajectory(executed[f - 1:], U[f - 1])[1:]
        assert np.array_equal(rep.U_safe, expected)

    def test_some_fixture_modifies_steps(self):
        # keeps the test above from passing on fixtures that never act
        reps = [filter_trajectory(*models(s), nominal(s),
                                  FilterConfig(eta=1e9)) for s in range(4)]
        assert sum(r.n_modified for r in reps) > 0

    def test_abort_policy_raises_on_an_infeasible_step(self):
        op, bar = models(1)
        rep = filter_trajectory(op, bar, nominal(2), FilterConfig(eta=1e9))
        first = next(r.step for r in rep.records if r.infeasible)
        with pytest.raises(FilterInfeasibleError) as info:
            filter_trajectory(op, bar, nominal(2),
                              FilterConfig(eta=1e9, infeasible_policy="abort"))
        assert info.value.step == first

    def test_wrong_length_is_rejected(self):
        op, bar = models(0)
        with pytest.raises(ValueError):
            filter_trajectory(op, bar, np.zeros(7), FilterConfig())


def assert_reports_match(report, oracle):
    # bitwise: a row range of the rate split is exactly those rows of the
    # full split
    assert report.records == oracle.records
    assert np.array_equal(report.U_safe, oracle.U_safe)
    assert np.array_equal(report.Y_predicted, oracle.Y_predicted)


class TestMatchesTheWholeTrajectoryFilter:
    @pytest.mark.parametrize("eta", ETAS)
    @pytest.mark.parametrize("seed", range(4))
    def test_fixtures(self, seed, eta):
        from oracles import whole_trajectory_filter
        op, bar = models(seed)
        config = FilterConfig(eta=eta)
        assert_reports_match(filter_trajectory(op, bar, nominal(seed), config),
                             whole_trajectory_filter(op, bar, nominal(seed),
                                                     config))

    @pytest.mark.parametrize("eta", [2.0, 1e9])
    def test_parabolic_operator_at_m80(self, eta):
        from oracles import whole_trajectory_filter
        op, bar, U = parabolic_models()
        config = FilterConfig(eta=eta)
        report = filter_trajectory(op, bar, U, config)
        assert report.n_modified > 0
        assert_reports_match(report,
                             whole_trajectory_filter(op, bar, U, config))


def batch_case(case):
    """(operator, barrier, nominals): a hyperbolic fixture with six
    nominals, or five parabolic nominals at M=80."""
    if case == "parabolic":
        return parabolic_models(U0=(1.0, 0.5, 1.5, 2.0, 0.8))
    return models(case) + (np.array([nominal(s) for s in range(6, 12)]),)


BATCH_CASES = [0, 1, 2, 3, "parabolic"]


def flags(report):
    return [(r.step, r.accepted, r.active, r.infeasible)
            for r in report.records]


def assert_close(actual, expected):
    # relative to the array's scale, so entries near 0 do not count alone
    actual, expected = np.asarray(actual), np.asarray(expected)
    scale = np.max(np.abs(expected), initial=0.0)
    assert np.max(np.abs(actual - expected), initial=0.0) <= 1e-12 * scale


def assert_rows_close(reports, expected):
    assert len(reports) == len(expected)
    for report, one in zip(reports, expected):
        assert flags(report) == flags(one)
        assert [r.du_nom for r in report.records] == \
            [r.du_nom for r in one.records]
        assert_close([r.du_qp for r in report.records],
                     [r.du_qp for r in one.records])
        assert_close(report.U_safe, one.U_safe)
        assert_close(report.Y_predicted, one.Y_predicted)


class TestFilterBatch:
    @pytest.mark.parametrize("eta", [0.0, 2.0, 1e9])
    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_each_row_matches_its_nominal_filtered_alone(self, case, eta):
        op, bar, UU = batch_case(case)
        config = FilterConfig(eta=eta)
        reports = filter_batch(op, bar, UU, config)
        assert_rows_close(reports, [filter_trajectory(op, bar, U, config)
                                    for U in UU])
        if eta == 0.0:
            for report, U in zip(reports, UU):
                assert np.array_equal(report.U_safe, U)

    def test_some_batch_modifies_steps(self):
        # keeps the row checks from passing on batches that never act
        for case in (3, "parabolic"):
            op, bar, UU = batch_case(case)
            reports = filter_batch(op, bar, UU, FilterConfig(eta=1e9))
            assert all(r.n_modified > 0 for r in reports)

    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_a_permuted_batch_gives_the_permuted_rows(self, case):
        op, bar, UU = batch_case(case)
        config = FilterConfig(eta=1e9)
        order = np.random.default_rng(0).permutation(len(UU))
        reports = filter_batch(op, bar, UU, config)
        assert_rows_close(filter_batch(op, bar, UU[order], config),
                          [reports[i] for i in order])

    @pytest.mark.parametrize("eta", [0.0, 2.0, 1e9])
    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_a_batch_of_one_is_the_whole_trajectory_filter(self, case, eta):
        from oracles import whole_trajectory_filter
        op, bar, UU = batch_case(case)
        config = FilterConfig(eta=eta)
        [report] = filter_batch(op, bar, UU[-1:], config)
        assert_reports_match(report, whole_trajectory_filter(op, bar, UU[-1],
                                                             config))

    def test_abort_names_the_lowest_row_at_its_first_infeasible_step(self):
        # row 1 meets an infeasible step before row 0 does; filtering the
        # rows in order would stop at row 0's
        op, bar = models(1)
        UU = np.array([nominal(s) for s in (5, 2, 3)])
        config = FilterConfig(eta=1e9)
        first = [next(r.step for r in rep.records if r.infeasible)
                 for rep in filter_batch(op, bar, UU, config)]
        assert first[1] < first[0]
        with pytest.raises(FilterInfeasibleError) as info:
            filter_batch(op, bar, UU, FilterConfig(
                eta=1e9, infeasible_policy="abort"))
        assert (info.value.row, info.value.step) == (0, first[0])
        assert str(info.value) == \
            f"constraint unsatisfiable at step {first[0]}"

    def test_an_abort_is_raised_after_the_whole_walk(self, monkeypatch):
        # row 0 meets no infeasible step and row 2 meets one before row 1
        # does; every row is walked to the end, then row 1's step is raised
        op, bar = models(1)
        UU = np.array([nominal(s) for s in (0, 3, 2)])
        reports = filter_batch(op, bar, UU, FilterConfig(eta=1e9))
        first = [next((r.step for r in rep.records if r.infeasible), None)
                 for rep in reports]
        assert first[0] is None and first[2] < first[1]
        rows, partials = [], bar.partials

        def logged_partials(t, Y):
            rows.append(len(Y))
            return partials(t, Y)

        monkeypatch.setattr(bar, "partials", logged_partials)
        with pytest.raises(FilterInfeasibleError) as info:
            filter_batch(op, bar, UU, FilterConfig(
                eta=1e9, infeasible_policy="abort"))
        assert (info.value.row, info.value.step) == (1, first[1])
        # the phi0 pass, then every pass of the walk
        assert rows == [len(UU)] + [len(pairs) for _, pairs
                                    in barrier_schedule(reports)]

    def test_an_empty_batch_gives_no_reports(self):
        op, bar = models(0)
        assert filter_batch(op, bar, np.empty((0, GRID.M + 1)),
                            FilterConfig()) == []

    def test_wrong_length_is_rejected(self):
        op, bar = models(0)
        with pytest.raises(ValueError):
            filter_batch(op, bar, np.zeros((2, 7)), FilterConfig())

    def test_constants_with_alpha_dt_of_1_are_rejected(self, monkeypatch):
        # GRID has dt = 0.25, and 4 * 0.25 = 1
        op, bar = models(0)
        UU = np.array([nominal(0)])
        monkeypatch.setattr(op, "forward_batch", None)
        with pytest.raises(ConfigurationError,
                           match="got alpha=4.0 and dt=0.25, whose product"):
            filter_batch(op, bar, UU, FilterConfig(
                FeasibilityConstants(alpha=4.0), eta=1e9))
        monkeypatch.undo()
        [report] = filter_batch(op, bar, UU, FilterConfig(
            FeasibilityConstants(alpha=3.9), eta=1e9))
        assert len(report.records) == GRID.M


class Surface:
    """Another object seen through the named attributes alone: any other
    raises AttributeError."""

    def __init__(self, target, names):
        self.__target, self.__names = target, names

    def __getattr__(self, name):
        if name not in self.__names:
            raise AttributeError(name)
        return getattr(self.__target, name)


class OperatorSurface(Surface):
    """A BoundaryOperator seen through the surface the safety_filter module
    docstring lists, whose caches show nothing; calls logs each method
    call with its start argument."""

    def __init__(self, op, calls):
        super().__init__(op, ("grid",))
        self.__op, self.__calls, self.__caches = op, calls, {}

    def forward_batch(self, UU, start=0, prior=None):
        if prior is not None:
            prior = [(self.__caches[cache], i) for cache, i in prior]
        Y, cache = self.__op.forward_batch(UU, start, prior)
        surface = Surface(cache, ())
        self.__caches[surface] = cache
        self.__calls.append(("forward_batch", start))
        return Y, surface

    def decomposition(self, cache, start, stop, trajectory):
        self.__calls.append(("decomposition", start))
        return self.__op.decomposition(self.__caches[cache], start, stop,
                                       trajectory)


@pytest.mark.parametrize("case, eta", [(3, 1e9), ("parabolic", 2.0)])
def test_the_walk_reads_an_operator_through_its_documented_surface(case, eta):
    op, bar, UU = batch_case(case)
    config = FilterConfig(eta=eta)
    calls = []
    surface = OperatorSurface(op, calls)
    with pytest.raises(AttributeError):
        surface.predict
    reports = filter_batch(surface, bar, UU, config)
    # modified steps, and re-forwards from later rows
    assert all(r.n_modified > 0 for r in reports)
    assert any(name == "forward_batch" and start > 0
               for name, start in calls)
    for report, direct in zip(reports, filter_batch(op, bar, UU, config),
                              strict=True):
        assert_reports_match(report, direct)


def prediction_steps(report):
    """The first steps of a report's predictions: 1, and the step after
    each step that changed the input (M + 1 after a change at step M)."""
    return [1] + [r.step + 1 for r in report.records
                  if r.active and r.accepted and not r.infeasible
                  and r.du_qp != r.du_nom]


def barrier_schedule(reports):
    """(m, pairs) per step m that evaluates the barrier, from the reports:
    a row's prediction made at step f is evaluated at (row, f) alone, then
    at step f + 1 over (row, f + 1..M) unless it is replaced there; the
    rows come in ascending order."""
    M = len(reports[0].records)
    firsts = [set(prediction_steps(report)) for report in reports]
    schedule = []
    for m in range(1, M + 1):
        pairs = []
        for b, f in enumerate(firsts):
            if m in f:
                pairs.append((b, m))
            elif m - 1 in f:
                pairs.extend((b, k) for k in range(m, M + 1))
        if pairs:
            schedule.append((m, pairs))
    return schedule


def walk_log(monkeypatch, op, bar, UU, config):
    """filter_batch's reports (filter_trajectory's for one nominal (M+1,))
    and its forwards, barrier passes and QP steps, in the order they ran; a
    QP step logs its barrier values and its phi0."""
    events = []
    forward_batch, partials, qp = (op.forward_batch, bar.partials,
                                   safety_filter.qp_filter_step)

    def logged_forward(U, start=0, prior=None):
        Y, cache = forward_batch(U, start, prior)
        events.append(("forward", Y))
        return Y, cache

    def logged_partials(t, Y):
        out = partials(t, Y)
        events.append(("partials", (np.copy(t), np.copy(Y)), out))
        return out

    def logged_qp(dphi_dt, dphi_dY, phi, phi0, *args):
        events.append(("qp", (phi, dphi_dt, dphi_dY), phi0))
        return qp(dphi_dt, dphi_dY, phi, phi0, *args)

    monkeypatch.setattr(op, "forward_batch", logged_forward)
    monkeypatch.setattr(bar, "partials", logged_partials)
    monkeypatch.setattr(safety_filter, "qp_filter_step", logged_qp)
    reports = filter_batch(op, bar, UU, config) if np.ndim(UU) == 2 \
        else [filter_trajectory(op, bar, UU, config)]
    monkeypatch.undo()
    return reports, events


def assert_each_read_pair_is_evaluated_once(reports, events, times):
    """Replays the walk's log: a first barrier pass gives phi at t = 0 and
    each row's U0, each later pass covers the schedule's pairs at the
    current predictions' outputs, each pair once per prediction, and every
    QP step reads its row's phi0 and its pair of the prediction current
    there."""
    B, M = len(reports), len(reports[0].records)
    kind, (t, Y), (phi0, *_) = events[0]
    assert kind == "partials" and t == 0.0
    assert Y.tolist() == [report.U_safe[0] for report in reports]
    firsts = [prediction_steps(report) for report in reports]
    schedule = iter(barrier_schedule(reports))
    Y_pred, values = [None] * B, [{} for _ in range(B)]
    m, reads = 1, 0
    for kind, *data in events[1:]:
        if kind == "forward":
            # at step m, or after the walk (m = M + 1)
            rows = [b for b in range(B) if m in firsts[b]]
            assert len(rows) == len(data[0])
            for i, b in enumerate(rows):
                Y_pred[b], values[b] = data[0][i], {}
        elif kind == "partials":
            (t, Y), out = data
            step, pairs = next(schedule)
            assert step == m and len(pairs) == len(Y)
            for j, (b, k) in enumerate(pairs):
                assert t[j] == times[k] and Y[j] == Y_pred[b][k]
                assert k not in values[b]
                values[b][k] = tuple(a[j] for a in out)
        else:
            assert data[0] == values[reads % B][m]
            assert data[1] == phi0[reads % B]
            reads += 1
            m += reads % B == 0
    assert reads == B * M and next(schedule, None) is None


def test_the_barrier_is_evaluated_once_per_prediction_at_zero_eta(
        monkeypatch):
    # no step is changed: one pass at step 1 over its row, one at step 2
    # over the rest of the trajectory
    op, bar = models(0)
    U = nominal(0)
    times = op.grid.times()
    reports, events = walk_log(monkeypatch, op, bar, U,
                               FilterConfig(eta=0.0))
    calls = [data for kind, *data in events if kind == "partials"]
    assert [t.tolist() for (t, _), _ in calls] == \
        [0.0, [times[1]], times[2:].tolist()]
    assert_each_read_pair_is_evaluated_once(reports, events, times)
    assert reports[0].n_modified == 0


@pytest.mark.parametrize("case", [0, 2, "parabolic"])
@pytest.mark.parametrize("eta", [2.0, 1e9])
def test_every_pair_the_walk_reads_is_evaluated_once(case, eta,
                                                     monkeypatch):
    # the last nominal of each case has modified steps at both etas
    op, bar, UU = batch_case(case)
    times = op.grid.times()
    for rows in (UU[-1:], UU):
        reports, events = walk_log(monkeypatch, op, bar, rows,
                                   FilterConfig(eta=eta))
        assert reports[-1].n_modified > 0
        assert_each_read_pair_is_evaluated_once(reports, events, times)
        # the phi0 pass and at most one pass per step
        n_calls = sum(kind == "partials" for kind, *_ in events)
        assert n_calls <= op.grid.M + 1


@pytest.mark.parametrize("case", BATCH_CASES)
def test_each_rows_phi0_is_that_of_its_point_alone(case, monkeypatch):
    # phi(0, U0) from a (B, d) product may round unlike the point alone
    op, bar, UU = batch_case(case)
    _, events = walk_log(monkeypatch, op, bar, UU, FilterConfig(eta=2.0))
    reads = [data[1] for kind, *data in events if kind == "qp"]
    alone = [bar.value(0.0, UU[b:b + 1, 0])[0] for b in range(len(UU))]
    assert reads == alone * op.grid.M


@pytest.mark.parametrize("eta", [0.0, 2.0, 1e9])
def test_one_forward_per_prediction_and_a_split_only_where_read(
        eta, monkeypatch):
    # one forward for the first prediction and one per modified step (the
    # benchmark's traced run checks the same count); per prediction, the
    # rate split covers its first step's row alone, then at most once the
    # rest of the trajectory
    op, bar, U = parabolic_models()
    n = op.grid.M + 1
    events, starts = [], []
    forward_batch, decomposition = op.forward_batch, op.decomposition

    def logged_forward(UU, start=0, prior=None):
        events.append(None)
        starts.append(start)
        return forward_batch(UU, start, prior)

    def logged_split(cache, start, stop, trajectory):
        events.append((start, stop))
        return decomposition(cache, start, stop, trajectory)

    monkeypatch.setattr(op, "forward_batch", logged_forward)
    monkeypatch.setattr(op, "decomposition", logged_split)
    report = filter_trajectory(op, bar, U, FilterConfig(eta=eta))
    predictions = []
    for event in events:
        if event is None:
            predictions.append([])
        else:
            predictions[-1].append(event)
    assert len(predictions) == 1 + report.n_modified
    assert predictions[0][0] == (1, 2)
    for splits in predictions:
        # the final forward after a change at the last step has no split
        if splits:
            (start, stop), rest = splits[0], splits[1:]
            assert stop == start + 1
            assert rest in ([], [(stop, n)])
    # a re-forward starts one row before its first split's row, at the
    # first row its change moved (the final one after a change at the last
    # step, at row M); the first one runs every row
    assert starts[0] == 0
    for start, splits in zip(starts[1:], predictions[1:]):
        assert start == (splits[0][0] if splits else n) - 1


@pytest.mark.parametrize("case", [0, 2, "parabolic"])
@pytest.mark.parametrize("eta", [2.0, 1e9])
def test_the_reported_prediction_is_the_forward_of_the_safe_input(case, eta):
    # a re-forward runs from the first row its change moved, and the walk
    # keeps each prediction's earlier rows, which causality leaves as they
    # were: bitwise in a batch of one
    op, bar, UU = batch_case(case)
    config = FilterConfig(eta=eta)
    reports = [filter_trajectory(op, bar, U, config) for U in UU]
    assert any(report.n_modified for report in reports)
    for report in reports:
        assert np.array_equal(report.Y_predicted, op.forward(report.U_safe))
    for report in filter_batch(op, bar, UU, config):
        assert_close(report.Y_predicted, op.forward(report.U_safe))


@pytest.mark.parametrize("call", ["filter_trajectory", "filter_batch",
                                  "predict"])
def test_no_filter_or_inference_call_holds_a_dense_kernel_table(call):
    """At the benchmark's parabolic size (M=80, d_v=16) a layer's dense
    kernel table is (n*d_v)^2 floats, 13 MB, and the pair kernel's hidden
    features (n^2, h) 1.7 MB. A call through the lag kernel holds less at
    once, by tracemalloc's peak, than one eighth of the table."""
    op, bar, UU = parabolic_models(U0=(1.0, 0.6, 0.3))
    dense_bytes = ((op.grid.M + 1) * op.d_v) ** 2 * 8
    run = {"filter_trajectory": lambda: filter_trajectory(op, bar, UU[0],
                                                          FilterConfig()),
           "filter_batch": lambda: filter_batch(op, bar, UU, FilterConfig()),
           "predict": lambda: op.predict(UU[0])}[call]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 8


@pytest.mark.parametrize("kwargs", [{"eta": -1.0},
                                    {"infeasible_policy": "ignore"},
                                    {"eta": float("nan")}])
def test_bad_filter_config_raises_a_configuration_error(kwargs):
    with pytest.raises(ConfigurationError):
        FilterConfig(**kwargs)

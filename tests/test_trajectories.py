"""Tests for dataset collection, labeling, balancing, splitting, and CSV IO."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safebc import trajectories
from safebc.cli import load_env
from safebc.pde_sim import (ConfigurationError, Constant, HyperbolicConfig,
                            ParabolicConfig, TimeGrid, rollout)
from safebc.trajectories import (CollectionError, Dataset,
                                 DatasetFormatError, OneSidedSet,
                                 TwoSidedSet, balance_near_zero,
                                 collect_dataset,
                                 parse_safe_set, read_dataset,
                                 split, suffix_safe_mask, write_dataset)


def make_dataset(n=10, M=4, seed=0):
    rng = np.random.default_rng(seed)
    U = np.empty((n, M + 1))
    Y = np.empty_like(U)
    for k in range(n):
        U[k] = rng.normal(size=M + 1)
        Y[k] = rng.normal(size=M + 1)
    return Dataset(TimeGrid(1.0, M), U, Y, OneSidedSet(1, 1.0),
                   {"origin": "synthetic"})


def datasets_equal(a, b):
    """Bitwise equality of grids, values and labels (metadata ignored)."""
    return a.grid == b.grid and all(
        np.array_equal(x, y)
        for x, y in ((a.U, b.U), (a.Y, b.Y), (a.safe, b.safe)))


def empty_dataset(grid):
    width = grid.M + 1
    return Dataset(grid, np.empty((0, width)), np.empty((0, width)),
                   OneSidedSet())


class TestSafeSets:
    def test_one_sided_upper_bound(self):
        s = parse_safe_set("Y<1")
        labels = s.contains([0.5, 1.2, 0.3])
        assert labels.dtype == bool
        assert np.array_equal(labels, [True, False, True])

    def test_one_sided_lower_bound(self):
        s = parse_safe_set("Y>0")
        assert np.array_equal(s.contains([0.5, -0.2]), [True, False])

    def test_two_sided_band(self):
        s = TwoSidedSet(center=0.0, halfwidth=0.145)
        labels = s.contains([0.1, -0.2])
        assert labels.dtype == bool
        assert np.array_equal(labels, [True, False])

    def test_two_sided_parse(self):
        s = parse_safe_set("abs:center=0,halfwidth=0.145")
        assert isinstance(s, TwoSidedSet) and s.halfwidth == 0.145

    def test_degenerate_set_labels_everything_unsafe(self):
        s = OneSidedSet(sign=1, bound=-np.finfo(float).max)
        assert not s.contains([-1e30, 0.0, 1e30]).any()

    @pytest.mark.parametrize("center, y", [
        (-7.976931348623158e+307, 1e308), (1e308, -1e308),
        (-np.finfo(float).max, np.finfo(float).max)])
    @pytest.mark.parametrize("halfwidth", [1.0, np.finfo(float).max])
    def test_a_distance_that_overflows_is_unsafe(self, center, y,
                                                 halfwidth):
        # |y - center| is past the largest float, so past any halfwidth;
        # the overflow is no error
        s = TwoSidedSet(center=center, halfwidth=halfwidth)
        assert np.array_equal(s.contains([y, center]), [False, True])

    def test_boundary_is_unsafe(self):
        s = parse_safe_set("Y<1")
        assert not s.contains([1.0])[0]

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            parse_safe_set("Z<1")

    @pytest.mark.parametrize("text", ["Z<1", "Y<one", "abs:halfwidth=-1",
                                      "abs:width=1", "abs:halfwidth"])
    def test_bad_spec_raises_a_configuration_error(self, text):
        with pytest.raises(ConfigurationError):
            parse_safe_set(text)

    def test_abs_spec_keeps_the_default_center(self):
        assert parse_safe_set("abs:halfwidth=0.5") == TwoSidedSet(0.0, 0.5)

    @pytest.mark.parametrize("make", [lambda: OneSidedSet(sign=2),
                                      lambda: OneSidedSet(bound=np.inf),
                                      lambda: TwoSidedSet(halfwidth=0.0)])
    def test_bad_set_raises_a_configuration_error(self, make):
        with pytest.raises(ConfigurationError):
            make()

    @pytest.mark.parametrize("center", [np.array([0.1, 0.2]), np.nan,
                                        np.inf])
    def test_two_sided_center_is_one_finite_number(self, center):
        with pytest.raises(ConfigurationError, match="center"):
            TwoSidedSet(center=center, halfwidth=0.5)

    @given(st.one_of(
        st.builds(OneSidedSet, sign=st.sampled_from([1, -1]),
                  bound=st.floats(allow_nan=False, allow_infinity=False)),
        st.builds(TwoSidedSet,
                  center=st.floats(allow_nan=False, allow_infinity=False),
                  halfwidth=st.floats(min_value=0.0, exclude_min=True))))
    @settings(max_examples=200, deadline=None)
    def test_every_valid_set_reads_back_from_its_spec(self, safe_set):
        assert parse_safe_set(safe_set.describe()) == safe_set

    def test_relabeling_is_idempotent(self):
        s = parse_safe_set("Y<1")
        Y = np.random.default_rng(0).normal(size=20)
        first = s.contains(Y)
        assert np.array_equal(s.contains(Y), first)

    def test_describe_round_trips(self):
        for text in ("Y<1", "Y>0"):
            assert parse_safe_set(parse_safe_set(text).describe()).describe() \
                == parse_safe_set(text).describe()
        # floats are written in full, so the set read back is the same set
        for text in ("Y<0.123456789", "abs:center=0.1,halfwidth=0.123456789"):
            assert parse_safe_set(text).describe() == text
            assert parse_safe_set(parse_safe_set(text).describe()) \
                == parse_safe_set(text)


class TestSuffixMask:
    def test_all_safe_stays_all_safe(self):
        assert np.array_equal(suffix_safe_mask([1, 1, 1]), [True, True, True])

    def test_interior_violation_clears_prefix(self):
        assert np.array_equal(suffix_safe_mask([1, 0, 1, 1]),
                              [False, False, True, True])

    def test_unsafe_last_step_clears_everything(self):
        assert np.array_equal(suffix_safe_mask([1, 1, 0]),
                              [False, False, False])

    def test_each_row_of_a_label_array_is_masked_on_its_own(self):
        labels = np.random.default_rng(4).random((6, 9)) < 0.8
        mask = suffix_safe_mask(labels)
        for row, row_mask in zip(labels, mask, strict=True):
            assert np.array_equal(row_mask, suffix_safe_mask(row))

    @given(st.lists(st.booleans(), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_mask_is_monotone_and_bounded_by_labels(self, labels):
        mask = suffix_safe_mask(labels)
        # once true, true through the end
        seen = False
        for m, lab in zip(mask, labels):
            if seen:
                assert m
            seen = seen or m
            if m:
                assert lab  # mask only marks safe steps
        # last element of the mask equals the last label
        assert mask[-1] == labels[-1]


class TestCollection:
    def test_deterministic_under_seed(self):
        env = HyperbolicConfig(beta=0.0)
        ss = parse_safe_set("Y<1")
        a = collect_dataset(env, [Constant()], 3, (0.1, 0.9), ss, seed=5)
        b = collect_dataset(env, [Constant()], 3, (0.1, 0.9), ss, seed=5)
        assert datasets_equal(a, b)

    def test_initial_conditions_stay_in_range(self):
        env = HyperbolicConfig(beta=0.0)
        ss = parse_safe_set("Y<1")
        ds = collect_dataset(env, [Constant()], 20, (1.0, 10.0), ss, seed=0)
        assert np.all((1.0 <= ds.U[:, 0]) & (ds.U[:, 0] <= 10.0))

    def test_stable_plant_small_input_is_all_safe(self):
        env = HyperbolicConfig(beta=0.0)
        ss = parse_safe_set("Y<1")
        ds = collect_dataset(env, [Constant()], 4, (0.5, 0.5), ss, seed=0)
        assert ds.safe.shape == (4, env.grid.M + 1) and ds.safe.all()

    def test_controllers_cycle_round_robin(self):
        env = HyperbolicConfig(beta=0.0)
        ss = parse_safe_set("Y<1")
        ds = collect_dataset(env, [Constant(0.25), Constant(0.75)], 4,
                             (0.5, 0.5), ss, seed=0)
        assert ds.U[:, -1].tolist() == [0.25, 0.75, 0.25, 0.75]

    # beta=200 amplifies any nonzero state past float range within the
    # horizon: from U0 = 0 a zero boundary input keeps the plant at zero,
    # while a boundary input of 1e200 overflows it
    DIVERGING = HyperbolicConfig(beta=200.0, grid=TimeGrid(10.0, 40))

    def test_diverged_rollouts_are_skipped_and_counted(self, monkeypatch):
        # the overflow warnings of the diverging rows stay inside rollout,
        # and all four episodes run as one batch
        calls = []

        def counting_rollout(*args, **kwargs):
            calls.append(args)
            return rollout(*args, **kwargs)

        monkeypatch.setattr(trajectories, "rollout", counting_rollout)
        ss = parse_safe_set("Y<1")
        ds = collect_dataset(self.DIVERGING,
                             [Constant(0.0), Constant(1e200)], 4,
                             (0.0, 0.0), ss, seed=0)
        assert ds.meta["skipped"] == "2" and ds.meta["K"] == "4"
        assert len(ds) == 2 and not ds.U.any() and not ds.Y.any()
        assert len(calls) == 1

    def test_more_than_half_diverged_raises(self):
        ss = parse_safe_set("Y<1")
        with pytest.raises(CollectionError, match="2 of 3"):
            collect_dataset(self.DIVERGING,
                            [Constant(0.0), Constant(1e200),
                             Constant(1e200)], 3, (0.0, 0.0), ss)

    def test_metadata_records_provenance(self):
        env = HyperbolicConfig(beta=0.5, grid=TimeGrid(5.0, 50))
        ss = parse_safe_set("Y<1")
        ds = collect_dataset(env, [Constant()], 2, (0.1, 0.9), ss, seed=3)
        assert ds.meta["env"] == ('{"name": "hyperbolic", "beta": 0.5, '
                                  '"n_points": 101, "grid": {"T": 5.0, '
                                  '"M": 50}}')
        assert ds.meta["controllers"] == "constant:hold-U0"
        assert ds.meta["seed"] == "3" and ds.meta["K"] == "2"
        assert ds.meta["skipped"] == "0"
        # the safe set labels the dataset; it is not a metadata entry
        assert "safe_set" not in ds.meta and ds.safe_set == ss

    @pytest.mark.parametrize("env", [
        HyperbolicConfig(beta=0.5, n_points=41, grid=TimeGrid(2.0, 20)),
        ParabolicConfig(eps=0.07, lam=0.3, n_points=21, x_out=0.25,
                        grid=TimeGrid(0.5, 20))], ids=["hyperbolic",
                                                       "parabolic"])
    def test_the_env_comment_loads_back_as_the_collecting_plant(self, env,
                                                                tmp_path):
        ds = collect_dataset(env, [Constant(0.1)], 2, (0.1, 0.2),
                             parse_safe_set("Y<1"), seed=0)
        assert load_env(json.loads(ds.meta["env"])) == env
        write_dataset(tmp_path / "ds.csv", ds)
        back = read_dataset(tmp_path / "ds.csv")
        assert load_env(json.loads(back.meta["env"])) == env

    def test_labels_are_the_safe_set_on_Y_and_read_back_equal(self,
                                                             tmp_path):
        env = HyperbolicConfig(beta=0.5, grid=TimeGrid(5.0, 50))
        ss = TwoSidedSet(center=0.5, halfwidth=0.4)
        ds = collect_dataset(env, [Constant(0.3), Constant(1.2)], 6,
                             (0.1, 1.5), ss, seed=2)
        assert np.array_equal(ds.safe, ss.contains(ds.Y))
        assert ds.safe.any() and not ds.safe.all()
        write_dataset(tmp_path / "ds.csv", ds)
        back = read_dataset(tmp_path / "ds.csv")
        assert back.safe_set == ss and datasets_equal(back, ds)


class TestBalance:
    def test_keep_fraction_one_retains_everything(self):
        ds = make_dataset()
        mask = balance_near_zero(ds, band=(-0.1, 0.1), keep_fraction=1.0)
        assert mask.shape == ds.Y.shape and mask.all()

    def test_out_of_band_samples_always_retained(self):
        base = make_dataset()
        mask = balance_near_zero(base, band=(-0.1, 0.1), keep_fraction=0.2,
                                 seed=1)
        out_of_band = (base.Y < -0.1) | (base.Y > 0.1)
        assert mask[out_of_band].all()

    def test_in_band_retention_rate_is_binomial(self):
        # 10000 in-band samples at keep 0.2 should retain 2000 +- 200.
        grid = TimeGrid(1.0, 99)
        ds = Dataset(grid, np.zeros((100, 100)), np.zeros((100, 100)),
                     OneSidedSet())
        kept = int(balance_near_zero(ds, band=(-0.1, 0.1),
                                     keep_fraction=0.2, seed=0).sum())
        assert 1800 <= kept <= 2200

    def test_no_in_band_samples_leaves_dataset_unchanged(self):
        grid = TimeGrid(1.0, 4)
        ds = Dataset(grid, np.full((1, 5), 3.0), np.full((1, 5), 3.0),
                     OneSidedSet())
        assert balance_near_zero(ds, band=(-0.1, 0.1),
                                 keep_fraction=0.2).all()
        assert np.array_equal(ds.Y, np.full((1, 5), 3.0))

    def test_bad_keep_fraction_rejected(self):
        with pytest.raises(ValueError):
            balance_near_zero(make_dataset(), band=(-0.1, 0.1),
                              keep_fraction=0.0)


class TestSplit:
    def test_ninety_ten_split_of_ten(self):
        tr, te = split(make_dataset(10), 0.9, seed=0)
        assert len(tr) == 9 and len(te) == 1

    def test_partition_is_disjoint_and_exhaustive(self):
        tr, te = split(make_dataset(17), 0.7, seed=2)
        assert set(tr) | set(te) == set(range(17))
        assert not set(tr) & set(te)
        assert np.all(np.diff(tr) > 0) and np.all(np.diff(te) > 0)

    def test_same_seed_same_partition(self):
        ds = make_dataset(12)
        a = split(ds, 0.75, seed=9)
        b = split(ds, 0.75, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_too_small_dataset_rejected(self):
        with pytest.raises(ValueError):
            split(make_dataset(1), 0.9)

    def test_both_sides_nonempty_even_for_extreme_fractions(self):
        ds = make_dataset(5)
        tr, te = split(ds, 0.999, seed=0)
        assert len(tr) >= 1 and len(te) >= 1


class TestDatasetCsv:
    HEAD = "# safe_set=Y<1\n# grid_T=1\n# grid_M=2\ntraj_id,step,U,Y\n"

    def test_round_trip_is_value_exact(self, tmp_path):
        ds = make_dataset(4, M=6, seed=3)
        path = tmp_path / "ds.csv"
        write_dataset(path, ds)
        back = read_dataset(path)
        assert datasets_equal(ds, back)
        assert back.safe_set == ds.safe_set
        assert back.meta == {"origin": "synthetic"}

    def test_header_line_and_comment_metadata(self, tmp_path):
        ds = make_dataset(1)
        path = tmp_path / "ds.csv"
        write_dataset(path, ds)
        lines = path.read_text().splitlines()
        assert lines[:5] == ["# origin=synthetic", "# safe_set=Y<1.0",
                             "# grid_T=1", "# grid_M=4", "traj_id,step,U,Y"]
        assert len(lines) == 5 + 5

    @pytest.mark.parametrize("text", [
        "# safe_set=Y<1\ntraj_id,step,U,Y\n",
        "# safe_set=Y<1\n# grid_T=1\ntraj_id,step,U,Y\n"],
        ids=["no-grid", "no-grid_M"])
    def test_a_file_without_its_grid_is_rejected(self, tmp_path, text):
        # a header-only file once read back as a dataset with no grid
        path = tmp_path / "nogrid.csv"
        path.write_text(text)
        with pytest.raises(DatasetFormatError, match="grid_T/grid_M"):
            read_dataset(path)

    def test_a_file_without_its_safe_set_is_rejected(self, tmp_path):
        # the labels come from the spec alone
        path = tmp_path / "noset.csv"
        path.write_text("# grid_T=1\n# grid_M=2\ntraj_id,step,U,Y\n")
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(path)
        assert str(err.value) == f"{path}: missing safe_set comments"

    def test_a_file_of_the_older_layout_is_rejected_with_the_header(
            self, tmp_path):
        path = tmp_path / "old.csv"
        path.write_text("# safe_set=Y<1.0\n# grid_T=1\n# grid_M=2\n"
                        "traj_id,step,t,U,Y,safe\n0,0,0,1,1,0\n"
                        "0,1,0.5,1,1,0\n0,2,1,1,1,0\n")
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(path)
        assert str(err.value) == (
            f"{path}:4: header 'traj_id,step,t,U,Y,safe', expected "
            "'traj_id,step,U,Y'")

    def test_an_empty_dataset_round_trips_with_its_grid(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_dataset(path, empty_dataset(TimeGrid(1.0, 2)))
        back = read_dataset(path)
        assert len(back) == 0 and back.U.shape == back.safe.shape == (0, 3)
        assert back.grid == TimeGrid(1.0, 2)

    def test_hand_written_two_row_fixture(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text(
            "# safe_set=Y<0.3\n# grid_T=1\n# grid_M=2\n"
            "traj_id,step,U,Y\n"
            "0,0,2.5,2.5\n"
            "0,1,-1,0.25\n"
            "0,2,-1,0.1\n")
        ds = read_dataset(path)
        assert len(ds) == 1 and ds.safe_set == OneSidedSet(1, 0.3)
        assert np.array_equal(ds.U, [[2.5, -1.0, -1.0]])
        assert np.array_equal(ds.Y, [[2.5, 0.25, 0.1]])
        assert np.array_equal(ds.safe, [[False, True, True]])

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("traj_id,step,U,Y\n0,0,oops,1\n")
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(path)
        assert err.value.line == 2

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "nohdr.csv"
        path.write_text("0,0,1,1\n")
        with pytest.raises(DatasetFormatError):
            read_dataset(path)

    def test_rows_out_of_order_are_rejected_naming_the_line(self, tmp_path):
        # every row is there once, but steps 0 and 1 are swapped
        path = tmp_path / "swapped.csv"
        path.write_text(self.HEAD + "0,0,1,1\n0,1,1,1\n0,2,1,1\n"
                        "1,1,1,1\n1,0,1,1\n1,2,1,1\n")
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(path)
        assert str(err.value) == (
            f"{path}:8: row at step 1 of trajectory 1: rows must run "
            "trajectory after trajectory, steps 0..2 in order")

    def test_incomplete_trajectory_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text(self.HEAD + "0,0,1,1\n0,2,1,1\n")
        with pytest.raises(DatasetFormatError,
                           match="row at step 2 of trajectory 0") as err:
            read_dataset(path)
        assert err.value.line == 6

    # rows after the header (data from line 5 on), with the line that must
    # be named
    BAD_ROWS = {
        "float_traj_id": ("0,0,1,1\n0.5,1,1,1\n", 6),
        "float_step": ("0,0,1,1\n0,0.5,1,1\n", 6),
        "extra_cell": ("0,0,1,1\n0,1,1,1,7\n", 6),
        "missing_cell": ("0,0,1,1\n0,1,1\n", 6),
        "duplicate": ("0,0,1,1\n0,1,1,1\n0,1,1,1\n0,2,1,1\n", 7),
        "gap": ("0,0,1,1\n0,2,1,1\n0,3,1,1\n", 6),
        "past_M": ("0,0,1,1\n0,1,1,1\n0,2,1,1\n0,3,1,1\n", 8),
        "short": ("0,0,1,1\n0,1,1,1\n1,0,1,1\n1,1,1,1\n1,2,1,1\n", 7),
        "short_last": ("0,0,1,1\n0,1,1,1\n0,2,1,1\n1,0,1,1\n1,1,1,1\n",
                       9),
        "trajectories_swapped": ("1,0,1,1\n1,1,1,1\n1,2,1,1\n0,0,1,1\n"
                                 "0,1,1,1\n0,2,1,1\n", 5),
        "first_trajectory_not_0": ("1,0,1,1\n1,1,1,1\n1,2,1,1\n", 5),
    }

    @pytest.mark.parametrize("layout", ["lf", "crlf", "blank"])
    @pytest.mark.parametrize("case", sorted(BAD_ROWS))
    def test_a_bad_row_names_its_line(self, tmp_path, case, layout):
        """Cells that are no integer, a row of the wrong width, a duplicate,
        a gap, a step past M, a trajectory cut short and rows in another
        order each name their line: the first row that is not where the
        writer puts it, or a last trajectory's last row when it ends short;
        also with CRLF endings and with a blank line after every line (line
        k is then 2k - 1)."""
        rows, line = self.BAD_ROWS[case]
        text = self.HEAD + rows
        if layout == "crlf":
            text = text.replace("\n", "\r\n")
        if layout == "blank":
            text, line = text.replace("\n", "\n\n"), 2 * line - 1
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(path)
        assert err.value.line == line
        assert f"{path}:{line}:" in str(err.value)


class TestPairValidation:
    def test_shapes_must_agree(self):
        grid = TimeGrid(1.0, 2)
        with pytest.raises(ValueError):
            Dataset(grid, np.zeros((1, 3)), np.zeros((1, 4)), OneSidedSet())
        with pytest.raises(ValueError):
            Dataset(grid, np.zeros(3), np.zeros(3), OneSidedSet())

    def test_width_must_match_the_grid(self):
        with pytest.raises(ConfigurationError, match="steps"):
            Dataset(TimeGrid(1.0, 3), np.zeros((2, 3)), np.zeros((2, 3)),
                    OneSidedSet())

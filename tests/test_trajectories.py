"""Tests for dataset collection, labeling, balancing, splitting, and CSV IO."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safebc.pde_sim import (ConfigurationError, Constant, HyperbolicConfig,
                            TimeGrid)
from safebc.trajectories import (Dataset, DatasetFormatError,
                                 LabeledTrajectoryPair, OneSidedSet,
                                 TwoSidedSet, balance_near_zero,
                                 collect_dataset, datasets_equal,
                                 label_safety, parse_safe_set, read_dataset,
                                 split, suffix_safe_mask, write_dataset)


def make_dataset(n=10, M=4, seed=0):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(1.0, M)
    pairs = []
    for _ in range(n):
        U = rng.normal(size=M + 1)
        Y = rng.normal(size=M + 1)
        pairs.append(LabeledTrajectoryPair(U, Y, U[0], Y < 1.0))
    return Dataset(grid, pairs, {"origin": "synthetic"})


class TestSafeSets:
    def test_one_sided_upper_bound(self):
        s = parse_safe_set("Y<1")
        assert np.array_equal(label_safety([0.5, 1.2, 0.3], s),
                              [True, False, True])

    def test_one_sided_lower_bound(self):
        s = parse_safe_set("Y>0")
        assert np.array_equal(label_safety([0.5, -0.2], s), [True, False])

    def test_two_sided_band(self):
        s = TwoSidedSet(center=0.0, halfwidth=0.145)
        assert np.array_equal(label_safety([0.1, -0.2], s), [True, False])

    def test_two_sided_parse(self):
        s = parse_safe_set("abs:center=0,halfwidth=0.145")
        assert isinstance(s, TwoSidedSet) and s.halfwidth == 0.145

    def test_degenerate_set_labels_everything_unsafe(self):
        s = OneSidedSet(sign=1, bound=-np.finfo(float).max)
        assert not label_safety([-1e30, 0.0, 1e30], s).any()

    def test_boundary_is_unsafe(self):
        s = parse_safe_set("Y<1")
        assert not label_safety([1.0], s)[0]

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

    def test_relabeling_is_idempotent(self):
        s = parse_safe_set("Y<1")
        Y = np.random.default_rng(0).normal(size=20)
        first = label_safety(Y, s)
        assert np.array_equal(label_safety(Y, s), first)

    def test_describe_round_trips(self):
        for text in ("Y<1", "Y>0"):
            assert parse_safe_set(parse_safe_set(text).describe()).describe() \
                == parse_safe_set(text).describe()


class TestSuffixMask:
    def test_all_safe_stays_all_safe(self):
        assert np.array_equal(suffix_safe_mask([1, 1, 1]), [True, True, True])

    def test_interior_violation_clears_prefix(self):
        assert np.array_equal(suffix_safe_mask([1, 0, 1, 1]),
                              [False, False, True, True])

    def test_unsafe_last_step_clears_everything(self):
        assert np.array_equal(suffix_safe_mask([1, 1, 0]),
                              [False, False, False])

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
        for pair in ds.pairs:
            assert 1.0 <= pair.U0 <= 10.0

    def test_stable_plant_small_input_is_all_safe(self):
        env = HyperbolicConfig(beta=0.0)
        ss = parse_safe_set("Y<1")
        ds = collect_dataset(env, [Constant()], 4, (0.5, 0.5), ss, seed=0)
        for pair in ds.pairs:
            assert pair.safe.all()

    def test_controllers_cycle_round_robin(self):
        env = HyperbolicConfig(beta=0.0)
        ss = parse_safe_set("Y<1")
        ds = collect_dataset(env, [Constant(0.25), Constant(0.75)], 4,
                             (0.5, 0.5), ss, seed=0)
        finals = [pair.U[-1] for pair in ds.pairs]
        assert finals == [0.25, 0.75, 0.25, 0.75]

    def test_metadata_records_provenance(self):
        env = HyperbolicConfig(beta=0.0)
        ss = parse_safe_set("Y<1")
        ds = collect_dataset(env, [Constant()], 2, (0.1, 0.9), ss, seed=3)
        assert ds.meta["env"] == "HyperbolicConfig"
        assert ds.meta["seed"] == "3" and ds.meta["K"] == "2"
        assert ds.meta["skipped"] == "0"


class TestBalance:
    def test_keep_fraction_one_retains_everything(self):
        ds = balance_near_zero(make_dataset(), band=(-0.1, 0.1),
                               keep_fraction=1.0)
        for pair in ds.pairs:
            assert pair.bf_mask.all()

    def test_out_of_band_samples_always_retained(self):
        base = make_dataset()
        ds = balance_near_zero(base, band=(-0.1, 0.1), keep_fraction=0.2,
                               seed=1)
        for pair in ds.pairs:
            out_of_band = (pair.Y < -0.1) | (pair.Y > 0.1)
            assert pair.bf_mask[out_of_band].all()

    def test_in_band_retention_rate_is_binomial(self):
        # 10000 in-band samples at keep 0.2 should retain 2000 +- 200.
        grid = TimeGrid(1.0, 99)
        pairs = [LabeledTrajectoryPair(np.zeros(100), np.zeros(100), 0.0,
                                       np.ones(100, dtype=bool))
                 for _ in range(100)]
        ds = balance_near_zero(Dataset(grid, pairs, {}), band=(-0.1, 0.1),
                               keep_fraction=0.2, seed=0)
        kept = sum(int(p.bf_mask.sum()) for p in ds.pairs)
        assert 1800 <= kept <= 2200

    def test_no_in_band_samples_leaves_dataset_unchanged(self):
        grid = TimeGrid(1.0, 4)
        pairs = [LabeledTrajectoryPair(np.full(5, 3.0), np.full(5, 3.0), 3.0,
                                       np.zeros(5, dtype=bool))]
        ds = balance_near_zero(Dataset(grid, pairs, {}), band=(-0.1, 0.1),
                               keep_fraction=0.2)
        assert ds.pairs[0].bf_mask.all()
        assert np.array_equal(ds.pairs[0].Y, pairs[0].Y)

    def test_bad_keep_fraction_rejected(self):
        with pytest.raises(ValueError):
            balance_near_zero(make_dataset(), band=(-0.1, 0.1),
                              keep_fraction=0.0)


class TestSplit:
    def test_ninety_ten_split_of_ten(self):
        tr, te = split(make_dataset(10), 0.9, seed=0)
        assert len(tr) == 9 and len(te) == 1

    def test_partition_is_disjoint_and_exhaustive(self):
        ds = make_dataset(17)
        tr, te = split(ds, 0.7, seed=2)
        ids_all = {id(p) for p in ds.pairs}
        ids_tr = {id(p) for p in tr.pairs}
        ids_te = {id(p) for p in te.pairs}
        assert ids_tr | ids_te == ids_all
        assert not (ids_tr & ids_te)

    def test_same_seed_same_partition(self):
        ds = make_dataset(12)
        a = split(ds, 0.75, seed=9)
        b = split(ds, 0.75, seed=9)
        assert [id(p) for p in a[0].pairs] == [id(p) for p in b[0].pairs]

    def test_too_small_dataset_rejected(self):
        with pytest.raises(ValueError):
            split(make_dataset(1), 0.9)

    def test_both_sides_nonempty_even_for_extreme_fractions(self):
        ds = make_dataset(5)
        tr, te = split(ds, 0.999, seed=0)
        assert len(tr) >= 1 and len(te) >= 1


class TestDatasetCsv:
    def test_round_trip_is_value_exact(self, tmp_path):
        ds = make_dataset(4, M=6, seed=3)
        path = tmp_path / "ds.csv"
        write_dataset(path, ds)
        back = read_dataset(path)
        assert datasets_equal(ds, back)
        assert back.meta["origin"] == "synthetic"

    def test_header_line_and_comment_metadata(self, tmp_path):
        ds = make_dataset(1)
        path = tmp_path / "ds.csv"
        write_dataset(path, ds)
        lines = path.read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        headers = [ln for ln in lines if ln.startswith("traj_id")]
        assert headers == ["traj_id,step,t,U,Y,safe"]
        assert any("origin=synthetic" in c for c in comments)

    def test_header_only_file_yields_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("traj_id,step,t,U,Y,safe\n")
        ds = read_dataset(path)
        assert len(ds) == 0

    def test_trajectories_without_a_grid_are_not_written(self, tmp_path):
        path = tmp_path / "nogrid.csv"
        with pytest.raises(ConfigurationError, match="grid"):
            write_dataset(path, Dataset(None, make_dataset(1).pairs))
        assert not path.exists()
        write_dataset(path, Dataset(None))
        assert len(read_dataset(path)) == 0

    def test_hand_written_two_row_fixture(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text(
            "# grid_T=1\n# grid_M=2\n"
            "traj_id,step,t,U,Y,safe\n"
            "0,0,0,2.5,2.5,0\n"
            "0,1,0.5,-1,0.25,1\n"
            "0,2,1,-1,0.1,1\n")
        ds = read_dataset(path)
        assert len(ds) == 1
        pair = ds.pairs[0]
        assert np.array_equal(pair.U, [2.5, -1.0, -1.0])
        assert np.array_equal(pair.Y, [2.5, 0.25, 0.1])
        assert np.array_equal(pair.safe, [False, True, True])

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("traj_id,step,t,U,Y,safe\n0,0,0,oops,1,1\n")
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(path)
        assert err.value.line == 2

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "nohdr.csv"
        path.write_text("0,0,0,1,1,1\n")
        with pytest.raises(DatasetFormatError):
            read_dataset(path)

    def test_incomplete_trajectory_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text(
            "# grid_T=1\n# grid_M=2\n"
            "traj_id,step,t,U,Y,safe\n"
            "0,0,0,1,1,1\n"
            "0,2,1,1,1,1\n")
        with pytest.raises(DatasetFormatError):
            read_dataset(path)


class TestPairValidation:
    def test_u0_must_match_first_sample(self):
        with pytest.raises(ValueError):
            LabeledTrajectoryPair(np.array([1.0, 2.0]), np.array([0.0, 0.0]),
                                  5.0, np.array([True, True]))

    def test_shapes_must_agree(self):
        with pytest.raises(ValueError):
            LabeledTrajectoryPair(np.zeros(3), np.zeros(4), 0.0,
                                  np.zeros(3, dtype=bool))

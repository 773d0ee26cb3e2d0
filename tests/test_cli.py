"""Round trip through the command-line pipeline on a small transport plant,
and the loading of JSON configs into the config dataclasses."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from safebc.barrier import FeasibilityConstants
from safebc.cli import (build_parser, load_config, load_experiment, main,
                        read_metrics_csv)
from safebc.evaluation import ExperimentSpec
from safebc.pde_sim import (ConfigurationError, Constant, HyperbolicConfig,
                            ParabolicConfig, Proportional, SmoothRandom,
                            TimeGrid, read_trajectory_csv)
from safebc.safety_filter import FilterConfig
from safebc.training import (BarrierSchedule, OperatorSchedule, TrainConfig,
                             train_joint)
from safebc.trajectories import OneSidedSet, TwoSidedSet, read_dataset

ENV = ["--env", "hyperbolic", "--beta", "0.5", "--grid-T", "5",
       "--grid-M", "20"]


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    config = d / "train.json"
    config.write_text(json.dumps({
        "operator": {"epochs": 2, "d_v": 4, "batch_trajectories": 4},
        "bcbf": {"epochs": 2, "batch_samples": 64}}))

    def cli(*argv):
        assert main([str(a) for a in argv]) == 0, argv

    cli("collect", *ENV, "--controller", "smooth", "--controller",
        "proportional:gain=0.5", "--episodes", 12, "--u0-min", 0.1,
        "--u0-max", 2.0, "--seed", 1, "--out", d / "data.csv")
    cli("train-operator", "--dataset", d / "data.csv", "--config", config,
        "--out", d / "op.ckpt", "--history", d / "op.csv")
    cli("train-bcbf", "--dataset", d / "data.csv", "--config", config,
        "--operator", d / "op.ckpt", "--out", d / "bar.ckpt")
    cli("simulate", *ENV, "--controller", "smooth", "--U0", 1.5,
        "--out", d / "states.csv", "--trajectory-out", d / "nominal.csv")
    cli("filter", "--operator", d / "op.ckpt", "--bcbf", d / "bar.ckpt",
        "--nominal", d / "nominal.csv", "--eta", 0, "--out",
        d / "filtered.csv", "--report", d / "report.csv")
    spec = {"env": {"name": "hyperbolic", "beta": 0.5,
                    "grid": {"T": 5, "M": 20}},
            "controller": "smooth", "safe_set": "Y<1",
            "operator_path": str(d / "op.ckpt"),
            "bcbf_path": str(d / "bar.ckpt"), "episodes": 4,
            "U0_range": [0.1, 2.0]}
    (d / "spec.json").write_text(json.dumps(spec))
    cli("evaluate", "--spec", d / "spec.json", "--out", d / "off.csv")
    cli("sweep", "--spec", d / "spec.json", "--etas", "0,2",
        "--out", d / "sweep.csv")
    return d


def test_zero_threshold_filter_writes_the_nominal_input(run):
    assert np.array_equal(read_trajectory_csv(run / "filtered.csv"),
                          read_trajectory_csv(run / "nominal.csv"))
    assert len((run / "report.csv").read_text().splitlines()) == 21


def test_sweep_at_zero_threshold_matches_filter_off(run):
    off = (run / "off.csv").read_text().splitlines()[1]
    rows = (run / "sweep.csv").read_text().splitlines()
    assert rows[1] == "0," + off
    assert read_metrics_csv(run / "off.csv").episodes == 4


def test_history_has_one_row_per_epoch(run):
    lines = (run / "op.csv").read_text().splitlines()
    assert lines[0].startswith("# ")
    assert len(lines) == 2 + 2


def test_an_early_stop_is_named_on_stderr(run, tmp_path, capsys):
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"operator": {"epochs": 2, "d_v": 4,
                                               "lr": 1e100}}))
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["train-operator", "--dataset", str(run / "data.csv"),
                   "--config", str(config), "--out", str(tmp_path / "op")])
    assert rc == 0
    assert "training stopped at epoch 0: FloatingPointError: non-finite " \
        "operator output" in capsys.readouterr().err


def test_errors_exit_nonzero(tmp_path, capsys):
    rc = main(["train-operator", "--dataset", str(tmp_path / "missing.csv"),
               "--out", str(tmp_path / "op.ckpt")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_report_out_is_written_atomically(run, tmp_path, monkeypatch):
    out = tmp_path / "report.md"

    def report(name):
        return main(["report", "--row", f"{name}={run / 'off.csv'}",
                     "--out", str(out)])

    assert report("old") == 0
    first = out.read_bytes()
    assert b"| old " in first and first.endswith(b"|\n")

    def failed_rename(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr("os.replace", failed_rename)
    assert report("new") == 2
    assert out.read_bytes() == first
    assert [p.name for p in tmp_path.iterdir()] == ["report.md"]


def test_train_bcbf_rejects_the_operator_flag_of_the_other_mode(
        run, tmp_path, capsys):
    # --operator-out asks for joint training, which trains its own operator
    rc = main(["train-bcbf", "--dataset", str(run / "data.csv"),
               "--operator", str(run / "op.ckpt"),
               "--operator-out", str(tmp_path / "op.ckpt"),
               "--out", str(tmp_path / "bar.ckpt")])
    assert rc == 2
    assert "--operator is for two-phase training" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_operator_out_trains_jointly_and_writes_both_checkpoints(run,
                                                                 tmp_path):
    values = {"dy_dt_source": "operator",
              "constants": {"alpha": 0.001, "T": 4},
              "operator": {"epochs": 2, "d_v": 4, "batch_trajectories": 4},
              "bcbf": {"epochs": 2, "batch_samples": 64}}
    config = tmp_path / "joint.json"
    config.write_text(json.dumps(values))
    assert main(["train-bcbf", "--dataset", str(run / "data.csv"),
                 "--config", str(config), "--seed", "3",
                 "--operator-out", str(tmp_path / "op.ckpt"),
                 "--out", str(tmp_path / "bar.ckpt")]) == 0
    op, bar, _ = train_joint(read_dataset(run / "data.csv"),
                             load_config(TrainConfig(), values), seed=3)
    for model, path in ((op, "op.ckpt"), (bar, "bar.ckpt")):
        saved = type(model).load(tmp_path / path).params()
        assert all(np.array_equal(a, b)
                   for a, b in zip(saved, model.params()))


@pytest.mark.parametrize("command, kind, values, key", [
    ("train-bcbf", "--config", {"mode": "joint"}, "mode"),
    ("train-operator", "--config", {"lambda_G": 0.0}, "lambda_G"),
    ("evaluate", "--spec",
     {"env": {"name": "hyperbolic", "substeps": 2},
      "controller": "constant", "safe_set": "Y<1"}, "env.substeps"),
])
def test_a_deleted_setting_exits_2_naming_its_key(run, tmp_path, capsys,
                                                  command, kind, values,
                                                  key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(values))
    argv = [command, kind, str(path), "--out", str(tmp_path / "out")]
    if command != "evaluate":
        argv += ["--dataset", str(run / "data.csv")]
    assert main(argv) == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_filter_flag_defaults_are_the_filter_config_defaults():
    args = build_parser().parse_args(
        ["filter", "--operator", "o", "--bcbf", "b", "--nominal", "n",
         "--out", "f"])
    config = FilterConfig(FeasibilityConstants(args.alpha, args.T,
                                               args.asymptotic),
                          args.eta, args.policy)
    assert config == FilterConfig()


# -- JSON configs ------------------------------------------------------------

def load_train_config(values):
    return load_config(TrainConfig(), values)


# (JSON, the TrainConfig it stands for, less its constants, and the
# constants)
TRAIN_CONFIGS = [
    # README, and perfbench/pipeline.py's train.json with other epochs
    ({"operator": {"epochs": 2}, "bcbf": {"epochs": 2}},
     TrainConfig(operator=OperatorSchedule(epochs=2),
                 bcbf=BarrierSchedule(epochs=2)),
     FeasibilityConstants()),
    # the round trip above
    ({"operator": {"epochs": 2, "d_v": 4, "batch_trajectories": 4},
      "bcbf": {"epochs": 2, "batch_samples": 64}},
     TrainConfig(operator=OperatorSchedule(epochs=2, d_v=4,
                                           batch_trajectories=4),
                 bcbf=BarrierSchedule(epochs=2, batch_samples=64)),
     FeasibilityConstants()),
    # every key
    ({"lambda_S": 2, "lambda_BF": 0.25, "dy_dt_source": "operator",
      "train_fraction": 0.8,
      "balance_band": [-0.2, 0.3], "balance_keep": 0.5,
      "operator": {"epochs": 3, "lr": 0.01, "l2": 0, "decay_factor": 0.5,
                   "decay_every": 2, "batch_trajectories": 8, "d_v": 4,
                   "n_layers": 1, "activations": ["linear"]},
      "bcbf": {"epochs": 5, "lr": 0.1, "decay_factor": 0.5,
               "decay_every": 3, "batch_samples": 32,
               "time_dependent": False, "margin": 0.2, "reg_weight": 0},
      "constants": {"alpha": 0.1, "T": 2, "asymptotic": True}},
     TrainConfig(lambda_S=2.0, lambda_BF=0.25, dy_dt_source="operator",
                 train_fraction=0.8,
                 balance_band=(-0.2, 0.3), balance_keep=0.5,
                 operator=OperatorSchedule(
                     epochs=3, lr=0.01, l2=0.0, decay_factor=0.5,
                     decay_every=2, batch_trajectories=8, d_v=4, n_layers=1,
                     activations=("linear",)),
                 bcbf=BarrierSchedule(
                     epochs=5, lr=0.1, decay_factor=0.5, decay_every=3,
                     batch_samples=32, time_dependent=False, margin=0.2,
                     reg_weight=0.0)),
     FeasibilityConstants(alpha=0.1, T=2.0, asymptotic=True)),
    ({}, TrainConfig(), FeasibilityConstants()),
]


@pytest.mark.parametrize("values, config, constants", TRAIN_CONFIGS)
def test_train_config_loads_to_the_config_it_names(values, config,
                                                   constants):
    assert load_train_config(values) == replace(config, constants=constants)


SPEC = {"env": {"name": "hyperbolic"}, "controller": "constant",
        "safe_set": "Y<1"}
BASE = ExperimentSpec(HyperbolicConfig(), Constant(), OneSidedSet(1, 1.0))

# (JSON, the ExperimentSpec it stands for)
SPECS = [
    # README
    ({"env": {"name": "hyperbolic", "beta": 0.5, "grid": {"T": 5, "M": 20}},
      "controller": "smooth", "safe_set": "Y<1", "filter_on": True,
      "filter": {"eta": 2.0}, "operator_path": "op.ckpt",
      "bcbf_path": "bar.ckpt", "episodes": 20, "U0_range": [0.1, 2.0]},
     ExperimentSpec(HyperbolicConfig(beta=0.5, grid=TimeGrid(5.0, 20)),
                    SmoothRandom(), OneSidedSet(1, 1.0), filter_on=True,
                    filter=FilterConfig(eta=2.0), operator_path="op.ckpt",
                    bcbf_path="bar.ckpt", episodes=20, U0_range=(0.1, 2.0))),
    # the round trip above
    ({"env": {"name": "hyperbolic", "beta": 0.5, "grid": {"T": 5, "M": 20}},
      "controller": "smooth", "safe_set": "Y<1", "operator_path": "op.ckpt",
      "bcbf_path": "bar.ckpt", "episodes": 4, "U0_range": [0.1, 2.0]},
     ExperimentSpec(HyperbolicConfig(beta=0.5, grid=TimeGrid(5.0, 20)),
                    SmoothRandom(), OneSidedSet(1, 1.0),
                    operator_path="op.ckpt", bcbf_path="bar.ckpt",
                    episodes=4, U0_range=(0.1, 2.0))),
    # perfbench/pipeline.py, diffusion-long
    ({"env": {"name": "parabolic", "grid": {"T": 1.0, "M": 80}},
      "controller": "constant", "safe_set": "Y<1", "filter_on": True,
      "filter": {"eta": 2.0, "constants": {"alpha": 1e-5, "T": 5.0}},
      "operator_path": "op.ckpt", "bcbf_path": "bar.ckpt", "episodes": 2,
      "U0_range": [0.1, 1.0], "seed": 12345},
     ExperimentSpec(ParabolicConfig(grid=TimeGrid(1.0, 80)), Constant(),
                    OneSidedSet(1, 1.0), filter_on=True,
                    filter=FilterConfig(FeasibilityConstants(1e-5, 5.0), 2.0),
                    operator_path="op.ckpt", bcbf_path="bar.ckpt",
                    episodes=2, U0_range=(0.1, 1.0), seed=12345)),
    # a partial grid keeps the environment's other grid value
    ({**SPEC, "env": {"name": "hyperbolic", "grid": {"M": 20}}},
     replace(BASE, env=HyperbolicConfig(grid=TimeGrid(5.0, 20)))),
    ({**SPEC, "env": {"name": "parabolic", "grid": {"T": 2}}},
     replace(BASE, env=ParabolicConfig(grid=TimeGrid(2.0, 1000)))),
    # every key
    ({"env": {"name": "hyperbolic", "beta": 1, "n_points": 51,
              "grid": {"T": 4, "M": 40}},
      "controller": "proportional:gain=0.5",
      "safe_set": "abs:center=0,halfwidth=0.2", "filter_on": True,
      "filter": {"constants": {"alpha": 0.01, "T": 3, "asymptotic": False},
                 "eta": 1e9, "infeasible_policy": "abort"},
      "operator_path": "a", "bcbf_path": "b", "episodes": 3,
      "U0_range": [0, 1], "seed": 4},
     ExperimentSpec(HyperbolicConfig(beta=1.0, n_points=51,
                                     grid=TimeGrid(4.0, 40)),
                    Proportional(0.5), TwoSidedSet(0.0, 0.2), filter_on=True,
                    filter=FilterConfig(FeasibilityConstants(0.01, 3.0),
                                        1e9, "abort"),
                    operator_path="a", bcbf_path="b", episodes=3,
                    U0_range=(0.0, 1.0), seed=4)),
    ({**SPEC, "env": {"name": "parabolic", "eps": 0.1, "lam": 2,
                      "n_points": 21, "x_out": 0.25}},
     replace(BASE, env=ParabolicConfig(eps=0.1, lam=2.0, n_points=21,
                                       x_out=0.25))),
]


@pytest.mark.parametrize("values, spec", SPECS)
def test_experiment_spec_loads_to_the_spec_it_names(values, spec):
    loaded = load_experiment(values)
    # controllers have no equality; their description names every setting
    assert loaded.controller.describe() == spec.controller.describe()
    assert replace(loaded, controller=None) == replace(spec, controller=None)


def test_the_seed_argument_overrides_the_spec_seed():
    assert load_experiment({**SPEC, "seed": 3}, seed=9).seed == 9


@pytest.mark.parametrize("values, path", [
    ({"episode": 20}, "episode"),
    ({"filter": {"etaa": 0.5}}, "filter.etaa"),
    ({"filter": {"constants": {"alhpa": 3}}}, "filter.constants.alhpa"),
    ({"filter": {"constants": {"C": 0.0}}}, "filter.constants.C"),
    ({"env": {"name": "hyperbolic", "grid": {"N": 3}}}, "env.grid.N"),
    ({"env": {"name": "parabolic", "beta": 1.0}}, "env.beta"),
    ({"env": {"name": "hyperbolic", "substeps": 2}}, "env.substeps"),
])
def test_unknown_spec_key_is_an_error_naming_its_path(values, path):
    with pytest.raises(ConfigurationError, match=re.escape(repr(path))):
        load_experiment({**SPEC, **values})


@pytest.mark.parametrize("values, path", [
    ({"freeze_operator": True}, "freeze_operator"),
    ({"y_clip": 5.0}, "y_clip"),
    ({"operator": {"max_input": 5.0}}, "operator.max_input"),
    ({"operator": {"target_clip": 5.0}}, "operator.target_clip"),
    ({"operator": {"table_hidden": "linear"}}, "operator.table_hidden"),
    ({"bcbf": {"epoch": 2}}, "bcbf.epoch"),
    ({"constants": {"alpah": 0.1}}, "constants.alpah"),
    ({"mode": "joint"}, "mode"),
    ({"lambda_G": 1.0}, "lambda_G"),
])
def test_unknown_train_key_is_an_error_naming_its_path(values, path):
    with pytest.raises(ConfigurationError, match=re.escape(repr(path))):
        load_train_config(values)


@pytest.mark.parametrize("values, message", [
    ({"dy_dt_source": "operatr"}, "unknown dY/dt source"),
    ({"operator": {"epochs": "many"}}, "operator.epochs"),
    ({"operator": []}, "operator: expected a JSON object"),
    # a value of another JSON type is not cast: 2.7 epochs is not 2, and
    # "no" is not True
    ({"operator": {"epochs": 2.7}}, "operator.epochs: expected int"),
    ({"operator": {"epochs": True}}, "operator.epochs: expected int"),
    ({"operator": {"decay_every": 2.5}}, "operator.decay_every"),
    ({"operator": {"activations": "relu"}}, "operator.activations"),
    ({"bcbf": {"time_dependent": "no"}}, "bcbf.time_dependent"),
    ({"bcbf": {"time_dependent": 1}}, "bcbf.time_dependent"),
    ({"lambda_S": "1"}, "lambda_S: expected float"),
    ({"lambda_S": True}, "lambda_S: expected float"),
    ({"balance_band": "(-0.1, 0.1)"}, "balance_band: expected tuple"),
    ({"dy_dt_source": 3}, "dy_dt_source: expected str"),
    ({"constants": {"asymptotic": 0}}, "constants.asymptotic"),
])
def test_bad_train_value_is_an_error(values, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        load_train_config(values)


@pytest.mark.parametrize("values, path", [
    ({"filter_on": "false"}, "filter_on"),
    ({"filter_on": 1}, "filter_on"),
    ({"episodes": 3.0}, "episodes"),
    ({"seed": "4"}, "seed"),
    ({"U0_range": 5}, "U0_range"),
    ({"operator_path": 3}, "operator_path"),
    ({"filter": {"eta": "2"}}, "filter.eta"),
    ({"env": {"name": "hyperbolic", "grid": {"M": 20.0}}}, "env.grid.M"),
    ({"env": {"name": "hyperbolic", "n_points": 51.0}}, "env.n_points"),
])
def test_wrong_typed_spec_value_is_an_error_naming_its_path(values, path):
    with pytest.raises(ConfigurationError, match=re.escape(path + ":")):
        load_experiment({**SPEC, **values})


@pytest.mark.parametrize("load, values, message", [
    (load_experiment, {**SPEC, "U0_range": ["a", "b"]},
     "U0_range[0]: expected float"),
    (load_experiment, {**SPEC, "U0_range": [0.1, 2.0, 3.0]},
     "U0_range: expected tuple[float, float]"),
    (load_train_config, {"balance_band": ["x"]},
     "balance_band: expected tuple[float, float]"),
    (load_train_config, {"balance_band": [-0.1, "x"]},
     "balance_band[1]: expected float"),
    (load_train_config, {"operator": {"activations": ["relu", 1]}},
     "operator.activations[1]: expected str"),
])
def test_tuple_items_are_checked_and_the_error_names_the_key(load, values,
                                                             message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        load(values)


def test_tuple_items_load_as_their_declared_type():
    spec = load_experiment({**SPEC, "U0_range": [0, 2]})
    assert spec.U0_range == (0.0, 2.0)
    assert all(type(x) is float for x in spec.U0_range)
    config = load_train_config({"operator": {"activations": ["linear"]}})
    assert config.operator.activations == ("linear",)


def test_numbers_load_as_floats_and_null_keeps_a_none_default():
    config = load_train_config(
        {"lambda_S": 2, "operator": {"decay_factor": None},
         "constants": {"T": 3}})
    assert type(config.lambda_S) is float and config.lambda_S == 2.0
    assert config.operator.decay_factor is None
    assert type(config.constants.T) is float
    spec = load_experiment({**SPEC, "operator_path": None})
    assert spec.operator_path is None


def test_unknown_key_exits_2_with_its_path(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SPEC, "episode": 20, "filter": {
        "etaa": 0.5, "constants": {"alhpa": 3}}}))
    rc = main(["evaluate", "--spec", str(spec), "--out",
               str(tmp_path / "m.csv")])
    assert rc == 2
    assert "'episode'" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()
    rc = main(["simulate", "--env", "parabolic", "--beta", "1",
               "--controller", "constant", "--U0", "1",
               "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "'env.beta'" in capsys.readouterr().err

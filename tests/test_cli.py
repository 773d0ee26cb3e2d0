"""Round trip through the command-line pipeline on a small transport plant,
and the loading of JSON configs into the config dataclasses."""

import json
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import safebc
from safebc.barrier import BarrierFunction, FeasibilityConstants
from safebc.checkpoint import read_checkpoint, write_checkpoint
from safebc.cli import (COMMANDS, build_parser, load_config, load_experiment,
                        main, read_metrics_csv)
from safebc.evaluation import ExperimentSpec
from safebc.neural_operator import BoundaryOperator
from safebc.pde_sim import (ConfigurationError, Constant, HyperbolicConfig,
                            ParabolicConfig, Proportional, SmoothRandom,
                            TimeGrid, read_trajectory_csv)
from safebc.safety_filter import FilterConfig, filter_trajectory
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
                                               "lr": 1e200}}))
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


def test_a_diverging_simulation_names_its_step(tmp_path, capsys):
    # the episode of test_pde_sim's divergence test overflows at step 26
    rc = main(["simulate", "--env", "hyperbolic", "--beta", "200",
               "--grid-T", "10", "--grid-M", "40", "--controller",
               "proportional:gain=0.5", "--U0", "1",
               "--out", str(tmp_path / "d.csv")])
    assert rc == 2
    assert "diverged: non-finite value at step 26" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


def test_an_overflowing_controller_names_its_step(tmp_path, capsys):
    # -1e6 * Y overflows at step 45 while the state is still finite
    rc = main(["simulate", "--env", "hyperbolic", "--beta", "400",
               "--grid-T", "5", "--grid-M", "50", "--controller",
               "proportional:gain=1e6", "--U0", "1",
               "--out", str(tmp_path / "d.csv")])
    assert rc == 2
    assert "diverged: non-finite value at step 45" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


def test_a_nonfinite_controller_setting_is_named_in_one_line(tmp_path,
                                                             capsys):
    rc = main(["simulate", *ENV, "--controller", "proportional:gain=nan",
               "--U0", "1", "--out", str(tmp_path / "d.csv")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: bad controller spec 'proportional:gain=nan': "
        "gain must be a finite number, got nan\n")
    assert not (tmp_path / "d.csv").exists()


def test_a_dataset_without_its_grid_exits_2_naming_it(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("# safe_set=Y<1\ntraj_id,step,U,Y\n")
    rc = main(["train-operator", "--dataset", str(path),
               "--out", str(tmp_path / "op.ckpt")])
    assert rc == 2
    assert "missing grid_T/grid_M comments" in capsys.readouterr().err
    assert not (tmp_path / "op.ckpt").exists()


@pytest.mark.parametrize("comment, reason", [
    ("grid_M=abc", "invalid literal for int() with base 10: 'abc'"),
    ("grid_M=1", "need at least 2 steps, got M=1"),
    ("grid_T=nan", "horizon T must be positive, got nan"),
    ("grid_T=x", "could not convert string to float: 'x'"),
    ("safe_set=Y<one", "cannot parse safe set 'Y<one'"),
    ("safe_set=Y=1", "cannot parse safe set 'Y=1'"),
    ("safe_set=abs:halfwidth=-1", "halfwidth must be positive")])
def test_a_bad_dataset_comment_exits_2_naming_the_file_and_comment(
        tmp_path, capsys, comment, reason):
    key, value = comment.split("=", 1)
    good = {"safe_set": "Y<1", "grid_T": "1", "grid_M": "2"}
    good[key] = value
    path = tmp_path / "data.csv"
    path.write_text("".join(f"# {k}={v}\n" for k, v in good.items())
                    + "traj_id,step,U,Y\n0,0,1,1\n0,1,1,1\n0,2,1,1\n")
    rc = main(["train-operator", "--dataset", str(path),
               "--out", str(tmp_path / "op.ckpt")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: bad comment ")
    assert comment in err and reason in err
    assert not (tmp_path / "op.ckpt").exists()


def test_an_abort_names_its_step_and_under_evaluate_its_episode(tmp_path,
                                                               capsys):
    BoundaryOperator(TimeGrid(5.0, 20), d_v=4, n_layers=2, seed=6).save(
        tmp_path / "op.ckpt")
    BarrierFunction(seed=0).save(tmp_path / "bar.ckpt")
    assert main(["simulate", *ENV, "--controller", "smooth", "--U0", "1.5",
                 "--out", str(tmp_path / "states.csv"), "--trajectory-out",
                 str(tmp_path / "nominal.csv")]) == 0
    op = BoundaryOperator.load(tmp_path / "op.ckpt")
    bar = BarrierFunction.load(tmp_path / "bar.ckpt")
    report = filter_trajectory(op, bar,
                               read_trajectory_csv(tmp_path / "nominal.csv"),
                               FilterConfig(eta=1e9))
    first = next(r.step for r in report.records if r.infeasible)
    capsys.readouterr()
    assert main(["filter", "--operator", str(tmp_path / "op.ckpt"), "--bcbf",
                 str(tmp_path / "bar.ckpt"), "--nominal",
                 str(tmp_path / "nominal.csv"), "--eta", "1e9", "--policy",
                 "abort", "--out", str(tmp_path / "filtered.csv")]) == 2
    assert capsys.readouterr().err == \
        f"error: constraint unsatisfiable at step {first}\n"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "env": {"name": "hyperbolic", "beta": 0.5, "grid": {"T": 5, "M": 20}},
        "controller": "smooth", "safe_set": "Y<1", "filter_on": True,
        "filter": {"eta": 1e9, "infeasible_policy": "abort"},
        "operator_path": str(tmp_path / "op.ckpt"),
        "bcbf_path": str(tmp_path / "bar.ckpt"), "episodes": 4,
        "U0_range": [0.1, 2.0]}))
    assert main(["evaluate", "--spec", str(spec),
                 "--out", str(tmp_path / "m.csv")]) == 2
    assert re.fullmatch(r"error: constraint unsatisfiable at step \d+ of "
                        r"episode \d+\n", capsys.readouterr().err)


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


def test_data_fd_rates_do_not_read_the_operator(run, tmp_path):
    # a file that is no checkpoint is never opened under trajectory rates
    (tmp_path / "not_a_checkpoint").write_text("not a checkpoint\n")
    for name, operator in (("with.ckpt", ["--operator",
                                          tmp_path / "not_a_checkpoint"]),
                           ("without.ckpt", [])):
        assert main([str(a) for a in (
            "train-bcbf", "--dataset", run / "data.csv", "--config",
            run / "train.json", *operator, "--out", tmp_path / name)]) == 0
    assert (tmp_path / "with.ckpt").read_bytes() == \
        (tmp_path / "without.ckpt").read_bytes()
    assert (tmp_path / "with.ckpt").read_bytes() == \
        (run / "bar.ckpt").read_bytes()


def test_operator_rates_load_the_operator_checkpoint(run, tmp_path, capsys):
    config = tmp_path / "rates.json"
    config.write_text(json.dumps({"dy_dt_source": "operator",
                                  "bcbf": {"epochs": 1,
                                           "batch_samples": 64}}))
    (tmp_path / "not_a_checkpoint").write_text("not a checkpoint\n")
    rc = main([str(a) for a in (
        "train-bcbf", "--dataset", run / "data.csv", "--config", config,
        "--operator", tmp_path / "not_a_checkpoint",
        "--out", tmp_path / "bar.ckpt")])
    assert rc == 2
    assert "not_a_checkpoint: not a CKPT v2 file" in capsys.readouterr().err
    assert not (tmp_path / "bar.ckpt").exists()
    assert main([str(a) for a in (
        "train-bcbf", "--dataset", run / "data.csv", "--config", config,
        "--operator", run / "op.ckpt", "--out", tmp_path / "bar.ckpt")]) == 0


@pytest.mark.parametrize("rates", ["data-fd", "operator"])
def test_a_missing_operator_checkpoint_exits_2_naming_it(run, tmp_path,
                                                         capsys, rates):
    config = tmp_path / "rates.json"
    config.write_text(json.dumps({"dy_dt_source": rates}))
    missing = tmp_path / "missing.ckpt"
    rc = main([str(a) for a in (
        "train-bcbf", "--dataset", run / "data.csv", "--config", config,
        "--operator", missing, "--out", tmp_path / "bar.ckpt")])
    assert rc == 2
    assert f"error: --operator {missing}: no such checkpoint file" in \
        capsys.readouterr().err
    assert not (tmp_path / "bar.ckpt").exists()


@pytest.mark.parametrize("command, kind, values, key", [
    ("train-bcbf", "--config", {"mode": "joint"}, "mode"),
    ("train-operator", "--config", {"lambda_G": 0.0}, "lambda_G"),
    ("evaluate", "--spec",
     {"env": {"name": "hyperbolic", "substeps": 2},
      "controller": "constant", "safe_set": "Y<1"}, "env.substeps"),
    # training runs at a constant learning rate
    ("train-bcbf", "--config", {"bcbf": {"decay_every": 4}},
     "bcbf.decay_every"),
    ("train-operator", "--config", {"operator": {"decay_factor": 0.5}},
     "operator.decay_factor"),
    # a barrier always reads (t, Y), and C is always the finite-time one
    ("train-bcbf", "--config", {"bcbf": {"time_dependent": False}},
     "bcbf.time_dependent"),
    ("evaluate", "--spec",
     {"env": {"name": "hyperbolic"}, "controller": "constant",
      "safe_set": "Y<1", "filter": {"constants": {"asymptotic": True}}},
     "filter.constants.asymptotic"),
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
    config = FilterConfig(FeasibilityConstants(args.alpha, args.T),
                          args.eta, args.policy)
    assert config == FilterConfig()


# one valid command line of each subcommand
ARGV = {
    "simulate": ["--controller", "smooth", "--U0", "1", "--out", "s.csv",
                 "--grid-M", "30"],
    "collect": ["--controller", "smooth", "--controller", "constant",
                "--episodes", "2", "--u0-min", "0", "--u0-max", "1",
                "--out", "d.csv"],
    "train-operator": ["--dataset", "d.csv", "--out", "op.ckpt"],
    "train-bcbf": ["--dataset", "d.csv", "--operator", "op.ckpt",
                   "--out", "bar.ckpt", "--seed", "3"],
    "filter": ["--operator", "o", "--bcbf", "b", "--nominal", "n",
               "--out", "f", "--eta", "2"],
    "evaluate": ["--spec", "s.json", "--out", "m.csv"],
    "report": ["--row", "a=a.csv", "--row", "b=b.csv"],
    "sweep": ["--spec", "s.json", "--etas", "0,1", "--out", "w.csv"],
}


def test_every_subcommand_has_a_sample_command_line():
    assert ARGV.keys() == COMMANDS.keys()
    assert len(COMMANDS) == 8


@pytest.mark.parametrize("command", list(ARGV))
def test_a_one_command_parser_reads_as_the_whole_parser(command, capsys):
    one, whole = build_parser(command), build_parser()
    subparsers = one._subparsers._group_actions[0]
    assert list(subparsers.choices) == [command]
    argv = [command] + ARGV[command]
    assert one.parse_args(argv) == whole.parse_args(argv)
    texts = []
    for parser in (one, whole):
        with pytest.raises(SystemExit) as exit_:
            parser.parse_args([command, "--help"])
        assert exit_.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].startswith(f"usage: safebc {command} ")
    # an error names every subcommand in the usage, as the whole parser's
    errors = []
    for parser in (one, whole):
        with pytest.raises(SystemExit) as exit_:
            parser.parse_args(argv + ["--no-such-flag"])
        assert exit_.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "unrecognized arguments: --no-such-flag" in errors[0]


def test_main_builds_the_named_subcommand_alone(monkeypatch):
    built = []

    def logged(command=None):
        built.append(command)
        return build_parser(command)

    monkeypatch.setattr("safebc.cli.build_parser", logged)
    for argv in (["--help"], [], ["nope"]):
        with pytest.raises(SystemExit):
            main(argv)
    assert main(["report", "--row", "x"]) == 2
    assert built == [None, None, None, "report"]


@pytest.mark.parametrize("argv", [[], ["nope"], ["--out", "x", "filter"]])
def test_no_subcommand_exits_2_listing_them_all(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "{%s}" % ",".join(COMMANDS) in err


def test_the_top_level_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    for command, (help_, _, _) in COMMANDS.items():
        assert re.search(rf"^    {command} +{re.escape(help_)}$", out,
                         re.MULTILINE)


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
      "operator": {"epochs": 3, "lr": 0.01, "l2": 0,
                   "batch_trajectories": 8, "d_v": 4, "n_layers": 1,
                   "activations": ["linear"]},
      "bcbf": {"epochs": 5, "lr": 0.1, "batch_samples": 32,
               "margin": 0.2, "reg_weight": 0},
      "constants": {"alpha": 0.1, "T": 2}},
     TrainConfig(lambda_S=2.0, lambda_BF=0.25, dy_dt_source="operator",
                 train_fraction=0.8,
                 balance_band=(-0.2, 0.3), balance_keep=0.5,
                 operator=OperatorSchedule(
                     epochs=3, lr=0.01, l2=0.0, batch_trajectories=8,
                     d_v=4, n_layers=1, activations=("linear",)),
                 bcbf=BarrierSchedule(
                     epochs=5, lr=0.1, batch_samples=32, margin=0.2,
                     reg_weight=0.0)),
     FeasibilityConstants(alpha=0.1, T=2.0)),
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
      "filter": {"constants": {"alpha": 0.01, "T": 3},
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
    # a barrier always reads (t, Y), and C is always the finite-time one
    ({"bcbf": {"time_dependent": False}}, "bcbf.time_dependent"),
    ({"constants": {"asymptotic": True}}, "constants.asymptotic"),
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
    ({"operator": {"batch_trajectories": 2.5}},
     "operator.batch_trajectories: expected int"),
    ({"operator": {"activations": "relu"}}, "operator.activations"),
    ({"bcbf": {"margin": "0.2"}}, "bcbf.margin: expected float"),
    ({"bcbf": {"batch_samples": 2.5}}, "bcbf.batch_samples: expected int"),
    ({"constants": {"alpha": "0.1"}}, "constants.alpha: expected float"),
    ({"constants": {"T": True}}, "constants.T: expected float"),
    ({"lambda_S": "1"}, "lambda_S: expected float"),
    ({"lambda_S": True}, "lambda_S: expected float"),
    ({"balance_band": "(-0.1, 0.1)"}, "balance_band: expected tuple"),
    ({"dy_dt_source": 3}, "dy_dt_source: expected str"),
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


# JSON's NaN and Infinity literals reach the config dataclasses as floats
@pytest.mark.parametrize("load, text, message", [
    (load_experiment, '{"filter": {"eta": NaN}}', "eta must be >= 0"),
    (load_experiment, '{"filter": {"constants": {"alpha": NaN}}}',
     "alpha must be finite and positive"),
    (load_experiment, '{"filter": {"constants": {"alpha": Infinity}}}',
     "alpha must be finite and positive"),
    (load_experiment, '{"filter": {"constants": {"alpha": 0}}}',
     "alpha must be finite and positive"),
    (load_experiment, '{"filter": {"constants": {"T": NaN}}}',
     "T must be finite and positive"),
    (load_experiment, '{"filter": {"constants": {"T": Infinity}}}',
     "T must be finite and positive"),
    (load_experiment, '{"env": {"name": "parabolic", "eps": NaN}}',
     "eps must be finite and positive"),
    (load_experiment, '{"env": {"name": "parabolic", "lam": NaN}}',
     "lam must be finite"),
    (load_experiment, '{"env": {"name": "parabolic", "lam": -Infinity}}',
     "lam must be finite"),
    (load_experiment, '{"episodes": 0}', "episodes must be >= 1"),
    (load_experiment, '{"U0_range": [2.0, 1.0]}',
     "U0_range low end must be <= its high end"),
    (load_experiment, '{"U0_range": [NaN, 1.0]}',
     "U0_range low end must be <= its high end"),
    (load_train_config, '{"constants": {"T": NaN}}',
     "T must be finite and positive"),
    (load_train_config, '{"operator": {"epochs": -1}}',
     "epochs must be >= 0"),
    (load_train_config, '{"operator": {"batch_trajectories": 0}}',
     "batch_trajectories must be >= 1"),
    (load_train_config, '{"operator": {"lr": NaN}}',
     "lr must be finite and positive"),
    (load_train_config, '{"bcbf": {"epochs": -2}}', "epochs must be >= 0"),
    (load_train_config, '{"bcbf": {"batch_samples": 0}}',
     "batch_samples must be >= 1"),
    (load_train_config, '{"bcbf": {"lr": -1}}',
     "lr must be finite and positive"),
    (load_train_config, '{"bcbf": {"lr": Infinity}}',
     "lr must be finite and positive"),
    (load_train_config, '{"lambda_S": NaN}',
     "lambda_S must be finite and >= 0"),
    (load_train_config, '{"lambda_BF": -0.5}',
     "lambda_BF must be finite and >= 0"),
    (load_train_config, '{"lambda_BF": Infinity}',
     "lambda_BF must be finite and >= 0"),
    (load_train_config, '{"operator": {"l2": NaN}}',
     "l2 must be finite and >= 0"),
    (load_train_config, '{"bcbf": {"margin": NaN}}',
     "margin must be finite and >= 0"),
    (load_train_config, '{"bcbf": {"reg_weight": -1}}',
     "reg_weight must be finite and >= 0"),
    (load_train_config, '{"train_fraction": NaN}',
     "train_fraction must be in (0, 1)"),
    (load_train_config, '{"train_fraction": 1}',
     "train_fraction must be in (0, 1)"),
    (load_train_config, '{"balance_keep": NaN}',
     "balance_keep must be in (0, 1]"),
    (load_train_config, '{"balance_keep": 0}',
     "balance_keep must be in (0, 1]"),
    (load_train_config, '{"balance_band": [0.1, -0.1]}',
     "balance_band low end must be <= its high end"),
    (load_train_config, '{"balance_band": [-0.1, NaN]}',
     "balance_band low end must be <= its high end"),
    (load_train_config, '{"operator": {"d_v": 0}}', "d_v must be >= 1"),
    (load_train_config, '{"operator": {"n_layers": 0}}',
     "n_layers must be >= 1"),
    (load_train_config, '{"operator": {"activations": ["tanh", "Relu"]}}',
     "activations must each be 'relu' or 'linear', got 'tanh'"),
    (load_train_config, '{"operator": {"activations": ["relu", "Relu"]}}',
     "activations must each be 'relu' or 'linear', got 'Relu'"),
    (load_train_config, '{"operator": {"activations": []}}',
     "activations must name one per layer (2)"),
    (load_train_config,
     '{"operator": {"n_layers": 1, "activations": ["relu", "relu"]}}',
     "activations must name one per layer (1)"),
])
def test_a_setting_that_cannot_run_is_an_error(load, text, message):
    values = json.loads(text)
    if load is load_experiment:
        values = {**SPEC, **values}
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        load(values)


def test_a_setting_that_cannot_run_exits_2(run, tmp_path, capsys):
    def fails(argv, message):
        assert main([str(a) for a in argv]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    config = tmp_path / "train.json"
    for text, message in (
            ('{"operator": {"batch_trajectories": 0}}',
             "batch_trajectories must be >= 1"),
            ('{"bcbf": {"batch_samples": 0}}', "batch_samples must be >= 1"),
            ('{"bcbf": {"lr": -1}}', "lr must be finite and positive"),
            ('{"operator": {"activations": ["tanh", "tanh"]}}',
             "activations must each be 'relu' or 'linear'")):
        config.write_text(text)
        for command in ("train-operator", "train-bcbf"):
            fails([command, "--dataset", run / "data.csv", "--config",
                   config, "--out", tmp_path / "out"], message)
    spec = json.loads((run / "spec.json").read_text())
    (tmp_path / "spec.json").write_text(json.dumps(
        {**spec, "filter_on": True, "filter": {"eta": float("nan")}}))
    fails(["evaluate", "--spec", tmp_path / "spec.json",
           "--out", tmp_path / "out"], "eta must be >= 0")
    fails(["filter", "--operator", run / "op.ckpt", "--bcbf",
           run / "bar.ckpt", "--nominal", run / "nominal.csv", "--eta",
           "nan", "--out", tmp_path / "out"], "eta must be >= 0")
    fails(["simulate", *ENV, "--controller", "proportional:gain=nan",
           "--U0", 1, "--out", tmp_path / "out"],
          "gain must be a finite number")
    # an operator checkpoint naming an activation no layer has
    kind, tensors, meta = read_checkpoint(run / "op.ckpt")
    write_checkpoint(tmp_path / "tanh.ckpt", kind, tensors,
                     {**meta, "activations": "tanh,tanh"})
    fails(["filter", "--operator", tmp_path / "tanh.ckpt", "--bcbf",
           run / "bar.ckpt", "--nominal", run / "nominal.csv", "--eta", 2,
           "--out", tmp_path / "out"], "got 'tanh'")


def test_an_operator_of_the_older_lifted_layout_exits_2(run, tmp_path,
                                                        capsys):
    # a checkpoint of the older layout holds the tensors of a lift P
    kind, tensors, meta = read_checkpoint(run / "op.ckpt")
    write_checkpoint(tmp_path / "old.ckpt", kind,
                     {**tensors, "P.W0": np.ones((4, 1)), "P.b0": np.zeros(4)},
                     meta)
    assert main([str(a) for a in (
        "filter", "--operator", tmp_path / "old.ckpt", "--bcbf",
        run / "bar.ckpt", "--nominal", run / "nominal.csv", "--eta", 2,
        "--out", tmp_path / "out")]) == 2
    assert "does not name: P.W0, P.b0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def filter_exits_2_naming(run, tmp_path, capsys, name, op=None, bar=None):
    """`safebc filter` on the run's checkpoints, one of them replaced, exits
    2 with name in its message and writes nothing."""
    assert main([str(a) for a in (
        "filter", "--operator", op or run / "op.ckpt", "--bcbf",
        bar or run / "bar.ckpt", "--nominal", run / "nominal.csv", "--eta",
        2, "--out", tmp_path / "out")]) == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["layer1.kappa.W1", "Q.W0"])
def test_an_operator_tensor_of_another_shape_exits_2(run, tmp_path, capsys,
                                                     name):
    # transposed, it has the right size and once loaded as another function
    kind, tensors, meta = read_checkpoint(run / "op.ckpt")
    assert tensors[name].shape[0] != tensors[name].shape[1]
    write_checkpoint(tmp_path / "op.ckpt", kind,
                     {**tensors, name: tensors[name].T}, meta)
    filter_exits_2_naming(run, tmp_path, capsys, f"tensor {name!r} has shape",
                          op=tmp_path / "op.ckpt")


def test_a_barrier_missing_a_tensor_exits_2(run, tmp_path, capsys):
    kind, tensors, meta = read_checkpoint(run / "bar.ckpt")
    del tensors["b1"]
    write_checkpoint(tmp_path / "bar.ckpt", kind, tensors, meta)
    filter_exits_2_naming(run, tmp_path, capsys, "no tensor 'b1'",
                          bar=tmp_path / "bar.ckpt")


def test_a_barrier_time_dependence_other_than_0_or_1_exits_2(run, tmp_path,
                                                              capsys):
    kind, tensors, meta = read_checkpoint(run / "bar.ckpt")
    write_checkpoint(tmp_path / "bar.ckpt", kind, tensors,
                     {**meta, "time_dependent": "true"})
    filter_exits_2_naming(run, tmp_path, capsys, "time_dependent",
                          bar=tmp_path / "bar.ckpt")


def test_the_asymptotic_filter_flag_is_gone(run, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([str(a) for a in (
            "filter", "--operator", run / "op.ckpt", "--bcbf",
            run / "bar.ckpt", "--nominal", run / "nominal.csv", "--eta", 2,
            "--asymptotic", "--out", tmp_path / "out")])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --asymptotic" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_filter_alpha_too_large_for_the_grid_exits_2(run, tmp_path,
                                                       capsys):
    # the run's grid has dt = 0.25, and 20 * 0.25 >= 1
    assert main([str(a) for a in (
        "filter", "--operator", run / "op.ckpt", "--bcbf", run / "bar.ckpt",
        "--nominal", run / "nominal.csv", "--eta", 2, "--alpha", 20,
        "--out", tmp_path / "out")]) == 2
    assert "got alpha=20.0 and dt=0.25, whose product is 5.0" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_tuple_items_load_as_their_declared_type():
    spec = load_experiment({**SPEC, "U0_range": [0, 2]})
    assert spec.U0_range == (0.0, 2.0)
    assert all(type(x) is float for x in spec.U0_range)
    config = load_train_config(
        {"operator": {"activations": ["linear", "relu"]}})
    assert config.operator.activations == ("linear", "relu")


def test_numbers_load_as_floats_and_null_keeps_a_none_default():
    config = load_train_config(
        {"lambda_S": 2, "operator": {"activations": None},
         "constants": {"T": 3}})
    assert type(config.lambda_S) is float and config.lambda_S == 2.0
    assert config.operator.activations is None
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


def assert_scipy_unloaded_after(code, *args):
    """Run python code in a fresh process that imports safebc from this
    checkout, and fail unless scipy is still not loaded at its end."""
    src = str(pathlib.Path(safebc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c",
         code + "\nimport sys; assert 'scipy' not in sys.modules", *args],
        env={**os.environ, "PYTHONPATH": path}, check=True, timeout=120)


def test_importing_the_cli_does_not_load_scipy():
    # the package depends on numpy alone; the command line's import (what
    # every command starts with) must not pull scipy in
    assert_scipy_unloaded_after("import safebc.cli")


def test_a_parabolic_run_does_not_load_scipy(tmp_path):
    assert_scipy_unloaded_after(
        "import sys\n"
        "from safebc.cli import main\n"
        "from safebc.pde_sim import Constant, ParabolicConfig, TimeGrid, "
        "rollout\n"
        "rollout(ParabolicConfig(grid=TimeGrid(1.0, 3)), [Constant()],\n"
        "        [1.0])\n"
        "assert main(['simulate', '--env', 'parabolic', '--grid-T', '1',\n"
        "             '--grid-M', '3', '--controller', 'constant',\n"
        "             '--U0', '1', '--out', sys.argv[1]]) == 0",
        str(tmp_path / "states.csv"))
    assert (tmp_path / "states.csv").stat().st_size > 0

"""Round trip through the command-line pipeline on a small transport plant."""

import json

import numpy as np
import pytest

from safebc.cli import main, read_metrics_csv
from safebc.pde_sim import read_trajectory_csv

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


def test_errors_exit_nonzero(tmp_path, capsys):
    rc = main(["train-operator", "--dataset", str(tmp_path / "missing.csv"),
               "--out", str(tmp_path / "op.ckpt")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err

"""Tests for the one table format: the shared writer and reader, files in
the byte layout earlier versions wrote, and the one error class."""

import os
import stat

import numpy as np
import pytest

from safebc.checkpoint import (ConfigurationError, DatasetFormatError,
                               read_table, write_checkpoint, write_table)
from safebc.cli import read_metrics_csv
from safebc.evaluation import read_episode_csv
from safebc.pde_sim import TimeGrid, read_trajectory_csv
from safebc.safety_filter import FilterReport, StepRecord
from safebc.training import TrainHistory
from safebc.trajectories import read_dataset, write_dataset

# Files as earlier versions wrote them: the dataset and trajectory writers
# ended table lines with CRLF (comment lines with LF).
CRLF_DATASET = (
    b"# origin=synthetic\n# grid_T=1\n# grid_M=2\n"
    b"traj_id,step,t,U,Y,safe\r\n"
    b"0,0,0,2.5,2.5,0\r\n"
    b"0,1,0.5,-1,0.10000000000000001,1\r\n"
    b"0,2,1,-1,-0.29999999999999999,1\r\n"
    b"1,0,0,0.10000000000000001,1.0000000000000001e+300,1\r\n"
    b"1,1,0.5,0.20000000000000001,-0,1\r\n"
    b"1,2,1,9.9999999999999995e-21,7,0\r\n")
CRLF_TRAJECTORY = (
    b"step,t,U,Y\r\n"
    b"0,0,0.10000000000000001,1\r\n"
    b"1,0.5,0.25,0.20000000000000001\r\n"
    b"2,1,-3,4.9406564584124654e-324\r\n")
HISTORY = (
    b"# lambda_BF=0.10000000000000001 lambda_G=1 lambda_S=0.5\n"
    b"epoch,L_G,L_S,L_BF,reg,val_LG,val_sign_err\n"
    b"0,0.10000000000000001,0,0,0,2,0\n"
    b"1,0.050000000000000003,3,0,9.9999999999999995e-08,0,0.25\n")


def test_crlf_dataset_reads_back_and_rewrites_with_lf(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_bytes(CRLF_DATASET)
    ds = read_dataset(path)
    assert ds.grid == TimeGrid(1.0, 2)
    assert ds.meta == {"origin": "synthetic"}
    assert np.array_equal(ds.U, [[2.5, -1.0, -1.0], [0.1, 0.2, 1e-20]])
    assert np.array_equal(ds.Y, [[2.5, 0.1, -0.3], [1e300, -0.0, 7.0]])
    assert np.signbit(ds.Y[1, 1])
    assert np.array_equal(ds.safe[1], [True, True, False])
    write_dataset(tmp_path / "again.csv", ds)
    assert (tmp_path / "again.csv").read_bytes() \
        == CRLF_DATASET.replace(b"\r", b"")


def test_crlf_trajectory_reads_back(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_bytes(CRLF_TRAJECTORY)
    assert np.array_equal(read_trajectory_csv(path), [0.1, 0.25, -3.0])


def test_history_with_weights_comment_reads_back(tmp_path):
    path = tmp_path / "hist.csv"
    path.write_bytes(HISTORY)
    hist = TrainHistory.read(path)
    assert hist.weights == {"lambda_BF": 0.1, "lambda_G": 1.0,
                            "lambda_S": 0.5}
    assert [r["epoch"] for r in hist.rows] == [0, 1]
    assert hist.rows[1] == {"epoch": 1, "L_G": 0.05, "L_S": 3.0, "L_BF": 0.0,
                            "reg": 1e-7, "val_LG": 0.0, "val_sign_err": 0.25}
    hist.save(tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == HISTORY


READERS = {
    "dataset": (read_dataset,
                "# grid_T=1\n# grid_M=1\ntraj_id,step,t,U,Y,safe\n"
                "0,0,0,1,1,1\n0,1,1,x,1,1\n", 5),
    "trajectory": (read_trajectory_csv, "step,t,U\n0,0,1\n1,1\n", 3),
    "episodes": (read_episode_csv,
                 "episode,U0,reward,feasible,feasible_steps\n"
                 "0,1.5,-2,1,3\n1,1.5,-2,yes,3\n", 3),
    "metrics": (read_metrics_csv,
                "reward_mean,reward_std,feasible_rate,avg_feasible_steps,"
                "episodes\n-1,0,0.5,2\n", 2),
    "history": (TrainHistory.read,
                "# lambda_G=1\nepoch,L_G,L_S,L_BF,reg,val_LG,val_sign_err\n"
                "0,1,0,0,0,1,0\n\n1,1,0,0,0,1\n", 5),
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_malformed_row_raises_the_one_error_with_its_line(tmp_path, name):
    reader, text, line = READERS[name]
    path = tmp_path / f"{name}.csv"
    path.write_text(text)
    with pytest.raises(DatasetFormatError) as err:
        reader(path)
    assert err.value.line == line
    assert f"{path}:{line}:" in str(err.value)


@pytest.mark.parametrize("name", sorted(READERS))
def test_wrong_header_is_rejected(tmp_path, name):
    reader, _, _ = READERS[name]
    path = tmp_path / f"{name}.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DatasetFormatError):
        reader(path)


def test_dataset_rows_without_grid_comments_are_rejected(tmp_path):
    path = tmp_path / "nogrid.csv"
    path.write_text("traj_id,step,t,U,Y,safe\n0,0,0,1,1,1\n0,1,1,1,1,1\n")
    with pytest.raises(DatasetFormatError, match="grid"):
        read_dataset(path)


def test_format_errors_are_configuration_errors():
    assert issubclass(DatasetFormatError, ConfigurationError)
    assert issubclass(DatasetFormatError, ValueError)


def test_filter_report_columns_are_the_step_record_fields(tmp_path):
    report = FilterReport([StepRecord(1, 0.25, -0.5, True, True, False)],
                          np.zeros(2), np.zeros(2))
    report.write_csv(tmp_path / "report.csv")
    assert (tmp_path / "report.csv").read_text() == (
        "step,du_nom,du_qp,accepted,active,infeasible\n"
        "1,0.25,-0.5,1,1,0\n")


def test_cells_comments_and_line_endings(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ("i", "flag", "np_flag", "x", "np_x"),
                [(3, True, np.bool_(False), 0.1, np.float64(-np.inf)),
                 (np.int64(-4), False, np.bool_(True), 2.0, np.float64(1e-7))],
                comments=("a=1", "free text"))
    assert path.read_bytes() == (
        b"# a=1\n# free text\n"
        b"i,flag,np_flag,x,np_x\n"
        b"3,1,0,0.10000000000000001,-inf\n"
        b"-4,0,1,2,9.9999999999999995e-08\n")
    table = read_table(path, ("i", "flag", "np_flag", "x", "np_x"),
                       (int, int, int, float, float))
    assert table.comments == ["a=1", "free text"]
    assert table.rows == [(3, 1, 0, 0.1, -np.inf), (-4, 0, 1, 2.0, 1e-7)]
    # without expected columns the file's own header is returned
    assert read_table(path).columns == ("i", "flag", "np_flag", "x", "np_x")


def test_empty_file_has_no_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# only a comment\n")
    with pytest.raises(DatasetFormatError, match="missing header"):
        read_table(path)


def test_failed_write_leaves_the_old_file_and_no_temp_file(tmp_path,
                                                          monkeypatch):
    path = tmp_path / "t.csv"
    write_table(path, ("x",), [(1.0,)])

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        write_table(path, ("x",), [(2.0,)])
    assert path.read_text() == "x\n1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_files_get_the_permissions_of_a_plain_open(tmp_path):
    (tmp_path / "plain").write_text("")
    write_table(tmp_path / "t.csv", ("x",), [(1.0,)])
    write_checkpoint(tmp_path / "m.ckpt", "bcbf", {"W0": np.zeros((1, 1))})
    modes = {stat.S_IMODE(os.stat(tmp_path / name).st_mode)
             for name in ("plain", "t.csv", "m.ckpt")}
    assert len(modes) == 1

"""Tests for the one table format and the checkpoint format: the shared
writers and readers against the per-cell ones of `oracles`, files in the
byte layout earlier versions wrote, and the errors that name their line;
and the models' checkpoints, whose `tensors()` save, load and `params()`
all read."""

import os
import stat
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (cell_checkpoint_text, cell_dataset_text,
                     cell_read_checkpoint, cell_read_dataset,
                     cell_read_table, cell_table_text)
from safebc.barrier import BarrierFunction, loss_safe_set
from safebc.checkpoint import (TABLE_ROWS, CheckpointError,
                               ConfigurationError, DatasetFormatError,
                               read_checkpoint, read_table, write_checkpoint,
                               write_table)
from safebc.cli import read_metrics_csv
from safebc.evaluation import read_episode_csv
from safebc.neural_operator import BoundaryOperator
from safebc.pde_sim import TimeGrid, read_trajectory_csv
from safebc.safety_filter import FilterReport, StepRecord
from safebc.training import TrainHistory
from safebc.trajectories import (Dataset, OneSidedSet, TwoSidedSet,
                                 read_dataset, write_dataset)

# Files with table lines ended by CRLF (comment lines by LF), as earlier
# versions of the dataset and trajectory writers ended them.
CRLF_DATASET = (
    b"# origin=synthetic\n# safe_set=abs:center=0.0,halfwidth=3.0\n"
    b"# grid_T=1\n# grid_M=2\n"
    b"traj_id,step,U,Y\r\n"
    b"0,0,2.5,2.5\r\n"
    b"0,1,-1,0.10000000000000001\r\n"
    b"0,2,-1,-0.29999999999999999\r\n"
    b"1,0,0.10000000000000001,1.0000000000000001e+300\r\n"
    b"1,1,0.20000000000000001,-0\r\n"
    b"1,2,9.9999999999999995e-21,7\r\n")
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
    assert ds.safe_set == TwoSidedSet(0.0, 3.0)
    assert np.array_equal(ds.safe, [[True, True, True],
                                    [False, True, False]])
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


DATASET_HEAD = "# safe_set=Y<1\n# grid_T=1\n# grid_M=2\ntraj_id,step,U,Y\n"
HISTORY_HEAD = "# lambda_G=1\nepoch,L_G,L_S,L_BF,reg,val_LG,val_sign_err\n"

# reader, a file with one bad line, and that line's number
READERS = {
    "dataset": (read_dataset, DATASET_HEAD + "0,0,1,1\n0,1,x,1\n", 6),
    "dataset_float_traj_id": (
        read_dataset, DATASET_HEAD + "0,0,1,1\n1.5,1,1,1\n", 6),
    "dataset_float_step": (
        read_dataset, DATASET_HEAD + "0,0,1,1\n0,1.5,1,1\n", 6),
    "dataset_duplicate_row": (
        read_dataset, DATASET_HEAD + "0,0,1,1\n0,1,1,1\n0,1,1,1\n", 7),
    "dataset_extra_cell": (
        read_dataset, DATASET_HEAD + "0,0,1,1\n0,1,1,1,7\n", 6),
    "trajectory": (read_trajectory_csv, "step,t,U\n0,0,1\n1,1\n", 3),
    "episodes": (read_episode_csv,
                 "episode,U0,reward,feasible,feasible_steps\n"
                 "0,1.5,-2,1,3\n1,1.5,-2,yes,3\n", 3),
    "metrics": (read_metrics_csv,
                "reward_mean,reward_std,feasible_rate,avg_feasible_steps,"
                "episodes\n-1,0,0.5,2\n", 2),
    "history": (TrainHistory.read,
                HISTORY_HEAD + "0,1,0,0,0,1,0\n\n1,1,0,0,0,1\n", 5),
    "history_float_epoch": (TrainHistory.read,
                            HISTORY_HEAD + "0,1,0,0,0,1,0\n1.5,1,0,0,0,1,0\n",
                            4),
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


@pytest.mark.parametrize("layout", ["crlf", "blank"])
@pytest.mark.parametrize("name", sorted(READERS))
def test_the_line_is_right_with_crlf_or_blank_lines(tmp_path, name, layout):
    """The same files with CRLF line endings, and with a blank line after
    every line (line k moves to 2k - 1)."""
    reader, text, line = READERS[name]
    if layout == "crlf":
        text = text.replace("\n", "\r\n")
    else:
        text, line = text.replace("\n", "\n\n"), 2 * line - 1
    path = tmp_path / f"{name}.csv"
    path.write_bytes(text.encode())
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
    path.write_text("# safe_set=Y<1\ntraj_id,step,U,Y\n0,0,1,1\n0,1,1,1\n")
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
    write_table(path, {"i": [3, np.int64(-4)], "flag": [True, False],
                       "np_flag": np.array([False, True]),
                       "x": [0.1, 2.0],
                       "np_x": np.array([-np.inf, 1e-7])},
                comments=("a=1", "free text"))
    assert path.read_bytes() == (
        b"# a=1\n# free text\n"
        b"i,flag,np_flag,x,np_x\n"
        b"3,1,0,0.10000000000000001,-inf\n"
        b"-4,0,1,2,9.9999999999999995e-08\n")
    table = read_table(path, ("i", "flag", "np_flag", "x", "np_x"),
                       ints=("i", "flag", "np_flag"))
    assert table.comments == ["a=1", "free text"]
    assert {k: a.tolist() for k, a in table.data.items()} == {
        "i": [3, -4], "flag": [1, 0], "np_flag": [0, 1], "x": [0.1, 2.0],
        "np_x": [-np.inf, 1e-7]}
    assert [a.dtype for a in table.data.values()] == [np.int64] * 3 \
        + [np.float64] * 2
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
    write_table(path, {"x": [1.0]})

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        write_table(path, {"x": [2.0]})
    assert path.read_text() == "x\n1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_files_get_the_permissions_of_a_plain_open(tmp_path):
    (tmp_path / "plain").write_text("")
    write_table(tmp_path / "t.csv", {"x": [1.0]})
    write_checkpoint(tmp_path / "m.ckpt", "bcbf", {"W0": np.zeros((1, 1))})
    modes = {stat.S_IMODE(os.stat(tmp_path / name).st_mode)
             for name in ("plain", "t.csv", "m.ckpt")}
    assert len(modes) == 1


def hex_row(*values):
    """A checkpoint row of the float values."""
    return " ".join(struct.pack(">d", v).hex() for v in values)


CKPT_HEAD = f"CKPT v2 kind=bcbf\nb0 1 2\n{hex_row(1, 2)}\n\n"

# a checkpoint with one bad line, that line's number (None for the header,
# whose errors name no line), and the message
CHECKPOINTS = {
    "wide_row": (CKPT_HEAD + f"W0 2 2\n{hex_row(1, 2)}\n{hex_row(3, 4, 5)}\n",
                 7, "expected 2 values, got 3"),
    "narrow_row": (CKPT_HEAD + f"W0 2 2\n{hex_row(1, 2)}\n{hex_row(3)}\n", 7,
                   "expected 2 values, got 1"),
    "blank_row": (CKPT_HEAD + f"W0 2 2\n\n{hex_row(1, 2)}\n", 6,
                  "expected 2 values, got 0"),
    "bad_value": (CKPT_HEAD + f"W0 2 2\n{hex_row(1, 2)}\n{hex_row(3)} x\n",
                  7, "bad value"),
    "truncated": (CKPT_HEAD + f"W0 3 2\n{hex_row(1, 2)}\n{hex_row(3, 4)}\n",
                  5, "truncated tensor 'W0'"),
    "15_digit_group": (CKPT_HEAD + f"W0 2 2\n{hex_row(1, 2)}\n"
                       f"{hex_row(3)[1:]} {hex_row(4)}\n", 7, "bad value"),
    "8_digit_row": (CKPT_HEAD + f"W0 2 1\n{hex_row(1)}\n{hex_row(3)[:8]}\n", 7,
                    "bad value"),
    "non_hex_digit": (CKPT_HEAD + f"W0 2 2\n{hex_row(1, 2)}\n"
                      f"{hex_row(3)[:-1]}g {hex_row(4)}\n", 7, "bad value"),
    "v1": ("CKPT v1 kind=bcbf\nb0 1 2\n1 2\n", None,
           "checkpoint format CKPT v1 is not read (only CKPT v2 is); "
           "retrain the model"),
}
# header lines the writer never spells: each is rejected, not read
TENSOR = f"1 2\n{hex_row(3, 4)}\n"
CHECKPOINTS.update({
    f"header_{name}": (CKPT_HEAD + header + TENSOR, 5,
                       "malformed tensor header")
    for name, header in (("leading_blank", " W0 "), ("tab", "W0\t"),
                         ("two_blanks", "W0  "), ("blank_line", "  \nW0 "))})
CHECKPOINTS["header_trailing_blank"] = (
    CKPT_HEAD + f"W0 1 2 \n{hex_row(3, 4)}\n", 5, "malformed tensor header")
CHECKPOINTS.update({
    f"meta_{name}": (f"CKPT v2 kind=bcbf\n{line}\nb0 1 2\n{hex_row(1, 2)}\n",
                     2, message)
    for name, line, message in (
        ("leading_blank", "meta  a 1", "malformed meta line"),
        ("trailing_blank", "meta a 1 ", "malformed meta line"),
        ("tab_in_value", "meta a\t1", "malformed meta line"),
        ("two_blanks_in_value", "meta a 1  2", "malformed meta line"),
        ("tab_after_meta", "meta\ta 1", "malformed tensor header"))})


@pytest.mark.parametrize("meta, names", [
    ({"a": " 1"}, ()), ({"a": "1 "}, ()), ({"a": "1\t2"}, ()), ({"a": ""}, ()),
    ({"a\tb": "1"}, ()), ({}, ("W\t0",)), ({}, ("W0\n",))],
    ids=["leading_blank", "trailing_blank", "tab", "empty", "tab_in_key",
         "tab_in_name", "newline_in_name"])
def test_the_writer_refuses_what_the_reader_would_reject(tmp_path, meta,
                                                         names):
    with pytest.raises(CheckpointError):
        write_checkpoint(tmp_path / "m.ckpt", "bcbf",
                         {name: np.zeros(1) for name in names}, meta)
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
@pytest.mark.parametrize("name", sorted(CHECKPOINTS))
def test_a_malformed_checkpoint_names_its_line(tmp_path, name, crlf):
    text, line, message = CHECKPOINTS[name]
    path = tmp_path / f"{name}.ckpt"
    path.write_bytes((text.replace("\n", "\r\n") if crlf else text).encode())
    with pytest.raises(CheckpointError) as err:
        read_checkpoint(path)
    where = path if line is None else f"{path}:{line}"
    assert str(err.value).startswith(f"{where}: {message}")


# the values a parser most easily gets wrong
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]
NON_FINITE = [np.inf, -np.inf, np.nan]
FLOATS = st.one_of(st.floats(allow_nan=False),
                   st.sampled_from(EDGE_FLOATS + NON_FINITE))
FINITE_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from(EDGE_FLOATS))
CELLS = {"int": (st.integers(-2**63, 2**63 - 1), np.int64),
         "bool": (st.booleans(), bool),
         "float": (FLOATS, np.float64)}


def array_of(draw, cells, dtype, shape):
    size = int(np.prod(shape))
    return np.array(draw(st.lists(cells, min_size=size, max_size=size)),
                    dtype=dtype).reshape(shape)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1,
                          max_size=4))
    n = draw(st.integers(0, 6))
    return {f"c{j}_{kind}": array_of(draw, *CELLS[kind], (n,))
            for j, kind in enumerate(kinds)}


@given(tables())
@settings(max_examples=150, deadline=None)
def test_a_table_writes_the_cell_bytes_and_reads_back_bitwise(columns):
    names = tuple(columns)
    ints = [name for name in names if not name.endswith("float")]
    rows = list(zip(*(a.tolist() for a in columns.values())))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.csv")
        write_table(path, columns, comments=("a=1",))
        with open(path, "rb") as fh:
            assert fh.read() == cell_table_text(names, rows, ("a=1",)).encode()
        table = read_table(path, names, ints=ints)
        _, cell_rows, _ = cell_read_table(
            path, [int if name in ints else float for name in names])
    assert table.comments == ["a=1"]
    for j, name in enumerate(names):
        dtype = np.int64 if name in ints else np.float64
        assert same_bits(table.data[name], columns[name].astype(dtype))
        assert same_bits(table.data[name],
                         np.array([row[j] for row in cell_rows], dtype=dtype))


@pytest.mark.parametrize("n", [TABLE_ROWS - 1, TABLE_ROWS, TABLE_ROWS + 1,
                               2 * TABLE_ROWS + 5])
def test_a_table_of_several_row_passes_writes_the_cell_bytes(tmp_path, n):
    rng = np.random.default_rng(n)
    columns = {"i": rng.integers(-2**63, 2**63 - 1, n, dtype=np.int64),
               "b": rng.random(n) < 0.5,
               "f": rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)}
    write_table(tmp_path / "t.csv", columns, comments=("a=1",))
    rows = list(zip(*(a.tolist() for a in columns.values())))
    assert (tmp_path / "t.csv").read_bytes() == \
        cell_table_text(tuple(columns), rows, ("a=1",)).encode()
    table = read_table(tmp_path / "t.csv", tuple(columns), ints=("i", "b"))
    assert same_bits(table.data["i"], columns["i"])
    assert same_bits(table.data["b"], columns["b"].astype(np.int64))
    assert same_bits(table.data["f"], columns["f"])


def block_table_text(rows, gaps, bad=()):
    """A table of `rows` rows of cells (i, i + 0.25) after a comment and
    the header; after each row in `gaps` come a blank line and a comment,
    and each row in `bad` has the cell x for its float. Also returns each
    row's line number."""
    lines, row_lines = ["# a=1", "i,f"], []
    for k in range(rows):
        lines.append(f"{k},{'x' if k in bad else k + 0.25}")
        row_lines.append(len(lines))
        if k in gaps:
            lines += ["", f"# after row {k}"]
    return "\n".join(lines) + "\n", row_lines


@pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
@pytest.mark.parametrize("n", [TABLE_ROWS - 1, TABLE_ROWS, TABLE_ROWS + 1,
                               2 * TABLE_ROWS + 5])
def test_blocks_of_rows_read_like_the_cell_reader(tmp_path, n, crlf):
    # blank lines and comments after the first row, around the first block
    # edge and before the last row
    gaps = {0, TABLE_ROWS - 4, TABLE_ROWS, n - 2}
    text, _ = block_table_text(n, gaps)
    path = tmp_path / "t.csv"
    path.write_bytes((text.replace("\n", "\r\n") if crlf else text).encode())
    table = read_table(path, ("i", "f"), ints=("i",))
    _, rows, comments = cell_read_table(path, [int, float])
    assert len(rows) == n
    assert table.comments == comments
    assert len(comments) == 1 + len(gaps & set(range(n)))
    for j, (name, dtype) in enumerate((("i", np.int64), ("f", np.float64))):
        assert same_bits(table.data[name],
                         np.array([row[j] for row in rows], dtype=dtype))


@pytest.mark.parametrize("gaps", [(), (0, TABLE_ROWS - 2)],
                         ids=["rows-only", "gaps"])
@pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
@pytest.mark.parametrize("bad", [TABLE_ROWS - 1, TABLE_ROWS, TABLE_ROWS + 1])
def test_a_bad_row_at_a_block_edge_is_named_by_its_line(tmp_path, bad, crlf,
                                                         gaps):
    # without gaps, rows TABLE_ROWS - 1 and TABLE_ROWS end and start a
    # block; a later bad row, in the same block or the next, is not the one
    # named
    text, row_lines = block_table_text(2 * TABLE_ROWS + 5, set(gaps),
                                       bad={bad, bad + 2})
    path = tmp_path / "t.csv"
    path.write_bytes((text.replace("\n", "\r\n") if crlf else text).encode())
    with pytest.raises(DatasetFormatError) as err:
        read_table(path, ("i", "f"), ints=("i",))
    assert err.value.line == row_lines[bad]
    assert str(err.value) == f"{path}:{row_lines[bad]}: bad row '{bad},x'"


# any valid one- or two-sided safe set
SAFE_SETS = st.one_of(
    st.builds(OneSidedSet, sign=st.sampled_from([1, -1]),
              bound=st.floats(allow_nan=False, allow_infinity=False)),
    st.builds(TwoSidedSet,
              center=st.floats(allow_nan=False, allow_infinity=False),
              halfwidth=st.floats(min_value=0.0, exclude_min=True)))


@st.composite
def datasets(draw):
    K, M = draw(st.integers(0, 3)), draw(st.integers(2, 5))
    grid = TimeGrid(draw(st.floats(1e-3, 1e3)), M)
    meta = draw(st.dictionaries(st.text("abc_", min_size=1, max_size=4),
                                st.text("xyz=;", max_size=4), max_size=2))
    return Dataset(grid, array_of(draw, FINITE_FLOATS, float, (K, M + 1)),
                   array_of(draw, FINITE_FLOATS, float, (K, M + 1)),
                   draw(SAFE_SETS), meta)


@given(datasets())
# a Y whose distance to the band's center overflows is labelled unsafe
@example(Dataset(TimeGrid(1.0, 2), np.zeros((1, 3)),
                 np.array([[0.0, 0.0, 1e308]]),
                 TwoSidedSet(center=-7.976931348623158e+307, halfwidth=1.0)))
@settings(max_examples=100, deadline=None)
def test_a_dataset_writes_the_cell_bytes_and_reads_back_bitwise(ds):
    """U, Y and the labels read back bitwise, for any valid safe set, and
    the dataset read back writes the same bytes again."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "ds.csv")
        write_dataset(path, ds)
        with open(path, "rb") as fh:
            text = fh.read()
        assert text == cell_dataset_text(ds).encode()
        back = read_dataset(path)
        grid, U, Y, safe_set, meta = cell_read_dataset(path)
        again = os.path.join(d, "again.csv")
        write_dataset(again, back)
        with open(again, "rb") as fh:
            assert fh.read() == text
    assert grid == ds.grid and meta == ds.meta and safe_set == ds.safe_set
    assert same_bits(U, ds.U) and same_bits(Y, ds.Y)
    assert back.grid == ds.grid and back.meta == ds.meta
    assert back.safe_set == ds.safe_set
    assert all(same_bits(a, b) for a, b in ((back.U, ds.U), (back.Y, ds.Y),
                                            (back.safe, ds.safe)))


def bits_float(bits):
    return struct.unpack(">d", bits.to_bytes(8, "big"))[0]


# any float64 bit pattern, with NaNs of other payloads (quiet and
# signalling, of either sign) and subnormals drawn on purpose
CKPT_FLOATS = st.one_of(
    FLOATS, st.integers(0, 2**64 - 1).map(bits_float),
    st.sampled_from([bits_float(b) for b in (
        0x7ff0000000000001, 0x7ff4000000000abc, 0xfff8000000000001,
        0xffffffffffffffff, 0x000fffffffffffff, 0x8000000000000001)]))
SHAPES = st.one_of(st.tuples(st.integers(0, 3)),
                   st.tuples(st.integers(0, 3), st.integers(0, 3)))


@st.composite
def checkpoints(draw):
    names = draw(st.lists(st.text("Wb0.", min_size=1, max_size=3),
                          min_size=1, max_size=3, unique=True))
    meta = draw(st.dictionaries(st.text("ab_", min_size=1, max_size=3),
                                st.text("ab1,.", min_size=1, max_size=4),
                                max_size=2))
    return {name: array_of(draw, CKPT_FLOATS, float, draw(SHAPES))
            for name in names}, meta


@given(checkpoints())
@settings(max_examples=100, deadline=None)
def test_a_checkpoint_writes_the_cell_bytes_and_reads_back_bitwise(ckpt):
    tensors, meta = ckpt
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.ckpt")
        write_checkpoint(path, "bcbf", tensors, meta)
        with open(path, "rb") as fh:
            assert fh.read() == cell_checkpoint_text("bcbf", tensors,
                                                     meta).encode()
        kind, back, back_meta = read_checkpoint(path)
        _, cell_back, _ = cell_read_checkpoint(path)
    assert kind == "bcbf" and back_meta == meta
    assert list(back) == list(tensors)
    for name, a in tensors.items():
        assert same_bits(back[name], np.atleast_2d(a))
        assert same_bits(back[name], cell_back[name])


@st.composite
def operators(draw):
    n_layers = draw(st.integers(1, 3))
    activations = draw(st.lists(st.sampled_from(["relu", "linear"]),
                                min_size=n_layers, max_size=n_layers))
    return BoundaryOperator(
        TimeGrid(1.0, draw(st.integers(2, 12))), d_v=draw(st.integers(1, 4)),
        n_layers=n_layers, activations=tuple(activations),
        kappa_hidden=draw(st.integers(1, 6)), b_hidden=draw(st.integers(1, 6)),
        seed=draw(st.integers(1, 2**32 - 1)))


barriers = st.builds(
    lambda hidden, seed: BarrierFunction(hidden=hidden, seed=seed),
    st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple),
    st.integers(1, 2**32 - 1))


def assert_named_round_trip(model, grads):
    """model saved and loaded has the same tensors() names, in the same
    order, with bitwise-equal arrays; each model's params() is its
    tensors()' arrays, and grads line up with them shape by shape."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "model.ckpt")
        model.save(path)
        back = type(model).load(path)
    named, again = model.tensors(), back.tensors()
    assert list(again) == list(named)
    assert all(same_bits(again[name], a) for name, a in named.items())
    for m in (model, back):
        params, arrays = m.params(), list(m.tensors().values())
        assert len(params) == len(arrays)
        assert all(p is a for p, a in zip(params, arrays))
    assert [g.shape for g in grads] == [a.shape for a in named.values()]


@given(operators(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_an_operator_checkpoint_round_trips_by_name(op, seed):
    rng = np.random.default_rng(seed)
    UU, YY = rng.normal(size=(2, 2, op.grid.M + 1))
    _, grads = op.loss_and_grads(UU, YY, l2=1e-3)
    assert_named_round_trip(op, grads)


@given(barriers)
@settings(max_examples=40, deadline=None)
def test_a_barrier_checkpoint_round_trips_by_name(bar):
    _, _, grads = loss_safe_set(bar, [0.0, 0.5], [0.1, -0.2], [True, False],
                                [False, True], 1.0, 1.0, 0.1)
    assert_named_round_trip(bar, grads)


MODELS = {
    "operator": lambda: BoundaryOperator(TimeGrid(1.0, 4), d_v=3,
                                         n_layers=2, kappa_hidden=4,
                                         b_hidden=3, seed=1),
    "bcbf": lambda: BarrierFunction(hidden=(4, 3), seed=1),
}


@pytest.mark.parametrize("kind, fault, name, message", [
    ("operator", "missing", "layer1.b.W1",
     "checkpoint has no tensor 'layer1.b.W1'"),
    ("operator", "missing", "layer0.kappa.W0",
     "checkpoint has no tensor 'layer0.kappa.W0'"),
    ("operator", "shape", "layer1.kappa.b0",
     "tensor 'layer1.kappa.b0' has shape (1, 5), expected (4,)"),
    ("operator", "unnamed", "extra",
     "checkpoint has tensors its model does not name: extra"),
    ("operator", "kind", None, "checkpoint kind 'bcbf' is not operator"),
    ("bcbf", "missing", "b2", "checkpoint has no tensor 'b2'"),
    ("bcbf", "shape", "b0", "tensor 'b0' has shape (1, 5), expected (4,)"),
    ("bcbf", "unnamed", "extra",
     "checkpoint has tensors its model does not name: extra"),
    ("bcbf", "kind", None, "checkpoint kind 'operator' is not bcbf"),
])
def test_a_refused_model_checkpoint_names_the_file_and_the_tensor(
        tmp_path, kind, fault, name, message):
    path = tmp_path / "model.ckpt"
    model = MODELS[kind]()
    model.save(path)
    written, tensors, meta = read_checkpoint(path)
    if fault == "missing":
        del tensors[name]
    elif fault in ("shape", "unnamed"):
        tensors[name] = np.zeros(5 if fault == "shape" else 1)
    else:
        written = "bcbf" if kind == "operator" else "operator"
    write_checkpoint(path, written, tensors, meta)
    with pytest.raises(ConfigurationError) as info:
        type(model).load(path)
    assert str(info.value) == f"{path}: {message}"

"""The plain-text file formats: model checkpoints and tables.

Every file the pipeline writes goes through `write_text`, as a sequence of
text chunks: atomically (temp file + rename) with LF line endings.

Checkpoints hold the tensors of the operator or the barrier. Layout::

    CKPT v2 kind=<operator|bcbf>
    meta <key> <value>          # zero or more
    <tensor-name> <rows> <cols>
    <row of `cols` values>
    ...

A value is the IEEE-754 binary64 bits of a float as 16 lowercase hex
digits, most significant byte first, with single spaces between a row's
values, so every float reads back bit for bit. Every line is read as the
writer spells it: words separated by single spaces, with no leading or
trailing blank and no tab; a `meta` or tensor-header line spelled any
other way is malformed. 1-D tensors are stored as a single row. A row of
the wrong width, a bad value, a tensor cut short or a file of another
format version (CKPT v1 held decimals: retrain its model) raises
CheckpointError.

A model's `tensors()`, its parameter arrays by name, is the one list of
its parameters: `params()` is its values, `save` writes it, and `load`
reads the file as its kind (`read_checkpoint(path, kind)`), builds the
model the file describes and fills its `tensors()` through `load_tensors`,
which refuses a tensor the model does not name or of another shape. Every
refusal names the file.

Tables hold everything else: datasets, state snapshots, boundary
trajectories, training histories, filter reports, per-episode results,
metrics and sweeps. Layout::

    # <comment>                 # zero or more, free text
    <column>,<column>,...
    <cell>,<cell>,...           # one line per row

Cells are decimal: integers and booleans as integers (`%d`), floats with
17 significant digits (`%.17g`, `fmt`), which round-trips float64 exactly.
Readers check the header and parse the integer columns they name strictly
(a cell of 1.5 in one is an error), every other column as float64; a wrong
header or a malformed row raises DatasetFormatError with its line number.
"""

import itertools
import math
import os
import uuid
import warnings
from typing import NamedTuple

import numpy as np

KINDS = ("operator", "bcbf")

# Rows of a table formatted in one %-pass and written at once; lines of a
# table read at once, their rows parsed in one np.loadtxt call. A pass holds
# its cells as Python objects and its text, so the pass, not the table, sets
# the writer's peak, and the reader holds one block's lines, not the table's
# text; at 4096 a table writes and reads no slower than in one pass.
TABLE_ROWS = 4096


def fmt(x):
    """Decimal text for one float, exact under round-trip."""
    return format(float(x), ".17g")


class ConfigurationError(ValueError):
    """Raised for invalid configuration, including malformed input files."""


def finite_float(value, name):
    """value as a float, or ConfigurationError unless it is one finite
    number (an array has no one-line spec)."""
    if np.ndim(value) != 0 or not math.isfinite(value):
        raise ConfigurationError(f"{name} must be a finite number, "
                                 f"got {value!r}")
    return float(value)


def check_integer(value, name):
    """ConfigurationError unless value is one integer, a Python or a NumPy
    one; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")


class CheckpointError(ValueError):
    pass


class DatasetFormatError(ConfigurationError):
    """Raised for a malformed table file; carries the line number."""

    def __init__(self, path, message, line=None):
        where = path if line is None else f"{path}:{line}"
        super().__init__(f"{where}: {message}")
        self.line = line


def write_text(path, chunks):
    """Write the strings of chunks, an iterable, in turn to path
    atomically: a fresh temp file in the same directory, then a rename over
    the target. The temp file is created like any new file, so the result
    has the usual permissions (0666 less the umask) rather than mkstemp's
    0600."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".tmp-{uuid.uuid4().hex}")
    fh = open(tmp, "x", newline="\n")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _loadtxt(lines, **kwargs):
    """np.loadtxt of a list of lines, with '#' an ordinary character and any
    warning raised as an error: older numpy releases parse a float cell of
    an integer column with only a DeprecationWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(lines, comments=None, **kwargs)


# what _loadtxt raises for text it cannot parse
_PARSE_ERRORS = (ValueError, Warning)


def _words(line):
    """The single-space-separated words of a line as the checkpoint writer
    spells it, or None for a line with a tab or another blank, a leading or
    trailing blank or two blanks in a row."""
    words = line.split(" ")
    return words if words == line.split() else None


def write_checkpoint(path, kind, tensors, meta=None):
    """Write named tensors (dict name -> array of ndim <= 2) plus metadata.
    A name or meta key is one word, and a meta value words separated by
    single spaces, as the reader reads them."""
    if kind not in KINDS:
        raise CheckpointError(f"unknown checkpoint kind {kind!r}")
    parts = [f"CKPT v2 kind={kind}\n"]
    for key, value in (meta or {}).items():
        key, value = str(key), str(value)
        if _words(key) != [key] or not _words(value):
            raise CheckpointError(f"meta entry {key!r} {value!r} is not a "
                                  "word and single-spaced words")
        parts.append(f"meta {key} {value}\n")
    for name, arr in tensors.items():
        name = str(name)
        if _words(name) != [name]:
            raise CheckpointError(f"tensor name {name!r} is not one word")
        a = np.asarray(arr, dtype=np.float64)
        if a.ndim > 2:
            raise CheckpointError(f"tensor {name!r} has ndim {a.ndim} > 2")
        rows, cols = np.atleast_2d(a).shape
        parts.append(f"{name} {rows} {cols}\n")
        text = a.astype(">f8").tobytes().hex(" ", 8)
        step = 17 * cols  # a row's values and the space after them
        parts.extend(text[r * step:(r + 1) * step - 1] + "\n"
                     for r in range(rows))
    write_text(path, ["".join(parts)])


def _from_hex(text):
    """The bytes text is the hex of, as the writer spells them, or None."""
    try:
        raw = bytes.fromhex(text)
    except ValueError:
        return None
    return raw if len(raw) % 8 == 0 and raw.hex(" ", 8) == text else None


def _read_tensor(path, lines, start, rows, cols):
    """lines[start:start + rows] as a (rows, cols) array, decoded in one
    call; the first line that is not the hex of cols values raises
    CheckpointError with its line number."""
    block = lines[start:start + rows]
    raw = _from_hex(" ".join(block)) or b""
    width = max(17 * cols - 1, 0)
    if (len(raw) != 8 * rows * cols
            or any(len(line) != width for line in block)):
        for lineno, line in enumerate(block, start + 1):
            got = len(line.split())
            if got != cols or _from_hex(line) is None:
                raise CheckpointError(f"{path}:{lineno}: " + (
                    "bad value" if got == cols
                    else f"expected {cols} values, got {got}"))
    return np.frombuffer(raw, ">f8").astype(np.float64).reshape(rows, cols)


def read_checkpoint(path, kind=None):
    """Read back (kind, tensors, meta); tensors come out 2-D. Given a kind,
    a file of another kind is a ConfigurationError naming the path."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("CKPT "):
        raise CheckpointError(f"{path}: not a CKPT v2 file")
    version, _, got = lines[0][5:].partition(" kind=")
    if version != "v2":
        raise CheckpointError(
            f"{path}: checkpoint format CKPT {version} is not read (only "
            "CKPT v2 is); retrain the model")
    if got not in KINDS:
        raise CheckpointError(f"{path}: unknown kind {got!r}")
    if kind is not None and got != kind:
        raise ConfigurationError(
            f"{path}: checkpoint kind {got!r} is not {kind}")
    meta = {}
    tensors = {}
    i = 1
    n = len(lines)
    while i < n and lines[i].startswith("meta "):
        words = _words(lines[i])
        if not words or len(words) < 3:
            raise CheckpointError(f"{path}:{i + 1}: malformed meta line")
        meta[words[1]] = " ".join(words[2:])
        i += 1
    while i < n:
        if not lines[i]:
            i += 1
            continue
        header = _words(lines[i])
        if not header or len(header) != 3:
            raise CheckpointError(f"{path}:{i + 1}: malformed tensor header")
        name, rows, cols = header
        if not (rows.isdecimal() and cols.isdecimal()):
            raise CheckpointError(f"{path}:{i + 1}: bad tensor shape")
        rows, cols = int(rows), int(cols)
        if i + 1 + rows > n:
            raise CheckpointError(
                f"{path}:{i + 1}: truncated tensor {name!r}: {rows} rows, "
                f"{n - i - 1} lines left")
        tensors[name] = _read_tensor(path, lines, i + 1, rows, cols)
        i += 1 + rows
    return got, tensors, meta


def checkpoint_tensor(path, tensors, name, shape=None):
    """tensors[name], read from the checkpoint at path; with a shape, at
    that shape, which a 1-D tensor may also have as the one row it is
    stored as. A missing tensor, or one of another shape, is a
    ConfigurationError naming the path and the tensor (and both shapes)."""
    if name not in tensors:
        raise ConfigurationError(f"{path}: checkpoint has no tensor {name!r}")
    a = np.asarray(tensors[name], dtype=np.float64)
    if shape is None:
        return a
    if a.shape != shape and not (len(shape) == 1 and a.shape == (1,) + shape):
        raise ConfigurationError(
            f"{path}: tensor {name!r} has shape {a.shape}, expected {shape}")
    return a.reshape(shape)


def load_tensors(path, tensors, named):
    """Copy the tensors read from the checkpoint at path into the arrays of
    named, a model's `tensors()` (name -> live array), each at its array's
    shape (`checkpoint_tensor`). A tensor that no name in named reads is a
    ConfigurationError listing them all, before anything is copied."""
    if extra := [name for name in tensors if name not in named]:
        raise ConfigurationError(f"{path}: checkpoint has tensors its model "
                                 f"does not name: {', '.join(extra)}")
    for name, array in named.items():
        array[...] = checkpoint_tensor(path, tensors, name, array.shape)


def write_table(path, columns, comments=()):
    """Write a table: one '# <comment>' line per comment, the header, then
    one line per row. `columns` maps each column name to a 1-D array of its
    cells, all of one length; integer and boolean columns are written as
    integers, every other one as float64."""
    arrays = [np.asarray(c) for c in columns.values()]
    arrays = [a if a.dtype.kind in "biu"
              else a.astype(np.float64, copy=False) for a in arrays]
    n = len(arrays[0]) if arrays else 0
    if any(a.shape != (n,) for a in arrays):
        raise ValueError("table columns must be 1-D and of one length, got "
                         f"shapes {[a.shape for a in arrays]}")
    line = ",".join("%d" if a.dtype.kind in "biu" else "%.17g"
                    for a in arrays) + "\n"

    def chunks():
        yield "".join(f"# {c}\n" for c in comments) + ",".join(columns) + "\n"
        for lo in range(0, n, TABLE_ROWS):
            hi = min(lo + TABLE_ROWS, n)
            cells = np.empty((hi - lo, len(arrays)), dtype=object)
            for j, a in enumerate(arrays):
                cells[:, j] = a[lo:hi]
            yield line * (hi - lo) % tuple(cells.ravel().tolist())

    write_text(path, chunks())


class Table(NamedTuple):
    columns: tuple  # the header's column names
    data: dict      # column name -> 1-D array of its cells
    comments: list


def _content(lines, start=1):
    """(line number, stripped line) of each line neither blank nor a
    comment, numbering the lines from start: a table's header and then its
    rows."""
    for lineno, line in enumerate(lines, start=start):
        line = line.strip()
        if line and line[0] != "#":
            yield lineno, line


def _parse_rows(path, rows, lines, first, dtype):
    """The structured array of `rows`, the data rows among `lines` (the
    stripped lines of a table from line number `first` on), in one parse;
    on failure the lines are scanned one by one to name the first bad
    row."""
    try:
        return _loadtxt(rows, delimiter=",", dtype=dtype, ndmin=1)
    except _PARSE_ERRORS:
        for lineno, line in _content(lines, first):
            try:
                _loadtxt([line], delimiter=",", dtype=dtype)
            except _PARSE_ERRORS:
                raise DatasetFormatError(path, f"bad row {line!r}",
                                         lineno) from None
        raise


def read_table(path, columns=None, ints=()):
    """Read a table back as (columns, data, comments).

    The header must equal `columns` when given. The columns named in `ints`
    come back as int64, every other one as float64. The lines after the
    header are read TABLE_ROWS at a time, and the rows among them parsed in
    one call. Blank lines are skipped; comments, before or between the
    rows, come back without the '#' and surrounding blanks. Files with CRLF
    line endings read the same as LF ones.
    """
    comments = []
    with open(path) as fh:
        # last: the number of the last line read
        for last, line in enumerate(fh, start=1):
            line = line.strip()
            if line.startswith("#"):
                comments.append(line[1:].strip())
            elif line:
                break
        else:
            raise DatasetFormatError(path, "missing header")
        header = tuple(line.split(","))
        if columns is not None and header != tuple(columns):
            raise DatasetFormatError(
                path, f"header {line!r}, expected {','.join(columns)!r}",
                last)
        dtype = np.dtype([(f"f{j}", np.int64 if name in ints else np.float64)
                          for j, name in enumerate(header)])
        blocks = []
        while lines := [line.strip()
                        for line in itertools.islice(fh, TABLE_ROWS)]:
            comments += [line[1:].strip() for line in lines
                         if line.startswith("#")]
            rows = [line for line in lines if line and line[0] != "#"]
            if rows:
                blocks.append(_parse_rows(path, rows, lines, last + 1,
                                          dtype))
            last += len(lines)
    parsed = np.concatenate(blocks) if blocks else np.empty(0, dtype)
    return Table(header, {name: parsed[f"f{j}"]
                          for j, name in enumerate(header)}, comments)


def table_row_line(path, row):
    """The line number of data row `row` (counted from 0) of a table file,
    found by scanning its lines again."""
    with open(path) as fh:
        # the header is the first content line
        return next(itertools.islice(_content(fh), row + 1, None))[0]

"""The plain-text file formats: model checkpoints and tables.

Every file the pipeline writes goes through `write_text`: atomically (temp
file + rename) with LF line endings. Numbers are decimal text with 17
significant digits, which round-trips float64 exactly.

Checkpoints hold the tensors of the operator or the barrier. Layout::

    CKPT v1 kind=<operator|bcbf>
    meta <key> <value>          # zero or more
    <tensor-name> <rows> <cols>
    <row of `cols` decimal values>
    ...

1-D tensors are stored as a single row. Loaders take each tensor at the
shape their model structure gives it (`checkpoint_tensor`) and reject any
other shape.

Tables hold everything else: datasets, state snapshots, boundary
trajectories, training histories, filter reports, per-episode results,
metrics and sweeps. Layout::

    # <comment>                 # zero or more, free text
    <column>,<column>,...
    <cell>,<cell>,...           # one line per row

Integer and boolean cells are written as integers, every other cell with
`fmt`. Readers check the header and convert each cell with one callable per
column; any malformed line raises DatasetFormatError with its line number.
"""

import math
import os
import uuid
from typing import NamedTuple

import numpy as np

KINDS = ("operator", "bcbf")


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


class CheckpointError(ValueError):
    pass


class DatasetFormatError(ConfigurationError):
    """Raised for a malformed table file; carries the line number."""

    def __init__(self, path, message, line=None):
        where = path if line is None else f"{path}:{line}"
        super().__init__(f"{where}: {message}")
        self.line = line


def write_text(path, text):
    """Write text to path atomically: a fresh temp file in the same
    directory, then a rename over the target. The temp file is created like
    any new file, so the result has the usual permissions (0666 less the
    umask) rather than mkstemp's 0600."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".tmp-{uuid.uuid4().hex}")
    fh = open(tmp, "x", newline="\n")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_checkpoint(path, kind, tensors, meta=None):
    """Write named tensors (dict name -> array of ndim <= 2) plus metadata."""
    if kind not in KINDS:
        raise CheckpointError(f"unknown checkpoint kind {kind!r}")
    lines = [f"CKPT v1 kind={kind}"]
    for key, value in (meta or {}).items():
        key = str(key)
        if " " in key:
            raise CheckpointError(f"meta key {key!r} contains a space")
        lines.append(f"meta {key} {value}")
    for name, arr in tensors.items():
        name = str(name)
        if " " in name:
            raise CheckpointError(f"tensor name {name!r} contains a space")
        a = np.asarray(arr, dtype=np.float64)
        if a.ndim > 2:
            raise CheckpointError(f"tensor {name!r} has ndim {a.ndim} > 2")
        a = np.atleast_2d(a)
        lines.append(f"{name} {a.shape[0]} {a.shape[1]}")
        for row in a:
            lines.append(" ".join(fmt(v) for v in row))
    write_text(path, "\n".join(lines) + "\n")


def read_checkpoint(path):
    """Read back (kind, tensors, meta); tensors come out 2-D."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("CKPT v1 kind="):
        raise CheckpointError(f"{path}: not a CKPT v1 file")
    kind = lines[0].split("kind=", 1)[1]
    if kind not in KINDS:
        raise CheckpointError(f"{path}: unknown kind {kind!r}")
    meta = {}
    tensors = {}
    i = 1
    n = len(lines)
    while i < n and lines[i].startswith("meta "):
        parts = lines[i].split(" ", 2)
        if len(parts) != 3:
            raise CheckpointError(f"{path}:{i + 1}: malformed meta line")
        meta[parts[1]] = parts[2]
        i += 1
    while i < n:
        if not lines[i].strip():
            i += 1
            continue
        header = lines[i].split()
        if len(header) != 3:
            raise CheckpointError(f"{path}:{i + 1}: malformed tensor header")
        name = header[0]
        try:
            rows, cols = int(header[1]), int(header[2])
        except ValueError as exc:
            raise CheckpointError(f"{path}:{i + 1}: bad tensor shape") from exc
        i += 1
        data = np.empty((rows, cols), dtype=np.float64)
        for r in range(rows):
            if i >= n:
                raise CheckpointError(f"{path}: truncated tensor {name!r}")
            values = lines[i].split()
            if len(values) != cols:
                raise CheckpointError(
                    f"{path}:{i + 1}: expected {cols} values, got {len(values)}")
            try:
                data[r] = [float(v) for v in values]
            except ValueError as exc:
                raise CheckpointError(f"{path}:{i + 1}: bad value") from exc
            i += 1
        tensors[name] = data
    return kind, tensors, meta


def checkpoint_tensor(tensors, name, shape=None):
    """tensors[name]; with a shape, at that shape, which a 1-D tensor may
    also have as the one row it is stored as. A missing tensor, or one of
    another shape, is a ConfigurationError naming it (and both shapes)."""
    if name not in tensors:
        raise ConfigurationError(f"checkpoint has no tensor {name!r}")
    a = np.asarray(tensors[name], dtype=np.float64)
    if shape is None:
        return a
    if a.shape != shape and not (len(shape) == 1 and a.shape == (1,) + shape):
        raise ConfigurationError(
            f"tensor {name!r} has shape {a.shape}, expected {shape}")
    return a.reshape(shape)


def _cell(value):
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))
    return fmt(value)


def write_table(path, columns, rows, comments=()):
    """Write rows (sequences of cells, one per column) under a header line,
    after one '# <comment>' line per comment."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(columns))
    lines.extend(",".join(map(_cell, row)) for row in rows)
    write_text(path, "\n".join(lines) + "\n")


class Table(NamedTuple):
    columns: tuple
    rows: list
    comments: list


def read_table(path, columns=None, types=None):
    """Read a table back as (columns, rows, comments).

    The header must equal `columns` when given. `types` holds one callable
    per column that converts its cells (default float). Blank lines are
    skipped; comments come back without the '#' and surrounding blanks.
    Files with CRLF line endings read the same as LF ones.
    """
    header, rows, comments = None, [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                comments.append(line[1:].strip())
                continue
            cells = line.split(",")
            if header is None:
                header = tuple(cells)
                if columns is not None and header != tuple(columns):
                    raise DatasetFormatError(
                        path, f"header {line!r}, expected "
                        f"{','.join(columns)!r}", lineno)
                convert = types if types is not None else [float] * len(header)
                continue
            try:
                rows.append(tuple([f(c) for f, c in zip(convert, cells,
                                                        strict=True)]))
            except ValueError:
                raise DatasetFormatError(path, f"bad row {line!r}",
                                         lineno) from None
    if header is None:
        raise DatasetFormatError(path, "missing header")
    return Table(header, rows, comments)

"""The text format of series.csv, the one CSV table of a run directory.

A table is a ``# schema: <name>`` line, a line of column names, then one
comma-separated row of numbers per line, written with repr of Python ints
and floats so that floats read back bit for bit.  Checks that depend on a
table's meaning, such as which rows it must hold, stay with its caller.
"""

from __future__ import annotations

import io

import numpy as np


def write_table(path, schema: str, columns: dict) -> None:
    """Write columns (name -> 1-D array, all the same length) as a table.
    Values go through numpy's tolist, so numpy scalars print as plain
    numbers."""
    data = [np.asarray(c) for c in columns.values()]
    with open(path, "w") as fh:
        fh.write(f"# schema: {schema}\n" + ",".join(columns) + "\n")
        # 1024 rows at a time, so that long tables need little memory.
        for start in range(0, len(data[0]), 1024):
            cells = [map(repr, c[start:start + 1024].tolist()) for c in data]
            fh.write("\n".join(map(",".join, zip(*cells, strict=True))) + "\n")


def _expect_line(fh, want: str) -> None:
    got = fh.readline().strip()
    if got != want:
        raise ValueError(f"expected {want!r}, found {got!r}")


def read_table(path, schema: str, columns) -> np.ndarray:
    """Read a table written by write_table with these names: a float array
    with one row per data line and one column per name.  Raises ValueError
    unless the schema line and header match exactly and every row holds one
    number per column; no row is skipped as a comment, and a table without
    rows is rejected.
    """
    try:
        with open(path) as fh:
            _expect_line(fh, f"# schema: {schema}")
            _expect_line(fh, ",".join(columns))
            text = fh.read()
        if not text.strip():
            raise ValueError("no data rows")
        body = np.loadtxt(io.StringIO(text), delimiter=",", comments=None, ndmin=2)
        if body.shape[1] != len(columns):
            raise ValueError(f"rows have {body.shape[1]} fields, expected {len(columns)}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return body

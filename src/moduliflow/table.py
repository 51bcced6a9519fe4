"""The one text format of every CSV table in a run directory.

A table is a ``# schema: <name>`` line, an optional metadata pair (a line of
names, a line of values), a line of column names, then one comma-separated
row of numbers per line, written with repr of Python ints and floats so that
floats read back bit for bit.  Checks that depend on a table's meaning, such
as which rows it must hold, stay with its caller.
"""

from __future__ import annotations

import io

import numpy as np


def write_table(path, schema: str, columns: dict, meta: dict | None = None, rows=None) -> None:
    """Write columns (name -> 1-D array, all the same length) as a table;
    meta maps names to single numbers.  Values go through numpy's tolist or
    item, so numpy scalars print as plain numbers.  An empty list as rows is
    filled with the data lines, and a filled one is written in their place."""
    head = [f"# schema: {schema}"]
    if meta is not None:
        head.append(",".join(meta))
        head.append(",".join(repr(np.asarray(v).item()) for v in meta.values()))
    head.append(",".join(columns))
    data = [np.asarray(c) for c in columns.values()]
    with open(path, "w") as fh:
        fh.write("\n".join(head) + "\n")
        if rows:
            fh.writelines(rows)
            return
        # 1024 rows at a time, so that long tables need little memory.
        for start in range(0, len(data[0]), 1024):
            cells = [map(repr, c[start:start + 1024].tolist()) for c in data]
            fh.write(chunk := "\n".join(map(",".join, zip(*cells, strict=True))) + "\n")
            if rows is not None:
                rows.append(chunk)


def _expect_line(fh, want: str) -> None:
    got = fh.readline().strip()
    if got != want:
        raise ValueError(f"expected {want!r}, found {got!r}")


def read_table(path, schema: str, columns, meta_names=None, last=None):
    """Read a table written by write_table with these names.

    Returns (meta, body): meta maps each of meta_names to its field as text
    (empty without meta_names); body is a float array with one row per data
    line and one column per name.  Raises ValueError unless the schema line
    and headers match exactly and every row holds one number per column; no
    row is skipped as a comment, and a table without rows is rejected.
    last, a dict handed to each read of a sequence of tables, keeps the
    latest data text and body: a table with that text gets that body
    unparsed, and one with other text clears the dict.
    """
    try:
        with open(path) as fh:
            _expect_line(fh, f"# schema: {schema}")
            meta = {}
            if meta_names is not None:
                _expect_line(fh, ",".join(meta_names))
                values = fh.readline().strip().split(",")
                if len(values) != len(meta_names):
                    raise ValueError(f"expected {len(meta_names)} metadata fields")
                meta = dict(zip(meta_names, values))
            _expect_line(fh, ",".join(columns))
            text = fh.read()
        if last is not None and text == last.get("text"):
            return meta, last["body"]
        if not text.strip():
            raise ValueError("no data rows")
        body = np.loadtxt(io.StringIO(text), delimiter=",", comments=None, ndmin=2)
        if body.shape[1] != len(columns):
            raise ValueError(f"rows have {body.shape[1]} fields, expected {len(columns)}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if last is not None:
        last.clear()
        last.update(text=text, body=body)
    return meta, body

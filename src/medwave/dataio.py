"""Dataset and estimate CSV files.

Datasets:   header ``u1,...,uq,y``    then one observation per row.
Estimates:  header ``u1,...,uq,fhat`` then the V grid rows in lexicographic
order. All floats are written with 17 significant digits (%.17g), which
round-trips IEEE doubles exactly; lines end with a single LF and the file
ends with a newline. Writing is deterministic: the same data produces a
byte-identical file.

Reading checks the header line, then parses the whole body in one
``np.loadtxt`` call, which converts each field as ``float()`` does. When
loadtxt refuses the body (a whitespace-only line, ``1_000``, non-ASCII
digits, a short row, a word, an empty body) or returns the wrong number of
columns, the body is parsed again line by line. That parser skips lines that
strip to nothing, accepts every field ``float()`` accepts, and names the
offending ``path:line`` in its ``ParseError``. On a body that loadtxt
accepts, both parsers give bit-identical values.

Writing formats blocks of 8192 rows with one ``%`` operation each. That
gives the same bytes as formatting every field with ``format(x, ".17g")``,
and holds only one block's text at a time.

This module deliberately imports nothing beyond numpy and the error types,
so the estimation entry point can read and write files without dragging in
the simulation machinery (see :mod:`medwave.config` for config files).
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import BadValue, HeaderMismatch, ParseError

__all__ = [
    "read_grid_csv",
    "write_dataset_csv",
    "write_estimate_csv",
    "read_estimate_csv",
    "write_rows",
]


#: rows formatted per write: bounds the formatted text and the tuple of
#: Python floats held at once
_WRITE_CHUNK_ROWS = 8192


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_lines(fh, path, q: int):
    """Parse the body line by line: the reference parser, and the one that
    names the offending line. Lines that strip to nothing are skipped."""
    u_rows = []
    v_rows = []
    for lineno, raw in enumerate(fh, start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != q + 1:
            raise ParseError(
                f"{path}:{lineno}: expected {q + 1} fields, got {len(parts)}"
            )
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            raise ParseError(
                f"{path}:{lineno}: non-numeric field in {line!r}"
            ) from None
        u_rows.append(vals[:q])
        v_rows.append(vals[q])
    if not v_rows:
        raise ParseError(f"{path}: no data rows")
    return np.asarray(u_rows, dtype=float), np.asarray(v_rows, dtype=float)


def _read_numeric_csv(path, value_column: str):
    """Shared reader for ``u1..uq,<value_column>`` files."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline()
        if not header:
            raise HeaderMismatch(f"{path}: empty file")
        cols = [c.strip() for c in header.rstrip("\r\n").split(",")]
        q = len(cols) - 1
        expected = [f"u{i}" for i in range(1, q + 1)] + [value_column]
        if q < 1 or cols != expected:
            raise HeaderMismatch(
                f"{path}: header {cols} does not match u1,...,uq,{value_column}"
            )
        body = fh.tell()
        try:
            with warnings.catch_warnings():
                # an empty body is left to the line parser to report
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(fh, delimiter=",", dtype=float,
                                   comments=None, ndmin=2)
        except ValueError:
            table = None
        if table is None or table.shape[0] == 0 or table.shape[1] != q + 1:
            fh.seek(body)
            return _parse_lines(fh, path, q)
    return table[:, :q], table[:, q]


def read_grid_csv(path):
    """Read a dataset file; returns (u (n, q), y (n,))."""
    return _read_numeric_csv(path, "y")


def read_estimate_csv(path):
    """Read an estimate file; returns (coords (V, q), fhat (V,))."""
    return _read_numeric_csv(path, "fhat")


def write_rows(fh, u: np.ndarray, values: np.ndarray,
               value_column: str) -> None:
    """Write the ``u1..uq,<value_column>`` header and one row per point to
    the open text stream ``fh`` (17 significant digits, LF line ends)."""
    u = np.asarray(u, dtype=float)
    values = np.asarray(values, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    q = u.shape[1]
    header = ",".join([f"u{i}" for i in range(1, q + 1)] + [value_column])
    fh.write(header + "\n")
    table = np.column_stack([u, values])
    row = ",".join(["%.17g"] * (q + 1)) + "\n"
    for start in range(0, len(table), _WRITE_CHUNK_ROWS):
        chunk = table[start:start + _WRITE_CHUNK_ROWS]
        fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))


def _write_numeric_csv(path, u: np.ndarray, values: np.ndarray,
                       value_column: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_rows(fh, u, values, value_column)


def write_dataset_csv(path, u: np.ndarray, y: np.ndarray) -> None:
    """Write observations as ``u1..uq,y`` rows (17 significant digits)."""
    _write_numeric_csv(path, u, y, "y")


def write_estimate_csv(path, table: np.ndarray) -> None:
    """Write an estimate table (V, q+1) as ``u1..uq,fhat`` rows.

    The table is written in the order given; :func:`medwave.estimator.
    evaluate_on_grid` produces lexicographic order.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] < 2:
        raise BadValue(f"estimate table must be (V, q+1), got {table.shape}")
    _write_numeric_csv(path, table[:, :-1], table[:, -1], "fhat")

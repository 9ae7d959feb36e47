"""Dataset and estimate CSV files.

Datasets:   header ``u1,...,uq,y``    then one observation per row.
Estimates:  header ``u1,...,uq,fhat`` then the V grid rows in lexicographic
order. All floats are written with 17 significant digits (%.17g), which
round-trips IEEE doubles exactly; lines end with a single LF and the file
ends with a newline. Writing is deterministic: the same data produces a
byte-identical file.

Reading checks the header line, then parses the body with ``np.loadtxt``,
which converts each field as ``float()`` does, and which reads a ``str`` or
``os.PathLike`` path of a regular file itself. Any other source (a pipe,
``/dev/stdin``, a ``bytes`` path, or a name that numpy would decompress or
download) is read once as a list of lines. If loadtxt refuses the body or
returns the wrong number of columns, a line parser takes over: it skips
lines that strip to nothing, accepts every field ``float()`` accepts, gives
bit-identical values on a body that loadtxt accepts, and names the
offending ``path:line`` in its ``ParseError``. Files are read as UTF-8,
past a leading byte-order mark (as spreadsheets write "CSV UTF-8"): a
byte that is not UTF-8 makes its line a ``ParseError``, or the header a
``HeaderMismatch``.

This module deliberately imports nothing beyond numpy and the error types,
so the estimation entry point can read and write files without dragging in
the simulation machinery (see :mod:`medwave.config` for config files).
"""

from __future__ import annotations

import os
import stat
import warnings

import numpy as np

from .errors import BadValue, HeaderMismatch, ParseError, ShapeMismatch

__all__ = ["RowTemplate", "read_grid_csv", "write_dataset_csv",
           "write_estimate_csv", "read_estimate_csv", "write_rows"]


#: rows per template block: bounds the object arrays and the tuples of
#: Python objects held at once while a block is built or filled
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
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape",
              newline="") as fh:
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
        name = os.fspath(path) if isinstance(path, os.PathLike) else path
        direct = (isinstance(name, str) and "://" not in name
                  and not name.endswith((".gz", ".bz2", ".xz", ".lzma"))
                  and stat.S_ISREG(os.fstat(fh.fileno()).st_mode))
        # loadtxt reads a regular file by its path, and fh stays just past
        # the header for the line parser; any other source (a pipe cannot
        # seek back) is read once, and both parsers take its lines
        body = fh if direct else fh.readlines()
        try:
            with warnings.catch_warnings():
                # an empty body is left to the line parser to report
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(name if direct else body, delimiter=",",
                                   dtype=float, comments=None, ndmin=2,
                                   skiprows=int(direct), encoding="utf-8")
        except ValueError:
            table = None
        if table is None or table.shape[0] == 0 or table.shape[1] != q + 1:
            return _parse_lines(body, path, q)
    return table[:, :q], table[:, q]


def read_grid_csv(path):
    """Read a dataset file; returns (u (n, q), y (n,))."""
    return _read_numeric_csv(path, "y")


def read_estimate_csv(path):
    """Read an estimate file; returns (coords (V, q), fhat (V,))."""
    return _read_numeric_csv(path, "fhat")


def _distinct_texts(column: np.ndarray):
    """The ``%.17g`` bytes of each distinct value of a float column, as an
    object array, and the index into it of every entry. Values are keyed
    on their bits, so -0.0 and 0.0 get their own texts."""
    keys, inverse = np.unique(column.view(np.uint64), return_inverse=True)
    return np.array(_g17_bytes(keys.view(np.float64)), dtype=object), inverse


#: 10^s for s = 0..20, each an exact double
_POW10 = np.array([float(10 ** s) for s in range(21)])
#: the four ASCII digits of 0..9999, each read as one native uint32, and
#: after them the four bytes ".0-\0" that a text may take besides digits
_QUADS = np.append(
    (np.arange(10000, dtype=np.uint16)[:, None]
     // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10
     + ord("0")).astype(np.uint8).view(np.uint32).ravel(),
    np.frombuffer(b".0-\0", dtype=np.uint32))
#: where those four bytes sit in the kernel's row of 24 (see _digit_rows)
_DOT, _ZERO, _MINUS, _NUL = 20, 21, 22, 23


def _layouts() -> np.ndarray:
    """For each (X + 4, sign, significant digits - 1), flattened: the index
    in the kernel's row of each of the at most 23 bytes of the text, then
    NULs."""
    table = np.full((21, 2, 17, 23), _NUL, dtype=np.int32)
    for exp in range(-4, 17):
        for sig in range(1, 18):
            digits = list(range(3, 3 + sig))
            if exp < 0:
                text = [_ZERO, _DOT] + [_ZERO] * (-exp - 1) + digits
            elif sig > exp + 1:
                text = digits[:exp + 1] + [_DOT] + digits[exp + 1:]
            else:
                text = list(range(3, exp + 4))
            table[exp + 4, 0, sig - 1, :len(text)] = text
            table[exp + 4, 1, sig - 1, :len(text) + 1] = [_MINUS] + text
    return table.reshape(-1, 23)


_LAYOUTS = _layouts()


def _split(v: np.ndarray):
    """Veltkamp's split: hi + lo = v exactly, each with at most 26 bits."""
    t = (2.0 ** 27 + 1) * v
    hi = t - (t - v)
    return hi, v - hi


def _two_product(a: np.ndarray, b: np.ndarray):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker 1971)."""
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _decimal17(x: np.ndarray):
    """(fixed, X, D) for the float array x: whether ``%.17g`` prints each
    value in fixed notation (1e-4 <= |x| < 1e17), and for those its decimal
    exponent X and the integer D in [1e16, 1e17) of its 17 digits.

    10^(16-X) is an exact double, so |x| 10^(16-X) = p + e exactly; X from
    log10 is one off next to a power of ten, where p + e falls outside
    [1e16, 1e17). p >= 1e16 > 2^53 is an even integer, so p + rint(e) is
    the half-to-even rounding ``%.17g`` makes. No double in the domain
    rounds up to 10^17.
    """
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e17)        # False for NaN
    a = np.where(fixed, a, 1.0)
    exp = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    p, e = _two_product(a, _POW10[16 - exp])
    exp += (p > 1e17) | ((p == 1e17) & (e >= 0))
    exp -= (p < 1e16) | ((p == 1e16) & (e < 0))
    p, e = _two_product(a, _POW10[16 - exp])
    return fixed, exp, p.astype(np.int64) + np.rint(e).astype(np.int64)


def _digit_rows(d: np.ndarray) -> np.ndarray:
    """The kernel's rows, (n, 24) bytes: "000" and the 17 digits of each
    integer d < 10^17, then ".0-" and a NUL, the bytes that a
    fixed-notation text is gathered from."""
    groups = np.full((len(d), 6), 10000, dtype=np.int32)
    hi, lo = np.divmod(d, 10 ** 8)
    groups[:, 0], hi = np.divmod(hi, 10 ** 8)
    groups[:, 1], groups[:, 2] = np.divmod(hi, 10 ** 4)
    groups[:, 3], groups[:, 4] = np.divmod(lo, 10 ** 4)
    return _QUADS[groups].view(np.uint8)


def _fixed_texts(x: np.ndarray, exp: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(n, 23) bytes: the fixed-notation text of each value x with decimal
    exponent X = exp and 17 digits D = d, padded with NULs."""
    chars = _digit_rows(d)
    sig = 17 - np.argmax(chars[:, 19:2:-1] != ord("0"), axis=1)
    index = _LAYOUTS.take(((exp + 4) * 2 + np.signbit(x)) * 17 + sig - 1,
                          axis=0)
    index += np.arange(0, chars.size, 24, dtype=np.int32)[:, None]
    # indexing with int32 gathers without an intp copy of the index
    return chars.ravel()[index]


def _g17_bytes(x: np.ndarray) -> list:
    """The ``'%.17g'`` bytes of each value of the float array x; values
    outside :func:`_decimal17`'s fixed-notation domain are formatted one by
    one."""
    fixed, exp, d = _decimal17(x)
    out = _fixed_texts(x, exp, d).view("S23").ravel().tolist()
    for i in np.flatnonzero(~fixed):
        out[i] = _fmt(x[i]).encode()
    return out


class RowTemplate:
    """The rows of a ``u1..uq,<value>`` body with their values left open.

    Built once from the points u (n, q), or (n,) for q = 1; :func:`write_rows`
    fills it with any n values. ``blocks`` holds one ``bytes`` format string
    per 8192 rows: each row's coordinates, then a ``%s`` slot for the
    value's text and a newline. Each column's distinct values are formatted
    once.
    """

    def __init__(self, u: np.ndarray):
        u = np.asarray(u, dtype=float)
        if u.ndim == 1:
            u = u[:, None]
        if u.ndim != 2:
            raise ShapeMismatch(f"points must be (n, q), got {u.shape}")
        self.n, self.q = u.shape
        columns = [_distinct_texts(u[:, k]) for k in range(self.q)]
        row = b"%s," * self.q + b"%%s\n"
        self.blocks = []
        for start in range(0, self.n, _WRITE_CHUNK_ROWS):
            stop = min(start + _WRITE_CHUNK_ROWS, self.n)
            fields = np.empty((stop - start, self.q), dtype=object)
            for k, (texts, inverse) in enumerate(columns):
                fields[:, k] = texts[inverse[start:stop]]
            self.blocks.append(row * len(fields)
                               % tuple(fields.ravel().tolist()))


def write_rows(fh, u, values: np.ndarray, value_column: str) -> None:
    """Write the ``u1..uq,<value_column>`` header and one row per point to
    the open text stream ``fh`` (17 significant digits, LF line ends).

    ``u`` is the points (n, q) or a :class:`RowTemplate` built from them.
    """
    rows = u if isinstance(u, RowTemplate) else RowTemplate(u)
    values = np.asarray(values, dtype=float)
    if values.shape != (rows.n,):
        raise ShapeMismatch(
            f"{rows.n} points but values of shape {values.shape}")
    header = ",".join([f"u{i}" for i in range(1, rows.q + 1)] + [value_column])
    fh.write(header + "\n")
    for start, block in zip(range(0, rows.n, _WRITE_CHUNK_ROWS), rows.blocks):
        fh.write((block % tuple(
            _g17_bytes(values[start:start + _WRITE_CHUNK_ROWS]))).decode())


def _write_numeric_csv(path, u, values: np.ndarray,
                       value_column: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_rows(fh, u, values, value_column)


def write_dataset_csv(path, u, y: np.ndarray) -> None:
    """Write observations as ``u1..uq,y`` rows (17 significant digits);
    ``u`` is the points (n, q) or a :class:`RowTemplate` built from them."""
    _write_numeric_csv(path, u, y, "y")


def write_estimate_csv(path, table: np.ndarray) -> None:
    """Write an estimate table (V, q+1) as ``u1..uq,fhat`` rows in the
    order given (:func:`medwave.estimator.evaluate_on_grid` gives
    lexicographic order)."""
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] < 2:
        raise BadValue(f"estimate table must be (V, q+1), got {table.shape}")
    _write_numeric_csv(path, table[:, :-1], table[:, -1], "fhat")

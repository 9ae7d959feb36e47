"""Correctness checks applied to the output of every benchmark operation.

Each check raises :class:`CheckFailed` naming what is wrong; the runner
counts an operation whose check raises as failed. The checks use only numpy
and the standard library, plus the reader a check is explicitly about, so a
defect in the program cannot hide itself by breaking the checker too.
"""

from __future__ import annotations

import csv

import numpy as np


class CheckFailed(Exception):
    """An operation produced output that breaks the program's contract."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_exit(code) -> None:
    expect(code == 0, f"exit code {code}, expected 0")


def estimation_grid(T: int, q: int) -> np.ndarray:
    """Upper cell edges l/T per axis, lexicographic, shape (T**q, q)."""
    pts = np.arange(1, T + 1) / T
    mesh = np.meshgrid(*([pts] * q), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def sine_product(u: np.ndarray) -> np.ndarray:
    """The regression function every fitting workload estimates."""
    return np.prod(np.sin(2.0 * np.pi * u), axis=1)


def truth_on_grid(T: int, q: int = 2) -> np.ndarray:
    return sine_product(estimation_grid(T, q)).reshape((T,) * q)


def grid_mise(f_hat: np.ndarray, truth: np.ndarray,
              bound: float = np.inf) -> float:
    """MISE of a finite fitted tensor against the truth, below ``bound``."""
    f_hat = np.asarray(f_hat)
    expect(f_hat.shape == truth.shape,
           f"estimate shape {f_hat.shape}, expected {truth.shape}")
    expect(bool(np.isfinite(f_hat).all()), "estimate has non-finite values")
    value = float(np.mean((f_hat - truth) ** 2))
    expect(value < bound, f"MISE {value:.4g} exceeds bound {bound:g}")
    return value


def check_estimate_csv(path, T: int, truth: np.ndarray, bound: float,
                       read_estimate_csv) -> float:
    """An estimate CSV holds the T^2 grid rows, finite, within the MISE bound."""
    coords, fhat = read_estimate_csv(path)
    V = T * T
    expect(coords.shape == (V, 2) and fhat.shape == (V,),
           f"estimate CSV has {fhat.shape[0]} rows, expected {V}")
    expect(np.array_equal(coords, estimation_grid(T, 2)),
           "estimate CSV rows are not the l/T grid in lexicographic order")
    return grid_mise(fhat.reshape(T, T), truth, bound)


def check_rates(path, sizes, bound: float) -> float:
    """``rates.csv`` has one finite row per size, with mean MISE falling in n.

    Under Cauchy errors the mean MISE of a study has a heavy right tail at
    every size (a few replications with a large bias estimate), and such a
    replication lifts a size's mean and its standard error alike. So every
    comparison allows two standard errors: no size rises above the one
    before, the last size is below the first, and the last is below
    ``bound``. Returns the mean of the per-size means, which is the mean
    MISE over all fits as every size has the same replications.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    expect(len(rows) == len(sizes),
           f"rates.csv has {len(rows)} rows, expected {len(sizes)}")
    try:
        ns = [int(r["n"]) for r in rows]
        mise = np.array([float(r["mean_mise"]) for r in rows])
        se = np.array([float(r["se"]) for r in rows])
        slope = float(rows[0]["slope"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"rates.csv is malformed: {exc!r}") from None
    expect(ns == list(sizes), f"rates.csv sizes {ns}, expected {list(sizes)}")
    expect(bool(np.isfinite(mise).all() and np.isfinite(se).all())
           and np.isfinite(slope), "rates.csv has non-finite values")
    expect(bool((mise > 0).all()), "rates.csv has a non-positive MISE")
    low = mise - 2.0 * se
    expect(bool((low[1:] < mise[:-1]).all()),
           f"mean MISE {mise.tolist()} rises in n beyond its standard errors")
    expect(low[-1] < mise[0],
           f"mean MISE {mise.tolist()} does not fall from the first size to "
           f"the last")
    expect(low[-1] < bound,
           f"mean MISE {mise[-1]:.4g} (se {se[-1]:.2g}) at n={ns[-1]} "
           f"exceeds bound {bound:g}")
    return float(mise.mean())


def read_table(path, header: str) -> np.ndarray:
    """Parse a numeric CSV with the given header line, independently of the
    program's own reader."""
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise CheckFailed(f"cannot read {path}: {exc.strerror}") from None
    with fh:
        first = fh.readline().rstrip("\n")
        expect(first == header, f"{path}: header {first!r}, expected {header!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def check_dataset_csv(path, u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A dataset CSV reads back bit-exactly as ``(u, y)``; returns the table."""
    q = u.shape[1]
    header = ",".join([f"u{i}" for i in range(1, q + 1)] + ["y"])
    table = read_table(path, header)
    expect(table.shape == (len(y), q + 1),
           f"{path}: shape {table.shape}, expected {(len(y), q + 1)}")
    expect(bits_equal(table[:, :q], u) and bits_equal(table[:, q], y),
           f"{path}: values differ from the generated dataset")
    return table


def check_truth_csv(path, f_grid: np.ndarray) -> None:
    """A truth CSV holds the exact truth tensor on the l/T grid."""
    q = f_grid.ndim
    T = f_grid.shape[0]
    header = ",".join([f"u{i}" for i in range(1, q + 1)] + ["fhat"])
    table = read_table(path, header)
    expect(table.shape == (T ** q, q + 1),
           f"{path}: shape {table.shape}, expected {(T ** q, q + 1)}")
    expect(bits_equal(table[:, :q], estimation_grid(T, q))
           and bits_equal(table[:, q], f_grid.ravel()),
           f"{path}: values differ from the generated truth")

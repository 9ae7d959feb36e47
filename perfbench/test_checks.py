"""Tests of the benchmark itself: every correctness check rejects a corrupted
output, and the tracer wraps and restores the package cleanly.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import medwave  # noqa: E402
import medwave.cli  # noqa: E402,F401
import medwave.config  # noqa: E402,F401
import medwave.simulate  # noqa: E402,F401

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def rewrite_line(path, index, edit):
    lines = Path(path).read_text().splitlines(keepends=True)
    lines[index] = edit(lines[index])
    Path(path).write_text("".join(lines))


def drop_line(path, index):
    lines = Path(path).read_text().splitlines(keepends=True)
    del lines[index]
    Path(path).write_text("".join(lines))


def nudge(line):
    """Move the line's last (nonzero) field by one part in 10^9."""
    head, _, last = line.rstrip("\n").rpartition(",")
    return f"{head},{float(last) * (1 + 1e-9):.17g}\n"


# -- unit checks --------------------------------------------------------------

def test_check_exit():
    checks.check_exit(0)
    for code in (2, 3, None):
        with pytest.raises(checks.CheckFailed):
            checks.check_exit(code)


def test_grid_mise_rejects_bad_estimates():
    truth = checks.truth_on_grid(8)
    assert checks.grid_mise(truth + 0.01, truth, 1e-3) == pytest.approx(1e-4)
    bad = truth.copy()
    bad[2, 3] = np.nan
    for f_hat in (bad, truth[:4], truth + 1.0):
        with pytest.raises(checks.CheckFailed):
            checks.grid_mise(f_hat, truth, 1e-3)


@pytest.fixture
def estimate_file(tmp_path):
    T = 8
    truth = checks.truth_on_grid(T)
    table = np.column_stack([checks.estimation_grid(T, 2), truth.ravel()])
    path = tmp_path / "fit.csv"
    medwave.write_estimate_csv(path, table)
    return path, T, truth


def run_estimate_check(path, T, truth):
    return checks.check_estimate_csv(path, T, truth, 1e-6,
                                     medwave.read_estimate_csv)


def test_estimate_csv_check_accepts_exact_output(estimate_file):
    assert run_estimate_check(*estimate_file) == 0.0


@pytest.mark.parametrize("corrupt", [
    lambda p: drop_line(p, 5),                                  # lost row
    lambda p: rewrite_line(p, 3, lambda s: s.rpartition(",")[0]
                           + ",nan\n"),                         # non-finite
    lambda p: rewrite_line(p, 3, lambda s: "0.5,0.5,0\n"),      # wrong cell
    lambda p: rewrite_line(p, 7, lambda s: s.rpartition(",")[0]
                           + ",3.5\n"),                         # inaccurate
])
def test_estimate_csv_check_rejects_corruption(estimate_file, corrupt):
    corrupt(estimate_file[0])
    with pytest.raises(checks.CheckFailed):
        run_estimate_check(*estimate_file)


RATES = """\
n,mean_mise,se,slope
4096,0.05,0.001,-0.7
16384,0.02,0.001,-0.7
65536,0.01,0.001,-0.7
"""
SIZES = (4096, 16384, 65536)


def test_rates_check_accepts_a_rise_within_noise(tmp_path):
    path = tmp_path / "rates.csv"
    path.write_text(RATES)
    assert checks.check_rates(path, SIZES, 0.015) == pytest.approx(0.08 / 3)
    # an outlying replication lifts a size's mean and its se alike
    path.write_text(RATES.replace("0.02,0.001", "0.06,0.02"))
    checks.check_rates(path, SIZES, 0.015)
    path.write_text(RATES.replace("0.01,0.001", "0.032,0.024"))
    checks.check_rates(path, SIZES, 0.015)


@pytest.mark.parametrize("text", [
    RATES.replace("0.02,", "0.06,"),                 # rises in n
    RATES.replace("0.01,", "nan,"),                  # non-finite
    "".join(RATES.splitlines(keepends=True)[:3]),    # a size missing
    RATES.replace("16384", "16000"),                 # wrong size
    RATES.replace("0.01,", "0.019,"),                # above the MISE bound
    RATES.replace("0.05,", "0.009,").replace("0.02,", "0.0095,")
    .replace("0.001,", "0.0001,"),                   # flat
    RATES.replace("mean_mise", "mise"),              # wrong column
])
def test_rates_check_rejects_corruption(tmp_path, text):
    path = tmp_path / "rates.csv"
    path.write_text(text)
    with pytest.raises(checks.CheckFailed):
        checks.check_rates(path, SIZES, 0.015)


def test_dataset_check_is_bit_exact(tmp_path):
    u = workloads.grid_design(33)
    y = np.random.default_rng(5).standard_cauchy(len(u))
    path = tmp_path / "dataset.csv"
    medwave.write_dataset_csv(path, u, y)
    table = checks.check_dataset_csv(path, u, y)
    assert table.shape == (33 * 33, 3)

    rewrite_line(path, 100, nudge)
    with pytest.raises(checks.CheckFailed, match="values differ"):
        checks.check_dataset_csv(path, u, y)
    medwave.write_dataset_csv(path, u, y)
    drop_line(path, 10)
    with pytest.raises(checks.CheckFailed):
        checks.check_dataset_csv(path, u, y)
    medwave.write_dataset_csv(path, u, y)
    rewrite_line(path, 0, lambda s: "u1,u2,z\n")
    with pytest.raises(checks.CheckFailed, match="header"):
        checks.check_dataset_csv(path, u, y)


def test_truth_check(estimate_file):
    path, T, truth = estimate_file
    checks.check_truth_csv(path, truth)
    rewrite_line(path, 9, nudge)
    with pytest.raises(checks.CheckFailed):
        checks.check_truth_csv(path, truth)


def test_benchmark_writer_matches_the_package_reader(tmp_path):
    u = workloads.grid_design(17)
    y = np.random.default_rng(3).standard_cauchy(len(u))
    path = tmp_path / "data.csv"
    workloads.write_dataset(path, workloads.row_prefixes(u), y)
    u_read, y_read = medwave.read_grid_csv(path)
    assert checks.bits_equal(u_read, u) and checks.bits_equal(y_read, y)


# -- each workload's check on a real operation, then on a corrupted one -------

def one_op(cls, tmp_path):
    work = cls(medwave, str(tmp_path))
    work.setup()
    work.prepare([0, 0, 0])
    out = work.op()
    work.check(out)
    return work, out


def test_estimate_csv_workload_rejects_corrupted_output(tmp_path):
    work, out = one_op(workloads.EstimateCsv, tmp_path)
    drop_line(work.path("fit.csv"), 4000)
    with pytest.raises(checks.CheckFailed, match="rows"):
        work.check(out)
    with pytest.raises(checks.CheckFailed, match="exit code"):
        work.check(2)


def test_fit_uneven_workload_rejects_corrupted_output(tmp_path):
    work, out = one_op(workloads.FitUneven, tmp_path)
    out.f_hat[5, 7] = np.inf
    with pytest.raises(checks.CheckFailed, match="non-finite"):
        work.check(out)
    out.f_hat[5, 7] = 0.0
    out.f_hat += 0.1        # a shifted fit breaks the MISE bound
    with pytest.raises(checks.CheckFailed, match="MISE"):
        work.check(out)


def test_rate_study_workload_rejects_corrupted_output(tmp_path):
    work, out = one_op(workloads.RateStudy, tmp_path)
    rates = work.path(os.path.join("out", "rates.csv"))
    lines = Path(rates).read_text().splitlines(keepends=True)
    Path(rates).write_text(lines[0] + lines[2] + lines[1] + lines[3])
    with pytest.raises(checks.CheckFailed):
        work.check(out)


def test_simulate_csv_workload_rejects_corrupted_output(tmp_path):
    work, out = one_op(workloads.SimulateCsv, tmp_path)
    data = work.path(os.path.join("out", "dataset_n65536_rep2.csv"))
    rewrite_line(data, 1234, nudge)
    with pytest.raises(checks.CheckFailed, match="values differ"):
        work.check(out)
    work.prepare([0, 0, 0])
    out = work.op()
    os.remove(work.path(os.path.join("out", "truth_n65536.csv")))
    with pytest.raises(checks.CheckFailed, match="cannot read"):
        work.check(out)


# -- tracer ---------------------------------------------------------------------

def small_fit():
    u = workloads.grid_design(65)
    y = checks.sine_product(u) + np.random.default_rng(0).standard_normal(
        len(u))
    return medwave.fit(u, y)


def test_tracer_wraps_every_binding_and_restores_it():
    original = medwave.estimator.fit
    binder = medwave.estimator.bin_observations
    tracer = Tracer()
    tracer.install()
    try:
        assert medwave.fit is not original
        assert medwave.estimator.fit is not original
        assert medwave.simulate.fit is not original
        assert medwave.estimator.bin_observations is not binder
        small_fit()
    finally:
        tracer.uninstall()
    assert medwave.fit is original and medwave.simulate.fit is original
    assert medwave.estimator.bin_observations is binder

    metrics = tracer.metrics(1)
    assert metrics["estimator.fit_calls"] == (1, "count")
    assert metrics["grid.bin_calls"] == (1, "count")
    # 65 points on 16 cells: 4 or 5 per axis, so 16, 20 or 25 per bin
    assert metrics["medians.count_classes"] == (3, "count")
    assert metrics["dataio.read_s"] == (0.0, "s")
    assert metrics["wavelets.coefficients"][0] == 16 * 16
    assert all(v >= 0 for v, unit in metrics.values() if unit == "s")


def test_tracer_reports_a_removed_function_as_absent(monkeypatch):
    monkeypatch.delattr(medwave.shrinkage, "partition_blocks")
    monkeypatch.delattr(medwave.simulate, "mise")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracer.metrics(1)
    assert "shrinkage.partition_s" not in metrics
    assert "simulate.mise_s" not in metrics
    assert "shrinkage.shrink_s" in metrics

"""What the benchmark's per-layer tracer (``perfbench/spans.py``) reads of
the package: every layer it wraps and every counter it forms must still
exist and read finite values, and its metrics must print as strict JSON.

The tracer drops a metric when a wrapped function is gone or a counter's
input raises, and a NaN prints as ``NaN``, which is not JSON; either would
leave a traced benchmark run without a result line. The tracer also keeps
one span stack for all threads, so every wrapped function must run on the
main thread: a wrapped call from a helper thread would charge its time to
whatever span the main thread has open, and the run would still pass.
"""

import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import medwave.cli  # noqa: E402
import medwave.config  # noqa: E402,F401
import medwave.estimator  # noqa: E402
import medwave.simulate  # noqa: E402
from medwave.dataio import write_dataset_csv  # noqa: E402
from medwave.grid import plan_grid, product_grid  # noqa: E402

from spans import COUNT_UNITS, SPANS, Tracer  # noqa: E402

PER_LAYER = [m["name"] for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["per_layer"]]
# the per-layer names the tracer makes (the runner adds wall times and the
# import time itself)
TRACED = [name for name in PER_LAYER
          if name in COUNT_UNITS or name in {f"{s}_s" for s, _, _ in SPANS}]

RATE_CONFIG = ("q = 1\nsample_sizes = 256, 1024, 4096\nreplications = 10\n"
               "error_dist = cauchy\nwavelet = db2\nseed = 4\n")
SIMULATE_CONFIG = ("q = 2\nsample_sizes = 1089\nerror_dist = student_t:2\n"
                   "design_dist = cauchy\nbeta = 1, -0.5\nreplications = 2\n"
                   "seed = 5\n")


def refuse(constant):
    raise ValueError(f"{constant} is not JSON")


class ThreadRecordingTracer(Tracer):
    """The tracer, noting the thread of every call to a function it wraps."""

    def __init__(self):
        super().__init__()
        self.threads = set()

    def _wrap(self, span, counter, fn):
        traced = super()._wrap(span, counter, fn)

        def recording(*args, **kwargs):
            self.threads.add((span, threading.get_ident()))
            return traced(*args, **kwargs)

        return recording


def traced(argv, capsys) -> dict:
    tracer = ThreadRecordingTracer()
    tracer.install()
    try:
        rc = medwave.cli.main(argv)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert rc == 0
    assert not tracer.broken
    main = threading.main_thread().ident
    assert tracer.threads and {t for _, t in tracer.threads} == {main}, \
        sorted(span for span, t in tracer.threads if t != main)
    metrics = tracer.metrics(1)
    assert set(TRACED) <= set(metrics)
    text = json.dumps({k: {"value": v, "unit": u}
                       for k, (v, u) in metrics.items()}, allow_nan=False)
    values = json.loads(text, parse_constant=refuse)
    for name, entry in values.items():
        assert math.isfinite(entry["value"]), name
        if name.endswith("_s"):
            assert entry["value"] >= 0.0, name
    return {k: v for k, (v, _) in metrics.items()}


def test_the_traced_names_are_the_benchmarks():
    assert len(TRACED) == 26
    assert not set(PER_LAYER) - set(TRACED) - {
        "medwave.import_s", "wall.setup_s", "wall.op_s_p50",
        "wall.ref_s_p50", "trace.overhead_frac"}


def test_tracer_contract_on_estimate(tmp_path, capsys):
    u = product_grid(np.arange(65) / 64, 2)
    y = np.random.default_rng(0).standard_cauchy(len(u))
    write_dataset_csv(tmp_path / "data.csv", u, y)
    metrics = traced(["estimate", "--input", str(tmp_path / "data.csv"),
                      "--output", str(tmp_path / "fit.csv")], capsys)
    assert metrics["estimator.fit_calls"] == 1
    assert metrics["grid.bin_calls"] == 1
    assert metrics["dataio.rows_read"] == len(u)
    # 65 points on 16 cells: 4 or 5 per axis, so 16, 20 or 25 per bin
    assert metrics["medians.count_classes"] == 3


def test_tracer_contract_on_rate_study(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(RATE_CONFIG)
    metrics = traced(["rate-study", "--config", str(cfg),
                      "--output-dir", str(tmp_path / "out")], capsys)
    # the stacks count every replication's coefficients and blocks
    config = medwave.config.parse_config(cfg)
    fits = []
    for n in config.sample_sizes:
        for r in range(config.replications):
            u, y, _ = medwave.simulate.generate_dataset(
                config, n, medwave.simulate.replication_rng(config.seed, n, r))
            fits.append(medwave.estimator.fit(u, y, config.estimator))
    assert metrics["wavelets.coefficients"] == sum(f.f_hat.size for f in fits)
    blocks = sum(f.diagnostics.total_blocks for f in fits)
    zeroed = sum(sum(f.diagnostics.zeroed_per_level.values()) for f in fits)
    assert metrics["shrinkage.blocks"] == blocks
    assert metrics["shrinkage.zeroed_frac"] == pytest.approx(zeroed / blocks)


def test_tracer_contract_on_simulate(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SIMULATE_CONFIG)
    metrics = traced(["simulate", "--config", str(cfg),
                      "--output-dir", str(tmp_path / "out")], capsys)
    # two datasets and the truth on the V estimation points
    assert metrics["dataio.rows_written"] == 2 * 1089 + plan_grid(1089, 2).V

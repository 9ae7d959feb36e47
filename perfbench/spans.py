"""Per-layer tracing of medwave from outside the package.

:class:`Tracer` replaces the public functions of each medwave module with
wrappers that record a span per call. It patches every loaded ``medwave``
module attribute bound to the function, which is the attribute a caller
resolves, whether it imported the name at module load (``estimator`` binds
``bin_observations``) or at call time (``cli`` imports ``fit`` inside a
handler). Nothing under ``src/`` knows about it; :meth:`Tracer.uninstall`
restores the originals, so untraced operations run the unmodified code.

A span's self time is its duration minus the time covered by its child
spans and by the tracer's own bookkeeping for them. Counters are computed
from a call's arguments and result after the span is closed.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np

# span name -> (module, public functions recorded under it). The per-layer
# metric for a span is "<span>_s", its self time per operation.
SPANS = (
    ("dataio.read", "medwave.dataio", ("read_grid_csv", "read_estimate_csv")),
    ("dataio.write", "medwave.dataio",
     ("write_dataset_csv", "write_estimate_csv")),
    ("grid.plan", "medwave.grid", ("plan_grid",)),
    ("grid.bin", "medwave.grid", ("bin_observations",)),
    ("medians.bin_medians", "medwave.medians", ("bin_medians",)),
    ("medians.noise_bias", "medwave.medians",
     ("bias_correction", "estimate_noise_level", "known_noise_level")),
    ("shrinkage.partition", "medwave.shrinkage", ("partition_blocks",)),
    ("shrinkage.shrink", "medwave.shrinkage", ("shrink",)),
    ("wavelets.dwt", "medwave.wavelets", ("dwt_qd",)),
    ("wavelets.idwt", "medwave.wavelets", ("idwt_qd",)),
    ("simulate.generate", "medwave.simulate", ("generate_dataset",)),
    ("simulate.mise", "medwave.simulate", ("mise",)),
    # the study loops, so their glue is not charged to the CLI
    ("simulate.study", "medwave.simulate", ("rate_study", "run_replication")),
    ("estimator.self", "medwave.estimator", ("fit", "evaluate_on_grid")),
    ("config.parse", "medwave.config", ("parse_config",)),
    ("cli.self", "medwave.cli", ("main",)),
)


def _read(args, kwargs, result):
    return {"dataio.bytes_read": os.path.getsize(args[0]),
            "dataio.rows_read": len(result[1])}


def _write_dataset(args, kwargs, result):
    return {"dataio.bytes_written": os.path.getsize(args[0]),
            "dataio.rows_written": len(args[2])}


def _write_estimate(args, kwargs, result):
    return {"dataio.bytes_written": os.path.getsize(args[0]),
            "dataio.rows_written": len(args[1])}


def _bin(args, kwargs, result):
    return {"grid.bin_calls": 1}


def _medians(args, kwargs, result):
    # distinct bin counts; the medians take one vectorized pass per class
    return {"medians.count_classes": len(np.unique(args[0].counts))}


def _shrink(args, kwargs, result):
    diag = result[1]
    return {"shrinkage.blocks": diag.total_blocks,
            "shrinkage.zeroed": sum(diag.zeroed_per_level.values())}


def _dwt(args, kwargs, result):
    return {"wavelets.coefficients": np.size(args[0])}


def _fit(args, kwargs, result):
    return {"estimator.fit_calls": 1}


# function -> (counter, the metrics it feeds)
_READ = ("dataio.bytes_read", "dataio.rows_read")
_WRITE = ("dataio.bytes_written", "dataio.rows_written")
COUNTERS = {
    "read_grid_csv": (_read, _READ),
    "read_estimate_csv": (_read, _READ),
    "write_dataset_csv": (_write_dataset, _WRITE),
    "write_estimate_csv": (_write_estimate, _WRITE),
    "bin_observations": (_bin, ("grid.bin_calls",)),
    "bin_medians": (_medians, ("medians.count_classes",)),
    "shrink": (_shrink, ("shrinkage.blocks", "shrinkage.zeroed_frac")),
    "dwt_qd": (_dwt, ("wavelets.coefficients",)),
    "fit": (_fit, ("estimator.fit_calls",)),
}

# count metrics in report order, with their units
COUNT_UNITS = {
    "dataio.bytes_read": "B", "dataio.rows_read": "count",
    "dataio.bytes_written": "B", "dataio.rows_written": "count",
    "grid.bin_calls": "count", "medians.count_classes": "count",
    "shrinkage.blocks": "count", "shrinkage.zeroed_frac": "frac",
    "wavelets.coefficients": "count", "estimator.fit_calls": "count",
}

# reported as the largest value seen in one call, not a sum per operation
MAX_COUNTERS = ("medians.count_classes",)

# a counter cannot be formed when a later version of the package changes the
# argument or result it reads; its metrics are then reported as absent
_COUNTER_ERRORS = (AttributeError, IndexError, KeyError, TypeError,
                   OSError)


class Tracer:
    """Span recorder for the medwave layers listed in :data:`SPANS`."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.present = set()        # spans with at least one function found
        self.counted = set()        # count metrics with a function found
        self.broken = set()         # count metrics whose inputs were missing
        self._stack = []            # child time accumulated per open span
        self._patches = []          # (module, attribute, original)

    def install(self) -> None:
        loaded = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "medwave"
                                        or name.startswith("medwave."))]
        for span, module_name, functions in SPANS:
            module = sys.modules.get(module_name)
            for fname in functions:
                original = getattr(module, fname, None)
                if original is None:
                    continue
                self.present.add(span)
                if fname in COUNTERS:
                    self.counted.update(COUNTERS[fname][1])
                wrapper = self._wrap(span, COUNTERS.get(fname), original)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, span: str, counter, fn):
        stack = self._stack
        self_s = self.self_s

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self_s[span] += (t1 - t0) - frame[0]
                if stack:
                    stack[-1][0] += t1 - t0
            if counter is not None:
                self._count(counter, args, kwargs, result)
                if stack:
                    # bookkeeping is no layer's time
                    stack[-1][0] += time.perf_counter() - t1
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, counter, args, kwargs, result) -> None:
        count, names = counter
        try:
            values = count(args, kwargs, result)
        except _COUNTER_ERRORS:
            self.broken.update(names)
            return
        for key, value in values.items():
            if key in MAX_COUNTERS:
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value

    def metrics(self, ops: int) -> dict:
        """Per-operation self times and counts over ``ops`` traced ops,
        as name -> (value, unit); layers that no longer exist are absent."""
        out = {}
        for span, _, _ in SPANS:
            if span in self.present:
                out[f"{span}_s"] = (self.self_s[span] / ops, "s")
        for name, unit in COUNT_UNITS.items():
            if name not in self.counted or name in self.broken:
                continue
            if name == "shrinkage.zeroed_frac":
                blocks = self.counts["shrinkage.blocks"]
                value = self.counts["shrinkage.zeroed"] / blocks if blocks else 0.0
            elif name in MAX_COUNTERS:
                value = self.counts[name]
            else:
                value = self.counts[name] / ops
            out[name] = (value, unit)
        return out

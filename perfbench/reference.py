"""A fixed reference kernel timed next to every benchmark operation.

The benchmark runs on shared machines whose speed drifts by tens of
percent over seconds to minutes (neighbours contend for cores, caches and
memory bandwidth). The drift slows this kernel and the operations alike,
so an operation's time divided by the kernel's time, measured right around
it, is steadier than its seconds. Of the kinds of work tried (float parsing
and formatting in Python, large numpy medians and sorts, many numpy calls
on small arrays), the last two tracked all four workloads best.

:func:`normalized` turns a time into seconds of a machine on which one
pass takes :data:`REF_SECONDS`: the pass's time on an idle 2-core Xeon
with Python 3.11 and numpy 2.4, where the benchmark was sized.
"""

from __future__ import annotations

import io
import time

import numpy as np


REF_SECONDS = 0.030
ROWS = 9000             # a text pass about as long as a numpy pass


def normalized(seconds: float, before: float, after: float) -> float:
    """``seconds`` scaled by REF_SECONDS over the mean of the reference
    passes just before and just after them."""
    return seconds * 2.0 * REF_SECONDS / (before + after)


class Reference:
    """One pass of fixed work of the given kind, timed.

    ``numpy``: medians and sorts of a large array and many numpy calls on
    small ones, as a fit does. ``text``: formatting floats into CSV rows in
    Python, as the CSV writer does; the writer slows far more than numpy
    code when the machine is contended, and this kind follows it.
    """

    def __init__(self, kind: str = "numpy"):
        rng = np.random.default_rng(20171222)
        self.large = rng.standard_normal(1 << 19)
        self.small = list(rng.standard_normal((64, 64)))
        self.rows = rng.standard_normal((ROWS, 3)).tolist()
        self._work = {"numpy": self._numpy, "text": self._text}[kind]

    def __call__(self) -> float:
        """Seconds one pass of the kernel takes now."""
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0

    def _numpy(self) -> None:
        np.median(self.large.reshape(-1, 64), axis=1)
        np.sort(self.large)
        for _ in range(8):
            for a in self.small:
                np.median(a)
                np.sort(a)
                a.sum()

    def _text(self) -> None:
        out = io.StringIO()
        for row in self.rows:
            out.write(",".join([format(v, ".17g") for v in row]) + "\n")

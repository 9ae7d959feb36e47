"""A sha256 of every fit in a fixed grid of configurations.

    python3 studies/fit_digest.py [--output PATH] [--compare OLD.json]

Run from the root of a source checkout; medwave is imported from its
``src/`` directory. The grid:

* designs: q = 1, 2 and 3, each with one design whose axis intervals take
  two lengths (n = 40000, 257^2 and 41^3, so J = 11, 6 and 4) and one
  single-bin design (J = 0: n = 2, 2^2 and 2^3), plus a q = 2 design whose
  intervals take one length (n = 64^2, J = 4);
* haar, db2 and db4, each at its default j0 and at one other valid j0
  (a J = 0 fit has no j0 and uses no filter, so it runs db4 only);
* shrinkage and the bias correction each on and off, and the noise level
  estimated or known (the law's exact 1/h^2(0));
* Gaussian, Cauchy and shifted-exponential errors around the
  ``sine_product`` truth, three replications of each drawn with
  ``replication_rng(0, n, r)`` and fitted as one stack by ``fit_many``.

For each configuration it records the sha256 over the three members'
``f_hat`` bytes, ``b_hat`` bits, noise record (``h_inv_sq`` bits,
``degenerate``, ``source``) and shrinkage diagnostics, and beside it
each member's ``b_hat``, ``h_inv_sq`` and MISE against the truth at the
bin points. The JSON goes to ``--output`` (default
``studies/fit_digest.json``). ``--compare OLD.json``, read before the
output is written so that it may name the same file, then lists every
configuration whose digest differs from OLD's (or that only one side
has), with the largest change of ``b_hat``, ``h_inv_sq`` and MISE, and
exits 1 if any moved.

Every configuration is also fitted with u's rows, and the responses with
them, in one fixed permutation per design, so that the check of rows out
of grid order is run too; the script lists and exits 1 on any digest that
differs from the grid-order fit's.

For every design, a non-finite pass then puts nan, +inf and -inf in turn
at one row of the last member of the Cauchy stack, in grid order and in
the permuted order, and lists and exits 1 on any ``fit_many`` that does
not raise BadValue naming that member and row.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # before numpy is imported

import argparse
import hashlib
import itertools
import json
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from medwave import (BadValue, EstimatorConfig,  # noqa: E402
                     build_filter, default_primary_level, plan_fit,
                     plan_grid)
from medwave.simulate import (ErrorDist, SimulationConfig,  # noqa: E402
                              density_at_median, generate_dataset, mise,
                              replication_rng)

DESIGNS = ((40000, 1), (2, 1), (66049, 2), (4096, 2), (4, 2), (68921, 3),
           (8, 3))
WAVELETS = ("haar", "db2", "db4")
LAWS = ("gaussian", "cauchy", "shifted_exponential")
REPLICATIONS = 3


def levels(wavelet: str, J: int) -> tuple:
    """The default j0 (None) and one other valid j0, or (None,) if J = 0."""
    if J == 0:
        return (None,)
    default = min(default_primary_level(build_filter(wavelet)), J - 1)
    return (None, default - 1 if default > 0 else 1)


def stacks(n: int, q: int) -> dict:
    """Per law: (u, the (3, n) responses, the truth at the bin points)."""
    out = {}
    for law in LAWS:
        config = SimulationConfig(q=q, sample_sizes=(n,),
                                  error_dist=ErrorDist(law))
        draws = [generate_dataset(config, n, replication_rng(0, n, r))
                 for r in range(REPLICATIONS)]
        out[law] = (draws[0][0], np.stack([d[1] for d in draws]), draws[0][2])
    return out


def digest(results: list) -> str:
    h = hashlib.sha256()
    for res in results:
        h.update(res.f_hat.tobytes())
        h.update(np.float64(res.b_hat).tobytes())
        h.update(np.float64(res.noise.h_inv_sq).tobytes())
        h.update(repr((res.noise.degenerate, res.noise.source)).encode())
        d = res.diagnostics
        if d is None:
            h.update(b"None")
            continue
        h.update(repr((sorted(d.blocks_per_level.items()),
                       sorted(d.zeroed_per_level.items()),
                       d.factor_histogram.tolist(), d.total_blocks)).encode())
        h.update(np.float64([d.factor_min, d.factor_mean]).tobytes())
    return h.hexdigest()


def non_finite_faults(u: np.ndarray, Y: np.ndarray, perm: np.ndarray) -> list:
    """A line per non-finite stack that ``fit_many`` does not refuse with
    BadValue naming its row: nan, +inf and -inf at row n // 3 of the last
    member, in grid order and in the order ``perm``."""
    faults = []
    b, i = len(Y) - 1, len(u) // 3
    for order, rows in (("grid order", np.arange(len(u))), ("permuted", perm)):
        plan = plan_fit(u[rows])
        at = int(np.flatnonzero(rows == i)[0])
        for bad in (np.nan, np.inf, -np.inf):
            bad_Y = Y[:, rows]
            bad_Y[b, at] = bad
            want = f"response y[{b}, {at}] = {bad} is not finite"
            try:
                plan.fit_many(bad_Y)
                got = "no error"
            except BadValue as err:
                got = str(err)
                if got.startswith(want):
                    continue
            faults.append(f"n={len(u)} q={u.shape[1]} {order} y[{b}, {at}] = "
                          f"{bad}: {got}")
    return faults


def run() -> tuple:
    """The record of every configuration, the keys of those whose fit on
    permuted rows has another digest, and the non-finite stacks that were
    not refused as they should be."""
    fits, unequal, faults = {}, [], []
    for n, q in DESIGNS:
        J = plan_grid(n, q).J
        data = stacks(n, q)
        perm = np.random.default_rng(n).permutation(n)
        faults += non_finite_faults(data["cauchy"][0], data["cauchy"][1], perm)
        for wavelet, shrinkage, bias, known, law in itertools.product(
                WAVELETS if J else ("db4",), (True, False), (True, False),
                (False, True), LAWS):
            u, Y, truth = data[law]
            for j0 in levels(wavelet, J):
                config = EstimatorConfig(
                    wavelet=wavelet, j0=j0, shrinkage_enabled=shrinkage,
                    bias_correction=bias,
                    known_h_inv_sq=(density_at_median(ErrorDist(law)) ** -2
                                    if known else None))
                results = plan_fit(u, config).fit_many(Y)
                key = (f"q={q} n={n} {wavelet} j0={j0} shrink={int(shrinkage)}"
                       f" bias={int(bias)} noise={'known' if known else 'est'}"
                       f" {law}")
                sha = digest(results)
                permuted = plan_fit(u[perm], config).fit_many(Y[:, perm])
                if digest(permuted) != sha:
                    unequal.append(key)
                fits[key] = {
                    "sha256": sha,
                    "b_hat": [r.b_hat for r in results],
                    "h_inv_sq": [r.noise.h_inv_sq for r in results],
                    "mise": [mise(r.f_hat, truth) for r in results],
                }
    return fits, unequal, faults


def compare(new: dict, old: dict) -> list:
    """A line per configuration that moved or that only one side has."""
    lines = []
    for key in sorted(set(new) | set(old)):
        if key not in new or key not in old:
            lines.append(f"{key}: only in {'old' if key in old else 'new'}")
        elif new[key]["sha256"] != old[key]["sha256"]:
            moves = [np.abs(np.subtract(new[key][name], old[key][name])).max()
                     for name in ("b_hat", "h_inv_sq", "mise")]
            lines.append(f"{key}: max |d b_hat| {moves[0]:.3e}, "
                         f"|d h_inv_sq| {moves[1]:.3e}, |d mise| {moves[2]:.3e}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--output", default=str(HERE / "fit_digest.json"))
    parser.add_argument("--compare", metavar="OLD.json", default=None)
    args = parser.parse_args(argv)
    old = (None if args.compare is None
           else json.loads(Path(args.compare).read_text())["fits"])

    start = time.perf_counter()
    fits, unequal, faults = run()
    seconds = time.perf_counter() - start
    total = hashlib.sha256("".join(
        f"{k} {v['sha256']}\n" for k, v in fits.items()).encode()).hexdigest()
    header = {"environment": {"python": platform.python_version(),
                              "numpy": np.__version__,
                              "nproc": os.cpu_count()},
              "seconds": round(seconds, 1), "configurations": len(fits),
              "sha256": total}
    entries = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in header.items()]
    body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                      for k, v in fits.items())
    Path(args.output).write_text(
        "{\n" + ",\n".join(entries + [f' "fits": {{\n{body}\n }}']) + "\n}\n")
    print(f"{len(fits)} configurations, {REPLICATIONS} fits each, "
          f"sha256 {total[:16]}..., {seconds:.1f} s")
    for key in unequal:
        print(f"{key}: permuted rows give another digest")
    print(f"{len(unequal)} of {len(fits)} differ on permuted rows")
    for line in faults:
        print(f"{line}: not refused as a non-finite response")
    print(f"{len(faults)} of {6 * len(DESIGNS)} non-finite stacks not refused "
          "naming their row")
    if old is None:
        return 1 if unequal or faults else 0
    moved = compare(fits, old)
    if moved:
        print("\n".join(moved))
    print(f"{len(moved)} of {len(set(fits) | set(old))} moved")
    return 1 if moved or unequal or faults else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The four benchmark workloads.

A workload runs operations in a closed loop of one caller. Every operation
gets fresh inputs, made from a key derived from the run's seed:

* ``setup()`` makes what all operations share (a grid, the truth);
* ``prepare(key)`` makes one operation's inputs, untimed;
* ``op()`` is the timed operation and returns its output;
* ``check(out)`` raises :class:`checks.CheckFailed` unless the output is
  correct, and returns the operation's grid MISE and a sha256 of its output.

The runner takes the accuracy and the fingerprint of a run from its first
``min_ops`` operations, whose keys are fixed, so both depend on the seed
alone. Every CLI call is made in-process with its standard output and
error captured, so console writes are not timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil

import numpy as np

import checks

# Upper bounds on the MISE of a correct operation, about twice the median
# and well above the largest seen over 40 to 400 seeds. A broken stage (no
# shrinkage, no medians, lost rows) lands far above.
ESTIMATE_MISE_BOUND = 0.004   # one fit, 512^2, T = 64: median 0.0019
UNEVEN_MISE_BOUND = 0.001     # one fit, 1025^2, T = 128: median 0.00044
RATE_MISE_BOUND = 0.02        # 30 fits at n = 65536: median 0.0091, max 0.016


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def derived_seed(key) -> int:
    """A config-file seed (non-negative int) for an operation key."""
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def grid_design(side: int) -> np.ndarray:
    """The full side^2 grid {i/(side-1)}^2 in lexicographic order."""
    pts = np.arange(side) / (side - 1)
    mesh = np.meshgrid(pts, pts, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def row_prefixes(u: np.ndarray) -> list:
    """The ``u1,u2,`` text of every row, made once for a fixed grid."""
    return (("%.17g,%.17g,\n" * len(u)) % tuple(u.ravel().tolist())
            ).splitlines()


def write_dataset(path, prefixes: list, y: np.ndarray) -> None:
    """The benchmark's own dataset writer (17 significant digits)."""
    values = (("%.17g\n" * len(y)) % tuple(y.tolist())).splitlines(True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("u1,u2,y\n")
        fh.write("".join(map(str.__add__, prefixes, values)))


def run_cli(medwave, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return medwave.cli.main(argv)


class Workload:
    name = ""
    why = ""
    min_ops = 8         # operations every run makes, whatever its length
    obs_per_op = 0      # observations one operation carries
    reference_kind = "numpy"    # the reference work its op's time tracks

    def __init__(self, medwave, workdir: str):
        self.medwave = medwave
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        pass

    def prepare(self, key) -> None:
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def check(self, out) -> tuple:
        raise NotImplementedError


class EstimateCsv(Workload):
    name = "estimate_csv"
    why = ("medwave estimate on a fresh 512^2 Cauchy CSV per op: the CSV "
           "reader dominates; equal bin counts take the vectorized medians")
    min_ops = 12
    side = 512
    T = 64              # 2^floor(log2(n^(3/4)) / 2) for n = 512^2
    obs_per_op = 512 * 512

    def setup(self) -> None:
        u = grid_design(self.side)
        self.prefixes = row_prefixes(u)
        self.f_u = checks.sine_product(u)
        self.truth = checks.truth_on_grid(self.T)

    def prepare(self, key) -> None:
        y = self.f_u + np.random.default_rng(key).standard_cauchy(
            len(self.f_u))
        write_dataset(self.path("data.csv"), self.prefixes, y)
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.path("fit.csv"))

    def op(self):
        return run_cli(self.medwave, ["estimate", "--input",
                                      self.path("data.csv"),
                                      "--output", self.path("fit.csv")])

    def check(self, out) -> tuple:
        checks.check_exit(out)
        path = self.path("fit.csv")
        mise = checks.check_estimate_csv(
            path, self.T, self.truth, ESTIMATE_MISE_BOUND,
            self.medwave.read_estimate_csv)
        return mise, sha256_file(path)


class FitUneven(Workload):
    name = "fit_uneven"
    why = ("library fit on a fixed 1025^2 grid with fresh Cauchy y: three "
           "bin-count classes send medians down the grouped path; no I/O")
    min_ops = 16
    side = 1025
    T = 128             # 1025 is not a multiple of T: counts 64, 72 and 81
    obs_per_op = 1025 * 1025

    def setup(self) -> None:
        self.u = grid_design(self.side)
        self.f_u = checks.sine_product(self.u)
        self.truth = checks.truth_on_grid(self.T)

    def prepare(self, key) -> None:
        self.y = None
        self.y = self.f_u + np.random.default_rng(key).standard_cauchy(
            len(self.u))

    def op(self):
        return self.medwave.fit(self.u, self.y)

    def check(self, out) -> tuple:
        mise = checks.grid_mise(out.f_hat, self.truth, UNEVEN_MISE_BOUND)
        f_hat = np.ascontiguousarray(out.f_hat)
        return mise, hashlib.sha256(f_hat.tobytes()).hexdigest()


class ConfigWorkload(Workload):
    """A CLI subcommand run on a fresh config file per operation."""

    subcommand = ""
    template = ""

    def prepare(self, key) -> None:
        with open(self.path("run.cfg"), "w", encoding="utf-8") as fh:
            fh.write(self.template.format(seed=derived_seed(key)))
        shutil.rmtree(self.path("out"), ignore_errors=True)

    def op(self):
        return run_cli(self.medwave, [self.subcommand, "--config",
                                      self.path("run.cfg"),
                                      "--output-dir", self.path("out")])


class RateStudy(ConfigWorkload):
    name = "rate_study"
    why = ("medwave rate-study, 3 sizes x 30 Cauchy reps with db2: 90 small "
           "fits where shrinkage, data generation and per-call overhead lead")
    subcommand = "rate-study"
    # the shape of acceptance criterion 5, with Cauchy errors
    template = """\
q = 2
sample_sizes = 4096, 16384, 65536
error_dist = cauchy
replications = 30
wavelet = db2
seed = {seed}
"""
    sizes = (4096, 16384, 65536)
    obs_per_op = 30 * sum(sizes)

    def check(self, out) -> tuple:
        checks.check_exit(out)
        rates = self.path(os.path.join("out", "rates.csv"))
        mise = checks.check_rates(rates, self.sizes, RATE_MISE_BOUND)
        checks.expect(os.path.isfile(self.path(os.path.join("out",
                                                            "summary.txt"))),
                      "summary.txt missing")
        return mise, sha256_file(rates)


class SimulateCsv(ConfigWorkload):
    name = "simulate_csv"
    why = ("medwave simulate writing 4 datasets of 256^2 rows per op: the "
           "CSV writer dominates; no fit runs in the timed op")
    subcommand = "simulate"
    template = """\
q = 2
sample_sizes = 65536
error_dist = student_t:2
design_dist = cauchy
beta = 1, -0.5
replications = 4
seed = {seed}
"""
    n, reps = 65536, 4
    obs_per_op = 65536 * 4
    reference_kind = "text"

    def check(self, out) -> tuple:
        """Every file reads back exactly as ``generate_dataset`` makes it
        for the same (seed, n, rep). The accuracy is the mean MISE of fits
        of the datasets read back, against the truth file."""
        checks.check_exit(out)
        mw = self.medwave
        config = mw.parse_config(self.path("run.cfg"))
        out_dir = self.path("out")
        h = hashlib.sha256()
        risks = []
        for rep in range(self.reps):
            path = os.path.join(out_dir, f"dataset_n{self.n}_rep{rep}.csv")
            rng = mw.replication_rng(config.seed, self.n, rep)
            u, y, f_grid = mw.generate_dataset(config, self.n, rng)
            table = checks.check_dataset_csv(path, u, y)
            # no bound: the op's output is checked exactly above, and these
            # fits only measure accuracy (their MISE is heavy-tailed)
            risks.append(checks.grid_mise(
                mw.fit(table[:, :2], table[:, 2]).f_hat, f_grid))
            h.update(sha256_file(path).encode())
        truth = os.path.join(out_dir, f"truth_n{self.n}.csv")
        checks.check_truth_csv(truth, f_grid)
        h.update(sha256_file(truth).encode())
        return float(np.mean(risks)), h.hexdigest()


WORKLOADS = {w.name: w for w in (EstimateCsv, FitUneven, RateStudy,
                                 SimulateCsv)}

"""Command-line interface: exit codes, files written, stream contents."""

import subprocess
import sys

import numpy as np
import pytest

from medwave.cli import main
from medwave.dataio import read_estimate_csv, read_grid_csv, write_dataset_csv
from medwave.errors import BadValue
from medwave.estimator import EstimatorConfig, fit

CONFIG = ("q = 1\nsample_sizes = 256, 1024\nreplications = 2\n"
          "error_dist = gaussian:0.5\nseed = 0\n")


def make_dataset(tmp_path, n=256, seed=0, constant=None):
    rng = np.random.default_rng(seed)
    u = np.arange(n, dtype=float) / (n - 1)
    y = (np.full(n, constant) if constant is not None
         else np.sin(2 * np.pi * u) + 0.3 * rng.standard_normal(n))
    path = tmp_path / "data.csv"
    write_dataset_csv(path, u, y)
    return path, u, y


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def test_estimate_to_file(tmp_path, capsys):
    data, u, y = make_dataset(tmp_path)
    out = tmp_path / "est.csv"
    rc = main(["estimate", "--input", str(data), "--output", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    coords, fhat = read_estimate_csv(out)
    expected = fit(u, y)
    assert np.array_equal(fhat, expected.f_hat.ravel())
    assert coords.shape == (expected.design.V, 1)
    assert "n=256" in captured.err
    assert captured.out == ""


def test_estimate_to_stdout(tmp_path, capsys):
    data, u, y = make_dataset(tmp_path)
    rc = main(["estimate", "--input", str(data)])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.strip().split("\n")
    assert lines[0] == "u1,fhat"
    expected = fit(u, y)
    assert len(lines) == 1 + expected.design.V
    first = lines[1].split(",")
    assert float(first[1]) == expected.f_hat[0]


def test_estimate_flag_plumbing(tmp_path):
    data, u, y = make_dataset(tmp_path)
    out = tmp_path / "est.csv"
    rc = main(["estimate", "--input", str(data), "--output", str(out),
               "--wavelet", "db2", "--j0", "1", "--block-cardinality", "4",
               "--noise-mode", "known:2.0",
               "--no-bias-correction"])
    assert rc == 0
    _, fhat = read_estimate_csv(out)
    cfg = EstimatorConfig(wavelet="db2", j0=1, block_cardinality=4,
                          noise_mode="known", known_h_inv_sq=2.0,
                          bias_correction=False)
    assert np.array_equal(fhat, fit(u, y, cfg).f_hat.ravel())


def test_estimate_no_shrinkage_gives_raw_medians(tmp_path):
    data, u, y = make_dataset(tmp_path)
    out = tmp_path / "est.csv"
    rc = main(["estimate", "--input", str(data), "--output", str(out),
               "--no-shrinkage", "--no-bias-correction"])
    assert rc == 0
    _, fhat = read_estimate_csv(out)
    raw = fit(u, y, EstimatorConfig(shrinkage_enabled=False,
                                    bias_correction=False))
    assert np.array_equal(fhat, raw.f_hat.ravel())


def test_estimate_missing_input(tmp_path, capsys):
    rc = main(["estimate", "--input", str(tmp_path / "nope.csv")])
    assert rc == 2
    assert "i/o error" in capsys.readouterr().err


def test_estimate_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    rc = main(["estimate", "--input", str(bad)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_estimate_non_finite_response_exits_2(tmp_path, capsys):
    data, u, y = make_dataset(tmp_path)
    y[5] = np.nan
    write_dataset_csv(data, u, y)
    out = tmp_path / "est.csv"
    rc = main(["estimate", "--input", str(data), "--output", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "y[5] = nan" in err
    assert not out.exists()


def test_estimate_non_finite_coordinate_exits_2(tmp_path, capsys):
    data, u, y = make_dataset(tmp_path)
    u[7] = np.inf
    write_dataset_csv(data, u, y)
    out = tmp_path / "est.csv"
    rc = main(["estimate", "--input", str(data), "--output", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "u[7, 0] = inf" in err
    assert not out.exists()


def test_estimate_without_half_bins_needs_no_bias_correction(tmp_path,
                                                             capsys):
    # 7 rows: every half-bin is empty, which only the bias correction reads
    data, _, _ = make_dataset(tmp_path, n=7)
    out = tmp_path / "est.csv"
    rc = main(["estimate", "--input", str(data), "--output", str(out),
               "--no-bias-correction"])
    assert rc == 0
    assert read_estimate_csv(out)[1].shape == (4,)
    capsys.readouterr()
    assert main(["estimate", "--input", str(data)]) == 2
    assert "half-bin (1,) is empty" in capsys.readouterr().err


def test_estimate_stdout_matches_output_file(tmp_path, capsys):
    data, _, _ = make_dataset(tmp_path)
    out = tmp_path / "est.csv"
    assert main(["estimate", "--input", str(data), "--output", str(out)]) == 0
    capsys.readouterr()
    assert main(["estimate", "--input", str(data)]) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_estimate_degenerate_noise_warns(tmp_path, capsys):
    data, _, _ = make_dataset(tmp_path, n=16, constant=5.0)
    out = tmp_path / "est.csv"
    rc = main(["estimate", "--input", str(data), "--output", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "clamped" in captured.err
    assert out.exists()


def test_estimate_strict_degenerate_exits_3(tmp_path, capsys):
    data, _, _ = make_dataset(tmp_path, n=16, constant=5.0)
    out = tmp_path / "est.csv"
    rc = main(["estimate", "--input", str(data), "--output", str(out),
               "--strict"])
    assert rc == 3
    assert not out.exists()           # refused before writing


def test_estimate_bad_options(tmp_path, capsys):
    data, _, _ = make_dataset(tmp_path)
    assert main(["estimate", "--input", str(data),
                 "--noise-mode", "known:abc"]) == 2
    assert main(["estimate", "--input", str(data),
                 "--noise-mode", "oracle"]) == 2
    for value in ("inf", "1e400"):
        assert main(["estimate", "--input", str(data),
                     "--noise-mode", f"known:{value}"]) == 2
    assert main(["estimate", "--input", str(data),
                 "--wavelet", "sym8"]) == 2
    assert main(["estimate", "--input", str(data), "--j0", "99"]) == 2
    capsys.readouterr()


# accepted, malformed and out-of-range spellings of the noise mode
NOISE_SPELLINGS = ("estimate", " estimate ", "known:2", "known: 2.5 ",
                   " known :2", "known:1e-3", "known", "known:", "known:abc",
                   "known:2:3", "estimate:1", "estimate:", "oracle", "KNOWN:2",
                   "known:0", "known:-1", "known:nan", "known:inf",
                   "known:1e400")


@pytest.mark.parametrize("spelling", NOISE_SPELLINGS)
def test_noise_mode_flag_and_config_key_agree(tmp_path, capsys, monkeypatch,
                                              spelling):
    from medwave.config import parse_config_text
    data, _, _ = make_dataset(tmp_path, n=64)
    seen = []
    monkeypatch.setattr("medwave.estimator.fit", lambda u, y, config: (
        seen.append(config) or fit(u, y, config)))
    rc = main(["estimate", "--input", str(data), "--output",
               str(tmp_path / "est.csv"), "--noise-mode", spelling])
    err = capsys.readouterr().err
    try:
        from_file = parse_config_text(
            CONFIG + f"noise_mode = {spelling}\n").estimator
    except BadValue as exc:
        assert rc == 2 and not seen
        assert "noise_mode" in str(exc) and "--noise-mode" not in str(exc)
        if "known_h_inv_sq" not in str(exc):     # malformed, not out of range
            assert "--noise-mode" in err
    else:
        assert rc == 0 and seen == [from_file]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_datasets_and_truth(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG)
    outdir = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg),
               "--output-dir", str(outdir)])
    captured = capsys.readouterr()
    assert rc == 0
    names = sorted(p.name for p in outdir.iterdir())
    assert names == [
        "dataset_n1024_rep0.csv", "dataset_n1024_rep1.csv",
        "dataset_n256_rep0.csv", "dataset_n256_rep1.csv",
        "truth_n256.csv", "truth_n1024.csv",
    ] or len(names) == 6
    u, y = read_grid_csv(outdir / "dataset_n256_rep0.csv")
    assert u.shape == (256, 1)
    coords, truth = read_estimate_csv(outdir / "truth_n256.csv")
    assert np.max(np.abs(truth)) <= 1.0 + 1e-12      # sine values
    # every written path is announced on stdout
    for name in names:
        assert name in captured.out


def test_simulate_datasets_are_replication_streams(tmp_path, capsys):
    from medwave.config import parse_config_text
    from medwave.simulate import generate_dataset, replication_rng
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG)
    outdir = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg),
                 "--output-dir", str(outdir)]) == 0
    capsys.readouterr()
    config = parse_config_text(CONFIG)
    _, y_expected, _ = generate_dataset(config, 256, replication_rng(0, 256, 1))
    _, y_written = read_grid_csv(outdir / "dataset_n256_rep1.csv")
    assert np.array_equal(y_written, y_expected)


def test_simulate_bad_config(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("q = 1\nsample_sizes = 256\nerror_dist = uniform\n")
    rc = main(["simulate", "--config", str(cfg),
               "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# rate-study
# ---------------------------------------------------------------------------

RATE_CONFIG = ("q = 1\nsample_sizes = 256, 1024, 4096\nreplications = 10\n"
               "error_dist = gaussian:0.5\nseed = 0\n")


def test_rate_study_outputs(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(RATE_CONFIG)
    outdir = tmp_path / "out"
    rc = main(["rate-study", "--config", str(cfg),
               "--output-dir", str(outdir)])
    captured = capsys.readouterr()
    assert rc == 0
    rates = (outdir / "rates.csv").read_text().strip().split("\n")
    assert rates[0] == "n,mean_mise,se,slope"
    assert len(rates) == 4
    ns = [int(r.split(",")[0]) for r in rates[1:]]
    assert ns == [256, 1024, 4096]
    slopes = {r.split(",")[3] for r in rates[1:]}
    assert len(slopes) == 1                    # slope repeated on every row
    mises = [float(r.split(",")[1]) for r in rates[1:]]
    assert mises[0] > mises[2] > 0.0
    summary = (outdir / "summary.txt").read_text()
    assert "fitted slope" in summary
    assert "target slope" in summary
    assert summary == captured.out


def test_rate_study_with_pointwise_columns(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(RATE_CONFIG + "u0 = 0.3\n")
    outdir = tmp_path / "out"
    rc = main(["rate-study", "--config", str(cfg),
               "--output-dir", str(outdir)])
    capsys.readouterr()
    assert rc == 0
    header = (outdir / "rates.csv").read_text().split("\n")[0]
    assert header == ("n,mean_mise,se,slope,"
                      "pointwise_mean,pointwise_se,pointwise_slope")


def test_rate_study_rejects_insufficient_config(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("q = 1\nsample_sizes = 256, 1024\nreplications = 10\n"
                   "error_dist = gaussian\n")
    rc = main(["rate-study", "--config", str(cfg),
               "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# coupling-check
# ---------------------------------------------------------------------------

def test_coupling_check_output(capsys):
    rc = main(["coupling-check", "--error-dist", "gaussian",
               "--kappa", "101", "--repetitions", "2000", "--seed", "0"])
    captured = capsys.readouterr()
    assert rc == 0
    line = [l for l in captured.out.split("\n") if "variance" in l][0]
    variance = float(line.split(":")[1].split("(")[0])
    assert abs(variance - 1.0) < 0.15
    assert "target 1" in line


def test_coupling_check_student_t_with_large_nu(capsys):
    # h(0) at nu = 400 overflows math.gamma; the log-gamma form does not
    rc = main(["coupling-check", "--error-dist", "student_t:400",
               "--kappa", "101", "--repetitions", "2000", "--seed", "0"])
    captured = capsys.readouterr()
    assert rc == 0
    line = [l for l in captured.out.split("\n") if "variance" in l][0]
    variance = float(line.split(":")[1].split("(")[0])
    assert abs(variance - 1.0) < 0.15


def test_coupling_check_validation(capsys):
    assert main(["coupling-check", "--error-dist", "uniform"]) == 2
    assert main(["coupling-check", "--error-dist", "student_t:inf"]) == 2
    assert main(["coupling-check", "--error-dist", "gaussian",
                 "--kappa", "100", "--repetitions", "100"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# parser-level behavior
# ---------------------------------------------------------------------------

def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--input", "x.csv", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# process-level behavior
# ---------------------------------------------------------------------------

def test_estimate_runs_without_simulation_modules(tmp_path):
    # the estimation path must not import the simulation machinery (so a
    # deployment can ship without it ever loading)
    data, _, _ = make_dataset(tmp_path)
    out = tmp_path / "est.csv"
    code = (
        "import sys\n"
        "from medwave.cli import main\n"
        f"rc = main(['estimate', '--input', {str(data)!r}, "
        f"'--output', {str(out)!r}])\n"
        "assert rc == 0, rc\n"
        "assert 'medwave.simulate' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_public_names_resolve():
    # every exported name resolves: the eager ones without loading the
    # simulation machinery, the lazy ones on first access, and all of them
    # through a star import
    code = (
        "import sys\n"
        "import medwave\n"
        "eager = [n for n in medwave.__all__ if n not in medwave._LAZY]\n"
        "missing = [n for n in eager if n not in vars(medwave)]\n"
        "assert not missing, missing\n"
        "assert 'medwave.simulate' not in sys.modules\n"
        "for name in medwave._LAZY:\n"
        "    assert name in medwave.__all__, name\n"
        "    getattr(medwave, name)\n"
        "ns = {}\n"
        "exec('from medwave import *', ns)\n"
        "assert set(medwave.__all__) <= set(ns)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_scipy_unloaded():
    # estimation needs numpy only; scipy is a test dependency
    code = ("import sys\n"
            "import medwave, medwave.cli\n"
            "assert 'scipy' not in sys.modules, "
            "sorted(m for m in sys.modules if m.startswith('scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point(tmp_path):
    data, _, _ = make_dataset(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "medwave.cli",
         "estimate", "--input", str(data)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("u1,fhat\n")

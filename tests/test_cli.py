"""Command-line interface: exit codes, files written, stream contents."""

import hashlib
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from medwave.cli import main
from medwave.dataio import read_estimate_csv, read_grid_csv, write_dataset_csv
from medwave.errors import BadValue
from medwave.estimator import EstimatorConfig, fit
from medwave.grid import product_grid

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
                          known_h_inv_sq=2.0, bias_correction=False)
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


def test_estimate_reads_a_pipe(tmp_path, capsys):
    # the body (about 20 KB) outlasts what the header read buffers
    data, u, y = make_dataset(tmp_path, n=513)
    from_file, from_pipe = tmp_path / "file.csv", tmp_path / "pipe.csv"
    assert main(["estimate", "--input", str(data),
                 "--output", str(from_file)]) == 0
    r, w = os.pipe()
    try:
        os.write(w, data.read_bytes())
        os.close(w)
        rc = main(["estimate", "--input", f"/dev/fd/{r}",
                   "--output", str(from_pipe)])
    finally:
        os.close(r)
    capsys.readouterr()
    assert rc == 0
    assert from_pipe.read_bytes() == from_file.read_bytes()


def test_estimate_reads_a_file_that_starts_with_a_byte_order_mark(tmp_path,
                                                                   capsys):
    # a 17^2 dataset saved as "CSV UTF-8" (EF BB BF first) estimates as
    # the plain file does
    u = product_grid(np.arange(17) / 16, 2)
    y = np.random.default_rng(17).standard_cauchy(len(u))
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_dataset_csv(plain, u, y)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outs = [tmp_path / "plain_fhat.csv", tmp_path / "marked_fhat.csv"]
    for data, out in zip((plain, marked), outs):
        assert main(["estimate", "--input", str(data),
                     "--output", str(out)]) == 0
    capsys.readouterr()
    assert outs[1].read_bytes() == outs[0].read_bytes()


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


@pytest.mark.parametrize("raw", [b"u1,y\n0,1\n0.5,\xff\n1,3\n",
                                 b"u1,y\xff\n0,1\n0.5,2\n1,3\n"],
                         ids=["body", "header"])
def test_estimate_non_utf8_input_exits_2(tmp_path, capsys, raw):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(raw)
    rc = main(["estimate", "--input", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"medwave: error: {bad}" in err
    assert "Traceback" not in err


def test_estimate_with_a_400_digit_block_cardinality_exits_0(tmp_path):
    # past 2^1024 a float root of L overflows; one block per subband
    data, u, y = make_dataset(tmp_path)
    out = tmp_path / "est.csv"
    L = 10 ** 399
    rc = main(["estimate", "--input", str(data), "--output", str(out),
               "--block-cardinality", str(L)])
    assert rc == 0
    _, fhat = read_estimate_csv(out)
    result = fit(u, y, EstimatorConfig(block_cardinality=L))
    assert np.array_equal(fhat, result.f_hat.ravel())
    assert set(result.diagnostics.blocks_per_level.values()) == {1}


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


def test_estimate_off_grid_coordinate_names_a_plain_float(tmp_path, capsys):
    data, u, y = make_dataset(tmp_path)
    u[7] += 1e-6
    write_dataset_csv(data, u, y)
    out = tmp_path / "est.csv"
    rc = main(["estimate", "--input", str(data), "--output", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert (f"coordinate {float(u[7])!r} is not a multiple of 1/255"
            in err)
    assert "np.float64(" not in err
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


def test_degenerate_noise_warning_names_its_cause(tmp_path, capsys):
    # a constant response: eight bins whose medians are all identical
    data, _, _ = make_dataset(tmp_path, n=16, constant=5.0)
    assert main(["estimate", "--input", str(data), "--strict"]) == 3
    err = capsys.readouterr().err
    assert "noise estimate clamped at floor (all bin medians identical?)" \
        in err
    assert "single bin" not in err
    # a 2x2 grid is one bin, with no pair of medians to difference
    one = tmp_path / "one.csv"
    write_dataset_csv(one, product_grid(np.arange(2.0), 2),
                      np.array([0.1, -0.3, 2.0, 0.5]))
    for strict, rc in ((["--strict"], 3), ([], 0)):
        assert main(["estimate", "--input", str(one),
                     "--no-bias-correction"] + strict) == rc
        err = capsys.readouterr().err
        assert ("noise estimate clamped at floor (a single bin has no "
                "neighbour to estimate the noise level from; --noise-mode "
                "known:VALUE gives one)") in err
        assert "identical" not in err


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
        "truth_n1024.csv", "truth_n256.csv",
    ]
    u, y = read_grid_csv(outdir / "dataset_n256_rep0.csv")
    assert u.shape == (256, 1)
    coords, truth = read_estimate_csv(outdir / "truth_n256.csv")
    assert np.max(np.abs(truth)) <= 1.0 + 1e-12      # sine values
    # every written path is announced on stdout
    for name in names:
        assert name in captured.out


def test_simulate_datasets_are_replication_streams(tmp_path, capsys):
    """Every file is byte for byte what the library writers make of
    ``generate_dataset`` for its (seed, n, rep), whatever is shared per n."""
    from medwave.config import parse_config_text
    from medwave.dataio import write_estimate_csv
    from medwave.grid import plan_grid, product_grid
    from medwave.simulate import generate_dataset, replication_rng
    text = ("q = 2\nsample_sizes = 289, 1089\nreplications = 2\n"
            "error_dist = student_t:2\ndesign_dist = cauchy\n"
            "beta = 1, -0.5\nseed = 11\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    outdir = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg),
                 "--output-dir", str(outdir)]) == 0
    capsys.readouterr()
    config = parse_config_text(text)
    want = tmp_path / "want.csv"
    for n in (289, 1089):
        for rep in range(2):
            u, y, f_grid = generate_dataset(config, n,
                                            replication_rng(11, n, rep))
            write_dataset_csv(want, u, y)
            got = (outdir / f"dataset_n{n}_rep{rep}.csv").read_bytes()
            assert got == want.read_bytes(), (n, rep)
        T = plan_grid(n, 2).T
        points = product_grid(np.arange(1, T + 1) / T, 2)
        write_estimate_csv(want, np.column_stack([points, f_grid.ravel()]))
        assert (outdir / f"truth_n{n}.csv").read_bytes() \
            == want.read_bytes(), n


def test_simulate_bad_config(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("q = 1\nsample_sizes = 256\nerror_dist = uniform\n")
    rc = main(["simulate", "--config", str(cfg),
               "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "rate-study"])
@pytest.mark.parametrize("text, bad_line", [
    ("# r\xe9sum\xe9 of the run\n" + CONFIG, 1),
    (CONFIG + "test_function = z\xe9ro\n", 6),
    (CONFIG + "# \xff", 6)], ids=["comment", "value", "last-comment"])
def test_a_config_byte_that_is_not_utf8_exits_2(tmp_path, capsys, command,
                                                text, bad_line):
    # Latin-1 bytes: each names its own line, even in a comment
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(text.encode("latin-1"))
    rc = main([command, "--config", str(cfg),
               "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"medwave: error: {cfg}:{bad_line}: a byte that is "
                          f"not UTF-8 in ")
    assert "Traceback" not in err


def test_simulate_a_400_digit_sample_size_exits_2(tmp_path, capsys):
    # past 2^1024 a float root of n overflows; the integer root refuses it
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"q = 2\nsample_sizes = {10 ** 400 + 1}\n"
                   "error_dist = gaussian\n")
    rc = main(["simulate", "--config", str(cfg),
               "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "is not a perfect 2-th power" in capsys.readouterr().err


def test_simulate_a_perfect_power_too_large_to_build_exits_2(tmp_path, capsys):
    # 10^400 = (10^200)^2: an axis of 10^200 points cannot be built
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"q = 2\nsample_sizes = {10 ** 400}\n"
                   "error_dist = gaussian\n")
    rc = main(["simulate", "--config", str(cfg),
               "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "is (m+1)^2, but its n x 2 points are more floats than" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


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


# the benchmark's rate-study config (3 sizes x 30 Cauchy replications, db2)
# at one seed, and the sha256 of the rates.csv it gave before replications
# were fitted in stacks
STUDY_CONFIG = ("q = 2\nsample_sizes = 4096, 16384, 65536\n"
                "error_dist = cauchy\nreplications = 30\nwavelet = db2\n"
                "seed = 12345\n")
STUDY_RATES_SHA256 = \
    "003ce5162d8c9b215b1b32735dd2f88ec002c3ec0f20acdcadade70393f74134"


def test_rate_study_rates_bytes_are_unchanged(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(STUDY_CONFIG)
    outdir = tmp_path / "out"
    rc = main(["rate-study", "--config", str(cfg),
               "--output-dir", str(outdir)])
    capsys.readouterr()
    assert rc == 0
    digest = hashlib.sha256((outdir / "rates.csv").read_bytes()).hexdigest()
    assert digest == STUDY_RATES_SHA256


# a small config in the shape of the benchmark's simulate workload, and the
# sha256 of every file it wrote while each value went through
# format(x, ".17g") one at a time
SIMULATE_CONFIG = ("q = 2\nsample_sizes = 4096\nerror_dist = student_t:2\n"
                   "design_dist = cauchy\nbeta = 1, -0.5\nreplications = 2\n"
                   "seed = 2929\n")
SIMULATE_SHA256 = {
    "dataset_n4096_rep0.csv":
        "6133caa4fc8312b7c8a5f49d57fc52803d3ed49e46cbb50eaa8f281de4cf6aaa",
    "dataset_n4096_rep1.csv":
        "ee8949cea613c7d06be2de321d0ebb6acef06f501bcb658395cf2527c8a823cd",
    "truth_n4096.csv":
        "7a7557ac454913f091c41781c5c2fa369900bae3f2610ac0537b0e048bab3847",
}


def test_simulate_bytes_are_unchanged(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SIMULATE_CONFIG)
    outdir = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg),
               "--output-dir", str(outdir)])
    capsys.readouterr()
    assert rc == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in outdir.iterdir()}
    assert digests == SIMULATE_SHA256


# the same config with a second, smaller size, and the sha256 of the files of
# that size as the serial loop wrote them
TWO_SIZE_CONFIG = SIMULATE_CONFIG.replace("sample_sizes = 4096",
                                          "sample_sizes = 4096, 1089")
TWO_SIZE_SHA256 = dict(SIMULATE_SHA256, **{
    "dataset_n1089_rep0.csv":
        "4756cb082977716c2c70044f5b3080f46ef6e928f8c1269417eb2308a6214ea7",
    "dataset_n1089_rep1.csv":
        "747911ab64044abcab5eae89dff978ed40c614550c476abc43405ae12aef55bd",
    "truth_n1089.csv":
        "ef46da208da5f10403911e5130394d69b9ae005a1d4b7e0d06db76083013a4d6",
})


def test_simulate_bytes_hold_under_fast_thread_switching(tmp_path, capsys):
    # the helper draws the next replication into one buffer while this
    # thread writes the other; the buffers are viewed in a new shape when
    # the size changes. Paths print in the order the serial loop printed
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(TWO_SIZE_CONFIG)
    outdir = tmp_path / "out"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rc = main(["simulate", "--config", str(cfg),
                   "--output-dir", str(outdir)])
    finally:
        sys.setswitchinterval(interval)
    assert rc == 0
    order = ["dataset_n4096_rep0.csv", "truth_n4096.csv",
             "dataset_n4096_rep1.csv", "dataset_n1089_rep0.csv",
             "truth_n1089.csv", "dataset_n1089_rep1.csv"]
    assert capsys.readouterr().out \
        == "".join(f"{outdir / name}\n" for name in order)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in outdir.iterdir()}
    assert digests == TWO_SIZE_SHA256


def recorded_draws(monkeypatch):
    """The (thread, n) of every finished draw of a replication's y."""
    from medwave import simulate

    drawn = []
    responses = simulate._SizeContext.responses

    def recording(ctx, rng, out=None):
        y = responses(ctx, rng, out=out)
        drawn.append((threading.get_ident(), ctx.n))
        return y

    monkeypatch.setattr(simulate._SizeContext, "responses", recording)
    return drawn


def test_simulate_draws_on_one_helper_thread(tmp_path, capsys, monkeypatch):
    drawn = recorded_draws(monkeypatch)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(TWO_SIZE_CONFIG.replace("replications = 2",
                                           "replications = 3"))
    threads = threading.active_count()
    assert main(["simulate", "--config", str(cfg),
                 "--output-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert [n for _, n in drawn] == [4096] * 3 + [1089] * 3
    helpers = {t for t, _ in drawn}
    assert len(helpers) == 1 and threading.get_ident() not in helpers
    assert threading.active_count() == threads


def test_simulate_write_error_waits_for_the_draw_in_flight(tmp_path, capsys,
                                                          monkeypatch):
    # replication 1's path is a directory: its write fails while the helper
    # draws replication 2, which runs to its end; nothing after it is drawn
    drawn = recorded_draws(monkeypatch)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SIMULATE_CONFIG.replace("replications = 2",
                                           "replications = 4"))
    outdir = tmp_path / "out"
    (outdir / "dataset_n4096_rep1.csv").mkdir(parents=True)
    threads = threading.active_count()
    rc = main(["simulate", "--config", str(cfg), "--output-dir", str(outdir)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "medwave: i/o error:" in captured.err
    assert captured.out == "".join(
        f"{outdir / name}\n"
        for name in ("dataset_n4096_rep0.csv", "truth_n4096.csv"))
    assert len(drawn) == 3
    assert threading.active_count() == threads


def test_rate_study_rejects_insufficient_config(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("q = 1\nsample_sizes = 256, 1024\nreplications = 10\n"
                   "error_dist = gaussian\n")
    rc = main(["rate-study", "--config", str(cfg),
               "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_rate_study_refuses_an_undefined_slope(tmp_path, capsys):
    # a repeated size or a zero mean MISE exits 2 and writes no rates.csv,
    # not slope = nan under exit 0
    cfg = tmp_path / "exp.cfg"
    outdir = tmp_path / "out"
    for text, cause in (
            ("sample_sizes = 4096, 4096, 16384\nerror_dist = gaussian\n",
             "4096 is repeated"),
            ("sample_sizes = 256, 1024, 4096\nerror_dist = gaussian:0\n"
             "test_function = zero\n", "mean MISE is 0 at n=256")):
        cfg.write_text("q = 1\nreplications = 10\n" + text)
        rc = main(["rate-study", "--config", str(cfg),
                   "--output-dir", str(outdir)])
        assert rc == 2
        assert cause in capsys.readouterr().err
        assert not (outdir / "rates.csv").exists()


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


def test_coupling_check_negative_seed_exits_2(capsys):
    assert main(["coupling-check", "--error-dist", "gaussian",
                 "--seed", "-1"]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


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
    # through a star import. Every name in a submodule's __all__ exists,
    # and every package export is in the __all__ of the module defining it;
    # no export is a submodule, which a star import would bind over a
    # caller's own name (``grid``, ``errors``)
    code = (
        "import importlib, pkgutil, sys, types\n"
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
        "mods = [importlib.import_module('medwave.' + m.name)\n"
        "        for m in pkgutil.iter_modules(medwave.__path__)]\n"
        "for mod in mods:\n"
        "    for name in getattr(mod, '__all__', ()):\n"
        "        assert hasattr(mod, name), (mod.__name__, name)\n"
        "for name in medwave.__all__:\n"
        "    obj = getattr(medwave, name)\n"
        "    assert not isinstance(obj, types.ModuleType), name\n"
        "    home = getattr(obj, '__module__', None)\n"
        "    homes = [m for m in mods if m.__name__ == home] or [\n"
        "        m for m in mods if vars(m).get(name) is obj]\n"
        "    listed = any(name in getattr(m, '__all__', ()) for m in homes)\n"
        "    assert listed, (name, home)\n"
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

"""CSV round-trips and the key = value experiment config dialect."""

import io
import math
import os
import shutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from medwave.config import emit_config, parse_config, parse_config_text
from medwave.dataio import (
    RowTemplate,
    _parse_lines,
    read_estimate_csv,
    read_grid_csv,
    write_dataset_csv,
    write_estimate_csv,
    write_rows,
)
from medwave.errors import (
    BadValue,
    HeaderMismatch,
    ParseError,
    ShapeMismatch,
    UnknownKey,
)
from medwave.grid import product_grid
from medwave.simulate import DesignDist, ErrorDist, SimulationConfig

AWKWARD = np.array([1.0 / 3.0, math.pi, -1.2345678901234567e-8,
                    1e300, 1e-300, -0.0, 2.0 ** -52, 123456789.123456789])


# ---------------------------------------------------------------------------
# dataset files
# ---------------------------------------------------------------------------

def test_dataset_round_trip_exact(tmp_path):
    path = tmp_path / "d.csv"
    u = np.column_stack([AWKWARD % 1.0, (AWKWARD * 7) % 1.0])
    write_dataset_csv(path, u, AWKWARD)
    u2, y2 = read_grid_csv(path)
    assert np.array_equal(u2, u)
    assert np.array_equal(y2, AWKWARD)


def test_dataset_file_layout(tmp_path):
    path = tmp_path / "d.csv"
    write_dataset_csv(path, np.array([[0.0, 0.5], [1.0, 0.25]]),
                      np.array([1.5, -2.0]))
    raw = path.read_bytes()
    assert raw == b"u1,u2,y\n0,0.5,1.5\n1,0.25,-2\n"
    # byte-deterministic rewrite
    write_dataset_csv(path, np.array([[0.0, 0.5], [1.0, 0.25]]),
                      np.array([1.5, -2.0]))
    assert path.read_bytes() == raw


def test_dataset_accepts_1d_u(tmp_path):
    path = tmp_path / "d.csv"
    write_dataset_csv(path, np.array([0.0, 0.5, 1.0]),
                      np.array([1.0, 2.0, 3.0]))
    u, y = read_grid_csv(path)
    assert u.shape == (3, 1)
    assert np.array_equal(y, [1.0, 2.0, 3.0])


def test_dataset_skips_blank_lines(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("u1,y\n0,1\n\n0.5,2\n   \n1,3\n")
    u, y = read_grid_csv(path)
    assert np.array_equal(y, [1.0, 2.0, 3.0])


def test_dataset_header_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(HeaderMismatch):
        read_grid_csv(empty)
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n0,1\n")
    with pytest.raises(HeaderMismatch):
        read_grid_csv(bad)
    fhat = tmp_path / "f.csv"
    fhat.write_text("u1,fhat\n0,1\n")       # estimate header on dataset read
    with pytest.raises(HeaderMismatch):
        read_grid_csv(fhat)


def test_dataset_row_errors_name_the_line(tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("u1,u2,y\n0,0.5,1\n0.25,2\n")
    with pytest.raises(ParseError) as exc:
        read_grid_csv(short)
    assert f"{short}:3:" in str(exc.value)
    words = tmp_path / "words.csv"
    words.write_text("u1,y\n0,1\n0.5,two\n")
    with pytest.raises(ParseError) as exc:
        read_grid_csv(words)
    assert f"{words}:3:" in str(exc.value)
    headeronly = tmp_path / "h.csv"
    headeronly.write_text("u1,y\n")
    with pytest.raises(ParseError):
        read_grid_csv(headeronly)


def test_dataset_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_grid_csv(tmp_path / "nope.csv")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("body", ["", "\n", "\r\n\n", "  \n"])
def test_header_only_file_raises_without_warning(tmp_path, body):
    path = tmp_path / "h.csv"
    path.write_bytes(("u1,u2,y\n" + body).encode())
    with pytest.raises(ParseError) as exc:
        read_grid_csv(path)
    assert "no data rows" in str(exc.value)


# ---------------------------------------------------------------------------
# the whole-body parse against the line parser
# ---------------------------------------------------------------------------

def line_parser(path):
    """The reference: the header's width, then every body line parsed on
    its own."""
    with open(path, encoding="utf-8", newline="") as fh:
        q = fh.readline().count(",")
        return _parse_lines(fh, path, q)


FLOAT_FORMATS = ("%.17g", "%r", "%.6g", "%.20e")
SPECIAL_FIELDS = ("nan", "-nan", "NaN", "inf", "-inf", "+inf", "-Infinity",
                  "1e5", "+.5", "5.", "-0", " 1 ", "\t2")
BAD_FIELDS = ("1_000", "\u0661", "two", "", "#", '"1"', "\x00", "0x10",
              "1d5", "1 2")
LINE_ENDS = ("\n", "\r\n", "\r")
BLANK_LINES = ("", "  ", "\t", " \t ", "\x0c", "\xa0", "\v ")


@st.composite
def csv_bodies(draw):
    """(q, body): rows of a drawn width (mostly q+1) and blank or
    whitespace-only lines, in half the bodies mixed with short, long,
    odd-field and trailing-comma lines."""
    q = draw(st.integers(1, 3))
    width = draw(st.sampled_from((q + 1,) * 8 + (q, q + 2)))
    value = st.tuples(st.sampled_from(FLOAT_FORMATS), st.floats()).map(
        lambda fx: fx[0] % fx[1]) | st.sampled_from(SPECIAL_FIELDS)
    row = st.lists(value, min_size=width, max_size=width)
    odd = st.one_of(
        st.sampled_from(("  ", "\t", " \t ")),
        st.lists(value, min_size=1, max_size=q + 3).map(",".join),
        st.tuples(row, st.integers(0, width - 1),
                  st.sampled_from(BAD_FIELDS)).map(
            lambda r: ",".join(r[0][:r[1]] + [r[2]] + r[0][r[1] + 1:])),
        row.map(lambda r: ",".join(r) + ","),
    )
    line = row.map(",".join) | st.sampled_from(BLANK_LINES)
    if draw(st.booleans()):
        line = line | odd
    lines = draw(st.lists(line, max_size=12))
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(lines),
                         max_size=len(lines)))
    body = "".join(line + end for line, end in zip(lines, ends))
    if body and draw(st.booleans()):
        body = body.rstrip("\r\n")
    return q, body


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_bodies())
@example((1, "0,1\n0.5,2\n"))
@example((1, "0,1,7\n0.5,2,8\n"))          # every row one field too long
@example((2, "0,1\n0.5,2\n"))              # every row one field short
@example((1, "0,1\n\n  \n0.5,1_000\r"))
@example((1, "0,1\n   \n0.5,2\n   "))      # whitespace-only lines, else valid
@example((2, "\t\r\n0,0,1\r\n \x0c\r0,1,2\r\n"))
def test_body_parse_matches_line_parser(tmp_path, case):
    q, body = case
    path = tmp_path / "d.csv"
    header = ",".join([f"u{i}" for i in range(1, q + 1)] + ["y"])
    path.write_bytes((header + "\n" + body).encode("utf-8"))
    try:
        expected = line_parser(path)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            read_grid_csv(path)
        assert str(got.value) == str(exc)
        assert str(got.value).startswith(f"{path}:")
        return
    u, y = read_grid_csv(path)
    assert u.shape == expected[0].shape and y.shape == expected[1].shape
    assert np.array_equal(u.view(np.uint64), expected[0].view(np.uint64))
    assert np.array_equal(y.view(np.uint64), expected[1].view(np.uint64))


def assert_bits_equal(got, expected):
    for a, b in zip(got, expected):
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.fixture
def loadtxt_sources(monkeypatch):
    """Record what each np.loadtxt call reads, fail any call that would
    hand numpy a URL, and fail if the line parser runs."""
    sources = []
    real = np.loadtxt

    def spy(source, *args, **kwargs):
        assert not (isinstance(source, str) and "://" in source)
        sources.append(source)
        return real(source, *args, **kwargs)

    def no_line_parser(*args):
        raise AssertionError("the line parser ran")

    monkeypatch.setattr(np, "loadtxt", spy)
    monkeypatch.setattr("medwave.dataio._parse_lines", no_line_parser)
    return sources


def test_block_read_matches_line_parser(tmp_path, loadtxt_sources):
    """A body far beyond numpy's read block, read from the path: a CRLF
    straddles every multiple of 8 KiB, and a lone CR ends the line just
    before every odd multiple of 4 KiB."""
    rng = np.random.default_rng(16)
    fields = ["%.17g" % x for x in rng.standard_cauchy(3 * 6000)]
    rows = [",".join(fields[i:i + 3]) for i in range(0, len(fields), 3)]
    widest = max(map(len, rows))
    text, edge = "u1,u2,y\n", 4096
    for k, row in enumerate(rows):
        gap = edge - 1 - len(text)
        if gap < len(row) + widest + 2:     # the last row before the edge
            row = " " * (gap - len(row)) + row
            text += row + ("\r\n" if edge % 8192 == 0 else "\r")
            edge += 4096
        else:
            text += row + LINE_ENDS[k % 3]
    assert len(text) >= 256 * 1024
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    assert_bits_equal(read_grid_csv(path), line_parser(path))
    assert loadtxt_sources == [str(path)]
    assert text[8191:8193] == "\r\n" and text[4095] == "\r"


PATH_KINDS = ("str", "Path", "bytes", "d.csv.gz", "d.csv.bz2", "d.csv.xz",
              "d.csv.lzma", "http://host/d.csv")


@pytest.mark.parametrize("kind", PATH_KINDS)
def test_every_kind_of_path_reads_the_same(tmp_path, monkeypatch, kind,
                                           loadtxt_sources):
    """Plain text under any name: numpy must not decompress it or
    download it."""
    body = ("u1,u2,y\n0,0,1.5\r\n0,1,-2e-300\r1,0,nan\n"
            "1,1,0.30000000000000004\n")
    monkeypatch.chdir(tmp_path)
    plain = tmp_path / "plain.csv"
    plain.write_bytes(body.encode())
    expected = line_parser(plain)
    if kind in ("str", "Path", "bytes"):
        path = {"str": str(plain), "Path": plain,
                "bytes": os.fsencode(plain)}[kind]
    else:
        os.makedirs(os.path.dirname(kind) or ".", exist_ok=True)
        shutil.copy(plain, kind)
        path = kind
    assert_bits_equal(read_grid_csv(path), expected)
    assert isinstance(loadtxt_sources[0], str) == (kind in ("str", "Path"))


def read_through_pipe(data: bytes):
    """``read_grid_csv`` of ``/dev/fd/N``, N the read end of a pipe that
    holds ``data`` (which must fit in the pipe's buffer)."""
    r, w = os.pipe()
    try:
        os.write(w, data)
        os.close(w)
        return read_grid_csv(f"/dev/fd/{r}")
    finally:
        os.close(r)


@pytest.mark.parametrize("rows", [4, 1500])
def test_pipe_reads_like_the_file(tmp_path, loadtxt_sources, rows):
    # 1500 rows (about 50 KB) outlast what the header read buffers, which a
    # second open of the pipe's path would lose
    u = product_grid(np.arange(rows) / (rows - 1), 1)
    y = np.random.default_rng(rows).standard_cauchy(rows)
    path = tmp_path / "d.csv"
    write_dataset_csv(path, u, y)
    if rows > 4:
        assert 8192 < path.stat().st_size < 65536
    assert_bits_equal(read_through_pipe(path.read_bytes()),
                      read_grid_csv(path))
    assert not isinstance(loadtxt_sources[0], str)


def test_pipe_body_refused_by_loadtxt_reads_line_by_line(tmp_path):
    # a whitespace-only line sends the body to the line parser, which must
    # not seek back in the pipe
    body = b"u1,u2,y\n0,0,1.5\n \n0,1,-2\n1,0,3\n1,1,4\n"
    path = tmp_path / "d.csv"
    path.write_bytes(body)
    assert_bits_equal(read_through_pipe(body), line_parser(path))
    with pytest.raises(ParseError) as exc:
        read_through_pipe(body.replace(b"0,1,-2", b"0,1,two"))
    assert str(exc.value).startswith("/dev/fd/") \
        and ":4: non-numeric field" in str(exc.value)


@pytest.mark.parametrize("where", ["body", "header"])
def test_non_utf8_byte_is_a_medwave_error(tmp_path, where):
    path = tmp_path / "d.csv"
    if where == "body":
        path.write_bytes(b"u1,y\n0,1\n0.5,2\xff\n1,3\n")
        with pytest.raises(ParseError) as exc:
            read_grid_csv(path)
        assert str(exc.value).startswith(f"{path}:3: non-numeric field")
    else:
        path.write_bytes(b"u1,\xffy\n0,1\n")
        with pytest.raises(HeaderMismatch) as exc:
            read_grid_csv(path)
        assert str(exc.value).startswith(f"{path}: header")


# ---------------------------------------------------------------------------
# the chunked writer against formatting every field
# ---------------------------------------------------------------------------

def rows_oracle(u, values, value_column):
    """The per-row writer: each field through format(x, ".17g")."""
    q = u.shape[1]
    out = [",".join([f"u{i}" for i in range(1, q + 1)] + [value_column])]
    for row, v in zip(u, values):
        out.append(",".join([format(float(c), ".17g") for c in row]
                            + [format(float(v), ".17g")]))
    return "".join(line + "\n" for line in out)


SPECIAL_VALUES = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                           np.inf, -np.inf, np.nan, 1.7976931348623157e308])


def assert_rows_match_oracle(rows, u, values):
    """write_rows(rows, values) equals the per-field oracle, line by line."""
    out = io.StringIO()
    write_rows(out, rows, values, "y")
    got = out.getvalue().split("\n")
    want = rows_oracle(u, values, "y").split("\n")
    diff = [(i, a, b) for i, (a, b) in enumerate(zip(got, want)) if a != b]
    assert len(got) == len(want) and not diff, diff[:1]


@pytest.mark.parametrize("rows", [0, 1, 8191, 8192, 8193])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_write_rows_matches_per_field_format(q, rows):
    rng = np.random.default_rng(1000 * q + rows)
    table = rng.integers(0, 2 ** 64, size=(rows, q + 2),
                         dtype=np.uint64).view(np.float64)
    if rows:
        at = rng.integers(0, table.size, size=len(SPECIAL_VALUES))
        table.ravel()[at] = SPECIAL_VALUES
        table.ravel()[:min(table.size, len(AWKWARD))] = AWKWARD[:table.size]
    u = table[:, :q]
    assert_rows_match_oracle(u, u, table[:, q])
    # one template, filled with two value vectors
    template = RowTemplate(u)
    for values in (table[:, q], table[:, q + 1]):
        assert_rows_match_oracle(template, u, values)


@pytest.mark.parametrize("rows", [8191, 8192, 8193])
def test_row_template_keys_coordinates_on_their_bits(rows):
    # -0.0 and 0.0 compare equal but print apart; NaN payloads differ in
    # bits but print alike; every coordinate repeats across blocks
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000000],
                    dtype=np.uint64).view(np.float64)
    first = np.array([-0.0, 0.0, nans[0], 0.25, nans[1], 0.0, -0.0])
    second = np.array([0.0, 0.5, -0.0, nans[1], 1.0])
    u = np.column_stack([np.resize(first, rows), np.resize(second, rows)])
    rng = np.random.default_rng(rows)
    template = RowTemplate(u)
    for values in (rng.standard_cauchy(rows), np.resize(first, rows)):
        assert_rows_match_oracle(template, u, values)


def test_row_template_build_holds_one_block_at_a_time():
    # 256^2 points at q = 2, the size of one simulate_csv dataset
    u = product_grid(np.arange(256) / 255, 2)
    tracemalloc.start()
    try:
        template = RowTemplate(u)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(template.blocks) == 8
    assert peak <= 3 * retained, (peak, retained)


def test_write_rows_rejects_values_of_another_length():
    template = RowTemplate(np.zeros((4, 2)))
    for values in (np.zeros(3), np.zeros((4, 1))):
        with pytest.raises(ShapeMismatch):
            write_rows(io.StringIO(), template, values, "y")


# ---------------------------------------------------------------------------
# estimate files
# ---------------------------------------------------------------------------

def test_estimate_round_trip_exact(tmp_path):
    path = tmp_path / "e.csv"
    table = np.column_stack([(AWKWARD * 3) % 1.0, AWKWARD])
    write_estimate_csv(path, table)
    coords, fhat = read_estimate_csv(path)
    assert np.array_equal(coords, table[:, :1])
    assert np.array_equal(fhat, table[:, 1])
    assert path.read_text().startswith("u1,fhat\n")


def test_estimate_shape_validation(tmp_path):
    path = tmp_path / "e.csv"
    with pytest.raises(BadValue):
        write_estimate_csv(path, np.zeros(4))
    with pytest.raises(BadValue):
        write_estimate_csv(path, np.zeros((4, 1)))


def test_estimate_matches_pipeline_table(tmp_path):
    from medwave.estimator import evaluate_on_grid, fit
    rng = np.random.default_rng(0)
    n = 256
    u = np.arange(n, dtype=float) / (n - 1)
    res = fit(u, rng.standard_normal(n))
    table = evaluate_on_grid(res)
    path = tmp_path / "e.csv"
    write_estimate_csv(path, table)
    coords, fhat = read_estimate_csv(path)
    assert np.array_equal(coords, table[:, :1])
    assert np.array_equal(fhat, res.f_hat.ravel())


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

MINIMAL = "q = 1\nsample_sizes = 1024\nerror_dist = gaussian\n"


def test_minimal_config_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.q == 1
    assert cfg.sample_sizes == (1024,)
    assert cfg.error_dist == ErrorDist("gaussian", 1.0)
    assert cfg.replications == 1
    assert cfg.seed == 0
    assert cfg.test_function == "sine_product"
    assert cfg.design_dist is None
    assert cfg.beta == ()
    assert cfg.u0 is None
    assert cfg.estimator.wavelet == "db4"
    assert cfg.estimator.j0 is None
    assert cfg.estimator.block_cardinality is None
    assert cfg.estimator.noise_mode == "estimate"


def test_comments_and_blank_lines():
    text = ("# experiment\n\nq = 1   # dimension\n"
            "sample_sizes = 256, 1024\nerror_dist = laplace:2.0\n\n")
    cfg = parse_config_text(text)
    assert cfg.sample_sizes == (256, 1024)
    assert cfg.error_dist == ErrorDist("laplace", 2.0)


def test_full_config():
    text = (
        "q = 2\n"
        "sample_sizes = 4096, 16384\n"
        "replications = 25\n"
        "seed = 7\n"
        "error_dist = student_t:3\n"
        "test_function = blocks\n"
        "design_dist = cauchy\n"
        "beta = 1.5, -0.5\n"
        "wavelet = haar\n"
        "j0 = 2\n"
        "block_cardinality = 8\n"
        "noise_mode = known:2.5\n"
        "u0 = 0.3, 0.7\n"
    )
    cfg = parse_config_text(text)
    assert cfg.q == 2
    assert cfg.replications == 25
    assert cfg.seed == 7
    assert cfg.error_dist == ErrorDist("student_t", nu=3.0)
    assert cfg.test_function == "blocks"
    assert cfg.design_dist == DesignDist("cauchy", np.eye(2))
    assert cfg.beta == (1.5, -0.5)
    assert cfg.estimator.wavelet == "haar"
    assert cfg.estimator.j0 == 2
    assert cfg.estimator.block_cardinality == 8
    assert cfg.estimator.noise_mode == "known"
    assert cfg.estimator.known_h_inv_sq == 2.5
    assert cfg.u0 == (0.3, 0.7)


def test_p_without_beta_gives_zero_beta():
    cfg = parse_config_text(MINIMAL + "p = 3\ndesign_dist = gaussian\n")
    assert cfg.beta == (0.0, 0.0, 0.0)
    assert cfg.design_dist.p == 3


def test_config_line_errors():
    with pytest.raises(ParseError) as exc:
        parse_config_text(MINIMAL + "just words\n", source="exp.cfg")
    assert "exp.cfg:4:" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_config_text(MINIMAL + "q = 2\n")
    assert ":4: duplicate" in str(exc.value)
    with pytest.raises(UnknownKey):
        parse_config_text(MINIMAL + "bandwidth = 3\n")


def test_config_required_keys():
    with pytest.raises(BadValue):
        parse_config_text("q = 1\nsample_sizes = 1024\n")
    with pytest.raises(BadValue):
        parse_config_text("q = 1\nerror_dist = gaussian\n")
    with pytest.raises(BadValue):
        parse_config_text("sample_sizes = 1024\nerror_dist = gaussian\n")


def test_config_value_errors():
    base = "q = 1\nsample_sizes = 1024\n"
    with pytest.raises(BadValue):
        parse_config_text(base + "error_dist = uniform\n")
    with pytest.raises(BadValue):
        parse_config_text(base + "error_dist = student_t\n")
    with pytest.raises(BadValue):
        parse_config_text(base + "error_dist = shifted_exponential:2\n")
    with pytest.raises(BadValue):
        parse_config_text(base + "error_dist = gaussian:abc\n")
    with pytest.raises(BadValue):
        parse_config_text(MINIMAL + "replications = 0\n")
    with pytest.raises(BadValue):
        parse_config_text(MINIMAL + "j0 = two\n")
    with pytest.raises(BadValue):
        parse_config_text(MINIMAL + "beta = 1.0\n")         # no design
    with pytest.raises(BadValue):
        parse_config_text(
            MINIMAL + "design_dist = none\nbeta = 1.0\n")
    with pytest.raises(BadValue):
        parse_config_text(
            MINIMAL + "p = 3\nbeta = 1.0\ndesign_dist = gaussian\n")
    with pytest.raises(BadValue):
        parse_config_text(MINIMAL + "noise_mode = known\n")
    with pytest.raises(BadValue):
        parse_config_text(MINIMAL + "noise_mode = estimate:1\n")
    for value in ("inf", "1e400"):
        with pytest.raises(BadValue):
            parse_config_text(MINIMAL + f"noise_mode = known:{value}\n")
    with pytest.raises(BadValue):
        parse_config_text(MINIMAL + "u0 = 0.3, 0.7\n")      # wrong length
    with pytest.raises(BadValue):
        parse_config_text("q = 1\nsample_sizes = ten\nerror_dist = gaussian\n")


def test_parse_config_from_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(MINIMAL)
    cfg = parse_config(path)
    assert cfg.sample_sizes == (1024,)
    bad = tmp_path / "bad.cfg"
    bad.write_text(MINIMAL + "???\n")
    with pytest.raises(ParseError) as exc:
        parse_config(bad)
    assert str(bad) in str(exc.value)


# ---------------------------------------------------------------------------
# config emission
# ---------------------------------------------------------------------------

def test_emit_parse_round_trip_minimal():
    cfg = parse_config_text(MINIMAL)
    assert parse_config_text(emit_config(cfg)) == cfg


def test_emit_parse_round_trip_full():
    cfg = SimulationConfig(
        q=2, sample_sizes=(4096, 65536), error_dist=ErrorDist("cauchy", 0.5),
        replications=30, seed=11, test_function="blocks",
        design_dist=DesignDist("student_t", np.eye(2), nu=2.5),
        beta=(0.25, -1.0), u0=(0.3, 0.7))
    assert parse_config_text(emit_config(cfg)) == cfg


def test_emit_rejects_general_covariance():
    cfg = SimulationConfig(
        q=1, sample_sizes=(1024,), error_dist=ErrorDist("gaussian", 1.0),
        design_dist=DesignDist("gaussian", np.array([[2.0, 0.0], [0.0, 1.0]])),
        beta=(1.0, 2.0))
    with pytest.raises(BadValue):
        emit_config(cfg)

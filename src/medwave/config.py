"""Simulation config files: plain ``key = value`` text.

One pair per line; ``#`` starts a comment and blank lines are ignored.
Recognized keys (all others raise UnknownKey):

    q                  dimension (int >= 1)                         required
    sample_sizes       comma list of ints, each a perfect q-th power required
    error_dist         kind[:param], see below                      required
    replications       int >= 1                        (default 1)
    test_function      sine_product | blocks | zero    (default sine_product)
    design_dist        none | gaussian | student_t:NU | cauchy | laplace
                                                       (default none)
    p                  design dimension                (default len(beta))
    beta               comma list of floats            (default empty)
    seed               int >= 0                        (default 0)
    wavelet            haar | db2 | db4                (default db4)
    j0                 int, empty for filter default   (default empty)
    block_cardinality  int >= 1, empty for floor(ln n) (default empty)
    noise_mode         estimate | known:VALUE          (default estimate)
    u0                 comma list of q floats in [0,1] (default empty)

Distribution parameters: ``gaussian``/``cauchy``/``laplace`` take an
optional ``:scale`` (default 1.0); ``student_t`` requires ``:nu``;
``shifted_exponential`` takes none, and both are at scale 1. Design
covariances are the identity ``p x p`` matrix (the library API accepts
arbitrary SPD matrices and scales; the file format deliberately does not).
"""

from __future__ import annotations

import numpy as np

from .dataio import _fmt
from .errors import BadValue, ParseError, UnknownKey
from .estimator import EstimatorConfig, _parse_noise_mode
from .simulate import DesignDist, ErrorDist, SimulationConfig

__all__ = ["parse_config", "parse_config_text", "emit_config"]


_CONFIG_KEYS = (
    "q", "p", "beta", "design_dist", "error_dist", "test_function",
    "sample_sizes", "replications", "seed", "wavelet", "j0",
    "block_cardinality", "noise_mode", "u0",
)


def _parse_kind_param(text: str, key: str):
    """Split 'kind[:param]' into (kind, float param or None)."""
    if ":" in text:
        kind, _, param = text.partition(":")
        try:
            return kind.strip(), float(param)
        except ValueError:
            raise BadValue(f"{key}: bad numeric parameter in {text!r}") from None
    return text.strip(), None


def _parse_error_dist(text: str) -> ErrorDist:
    kind, param = _parse_kind_param(text, "error_dist")
    if kind == "student_t":
        if param is None:
            raise BadValue("error_dist student_t requires :nu")
        return ErrorDist(kind="student_t", nu=param)
    if kind == "shifted_exponential":
        if param is not None:
            raise BadValue("error_dist shifted_exponential takes no parameter")
        return ErrorDist(kind="shifted_exponential")
    if kind in ("gaussian", "cauchy", "laplace"):
        return ErrorDist(kind=kind, scale=1.0 if param is None else param)
    raise BadValue(f"unknown error_dist kind {kind!r}")


def _parse_design_dist(text: str, p: int):
    kind, param = _parse_kind_param(text, "design_dist")
    if kind == "none":
        if param is not None:
            raise BadValue("design_dist none takes no parameter")
        return None
    if p < 1:
        raise BadValue("design_dist requires p >= 1 (set p or beta)")
    sigma = np.eye(p)
    if kind == "student_t":
        if param is None:
            raise BadValue("design_dist student_t requires :nu")
        return DesignDist(kind="student_t", sigma=sigma, nu=param)
    if kind in ("gaussian", "cauchy", "laplace"):
        if param is not None:
            raise BadValue(f"design_dist {kind} takes no parameter")
        return DesignDist(kind=kind, sigma=sigma)
    raise BadValue(f"unknown design_dist kind {kind!r}")


def _int_value(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise BadValue(f"{key}: expected an integer, got {text!r}") from None


def _float_list(key: str, text: str):
    if not text:
        return ()
    try:
        return tuple(float(v.strip()) for v in text.split(","))
    except ValueError:
        raise BadValue(f"{key}: expected comma-separated floats, got {text!r}") \
            from None


def parse_config_text(text: str, source: str = "<config>") -> SimulationConfig:
    """Parse config file content into a :class:`SimulationConfig`.

    Raises UnknownKey for any key outside the documented set, BadValue
    naming the key of a malformed or out-of-range value, and ParseError
    for lines that are not ``key = value``.
    """
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"{source}:{lineno}: expected 'key = value', "
                             f"got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise UnknownKey(f"{source}:{lineno}: unknown config key {key!r}")
        if key in raw:
            raise ParseError(f"{source}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    for required in ("q", "sample_sizes", "error_dist"):
        if required not in raw or not raw[required]:
            raise BadValue(f"config requires key {required!r}")
    q = _int_value("q", raw["q"])
    beta = _float_list("beta", raw.get("beta", ""))
    p = _int_value("p", raw["p"]) if raw.get("p") else len(beta)
    if beta and p != len(beta):
        raise BadValue(f"p={p} does not match beta of length {len(beta)}")
    if p and not beta:
        beta = (0.0,) * p
    design = _parse_design_dist(raw.get("design_dist", "none"), p)
    error = _parse_error_dist(raw["error_dist"])
    try:
        sample_sizes = tuple(
            int(v.strip()) for v in raw["sample_sizes"].split(",")
        )
    except ValueError:
        raise BadValue(
            f"sample_sizes: expected comma-separated ints, got "
            f"{raw['sample_sizes']!r}"
        ) from None
    j0 = raw.get("j0", "")
    block = raw.get("block_cardinality", "")
    estimator = EstimatorConfig(
        wavelet=raw.get("wavelet", "db4") or "db4",
        j0=_int_value("j0", j0) if j0 else None,
        block_cardinality=_int_value("block_cardinality", block) if block else None,
        known_h_inv_sq=_parse_noise_mode(raw.get("noise_mode") or "estimate",
                                         "noise_mode"),
    )
    u0_text = raw.get("u0", "")
    u0 = _float_list("u0", u0_text) if u0_text else None
    return SimulationConfig(
        q=q,
        sample_sizes=sample_sizes,
        error_dist=error,
        replications=_int_value("replications", raw.get("replications", "1")),
        test_function=raw.get("test_function", "sine_product") or "sine_product",
        design_dist=design,
        beta=beta,
        seed=_int_value("seed", raw.get("seed", "0")),
        estimator=estimator,
        u0=u0,
    )


def parse_config(path) -> SimulationConfig:
    """Parse a config file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=str(path))


def _emit_dist(dist) -> str:
    if dist is None:
        return "none"
    if dist.kind == "student_t":
        return f"student_t:{_fmt(dist.nu)}"
    if dist.kind == "shifted_exponential":
        return "shifted_exponential"
    if isinstance(dist, ErrorDist):
        return f"{dist.kind}:{_fmt(dist.scale)}"
    return dist.kind


def emit_config(config: SimulationConfig) -> str:
    """Canonical config text; parse_config_text(emit_config(c)) == c.

    Raises BadValue if the config uses features the file format cannot
    express: a non-identity design covariance, a scale other than 1 on
    student_t or shifted_exponential errors, or shrinkage or the bias
    correction switched off.
    """
    if config.design_dist is not None and not np.array_equal(
        config.design_dist.sigma, np.eye(config.design_dist.p)
    ):
        raise BadValue("config files support identity design covariance only")
    error = config.error_dist
    if error.kind in ("student_t", "shifted_exponential") and error.scale != 1:
        raise BadValue(f"config files support {error.kind} errors at scale 1 "
                       f"only, got {error.scale}")
    est = config.estimator
    for key in ("shrinkage_enabled", "bias_correction"):
        if not getattr(est, key):
            raise BadValue(f"config files cannot write {key}=False")
    lines = [
        f"q = {config.q}",
        f"p = {len(config.beta)}",
        f"beta = {', '.join(_fmt(b) for b in config.beta)}",
        f"design_dist = {_emit_dist(config.design_dist)}",
        f"error_dist = {_emit_dist(config.error_dist)}",
        f"test_function = {config.test_function}",
        f"sample_sizes = {', '.join(str(n) for n in config.sample_sizes)}",
        f"replications = {config.replications}",
        f"seed = {config.seed}",
        f"wavelet = {est.wavelet}",
        f"j0 = {'' if est.j0 is None else est.j0}",
        f"block_cardinality = "
        f"{'' if est.block_cardinality is None else est.block_cardinality}",
    ]
    lines.append("noise_mode = estimate" if est.known_h_inv_sq is None
                 else f"noise_mode = known:{_fmt(est.known_h_inv_sq)}")
    lines.append(
        f"u0 = {', '.join(_fmt(v) for v in config.u0)}" if config.u0 else "u0 ="
    )
    return "\n".join(lines) + "\n"

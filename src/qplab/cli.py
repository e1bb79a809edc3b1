"""Command-line front end.

Subcommands: eval, scan, length-curve, di-fit, cf, badness, simdenom,
kronecker, dimension, verify. Exit codes: 0 success, 1 input error, 2 budget
exhaustion, 3 verification-suite failure. Every report embeds the resolved
configuration, and identical configurations produce byte-identical output.
"""
from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import get_args, get_type_hints

from mpmath import mp

from . import verify as verify_mod
from .almost_periods import (
    DEFAULT_MAX_GRID_POINTS,
    fit_exponent,
    inclusion_length,
    length_curve,
    sublevel_scan,
)
from .diophantine import (
    badness_score,
    best_simultaneous_denominator,
    cf_expand,
    kronecker_residuals,
    kronecker_solve,
)
from .dimension import dimension_fit, equivalence_constants, hull_dimension_report
from .errors import BudgetExceeded, ConfigError, QplabError
from .precision import golden_ratio, set_working_precision, sqrt2, sqrt3
from .reports import render_csv, render_json, write_text
from .signal import (
    evaluate,
    lipschitz_constant,
    parse_signal,
    suspected_rational_relation,
)

_CONSTANTS = {
    "phi": golden_ratio,
    "sqrt2": sqrt2,
    "sqrt3": sqrt3,
    "pi": lambda: mp.pi,
    "2pi": lambda: 2 * mp.pi,
}


@dataclass
class RunConfig:
    """Resolved options for one invocation; embedded verbatim in reports."""

    command: str
    signal: str | None = None
    eps: str | None = None
    window: str | None = None
    step: float | None = None
    t: float | None = None
    depth: int = 30
    x: str | None = None
    alpha: str | None = None
    delta: float | None = None
    qmax: int = 100000
    kappa: str | None = None
    tmax: float = 100.0
    grid: int = DEFAULT_MAX_GRID_POINTS
    seed: int = 7
    suite: str = "golden"
    initial_width: float | None = None
    min_hits: int = 5
    max_doublings: int = 20
    precision_bits: int | None = None
    out: str | None = None
    format: str = "json"

    def __post_init__(self):
        if self.command not in _COMMAND_TABLE:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.format not in _FLAG_CHOICES["format"]:
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        for name in ("depth", "qmax", "grid", "min_hits", "max_doublings"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        for name in ("step", "tmax", "initial_width"):
            if getattr(self, name) is not None and getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if kind is float and value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")


# field name -> int, float or str, from the annotations; drives both the flag
# types and the coercion of config-file values
_FIELD_TYPES = {
    name: next(t for t in get_args(hint) or (hint,) if t is not type(None))
    for name, hint in get_type_hints(RunConfig).items()
}


def parse_constant(token: str):
    """A number token: named constant, integer, p/q rational, or decimal literal."""
    token = token.strip()
    if token in _CONSTANTS:
        return _CONSTANTS[token]()
    if re.fullmatch(r"[+-]?[0-9]+", token):
        return int(token)
    if "/" in token:
        num, _, den = token.partition("/")
        try:
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad rational {token!r}") from exc
    try:
        value = mp.mpf(token)
    except ValueError as exc:
        raise ConfigError(f"bad number {token!r}") from exc
    if not mp.isfinite(value):
        raise ConfigError(f"number must be finite, got {token!r}")
    return value


def parse_constant_list(text: str) -> list:
    return [parse_constant(tok) for tok in text.split(",") if tok.strip()]


def parse_eps_spec(text: str) -> list[float]:
    """Either a comma list of strictly decreasing eps values or ``start:count:factor``."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError("eps range must be start:count:factor")
        try:
            start, count, factor = float(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ConfigError(f"bad eps range {text!r}") from exc
        if start <= 0 or count < 1 or factor <= 1:
            raise ConfigError("eps range needs start > 0, count >= 1, factor > 1")
        values = [start * factor**-k for k in range(count)]
    else:
        try:
            values = [float(tok) for tok in text.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad eps list {text!r}") from exc
        if not values:
            raise ConfigError("empty eps list")
        if any(b >= a for a, b in zip(values, values[1:])):
            raise ConfigError(f"eps list must be strictly decreasing, got {text!r}")
    if not all(0 < e < math.inf for e in values):
        raise ConfigError(f"eps values must be finite and positive, got {text!r}")
    return values


def parse_window_spec(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError("window must be lo:hi")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"bad window {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"window endpoints must be finite, got {text!r}")
    if hi <= lo:
        raise ConfigError("window must have positive width")
    return lo, hi


def read_config_file(path: str, command: str) -> dict:
    """Plain ``key = value`` lines with ``#`` comments; keys the command does
    not read are rejected."""
    known = _COMMAND_TABLE[command][2]
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in known:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r} for {command}")
            out[key] = value
    return out


def _coerce(key: str, value: str):
    try:
        return _FIELD_TYPES[key](value)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc


def build_config(args: argparse.Namespace) -> RunConfig:
    file_values = read_config_file(args.config, args.command) if args.config else {}
    kwargs: dict = {"command": args.command}
    for name in _COMMAND_TABLE[args.command][2]:
        if getattr(args, name) is not None:
            kwargs[name] = getattr(args, name)
        elif name in file_values:
            kwargs[name] = _coerce(name, file_values[name])
    return RunConfig(**kwargs)


def _parse_signal_checked(text: str):
    """Parse a signal literal; warn on stderr if a small integer relation
    between the exponents is detected (heuristic only, never certified)."""
    f = parse_signal(text)
    if f.n > 1 and f.n <= 4:
        relation = suspected_rational_relation(f.exponents)
        if relation is not None:
            print(
                f"warning: exponents admit a small integer relation {relation}; "
                "they may not be rationally independent",
                file=sys.stderr,
            )
    return f


def _require(config: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise ConfigError(f"{config.command} requires --{name.replace('_', '-')}")


def _emit(config: RunConfig, payload: dict, columns=None, rows=None) -> None:
    if config.format == "csv" and columns is not None:
        text = render_csv(columns, rows, header_comments=_flat_config(config))
    else:
        payload = dict(payload)
        payload["config"] = asdict(config)
        text = render_json(payload)
    write_text(text, config.out)


def _flat_config(config: RunConfig) -> dict:
    return {k: v for k, v in asdict(config).items() if v is not None}


def _cmd_eval(config: RunConfig) -> int:
    _require(config, "signal", "t")
    f = _parse_signal_checked(config.signal)
    if not all(math.isfinite(lam * config.t) for lam in f.exponents_float.tolist()):
        raise ConfigError(f"lambda_j * t overflows float64 at t = {config.t!r}")
    value = evaluate(f, config.t)
    payload = {
        "t": config.t,
        "re": value.real,
        "im": value.imag,
        "abs": abs(value),
    }
    _emit(config, payload, columns=("t", "re", "im", "abs"), rows=[payload])
    return 0


def _single_eps(config: RunConfig) -> float:
    eps_values = parse_eps_spec(config.eps)
    if len(eps_values) != 1:
        raise ConfigError(f"{config.command} takes a single eps")
    return eps_values[0]


def _cmd_scan(config: RunConfig) -> int:
    _require(config, "signal", "eps", "window")
    eps = _single_eps(config)
    window = parse_window_spec(config.window)
    f = _parse_signal_checked(config.signal)
    step = config.step if config.step is not None else eps / (4.0 * lipschitz_constant(f))
    scan = sublevel_scan(f, eps, window, step, max_grid_points=config.grid)
    L_lower, L_upper = inclusion_length(scan)
    payload = {
        "eps": eps,
        "window": list(scan.window),
        "step": scan.step,
        "inner": [list(iv) for iv in scan.inner],
        "outer": [list(iv) for iv in scan.outer],
        "L_lower": L_lower,
        "L_upper": L_upper,
    }
    rows = [{"kind": "inner", "lo": a, "hi": b} for a, b in scan.inner]
    rows += [{"kind": "outer", "lo": a, "hi": b} for a, b in scan.outer]
    _emit(config, payload, columns=("kind", "lo", "hi"), rows=rows)
    return 0


def _cmd_length_curve(config: RunConfig) -> int:
    """length-curve, and di-fit, which adds the growth-exponent fit."""
    _require(config, "signal", "eps")
    f = _parse_signal_checked(config.signal)
    curve = length_curve(
        f,
        parse_eps_spec(config.eps),
        initial_width=config.initial_width,
        min_hits=config.min_hits,
        max_doublings=config.max_doublings,
        max_grid_points=config.grid,
    )
    rows = [
        {
            "eps": s.eps,
            "L_lower": s.L_lower,
            "L_upper": s.L_upper,
            "window": s.window_used,
            "resolved": s.resolved,
        }
        for s in curve.samples
    ]
    payload = {"signal_id": curve.signal_id, "samples": rows}
    if config.command == "di-fit":
        fit = fit_exponent(curve)
        payload.update(
            slope=fit.slope,
            intercept=fit.intercept,
            residual=fit.residual,
            max_ratio=fit.max_ratio,
            eps_range=list(fit.eps_range),
        )
    _emit(
        config,
        payload,
        columns=("eps", "L_lower", "L_upper", "window", "resolved"),
        rows=rows,
    )
    return 0


def _cmd_cf(config: RunConfig) -> int:
    _require(config, "x")
    cf = cf_expand(parse_constant(config.x), config.depth)
    payload = {
        "a0": cf.a0,
        "quotients": list(cf.quotients),
        "convergents": [[str(p), str(q)] for p, q in cf.convergents],
        "exact": cf.exact,
        "error_bound": float(cf.error_bound) if cf.error_bound is not None else None,
    }
    rows = [{"k": k, "p": str(p), "q": str(q)} for k, (p, q) in enumerate(cf.convergents)]
    _emit(config, payload, columns=("k", "p", "q"), rows=rows)
    return 0


def _cmd_badness(config: RunConfig) -> int:
    _require(config, "alpha")
    report = badness_score(parse_constant_list(config.alpha), config.qmax)
    payload = {
        "n": report.n,
        "Q": report.Q,
        "score": report.score,
        "argmin_q": report.argmin_q,
    }
    _emit(config, payload, columns=("n", "Q", "score", "argmin_q"), rows=[payload])
    return 0


def _cmd_simdenom(config: RunConfig) -> int:
    _require(config, "alpha", "delta")
    q = best_simultaneous_denominator(
        parse_constant_list(config.alpha), config.delta, config.qmax
    )
    payload = {"q": q, "delta": config.delta, "qmax": config.qmax}
    _emit(config, payload, columns=("q", "delta", "qmax"), rows=[payload])
    return 0


def _cmd_kronecker(config: RunConfig) -> int:
    _require(config, "signal", "eps", "kappa")
    eps = _single_eps(config)
    f = _parse_signal_checked(config.signal)
    lams = [float(l) for l in f.exponents_float]
    kaps = [float(k) for k in parse_constant_list(config.kappa)]
    if len(kaps) != len(lams):
        raise ConfigError(f"need {len(lams)} kappa values for this signal")
    t = kronecker_solve(lams, kaps, eps, config.tmax)
    payload = {
        "t": t,
        "residuals": list(kronecker_residuals(lams, kaps, t)) if t is not None else None,
        "eps": eps,
        "tmax": config.tmax,
    }
    rows = [{"t": t if t is not None else "", "max_residual": max(payload["residuals"]) if t is not None else ""}]
    _emit(config, payload, columns=("t", "max_residual"), rows=rows)
    return 0


def _cmd_dimension(config: RunConfig) -> int:
    _require(config, "signal", "eps")
    f = _parse_signal_checked(config.signal)
    eps_values = parse_eps_spec(config.eps)
    report = hull_dimension_report(f, eps_values)
    rows = [
        {"eps": e, "cover_upper": c, "packing_lower": p}
        for e, (c, p) in zip(report.eps_grid, report.counts)
    ]
    payload: dict = {"eps_grid": list(report.eps_grid), "counts": [list(c) for c in report.counts]}
    if len(eps_values) >= 4:
        lower, upper = dimension_fit(report)
        payload["lower_dim"] = lower
        payload["upper_dim"] = upper
    payload["c1"], payload["c2"] = equivalence_constants(f)
    _emit(config, payload, columns=("eps", "cover_upper", "packing_lower"), rows=rows)
    return 0


def _cmd_verify(config: RunConfig) -> int:
    result = verify_mod.run_suite(config.suite, config.seed)
    for check in result["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} {check['name']}")
    payload = dict(result)
    _emit(config, payload)
    print(f"suite {result['suite']}: {'PASS' if result['passed'] else 'FAIL'}")
    return 0 if result["passed"] else 3


_CURVE_FIELDS = ("signal", "eps", "grid", "initial_width", "min_hits", "max_doublings")
# read by _emit and run; verify's report is JSON only
_REPORT_FIELDS = ("out", "format", "precision_bits")

# command -> (handler, help, the RunConfig fields it reads: its flags and config keys)
_COMMAND_TABLE = {
    "eval": (_cmd_eval, "evaluate a signal at one time",
             ("signal", "t") + _REPORT_FIELDS),
    "scan": (_cmd_scan, "bracket the eps-almost-period set on a window",
             ("signal", "eps", "window", "step", "grid") + _REPORT_FIELDS),
    "length-curve": (_cmd_length_curve, "inclusion-length bounds over an eps ladder",
                     _CURVE_FIELDS + _REPORT_FIELDS),
    # di-fit and dimension (below) do not read seed; it is accepted because the benchmark's workloads pass it
    "di-fit": (_cmd_length_curve, "growth exponent of the inclusion length",
               _CURVE_FIELDS + ("seed",) + _REPORT_FIELDS),
    "cf": (_cmd_cf, "continued-fraction expansion with certified quotients",
           ("x", "depth") + _REPORT_FIELDS),
    "badness": (_cmd_badness, "badly-approximable score of a tuple",
                ("alpha", "qmax") + _REPORT_FIELDS),
    "simdenom": (_cmd_simdenom, "smallest simultaneous denominator",
                 ("alpha", "delta", "qmax") + _REPORT_FIELDS),
    "kronecker": (_cmd_kronecker, "phase-alignment time for signal exponents",
                  ("signal", "eps", "kappa", "tmax") + _REPORT_FIELDS),
    "dimension": (_cmd_dimension, "covering/packing counts and dimension fit of the hull",
                  ("signal", "eps", "seed") + _REPORT_FIELDS),
    "verify": (_cmd_verify, "run a bundled verification suite",
               ("suite", "seed", "out", "precision_bits")),
}

_FLAG_HELP = {
    "signal": "signal literal or preset name",
    "eps": "eps list a,b,... or range start:count:factor",
    "window": "scan window lo:hi",
    "step": "scan step (default eps/(4C), C the Lipschitz constant)",
    "t": "time at which to evaluate",
    "depth": "number of certified partial quotients",
    "x": "number: phi, sqrt2, sqrt3, integer, p/q, or decimal",
    "alpha": "comma list of numbers",
    "delta": "distance bound in (0, 1/2) that every q*alpha_j must meet",
    "qmax": "largest denominator q scanned",
    "kappa": "comma list of target phases",
    "tmax": "end of the time range searched",
    "grid": "max grid points per scan",
    "seed": "random seed for sampled checks",
    "suite": "bundled verification suite",
    "initial_width": "first window width of each eps (default 4/eps)",
    "min_hits": "outer intervals a window must hold before it stops doubling",
    "max_doublings": "most window doublings per eps",
    "precision_bits": "mpmath working precision in bits (default QPLAB_PRECISION_BITS or 256)",
    "out": "output path (default stdout)",
    "format": "report format",
}

_FLAG_CHOICES = {"format": ("csv", "json"), "suite": verify_mod.SUITE_NAMES}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the input-error code; argparse's own 2 means budget exhaustion here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qplab",
        description="Almost periods, inclusion lengths, and hull dimensions of quasiperiodic signals.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, names) in _COMMAND_TABLE.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        p.add_argument("--config", default=None, help="key = value config file")
        for name in names:
            p.add_argument(
                "--" + name.replace("_", "-"),
                dest=name,
                type=_FIELD_TYPES[name],
                default=None,
                choices=_FLAG_CHOICES.get(name),
                help=_FLAG_HELP[name],
            )
    return parser


def run(config: RunConfig) -> int:
    set_working_precision(config.precision_bits)
    return _COMMAND_TABLE[config.command][0](config)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        return run(config)
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 2
    except (QplabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Workloads of the qplab benchmark: seeded inputs, CLI commands and output checks.

A workload is a fixed list of ``qplab`` CLI commands. Every random input
(signal literals, kappa targets, sqrt(k) constants, the seed passed to
``--seed``) is drawn here from the benchmark seed, so qplab only ever receives
argument strings. The same seed gives the same commands.

Each command carries an output check on its JSON report. A command fails when
it raises, exits non-zero, or fails its check; failures feed
``ops_failed_frac``. Only the standard library is used here, so the checks are
independent of qplab and numpy.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

SIZES = ("full", "tiny")
TWO_PI = 2.0 * math.pi
# (3 - sqrt 5)/2 = dist(phi, Z): the badness score of phi, attained at q = 1
PHI_BADNESS = (3.0 - math.sqrt(5.0)) / 2.0
# grid points of the random-signal length curve; keeps the curve a minority
# of the sqrt23-curves pass (the bundled sqrt23 suite takes most of it)
CURVE_POINTS = {"full": 20_000_000, "tiny": 300_000}
QMAX = {"full": 10**6, "tiny": 10**4}
SQRT_DIGITS = 60
# relative to the checkout root, so the path each report embeds in its config
# is the same in every checkout
REPORTS = "bench/out/reports"
CF_DEPTH = 20


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check its JSON report must pass."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[dict], str | None]  # an error message, or None when correct


@dataclass(frozen=True)
class Workload:
    name: str
    signals: tuple[str, ...]  # signal literals the commands parse; set-up parses them too
    commands: tuple[Command, ...]


# ---------------------------------------------------------------------------
# seeded inputs


def _is_square(k: int) -> bool:
    return math.isqrt(k) ** 2 == k


def independent_pair(rng: random.Random, hi: int = 100) -> tuple[int, int]:
    """Non-squares a != b with a*b no square, so 1, sqrt a, sqrt b are independent over Q."""
    while True:
        a, b = rng.sample(range(2, hi), 2)
        if not (_is_square(a) or _is_square(b) or _is_square(a * b)):
            return a, b


def sqrt_decimal(k: int, digits: int = SQRT_DIGITS) -> str:
    """sqrt(k) truncated to ``digits`` decimals, computed exactly in integers."""
    whole, frac = divmod(math.isqrt(k * 10 ** (2 * digits)), 10**digits)
    return f"{whole}.{frac:0{digits}d}"


def random_signal(rng: random.Random) -> tuple[str, float, float]:
    """A 3-term literal with unequal amplitudes and exponents 2*pi*(1, sqrt a, sqrt b).

    Returns (literal, min |A_j|, Lipschitz constant sum |A_j||lambda_j|).
    """
    a, b = independent_pair(rng, hi=40)
    moduli = [rng.uniform(0.3, 1.5) for _ in range(3)]
    terms, amps, lams = [], [], []
    for m, k in zip(moduli, (1, a, b)):
        theta = rng.uniform(0.0, TWO_PI)
        re, im = round(m * math.cos(theta), 6), round(m * math.sin(theta), 6)
        lam = TWO_PI * math.sqrt(k)
        terms.append(f"{re:.6f}{im:+.6f}i@{lam!r}")
        amps.append(math.hypot(re, im))
        lams.append(lam)
    lipschitz = sum(A * lam for A, lam in zip(amps, lams))
    return ",".join(terms), min(amps), lipschitz


# ---------------------------------------------------------------------------
# exact reference arithmetic for the Diophantine checks


def dist_sqrt_multiple(q: int, k: int, digits: int = 40) -> float:
    """dist(q*sqrt(k), Z), from an integer square root at ``digits`` decimals."""
    scale = 10**digits
    frac = math.isqrt(q * q * k * scale * scale) % scale
    return min(frac, scale - frac) / scale


def sqrt_cf(k: int, depth: int) -> tuple[int, list[int]]:
    """a0 and the first ``depth`` partial quotients of sqrt(k) (periodic recurrence)."""
    a0 = math.isqrt(k)
    m, d, a = 0, 1, a0
    quotients = []
    for _ in range(depth):
        m = d * a - m
        d = (k - m * m) // d
        a = (a0 + m) // d
        quotients.append(a)
    return a0, quotients


def sqrt_badness_n1(k: int, Q: int) -> tuple[float, int]:
    """min over q <= Q of q*dist(q sqrt k, Z) and its first argmin.

    By Lagrange's best-approximation theorem the minimum is attained at a
    convergent denominator, so only those are scanned.
    """
    _, quotients = sqrt_cf(k, 200)
    best, argmin = math.inf, 0
    q_prev, q = 0, 1
    for a in quotients:
        score = q * dist_sqrt_multiple(q, k)
        if score < best:
            best, argmin = score, q
        q_prev, q = q, a * q + q_prev
        if q > Q:
            break
    return best, argmin


# ---------------------------------------------------------------------------
# output checks


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_suite(payload: dict) -> str | None:
    if payload.get("passed") is not True:
        failed = [c["name"] for c in payload.get("checks", ()) if not c.get("passed")]
        return f"suite did not pass: {failed}"
    return None


def check_curve(ladder_len: int) -> Callable[[dict], str | None]:
    def check(payload: dict) -> str | None:
        samples = payload.get("samples", [])
        if len(samples) != ladder_len:
            return f"{len(samples)} samples for a {ladder_len}-eps ladder"
        for s in samples:
            if s["resolved"] and not s["L_lower"] <= s["L_upper"]:
                return f"L_lower {s['L_lower']} > L_upper {s['L_upper']} at eps {s['eps']}"
        return None

    return check


def check_dimension(ladder_len: int) -> Callable[[dict], str | None]:
    def check(payload: dict) -> str | None:
        counts = payload.get("counts", [])
        if len(counts) != ladder_len:
            return f"{len(counts)} counts for a {ladder_len}-eps ladder"
        for eps, (cover, packing) in zip(payload["eps_grid"], counts):
            if not 1 <= packing <= cover:
                return f"need 1 <= packing <= cover, got {packing}, {cover} at eps {eps}"
        return None

    return check


def check_badness(Q: int, score: float | None, argmin: int | None) -> Callable[[dict], str | None]:
    """Expected score/argmin where known; otherwise a positive score inside 1..Q."""

    def check(payload: dict) -> str | None:
        if not (payload["Q"] == Q and 1 <= payload["argmin_q"] <= Q and payload["score"] > 0):
            return f"bad report {payload['score']} at q={payload['argmin_q']}"
        if argmin is not None and payload["argmin_q"] != argmin:
            return f"argmin {payload['argmin_q']}, expected {argmin}"
        if score is not None and not _close(payload["score"], score):
            return f"score {payload['score']!r}, expected {score!r}"
        return None

    return check


def check_badness_pair(Q: int, ks: tuple[int, int]) -> Callable[[dict], str | None]:
    """Recompute q^(1/2) max_j dist(q sqrt k_j, Z) at the reported argmin."""

    def check(payload: dict) -> str | None:
        bad = check_badness(Q, None, None)(payload)
        if bad:
            return bad
        q = payload["argmin_q"]
        expected = math.sqrt(q) * max(dist_sqrt_multiple(q, k) for k in ks)
        if not _close(payload["score"], expected, rel=1e-7):
            return f"score {payload['score']!r} at q={q}, recomputed {expected!r}"
        return None

    return check


def check_simdenom(delta: float, ks: tuple[int, ...] | None, expected: int | None):
    def check(payload: dict) -> str | None:
        q = payload["q"]
        if q is None:
            return "no denominator found"
        if expected is not None and q != expected:
            return f"q = {q}, expected {expected}"
        if ks is not None and any(dist_sqrt_multiple(q, k) > delta for k in ks):
            return f"q = {q} does not align every sqrt within {delta}"
        return None

    return check


def check_cf(k: int, depth: int) -> Callable[[dict], str | None]:
    a0, quotients = sqrt_cf(k, depth)

    def check(payload: dict) -> str | None:
        if payload["a0"] != a0 or payload["quotients"] != quotients:
            return f"quotients {payload['a0']};{payload['quotients']} != {a0};{quotients}"
        return None

    return check


def check_kronecker(eps: float) -> Callable[[dict], str | None]:
    def check(payload: dict) -> str | None:
        if payload["t"] is None:
            return "no alignment time found"
        if not all(r < eps for r in payload["residuals"]):
            return f"residuals {payload['residuals']} not all below {eps}"
        return None

    return check


def check_report(command: Command, data: bytes | None) -> str | None:
    """Run a command's check on the bytes of its report."""
    if not data:
        return "no report written"
    try:
        payload = json.loads(data)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    try:
        return command.check(payload)
    except (KeyError, TypeError, ValueError) as exc:
        return f"report lacks an expected field: {exc!r}"


# ---------------------------------------------------------------------------
# workloads


def _golden_hull(seed: int, size: str, cmd) -> list[Command]:
    """The README's golden commands: the verify suite, then hull covers of golden and sqrt23."""
    if size == "full":
        suite = cmd("verify-golden", ("verify", "--suite", "golden", "--seed", str(seed)), check_suite)
        ladders = {"golden": ("0.25:6:2", 6), "sqrt23": ("0.5:2:2", 2)}
    else:  # the bundled suite has a fixed size; run its ladder's first scales instead
        suite = cmd("di-fit-golden", ("di-fit", "--signal", "golden", "--eps", "0.4:3:2", "--seed", str(seed)),
                    check_curve(3))
        ladders = {"golden": ("0.25:2:2", 2), "sqrt23": ("0.5:1:2", 1)}
    covers = [
        cmd(f"dimension-{signal}",
            ("dimension", "--signal", signal, "--eps", spec, "--seed", str(seed)),
            check_dimension(count))
        for signal, (spec, count) in ladders.items()
    ]
    return [suite, *covers]


def _sqrt23_curves(seed: int, size: str, rng: random.Random, cmd) -> Workload:
    if size == "full":
        suite = cmd("verify-sqrt23", ("verify", "--suite", "sqrt23", "--seed", str(seed)), check_suite)
    else:
        suite = cmd("di-fit-sqrt23", ("di-fit", "--signal", "sqrt23", "--eps", "0.8:3:2", "--seed", str(seed)),
                    check_curve(3))
    literal, min_amp, lipschitz = random_signal(rng)
    eps0 = float(f"{2.2 * min_amp:.4g}")
    ladder_len = 5
    # One scan per eps over a fixed window (--min-hits 1 stops the doubling,
    # whose extent varies by orders of magnitude between random signals). The
    # window holds width * 4C / eps grid points per eps and is sized so the
    # curve totals CURVE_POINTS on every seed. Its time still varies by seed
    # with the number of sublevel intervals (up to 3x the median), which is
    # why the curve is kept small beside the suite.
    inv_eps_sum = sum(2.0**k for k in range(ladder_len)) / eps0
    width = float(f"{CURVE_POINTS[size] / (4.0 * lipschitz * inv_eps_sum):.6g}")
    curve = cmd(
        "di-fit-random",
        # "--signal=" keeps a literal with a leading minus from reading as a flag
        ("di-fit", f"--signal={literal}", "--eps", f"{eps0!r}:{ladder_len}:2",
         "--initial-width", repr(width), "--min-hits", "1"),
        check_curve(ladder_len),
    )
    return Workload("sqrt23-curves", ("sqrt23", literal), (suite, curve))


def _diophantine(size: str, rng: random.Random, cmd) -> list[Command]:
    """badness and simdenom at n=1 and n=2, cf, and kronecker on the sqrt23 exponents."""
    Q = QMAX[size]
    k = rng.choice([k for k in range(2, 100) if not _is_square(k)])
    a, b = independent_pair(rng)
    sqrt_k = sqrt_decimal(k)
    pair = f"{sqrt_decimal(a)},{sqrt_decimal(b)}"
    # simdenom of the pair finds q near delta**-2, well inside qmax
    delta = {"full": 0.002, "tiny": 0.02}[size]
    kron_eps = 0.1
    commands = [
        cmd("badness-phi", ("badness", "--alpha", "phi", "--qmax", str(Q)),
            check_badness(Q, PHI_BADNESS, 1)),
        cmd("badness-sqrt2", ("badness", "--alpha", "sqrt2", "--qmax", str(Q // 10)),
            check_badness(Q // 10, None, 2)),
        cmd("badness-sqrtk", ("badness", "--alpha", sqrt_k, "--qmax", str(Q)),
            check_badness(Q, *sqrt_badness_n1(k, Q))),
        cmd("badness-pair", ("badness", "--alpha", pair, "--qmax", str(Q)),
            check_badness_pair(Q, (a, b))),
        cmd("simdenom-phi", ("simdenom", "--alpha", "phi", "--delta", "0.01", "--qmax", "1000"),
            check_simdenom(0.01, None, 55)),
        cmd("simdenom-pair", ("simdenom", "--alpha", pair, "--delta", str(delta), "--qmax", str(Q)),
            check_simdenom(delta, (a, b), None)),
        cmd("cf-sqrtk", ("cf", "--x", sqrt_k, "--depth", str(CF_DEPTH)), check_cf(k, CF_DEPTH)),
    ]
    # kappa targets are hit within the solver's first block of grid points at
    # this eps, so the solve costs the same on every seed
    for i in range(3):
        kappa = ",".join(f"{rng.uniform(0.0, TWO_PI):.6f}" for _ in range(3))
        commands.append(
            cmd(f"kronecker-{i}",
                ("kronecker", "--signal", "sqrt23", "--kappa", kappa, "--eps", str(kron_eps),
                 "--tmax", "100000"),
                check_kronecker(kron_eps))
        )
    return commands


def _golden_hull_diophantine(seed: int, size: str, rng: random.Random, cmd) -> Workload:
    """The golden suite and hull covers, then the Diophantine commands, in one pass of ~40 s.

    One workload rather than three so that a run lasts long enough to average
    out drift in CPU speed on a shared virtual machine. On a 2-vCPU KVM guest,
    ten runs spread (quartile distance over median) by 0.19 for the suite
    alone (19 s a run), 0.17-0.32 for the covers alone (13 s) and up to 0.27
    for the Diophantine commands alone (20 s), against about 0.1 for 35-40 s.
    """
    commands = _golden_hull(seed, size, cmd) + _diophantine(size, rng, cmd)
    return Workload("golden-hull-diophantine", ("golden", "sqrt23"), tuple(commands))


BUILDERS = {
    "golden-hull-diophantine": _golden_hull_diophantine,
    "sqrt23-curves": _sqrt23_curves,
}
WORKLOAD_NAMES = tuple(BUILDERS)


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The workload's commands for this seed, writing reports under ``REPORTS``/name."""
    if name not in BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}")
    if size not in SIZES:
        raise ValueError(f"size must be one of {SIZES}")
    rng = random.Random(f"{name}:{seed}")

    def cmd(command: str, argv: tuple[str, ...], check) -> Command:
        return Command(command, argv + ("--out", f"{REPORTS}/{name}/{command}.json"), check)

    return BUILDERS[name](seed, size, rng, cmd)

"""Continued fractions, badly-approximable scores, and phase alignment.

Partial quotients are certified against the input's own uncertainty: a real
input carries an interval one working-precision ulp wide, and expansion stops
(PrecisionExhausted) rather than emit a quotient the interval cannot pin down.
Distance-to-nearest-integer scans run on exact integer residues of each
input's rational value (mpf inputs are dyadic rationals), so q*alpha is
resolved exactly at every scanned q and a zero distance means exactly
integral, never a rounding artifact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from mpmath import mp, mpf

from .errors import BudgetExceeded, PrecisionExhausted
from .precision import as_mpf, mpf_to_fraction, ulp_uncertainty

MAX_Q = 10**7  # cap on Q and qmax of the denominator scans
MAX_SOLVER_POINTS = 2**26
_CHUNK = 2**20


@dataclass(frozen=True)
class ContinuedFraction:
    """Partial quotients and convergents in exact integer arithmetic."""

    a0: int
    quotients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]
    exact: bool
    error_bound: Fraction | None

    def __post_init__(self):
        if any(a < 1 for a in self.quotients):
            raise ValueError("partial quotients must be >= 1")
        if len(self.convergents) != len(self.quotients) + 1:
            raise ValueError("need one convergent per quotient plus the integer part")

    def value(self) -> Fraction:
        p, q = self.convergents[-1]
        return Fraction(p, q)


@dataclass(frozen=True)
class BadnessReport:
    """min over 1 <= q <= Q of q**(1/n) * max_j dist(q*alpha_j, Z)."""

    n: int
    Q: int
    score: float
    argmin_q: int

    def __post_init__(self):
        if self.score < 0:
            raise ValueError("score must be nonnegative")


def _convergents_from(a0: int, quotients: Sequence[int]) -> tuple[tuple[int, int], ...]:
    p_prev, q_prev = 1, 0
    p, q = a0, 1
    out = [(p, q)]
    for a in quotients:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        out.append((p, q))
    return tuple(out)


def _cf_expand_rational(x: Fraction, depth: int) -> ContinuedFraction:
    a0 = x.numerator // x.denominator
    rem = x - a0
    quotients: list[int] = []
    exact = rem == 0
    while rem != 0 and len(quotients) < depth:
        rem = 1 / rem
        a = rem.numerator // rem.denominator
        quotients.append(a)
        rem -= a
        exact = rem == 0
    return ContinuedFraction(
        a0=a0,
        quotients=tuple(quotients),
        convergents=_convergents_from(a0, quotients),
        exact=exact,
        error_bound=Fraction(0) if exact else None,
    )


def cf_expand(x, depth: int) -> ContinuedFraction:
    """Continued-fraction expansion with ``depth`` certified partial quotients.

    Exact rational inputs (int, Fraction, float) expand by the Euclidean
    algorithm and may terminate early. An mpf input is treated as an interval
    of one working-precision ulp around its stored value;
    PrecisionExhausted is raised if the interval cannot certify a quotient
    before ``depth`` is reached.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if isinstance(x, (int, Fraction)):
        return _cf_expand_rational(Fraction(x), depth)
    if isinstance(x, float):
        return _cf_expand_rational(Fraction(x), depth)
    center = mpf_to_fraction(as_mpf(x))
    radius = ulp_uncertainty(as_mpf(x))
    lo, hi = center - radius, center + radius
    quotients: list[int] = []
    a0 = lo.numerator // lo.denominator
    if a0 != hi.numerator // hi.denominator:
        raise PrecisionExhausted("interval straddles an integer", 0)
    lo, hi = lo - a0, hi - a0
    while len(quotients) < depth:
        if lo <= 0:
            raise PrecisionExhausted(
                f"cannot certify quotient {len(quotients) + 1}", len(quotients)
            )
        lo, hi = 1 / hi, 1 / lo
        a = lo.numerator // lo.denominator
        if a != hi.numerator // hi.denominator:
            raise PrecisionExhausted(
                f"cannot certify quotient {len(quotients) + 1}", len(quotients)
            )
        quotients.append(a)
        lo, hi = lo - a, hi - a
    convergents = _convergents_from(a0, quotients)
    _, qk = convergents[-1]
    return ContinuedFraction(
        a0=a0,
        quotients=tuple(quotients),
        convergents=convergents,
        exact=False,
        error_bound=radius + Fraction(1, qk * qk),
    )


def convergents(cf: ContinuedFraction, k: int) -> tuple[tuple[int, int], ...]:
    """Convergents p_0/q_0 .. p_k/q_k of an expansion."""
    if k < 0 or k > len(cf.quotients):
        raise ValueError(f"convergent index {k} out of range 0..{len(cf.quotients)}")
    return cf.convergents[: k + 1]


def _exact_residue_increments(alpha: Sequence) -> list[tuple[int, int]]:
    """(numerator mod denominator, denominator) of each coordinate's exact value."""
    out = []
    for a in alpha:
        if isinstance(a, (int, float, Fraction)):
            frac = Fraction(a)
        else:
            frac = mpf_to_fraction(as_mpf(a))
        out.append((frac.numerator % frac.denominator, frac.denominator))
    return out


def badness_score(alpha: Sequence, Q: int) -> BadnessReport:
    """Empirical badly-approximable constant of a tuple over denominators <= Q.

    Exact residue arithmetic resolves dist(q*alpha_j, Z) at every q; the
    score is min over q of q**(1/n) * max_j of that distance, which is zero
    iff some q <= Q makes every q*alpha_j integral.
    """
    n = len(alpha)
    if n < 1:
        raise ValueError("alpha must be nonempty")
    if Q < 1:
        raise ValueError("Q must be >= 1")
    if Q > MAX_Q:
        raise BudgetExceeded(f"Q={Q} exceeds cap {MAX_Q}")
    coords = _exact_residue_increments(alpha)
    power = 1.0 / n
    residues = [0] * n
    best_score = math.inf
    best_q = 0
    for q in range(1, Q + 1):
        worst = 0.0
        for j, (inc, den) in enumerate(coords):
            r = residues[j] + inc
            if r >= den:
                r -= den
            residues[j] = r
            d = min(r, den - r) / den
            if d > worst:
                worst = d
        score = (q**power) * worst
        if score < best_score:
            best_score = score
            best_q = q
    return BadnessReport(n=n, Q=Q, score=best_score, argmin_q=best_q)


def best_simultaneous_denominator(alpha: Sequence, delta: float, qmax: int) -> int | None:
    """Smallest q <= qmax with dist(q*alpha_j, Z) <= delta for every j, else None.

    The comparison against delta is exact: dist <= delta is decided in integer
    arithmetic on each coordinate's rational value.
    """
    if not 0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    if qmax < 1:
        raise ValueError("qmax must be >= 1")
    if qmax > MAX_Q:
        raise BudgetExceeded(f"qmax={qmax} exceeds cap {MAX_Q}")
    coords = _exact_residue_increments(alpha)
    delta_frac = Fraction(delta)
    # dist = min(r, den-r)/den <= delta  <=>  min(...) * delta.den <= delta.num * den
    thresholds = [(delta_frac.numerator * den, delta_frac.denominator) for _, den in coords]
    residues = [0] * len(coords)
    for q in range(1, qmax + 1):
        ok = True
        for j, (inc, den) in enumerate(coords):
            r = residues[j] + inc
            if r >= den:
                r -= den
            residues[j] = r
            if ok:
                num_bound, dden = thresholds[j]
                if min(r, den - r) * dden > num_bound:
                    ok = False
        if ok:
            return q
    return None


def kronecker_residuals(
    lambdas: Sequence[float], kappas: Sequence[float], t: float
) -> tuple[float, ...]:
    """|lambda_j t - kappa_j| mod 2*pi folded into [0, pi], per coordinate."""
    if len(lambdas) != len(kappas):
        raise ValueError("lambdas and kappas must have equal length")
    out = []
    for lam, kap in zip(lambdas, kappas):
        r = (float(lam) * t - float(kap)) % (2.0 * math.pi)
        out.append(min(r, 2.0 * math.pi - r))
    return tuple(out)


def kronecker_solve(
    lambdas: Sequence[float], kappas: Sequence[float], eps: float, tmax: float
) -> float | None:
    """Smallest grid point t in [0, tmax] with every folded residual below eps.

    The grid step is eps/(2*max|lambda_j|), so the scan cannot step over a
    solution neighborhood wider than the target accuracy. None means the
    horizon was too small (a solution exists for large enough tmax when the
    lambdas are rationally independent).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if tmax <= 0:
        raise ValueError("tmax must be positive")
    if len(lambdas) != len(kappas):
        raise ValueError("lambdas and kappas must have equal length")
    lams = np.array([float(l) for l in lambdas], dtype=np.float64)
    kaps = np.array([float(k) for k in kappas], dtype=np.float64)
    step = eps / (2.0 * float(np.max(np.abs(lams))))
    npts = int(math.floor(tmax / step)) + 1
    if npts > MAX_SOLVER_POINTS:
        raise BudgetExceeded(f"solver grid needs {npts} points, cap is {MAX_SOLVER_POINTS}")
    two_pi = 2.0 * math.pi
    for start in range(0, npts, _CHUNK):
        k = np.arange(start, min(start + _CHUNK, npts), dtype=np.float64)
        t = k * step
        worst = np.zeros(t.shape, dtype=np.float64)
        for lam, kap in zip(lams, kaps):
            r = np.mod(lam * t - kap, two_pi)
            np.maximum(worst, np.minimum(r, two_pi - r), out=worst)
        hits = np.flatnonzero(worst < eps)
        if hits.size:
            return float(t[hits[0]])
    return None

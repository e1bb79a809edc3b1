"""Continued fractions, badly-approximable scores, and phase alignment.

Partial quotients are certified against the input's own uncertainty: a real
input carries an interval one working-precision ulp wide, and expansion stops
(PrecisionExhausted) rather than emit a quotient the interval cannot pin down.
Distance-to-nearest-integer scans run on exact integer residues of each
input's rational value (mpf inputs are dyadic rationals), so q*alpha is
filtered by a certified fixed-point bound, then resolved exactly at every
candidate, and a zero distance means exactly integral, never a rounding
artifact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded, PrecisionExhausted, grid_count
from .precision import as_mpf, mpf_to_fraction, to_fixed_point, ulp_uncertainty

MAX_Q = 10**7  # cap on Q and qmax of the denominator scans
MAX_SOLVER_POINTS = 2**26
_BLOCK = 2**15  # kronecker_solve's grid points per block, so an early hit costs one small block
# q per chunk of the denominator scans, so each array temporary is 512 KiB
_Q_CHUNK = 2**16
# float64 rounding of the badness bounds, in units of 2**-64 and relative;
# derived in badness_score
_ROUNDING_UNITS = 2**11
_REL_SLACK = 2.0**-40


@dataclass(frozen=True)
class ContinuedFraction:
    """Partial quotients and convergents in exact integer arithmetic."""

    a0: int
    quotients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]
    exact: bool
    error_bound: Fraction

    def __post_init__(self):
        if any(a < 1 for a in self.quotients):
            raise ValueError("partial quotients must be >= 1")
        if len(self.convergents) != len(self.quotients) + 1:
            raise ValueError("need one convergent per quotient plus the integer part")


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


def cf_expand(x, depth: int) -> ContinuedFraction:
    """Continued-fraction expansion with ``depth`` certified partial quotients.

    An mpf input is treated as an interval of one working-precision ulp around
    its stored value; PrecisionExhausted is raised if the interval cannot
    certify a quotient before ``depth`` is reached. An exact rational input
    (int, Fraction, float) is an interval of width zero, which always certifies
    and may terminate early: ``exact`` then holds and the error bound is 0.
    Otherwise the last convergent p_k/q_k lies within radius + 1/q_k**2 of the
    input, since every point of the interval shares its first k quotients and so
    lies within 1/q_k**2 of p_k/q_k.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if isinstance(x, (int, float, Fraction)):
        center, radius = Fraction(x), Fraction(0)
    else:
        center = mpf_to_fraction(as_mpf(x))
        radius = ulp_uncertainty(as_mpf(x))
    lo, hi = center - radius, center + radius
    quotients: list[int] = []
    a0 = lo.numerator // lo.denominator
    if a0 != hi.numerator // hi.denominator:
        raise PrecisionExhausted("interval straddles an integer", 0)
    lo, hi = lo - a0, hi - a0
    # hi == 0 only for width zero: a wider interval has lo < hi with one integer part
    while len(quotients) < depth and hi != 0:
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
    exact = hi == 0
    _, qk = convergents[-1]
    return ContinuedFraction(
        a0=a0,
        quotients=tuple(quotients),
        convergents=convergents,
        exact=exact,
        error_bound=Fraction(0) if exact else radius + Fraction(1, qk * qk),
    )


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


def _fixed_point_distances(
    coords: Sequence[tuple[int, int]], qmax: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Chunks ``(start, q, dist)`` covering q = 1..qmax, with q a uint64 array
    and dist = max_j dist(q*alpha_j, Z) in units of 2**-64, off by at most q/2.

    a_j = round(alpha_j * 2**64) mod 2**64 is off by at most half a unit, so
    the wrapping uint64 product u = q*a_j is q*alpha_j mod 1 to within q/2
    units; min(u, -u) is its distance to Z to within the same, the distance
    being 1-Lipschitz on the circle, and so is the max over j.
    """
    steps = [np.uint64(to_fixed_point(Fraction(inc, den), 64) % 2**64) for inc, den in coords]
    for start in range(1, qmax + 1, _Q_CHUNK):
        q = np.arange(start, min(start + _Q_CHUNK, qmax + 1), dtype=np.uint64)
        dist = np.zeros_like(q)
        for step in steps:
            u = q * step
            np.maximum(dist, np.minimum(u, -u), out=dist)
        yield start, q, dist


def _exact_score(coords: Sequence[tuple[int, int]], power: float, q: int) -> float:
    """q**power * max_j dist(q*alpha_j, Z), each distance an exact residue rounded once."""
    worst = 0.0
    for inc, den in coords:
        r = q * inc % den
        worst = max(worst, min(r, den - r) / den)
    return (q**power) * worst


def _exact_within(coords: Sequence[tuple[int, int]], delta: Fraction, q: int) -> bool:
    """dist(q*alpha_j, Z) <= delta for every j, decided in integer arithmetic."""
    for inc, den in coords:
        r = q * inc % den
        # min(r, den-r)/den <= delta.num/delta.den, cross-multiplied
        if min(r, den - r) * delta.denominator > delta.numerator * den:
            return False
    return True


def badness_score(alpha: Sequence, Q: int) -> BadnessReport:
    """Empirical badly-approximable constant of a tuple over denominators <= Q.

    The score is min over q of S_q = q**(1/n) * max_j dist(q*alpha_j, Z),
    computed in float from exact residues, which is zero iff some q <= Q makes
    every q*alpha_j integral; argmin_q is the first q attaining it.

    Each chunk of q is filtered by float64 bounds lower_q <= S_q <= upper_q
    built from the fixed-point distance M of ``_fixed_point_distances``. With
    E the exact max distance, |M - E*2**64| <= q/2. Converting M to float64
    and then adding or subtracting h = q/2 + 2**11 are each off by at most
    half an ulp below 2**64, 2**10 units, so (M -/+ h)*2**-64 bracket E (the
    scaling is exact). S_q rounds the quotient E, Python's q**(1/n) and their
    product, so S_q >= E*t*(1-u)**2*(1-e) with t = q**(1/n) exactly, u = 2**-53
    and e the relative error of Python's pow. lower_q multiplies the low end
    by numpy's root, at most t*(1+e'), and by 1 - 2**-40, rounding twice, so
    lower_q <= E*t*(1+e')*(1+u)**2*(1-2**-40) <= S_q whenever e, e' <= 2**-42,
    about a thousand ulps, far beyond the error of either pow. upper_q is
    symmetric. A q with lower_q > min(best so far, min of upper_q' over q' <=
    q) has an earlier q' with a strictly smaller score, so it cannot be the
    first argmin. The rest are rechecked in increasing order with the exact
    score and a strict update, so score and argmin are the full scan's bit
    for bit.
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
    best_score = math.inf
    best_q = 0
    for start, q, dist in _fixed_point_distances(coords, Q):
        qf = q.astype(np.float64)
        halfwidth = 0.5 * qf + _ROUNDING_UNITS
        root = qf**power
        distf = dist.astype(np.float64)
        lower = (distf - halfwidth) * 2.0**-64 * root * (1.0 - _REL_SLACK)
        upper = (distf + halfwidth) * 2.0**-64 * root * (1.0 + _REL_SLACK)
        threshold = np.minimum(np.minimum.accumulate(upper), best_score)
        for i in np.flatnonzero(lower <= threshold).tolist():
            score = _exact_score(coords, power, start + i)
            if score < best_score:
                best_score, best_q = score, start + i
                if score == 0.0:  # no score is negative, so none can replace it
                    return BadnessReport(n=n, Q=Q, score=best_score, argmin_q=best_q)
    return BadnessReport(n=n, Q=Q, score=best_score, argmin_q=best_q)


def best_simultaneous_denominator(alpha: Sequence, delta: float, qmax: int) -> int | None:
    """Smallest q <= qmax with dist(q*alpha_j, Z) <= delta for every j, else None.

    The comparison against delta is exact: dist <= delta is decided in integer
    arithmetic on each coordinate's rational value. Only q whose fixed-point
    distance M could allow it are tested: dist <= delta and |M - dist*2**64|
    <= q/2 give M < floor(delta*2**64) + 1 + q/2, so the integer M is at most
    floor(delta*2**64) + 1 + floor(q/2).
    """
    if not 0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    if qmax < 1:
        raise ValueError("qmax must be >= 1")
    if qmax > MAX_Q:
        raise BudgetExceeded(f"qmax={qmax} exceeds cap {MAX_Q}")
    coords = _exact_residue_increments(alpha)
    delta_frac = Fraction(delta)
    limit = np.uint64(math.floor(delta_frac * 2**64) + 1)
    for start, q, dist in _fixed_point_distances(coords, qmax):
        for i in np.flatnonzero(dist <= limit + (q >> 1)).tolist():
            if _exact_within(coords, delta_frac, start + i):
                return start + i
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
    npts = grid_count(tmax, step, math.floor) + 1
    if npts > MAX_SOLVER_POINTS:
        raise BudgetExceeded(f"solver grid needs {npts} points, cap is {MAX_SOLVER_POINTS}")
    two_pi = 2.0 * math.pi
    for start in range(0, npts, _BLOCK):
        t = np.arange(start, min(start + _BLOCK, npts), dtype=np.float64) * step
        worst = np.zeros(t.shape, dtype=np.float64)
        for lam, kap in zip(lams, kaps):
            r = np.mod(lam * t - kap, two_pi)
            np.maximum(worst, np.minimum(r, two_pi - r), out=worst)
        hits = np.flatnonzero(worst < eps)
        if hits.size:
            return float(t[hits[0]])
    return None

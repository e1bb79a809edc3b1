"""Certified almost-period sets, inclusion lengths, and growth-exponent fits.

A tau with D(tau) < eps is an eps-almost period (D from qplab.signal). The
scan brackets the sublevel set {D < eps} on a window between an inner union of
intervals (certified members, via the Lipschitz bound) and an outer union
(certified to contain every member). Gap statistics of the two unions bracket
the inclusion length, and log-log regression of inclusion length against 1/eps
estimates its growth exponent.

The scan evaluates D only near the zeros of its dominant term: since
D >= 2|A_j||sin(lambda_j tau/2)| for every j, also as computed in floating
point, a grid point far from those zeros has D at or above the cut and is
excluded exactly as an evaluation would exclude it.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BudgetExceeded, EmptyAlmostPeriodSet, StepTooCoarse, TooFewSamples, grid_count
from .signal import QuasiperiodicSignal, lipschitz_constant, translation_distance_many

DEFAULT_MAX_GRID_POINTS = 2**29
_CHUNK = 2**21


@dataclass(frozen=True)
class IntervalSet:
    """Inner/outer interval approximations of the eps-almost-period set on a window."""

    window: tuple[float, float]
    inner: tuple[tuple[float, float], ...]
    outer: tuple[tuple[float, float], ...]
    step: float
    eps: float

    def __post_init__(self):
        lo, hi = self.window
        tol = 1e-12 * max(1.0, abs(lo), abs(hi))
        for seq in (self.inner, self.outer):
            prev = lo
            for a, b in seq:
                if a > b or a < lo - tol or b > hi + tol:
                    raise ValueError("interval outside window or inverted")
                if a < prev - tol:
                    raise ValueError("intervals not sorted/disjoint")
                prev = b
        # an inner (a, b) is contained iff some outer (c, d) has c <= a + tol and
        # d >= b - tol: bisect the sorted starts, then compare the running
        # maximum of the ends. The filter drops only outers with a NaN endpoint,
        # which contain nothing; a NaN inner fails the last comparisons.
        outer = sorted(iv for iv in self.outer if iv[0] <= iv[1])
        starts = [c for c, _ in outer]
        max_end = list(itertools.accumulate((d for _, d in outer), max))
        for a, b in self.inner:
            k = bisect.bisect_right(starts, a + tol)
            if not (k and starts[k - 1] <= a + tol and max_end[k - 1] >= b - tol):
                raise ValueError("inner interval not contained in any outer interval")


@dataclass(frozen=True)
class LengthSample:
    eps: float
    L_lower: float
    L_upper: float
    window_used: float
    resolved: bool


@dataclass(frozen=True)
class LengthCurve:
    """(eps, inclusion-length bounds) samples for one signal, eps strictly decreasing."""

    samples: tuple[LengthSample, ...]
    signal_id: str

    def __post_init__(self):
        eps_values = [s.eps for s in self.samples]
        if any(b >= a for a, b in zip(eps_values, eps_values[1:])):
            raise ValueError("eps values must be strictly decreasing")
        for s in self.samples:
            if s.resolved and not (0 <= s.L_lower <= s.L_upper):
                raise ValueError("need 0 <= L_lower <= L_upper")


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares slope of ln L against ln(1/eps), plus the pointwise max ratio."""

    slope: float
    intercept: float
    residual: float
    eps_range: tuple[float, float]
    max_ratio: float


def sublevel_scan(
    f: QuasiperiodicSignal,
    eps: float,
    window: tuple[float, float],
    step: float,
    max_grid_points: int = DEFAULT_MAX_GRID_POINTS,
) -> IntervalSet:
    """Bracket {tau in window : D(tau) < eps} between inner and outer intervals.

    With C the Lipschitz constant of D and h the actual grid step, a grid
    point with D < eps - C*h certifies the closed step-neighborhood around it
    (inner), and every member of the sublevel set lies within h/2 of a grid
    point with D < eps + C*h (outer). Requires step <= eps/(4C). A step of 0,
    which eps/(4C) underflows to for tiny eps, needs more grid points than any cap.

    D is evaluated only at grid points within reach of a zero 2*pi*k/|lambda_j|
    of the term with the largest 2|A_j| (ties: smallest |lambda_j|). Elsewhere
    that term alone is at least the outer cut, and so is the computed D, which
    sums non-negative terms in a fixed order; so the result equals that of
    evaluating D at every grid point. ``max_grid_points`` caps the grid size
    m + 1, not the number of points evaluated.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if step < 0:
        raise ValueError("step must not be negative")
    lo, hi = window
    if not hi > lo:
        raise ValueError("window must have positive width")
    C = lipschitz_constant(f)
    if step > eps / (4.0 * C):
        raise StepTooCoarse(
            f"step {step:g} exceeds eps/(4C) = {eps / (4.0 * C):g}"
        )
    m = grid_count(hi - lo, step)
    if m + 1 > max_grid_points:
        raise BudgetExceeded(f"scan grid needs {m + 1} points, cap is {max_grid_points}")
    h = (hi - lo) / m
    inner_cut = eps - C * h
    outer_cut = eps + C * h

    # reach pads the exact half-width by two grid steps and an allowance for
    # rounding in tau; the 1e-12 on the cut covers rounding in sin and products
    amps = 2.0 * f.amplitude_moduli
    lams = np.abs(f.exponents_float)
    j = min(range(f.n), key=lambda k: (-amps[k], lams[k]))
    ratio = outer_cut * (1.0 + 1e-12) / amps[j]
    period = 2.0 * math.pi / lams[j]
    reach = math.inf  # the term alone never reaches the cut: the window is one block
    if ratio < 1.0:
        reach = (2.0 / lams[j]) * math.asin(ratio) + 2.0 * h + 1e-12 * max(1.0, abs(lo), abs(hi))

    inner_runs: list[tuple[int, int]] = []
    outer_runs: list[tuple[int, int]] = []
    for start in range(0, m + 1, _CHUNK):
        stop = min(start + _CHUNK, m + 1)
        idx = _near_zeros(start, stop - 1, lo, h, period, reach)
        d = translation_distance_many(f, lo + idx.astype(np.float64) * h)
        _extend_runs(inner_runs, idx[d < inner_cut])
        _extend_runs(outer_runs, idx[d < outer_cut])

    inner = _runs_to_intervals(inner_runs, lo, hi, h, halfwidth=h)
    outer = _runs_to_intervals(outer_runs, lo, hi, h, halfwidth=0.5 * h)
    return IntervalSet(window=(lo, hi), inner=inner, outer=outer, step=h, eps=eps)


def _near_zeros(
    first: int, last: int, lo: float, h: float, period: float, reach: float
) -> np.ndarray:
    """Ascending grid indices in [first, last] within reach of a multiple of period."""
    if 2.0 * reach >= period:
        return np.arange(first, last + 1)
    k0 = math.floor((lo + first * h - reach) / period)
    k1 = math.ceil((lo + last * h + reach) / period)
    z = np.arange(k0, k1 + 1, dtype=np.float64) * period
    # a subnormal h sends far blocks to +-inf; clipped for the cast, they keep s > e
    with np.errstate(over="ignore"):
        s = np.clip(np.ceil((z - reach - lo) / h), first, last + 1).astype(np.int64)
        e = np.clip(np.floor((z + reach - lo) / h), first - 1, last).astype(np.int64)
    keep = s <= e
    s, e = s[keep], e[keep]
    if s.size == 0:
        return s
    # s and e ascend, so a block overlaps the blocks before it iff it overlaps the last one
    new = np.r_[True, s[1:] > e[:-1]]
    starts = s[new]
    lens = e[np.r_[new[1:], True]] - starts + 1
    return np.repeat(starts - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())


def _extend_runs(runs: list[tuple[int, int]], idx: np.ndarray) -> None:
    """Append the runs of consecutive values of ascending idx, joining one that continues."""
    if idx.size == 0:
        return
    breaks = np.flatnonzero(np.diff(idx) != 1) + 1
    starts = idx[np.r_[0, breaks]].tolist()
    ends = idx[np.r_[breaks - 1, idx.size - 1]].tolist()
    if runs and runs[-1][1] + 1 == starts[0]:
        starts[0] = runs.pop()[0]
    runs.extend(zip(starts, ends))


def _runs_to_intervals(
    runs: list[tuple[int, int]], lo: float, hi: float, h: float, halfwidth: float
) -> tuple[tuple[float, float], ...]:
    """Index runs -> clipped merged intervals, endpoints computed from indices."""
    intervals: list[tuple[float, float]] = []
    for i0, i1 in runs:
        a = max(lo, lo + i0 * h - halfwidth)
        b = min(hi, lo + i1 * h + halfwidth)
        if intervals and a <= intervals[-1][1] + 1e-12 * max(1.0, abs(hi)):
            intervals[-1] = (intervals[-1][0], max(intervals[-1][1], b))
        else:
            intervals.append((a, b))
    return tuple(intervals)


def _max_gap(intervals: Sequence[tuple[float, float]], window: tuple[float, float]) -> float:
    """Largest uncovered stretch, window edges counting as gap endpoints."""
    lo, hi = window
    if not intervals:
        return hi - lo
    gaps = [intervals[0][0] - lo]
    for (_, b), (a, _) in zip(intervals, intervals[1:]):
        gaps.append(a - b)
    gaps.append(hi - intervals[-1][1])
    return max(0.0, max(gaps))


def inclusion_length(s: IntervalSet) -> tuple[float, float]:
    """Bracket the inclusion length of the almost-period set on the window.

    The outer intervals over-cover the set, so their largest gap is a lower
    bound for the true largest gap; the inner intervals under-cover it, so
    their largest gap is an upper bound. Returns (L_lower, L_upper).
    """
    if not s.outer:
        raise EmptyAlmostPeriodSet(
            f"no almost period found in window {s.window}; enlarge the window"
        )
    return _max_gap(s.outer, s.window), _max_gap(s.inner, s.window)


def length_curve(
    f: QuasiperiodicSignal,
    eps_list: Sequence[float],
    initial_width: float | None = None,
    min_hits: int = 5,
    max_doublings: int = 20,
    max_grid_points: int = DEFAULT_MAX_GRID_POINTS,
) -> LengthCurve:
    """Inclusion-length bounds per eps with an adaptively grown scan window.

    The window starts at ``initial_width`` (default 4/eps) and doubles until
    the outer set has at least ``min_hits`` intervals, the window covers
    everything, or ``max_doublings`` is reached. A budget overrun on one eps
    marks that sample unresolved instead of failing the whole curve.
    """
    eps_values = list(eps_list)
    if not eps_values or any(e <= 0 for e in eps_values):
        raise ValueError("eps values must be positive")
    if any(b >= a for a, b in zip(eps_values, eps_values[1:])):
        raise ValueError("eps values must be strictly decreasing")
    C = lipschitz_constant(f)
    samples = []
    for eps in eps_values:
        width = initial_width if initial_width is not None else 4.0 / eps
        step = eps / (4.0 * C)
        sample = None
        for _ in range(max_doublings + 1):
            try:
                scan = sublevel_scan(f, eps, (0.0, width), step, max_grid_points)
            except BudgetExceeded:
                break
            L_lower, L_upper = inclusion_length(scan)
            sample = LengthSample(eps, L_lower, L_upper, width, True)
            # outer intervals are clipped to the window, so one equal to it covers it
            if len(scan.outer) >= min_hits or scan.outer == (scan.window,):
                break
            width *= 2.0
        if sample is None:
            sample = LengthSample(eps, math.nan, math.nan, width, False)
        samples.append(sample)
    return LengthCurve(samples=tuple(samples), signal_id=f.describe())


def fit_exponent(curve: LengthCurve) -> ExponentFit:
    """Growth exponent of the inclusion length from a log-log least-squares fit.

    Fits ln(L_upper) against ln(1/eps) over resolved samples with positive
    length; also reports the pointwise maximum of ln L / ln(1/eps) over the
    same samples as a finite-scale stand-in for the limiting ratio.
    """
    usable = [s for s in curve.samples if s.resolved and s.L_upper > 0]
    if len(usable) < 3:
        raise TooFewSamples(f"need >= 3 resolved samples with L > 0, have {len(usable)}")
    slope, intercept, residual = loglog_fit([s.eps for s in usable], [s.L_upper for s in usable])
    logs = [(math.log(1.0 / s.eps), math.log(s.L_upper)) for s in usable]
    ratios = [y / x for x, y in logs if abs(x) > 1e-9]
    max_ratio = max(ratios) if ratios else math.nan
    return ExponentFit(
        slope=slope,
        intercept=intercept,
        residual=residual,
        eps_range=(usable[0].eps, usable[-1].eps),
        max_ratio=max_ratio,
    )


def loglog_fit(eps: Sequence[float], values: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares fit of ln(value) against ln(1/eps): (slope, intercept, RMS residual)."""
    x = np.array([math.log(1.0 / e) for e in eps])
    y = np.array([math.log(v) for v in values])
    xm = x.mean()
    ym = y.mean()
    denom = float(((x - xm) ** 2).sum())
    slope = float(((x - xm) * (y - ym)).sum() / denom)
    intercept = float(ym - slope * xm)
    residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return slope, intercept, residual

"""Torus model of the signal hull: metrics, covering numbers, dimension fits.

For a signal with n rationally independent exponents, the closure of its
translates is parameterized by angle coordinates on the n-torus. Two metrics
live there: the sup-of-circle-distances torus metric, and the amplitude-
weighted chord metric inherited from the uniform norm of the signal, which
has the closed form sum_j 2|A_j| |sin((x_j - y_j)/2)|. Covering and packing
counts over epsilon grids yield box-counting dimension estimates.

Greedy conventions (fixed for determinism): balls are open; the cover places
each ball as far along the lexicographic sample order as still covers the
first uncovered point, then marks everything inside; the packing keeps a point
iff it is at least 2*eps away from every kept point.
"""
from __future__ import annotations

import math
import mmap
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from typing import Mapping, Sequence

import numpy as np
from mpmath import mpf

from .almost_periods import loglog_fit
from .errors import BudgetExceeded, GridTooCoarse, TooFewScales
from .precision import fold_angle
from .signal import QuasiperiodicSignal, lipschitz_constant, translation_distance_many

TWO_PI = 2.0 * math.pi
MAX_CELLS = 2**27
MAX_SEGMENT_POINTS = 2**24
# hull grids and orbit segments are SAFETY times finer than the radius needs
SAFETY = 4.0
# multiplicative slack of the segment-cover inequalities
SEGMENT_SLACK = 2.0
_SCATTER_CHUNK = 2**14  # grid greedy: flat indices per scatter, cells per window of a line


def orbit_angles(f: QuasiperiodicSignal, s: float) -> np.ndarray:
    """Angle coordinates of the s-translate, lambda_j * s mod 2*pi per term.

    Each angle is reduced at working precision, then rounded to a float; one
    that rounds up to 2*pi folds to 0.0, so every angle lies in [0, 2*pi).
    """
    return np.array([float(fold_angle(lam * mpf(s))) % TWO_PI for lam in f.exponents])


def orbit_angles_many(f: QuasiperiodicSignal, s: np.ndarray) -> np.ndarray:
    """Vectorized translate coordinates, one row per s value."""
    lams = f.exponents_float
    return np.mod(np.outer(s, lams), TWO_PI)


def torus_distance(
    points: np.ndarray, center: np.ndarray, weights: Sequence[float] | None = None
) -> np.ndarray:
    """Distance of each angle row of points from center (one row, or one per point).

    ``weights`` None gives the sup of circle distances, at most pi; amplitude
    moduli give the chord metric sum_j 2 w_j |sin((x_j - c_j)/2)|, summed in
    term order.
    """
    n = points.shape[-1]
    if center.shape[-1] != n or (weights is not None and len(weights) != n):
        raise ValueError("dimension mismatch")
    if weights is None:
        d = np.mod(np.abs(points - center), TWO_PI)
        return np.minimum(d, TWO_PI - d).max(axis=-1)
    acc = np.zeros(points.shape[:-1], dtype=np.float64)
    for j, w in enumerate(weights):
        acc += (2.0 * w) * np.abs(np.sin(0.5 * (points[..., j] - center[..., j])))
    return acc


def equivalence_constants(
    f: QuasiperiodicSignal,
    sample_count: int,
    seed: int,
    near_diagonal_scales: Sequence[int] = tuple(range(5, 21)),
    include_uniform: bool = True,
) -> tuple[float, float]:
    """Sampled bounds (C1_est, C2_est) for chord-metric / torus-metric ratios.

    Draws uniform random pairs plus near-diagonal pairs at torus distances
    2**-k for each k in ``near_diagonal_scales``; returns the min and max of
    the observed ratio. C1_est staying away from zero as the near-diagonal
    scale shrinks is the numerical signature of strong equivalence.
    """
    if sample_count < 100:
        raise ValueError("sample_count must be at least 100")
    rng = np.random.default_rng(seed)
    n = f.n
    ratios_min = math.inf
    ratios_max = 0.0

    def absorb(x: np.ndarray, y: np.ndarray):
        nonlocal ratios_min, ratios_max
        torus = torus_distance(x, y)
        keep = torus > 1e-12
        if not np.any(keep):
            return
        hull = torus_distance(x, y, f.amplitude_moduli)
        ratio = hull[keep] / torus[keep]
        ratios_min = min(ratios_min, float(ratio.min()))
        ratios_max = max(ratios_max, float(ratio.max()))

    if include_uniform:
        absorb(
            rng.uniform(0.0, TWO_PI, (sample_count, n)),
            rng.uniform(0.0, TWO_PI, (sample_count, n)),
        )
    per_scale = max(100, sample_count // max(1, len(near_diagonal_scales)))
    for k in near_diagonal_scales:
        x = rng.uniform(0.0, TWO_PI, (per_scale, n))
        u = rng.uniform(-1.0, 1.0, (per_scale, n))
        norms = np.abs(u).max(axis=1)
        norms[norms == 0] = 1.0
        u /= norms[:, None]
        absorb(x, x + u * 2.0**-k)
    if not math.isfinite(ratios_min):
        raise ValueError("no usable pair sampled")
    return ratios_min, ratios_max


# ---------------------------------------------------------------------------
# finite metric samples and greedy covering/packing


@dataclass(frozen=True)
class PointSample:
    """Explicit angle rows in fixed sample order; ``weights`` selects the metric
    as in torus_distance.

    ``lag_distance[k]`` is D(k h) when row k is the translate at s_lo + k h, and
    ``lag_margin`` bounds |distance(row i, row i + k) - D(k h)|; the greedy
    covers then test only the rows at lags where D can fall below the radius.
    None means every row is a candidate.
    """

    points: np.ndarray
    weights: tuple[float, ...] | None = None
    density_radius: float | None = None
    lag_distance: np.ndarray | None = None
    lag_margin: float = 0.0

    @property
    def size(self) -> int:
        return int(self.points.shape[0])


@dataclass(frozen=True)
class TorusGridSample:
    """Uniform lexicographic grid on the n-torus.

    ``weights`` None means the sup-of-circle-distances metric; a tuple of
    amplitude moduli means the chord metric with those weights.
    """

    cells: tuple[int, ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if any(m < 1 for m in self.cells):
            raise ValueError("need at least one cell per axis")
        if self.weights is not None and len(self.weights) != len(self.cells):
            raise ValueError("one weight per axis required")

    @property
    def size(self) -> int:
        return int(np.prod([int(m) for m in self.cells], dtype=np.int64))

    @property
    def combine(self):
        """How per-axis contributions join: max for the sup metric, sum for the chord metric."""
        return np.maximum if self.weights is None else np.add

    def metric_part(self, axis: int, angle):
        """Contribution of an angular offset along one axis: the angle (sup) or 2 w |sin(angle/2)|."""
        if self.weights is None:
            return angle
        return 2.0 * self.weights[axis] * np.abs(np.sin(0.5 * angle))

    @property
    def density_radius(self) -> float:
        # farthest any torus point can be from a grid point: half-cell offsets
        return float(reduce(self.combine, [
            self.metric_part(axis, math.pi / m) for axis, m in enumerate(self.cells)
        ]))

    def axis_profile(self, axis: int) -> np.ndarray:
        """Contribution of a pure offset o along one axis, o = 0..m//2."""
        m = self.cells[axis]
        return self.metric_part(axis, TWO_PI * np.arange(m // 2 + 1, dtype=np.float64) / m)

    def reach(self, axis: int, radius: float) -> int:
        """Largest offset along the axis with contribution strictly below radius."""
        profile = self.axis_profile(axis)
        below = np.flatnonzero(profile < radius)
        return int(below[-1]) if below.size else 0

    def offset_metric(self, offsets: Sequence[int]) -> float:
        """Metric value of an integer cell-offset vector (components <= m//2)."""
        return float(reduce(self.combine, [
            self.axis_profile(axis)[abs(o)] for axis, o in enumerate(offsets)
        ]))

    @classmethod
    def hull_grid(cls, f: QuasiperiodicSignal, eps: float) -> "TorusGridSample":
        weights = tuple(float(w) for w in f.amplitude_moduli)
        c2 = sum(weights)
        m = int(math.ceil(TWO_PI * SAFETY * c2 / eps))
        if m ** f.n > MAX_CELLS:
            raise BudgetExceeded(f"torus grid needs {m ** f.n} cells, cap is {MAX_CELLS}")
        return cls(cells=(m,) * f.n, weights=weights)


def _next_unset(flat: np.ndarray, start: int, block: int = 512) -> int:
    """Index of the first False at or after start, else -1. Monotone scans only."""
    n = flat.size
    c = start
    while c < n:
        seg = flat[c : c + block]
        i = int(seg.argmin())
        if not seg[i]:
            return c + i
        c += seg.size
    return -1


def _offsets_metric(sample: TorusGridSample, offsets: Sequence[np.ndarray]) -> np.ndarray:
    """Metric of every combination of per-axis cell offsets (entries <= m//2), axis k on dimension k."""
    n = len(offsets)
    parts = [
        sample.axis_profile(axis)[o].reshape([-1 if k == axis else 1 for k in range(n)])
        for axis, o in enumerate(offsets)
    ]
    return reduce(sample.combine, parts)


def _grid_ball_mask(sample: TorusGridSample, reaches: Sequence[int], radius: float) -> np.ndarray:
    """Stencil over the reach box: offsets with metric < radius (the whole box for sup)."""
    return _offsets_metric(sample, [np.abs(np.arange(-r, r + 1)) for r in reaches]) < radius


def _grid_mark_slow(covered: np.ndarray, sample: TorusGridSample, center, radius: float):
    """Exact ball marking via full per-axis distance arrays (small grids only)."""
    offsets = []
    for c, m in zip(center, sample.cells):
        o = np.abs(np.arange(m) - c)
        offsets.append(np.minimum(o, m - o))
    covered |= _offsets_metric(sample, offsets) < radius


def _cover_advances(sample: TorusGridSample, radius: float) -> list[int]:
    """Per-axis center offset keeping the first uncovered cell inside the ball."""
    n_axes = len(sample.cells)
    if sample.weights is None:
        advances = [sample.reach(axis, radius) for axis in range(n_axes)]
    else:
        advances = [sample.reach(axis, radius / n_axes) for axis in range(n_axes)]
    while sample.offset_metric(advances) >= radius and any(a > 0 for a in advances):
        k = max(range(n_axes), key=lambda a: advances[a])
        advances[k] -= 1
    return advances


def _grid_greedy(sample: TorusGridSample, radius: float, advances: Sequence[int]) -> int:
    """Count greedy balls: each is centered at the first unset cell plus ``advances``
    and marks every cell within radius.

    The grid is walked one line of the last axis at a time. On the line of its
    first unset cell every ball covers the same interval [c - w, c + w] (mod m)
    of the last axis, so the line's balls follow from its unset positions
    alone. They are then marked together: the flat index of each stencil cell
    is a wrapped lookup of its head offsets plus its last-axis offset, with the
    few cells past an end of the line moved by m.
    """
    cells = sample.cells
    reaches = [sample.reach(axis, radius) for axis in range(len(cells))]
    # the flags get an anonymous mapping of their own, so their pages go back to
    # the system on return; tens of MB freed to the heap would stay resident
    covered = np.frombuffer(mmap.mmap(-1, sample.size), dtype=bool)
    if any(2 * r + 1 > m for r, m in zip(reaches, cells)):
        # a ball wraps onto itself along some axis: mark each one exactly
        grid = covered.reshape(cells)
        count = 0
        i = _next_unset(covered, 0)
        while i >= 0:
            count += 1
            center = [(c + a) % m for c, a, m in zip(np.unravel_index(i, cells), advances, cells)]
            _grid_mark_slow(grid, sample, center, radius)
            i = _next_unset(covered, i + 1)
        return count
    mask = _grid_ball_mask(sample, reaches, radius)
    n = len(cells)
    m, a, r = cells[-1], advances[-1], reaches[-1]
    # the stencil row through the first unset cell; symmetric and contiguous
    w = int(np.count_nonzero(mask[tuple(q - b for q, b in zip(reaches[:-1], advances[:-1]))])) // 2
    # heads[i_0, ..., i_{n-2}] is the flat start of the line at head coordinates
    # (i_k - r_k) mod m_k: the stencil cell at head offsets o_k of a ball centered
    # at x_k + b_k lies on heads[x_k + b_k + o_k + r_k], wrapped on every head axis
    heads = np.zeros((), dtype=np.intp)
    for k in range(n - 1):
        wrapped = (np.arange(cells[k] + advances[k] + 2 * reaches[k]) - reaches[k]) % cells[k]
        heads = np.add.outer(heads, wrapped * int(np.prod(cells[k + 1 :])))
    head_strides = [int(np.prod(heads.shape[k + 1 :])) for k in range(n - 1)]
    heads = heads.ravel()
    coords = np.nonzero(mask)  # lexicographic order, offset o_k stored as o_k + r_k
    last = coords[-1] - r  # offsets along the last axis, in [-r, r]
    head_offsets = sum((coords[k] * head_strides[k] for k in range(n - 1)), np.zeros_like(last))
    # stencil cells from `ahead` on fall on lines after the line of the first unset
    # cell; the others fall on that line or earlier ones, which are never read again,
    # unless the ball wraps past 0 along a head axis onto a later line
    ahead = int(np.searchsorted(
        head_offsets, sum((reaches[k] - advances[k]) * head_strides[k] for k in range(n - 1)), "right"
    ))
    chunk = max(1, _SCATTER_CHUNK // last.size)
    count = 0
    i = _next_unset(covered, 0)
    while i >= 0:
        line, p = divmod(i, m)
        start = line * m
        key = 0
        first = ahead
        for k in range(n - 2, -1, -1):
            line, x = divmod(line, cells[k])
            key += (x + advances[k]) * head_strides[k]
            if x + advances[k] < reaches[k]:
                first = 0
        offsets = last[first:]
        cells_of_line = heads[key:][head_offsets[first:]]
        cells_of_line += offsets
        limit = m  # cells from limit on lie in the wrapped tail of the line's first ball
        while p < limit:
            # the line's balls, a window of cells at a time
            stop = min(limit, p + _SCATTER_CHUNK)
            unset = (np.flatnonzero(~covered[start + p : start + stop]) + p).tolist()
            p = stop
            centers = []
            j = 0
            while j < len(unset) and unset[j] < limit:
                c = unset[j] + a
                centers.append(c)
                if c < w:
                    limit = min(limit, m + c - w)
                p = max(p, c + w + 1)
                j = bisect_right(unset, c + w, j)
            count += len(centers)
            for lo in range(0, len(centers), chunk):
                batch = centers[lo : lo + chunk]
                idx = np.add.outer(np.array(batch), cells_of_line)
                # centers are ascending: only the first and last balls wrap past an end of the line
                for b, c in enumerate(batch):
                    if c >= r:
                        break
                    np.add(idx[b], m, out=idx[b], where=offsets < -c)
                for b in range(len(batch) - 1, -1, -1):
                    if batch[b] + r < m:
                        break
                    np.subtract(idx[b], m, out=idx[b], where=offsets >= m - batch[b])
                covered[idx] = True
        i = _next_unset(covered, start + m)
    return count


def _grid_greedy_cover(sample: TorusGridSample, radius: float) -> int:
    return _grid_greedy(sample, radius, _cover_advances(sample, radius))


def _grid_greedy_packing(sample: TorusGridSample, separation: float) -> int:
    return _grid_greedy(sample, separation, [0] * len(sample.cells))


def _candidate_lags(sample: PointSample, radius: float) -> tuple[np.ndarray, int]:
    """(lags, stop): the sorted row offsets, of both signs, at which a row can lie
    within radius of a center row, and the first positive offset at which none can.

    Row distances differ from the lag distance by at most ``lag_margin``, so no
    row at a lag with D(k h) >= radius + margin is within radius. Without lag
    distances every offset is a candidate.
    """
    n = sample.size
    if sample.lag_distance is None:
        return np.arange(1 - n, n), n
    near = sample.lag_distance < radius + sample.lag_margin
    k = np.flatnonzero(near)
    return np.concatenate((-k[:0:-1], k)), int(np.argmin(near)) or n  # near[0]: D(0) = 0


def _mark_within(marked: np.ndarray, sample: PointSample, c: int, radius: float, lags) -> None:
    """Mark the rows within radius of row c, testing only the rows at candidate lags."""
    rows = c + lags[np.searchsorted(lags, -c) : np.searchsorted(lags, sample.size - c)]
    near = torus_distance(sample.points[rows], sample.points[c], sample.weights) < radius
    marked[rows[near]] = True


def _points_greedy_cover(sample: PointSample, radius: float) -> int:
    points = sample.points
    n = sample.size
    lags, stop = _candidate_lags(sample, radius)
    covered = np.zeros(n, dtype=bool)
    count = 0
    u = _next_unset(covered, 0)
    while u >= 0:
        # slide the ball forward: last consecutive index still within radius of u;
        # the row at lag stop from u is out of reach
        end = min(n, u + stop + 1)
        c = end - 1
        for j in range(u + 1, end, 512):
            block = torus_distance(points[j : min(j + 512, end)], points[u], sample.weights)
            beyond = np.flatnonzero(block >= radius)
            if beyond.size:
                c = j + int(beyond[0]) - 1
                break
        count += 1
        _mark_within(covered, sample, c, radius, lags)
        u = _next_unset(covered, u + 1)
    return count


def _points_greedy_packing(sample: PointSample, separation: float) -> int:
    lags, _ = _candidate_lags(sample, separation)
    blocked = np.zeros(sample.size, dtype=bool)
    count = 0
    i = _next_unset(blocked, 0)
    while i >= 0:
        count += 1
        _mark_within(blocked, sample, i, separation, lags)
        i = _next_unset(blocked, i + 1)
    return count


def covering_number(sample, eps: float) -> tuple[int, int]:
    """(cover_upper, packing_lower) for a finite metric sample at radius eps.

    cover_upper counts greedy open balls of radius eps covering the sample,
    an upper bound for its covering number; packing_lower is the size of a
    greedy subset with pairwise distances >= 2*eps, a lower bound. Requires
    the sample to be eps/4-dense in its target set.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    density = sample.density_radius
    if density is not None and density > eps / 4.0 + 1e-12:
        raise GridTooCoarse(
            f"sample density radius {density:g} exceeds eps/4 = {eps / 4.0:g}"
        )
    if isinstance(sample, TorusGridSample):
        return (
            _grid_greedy_cover(sample, eps),
            _grid_greedy_packing(sample, 2.0 * eps),
        )
    return (
        _points_greedy_cover(sample, eps),
        _points_greedy_packing(sample, 2.0 * eps),
    )


# ---------------------------------------------------------------------------
# dimension reports


@dataclass(frozen=True)
class CoveringReport:
    """Covering/packing counts over a decreasing eps grid."""

    eps_grid: tuple[float, ...]
    counts: tuple[tuple[int, int], ...]

    def __post_init__(self):
        eps = self.eps_grid
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("eps grid must be strictly decreasing")
        if len(self.counts) != len(eps):
            raise ValueError("one (cover, packing) pair per eps required")


def dimension_fit(report: CoveringReport) -> tuple[float, float]:
    """(lower_dim, upper_dim) regression slopes of ln count against ln(1/eps).

    The lower estimate uses packing counts, the upper uses cover counts.
    """
    if len(report.eps_grid) < 4:
        raise TooFewScales(f"need >= 4 scales, have {len(report.eps_grid)}")
    if any(c < 1 or p < 1 for c, p in report.counts):
        raise ValueError("counts must be positive")
    lower, _, _ = loglog_fit(report.eps_grid, [p for _, p in report.counts])
    upper, _, _ = loglog_fit(report.eps_grid, [c for c, _ in report.counts])
    return lower, upper


def hull_dimension_report(f: QuasiperiodicSignal, eps_list: Sequence[float]) -> CoveringReport:
    """Covering/packing counts of the full torus under the chord metric."""
    counts = [covering_number(TorusGridSample.hull_grid(f, eps), eps) for eps in eps_list]
    return CoveringReport(eps_grid=tuple(eps_list), counts=tuple(counts))


# ---------------------------------------------------------------------------
# orbit-segment covering checks


def _lag_margin(f: QuasiperiodicSignal, s_lo: float, h: float, npts: int) -> float:
    """Bound on |chord(row k, row c) - D((k - c) h)| over the rows of an orbit segment sample.

    Row k folds fl(lambda_j s_k) with np.mod, where s_k = fl(s_lo + fl(k h)).
    In real arithmetic the chord distance of rows k and c is D((k - c) h)
    exactly (metric identity). In floating point, with unit roundoff u, the
    full angle of term j differs between the two sides by at most
      2 u (span + M) |lambda_j|  the rounding of s_k and s_c (|s_k| <= M),
      2 u M |lambda_j|           the products lambda_j s_k and lambda_j s_c,
      2 u span |lambda_j|        fl(m h) and the product in D's argument,
      2 ((|lambda_j| M / 2pi + 1) slip + half-ulp(2pi))
                                 the folds: np.mod subtracts whole multiples
                                 of the float 2pi, slip short of 2pi, and
                                 rounds when it adds 2pi to a negative remainder,
      half-ulp(2pi)              the difference of the folded angles,
    and 2 w |sin(x/2)| moves by at most w per unit of x. Each side also rounds
    one sin (allowed 4 ulp) and one product (u) per term, times 2 w_j, and
    n - 1 additions of at most u W each (W = sum 2 w_j). Second-order terms
    are dropped and the sum is multiplied by 2**10, which keeps the bound safe
    if a step was miscounted; a row that close to the radius is only tested
    exactly, never misjudged.
    """
    u = 2.0**-53
    half_ulp_2pi = 2.0**-51  # half an ulp of a float in [4, 8)
    sin_err = 2.0**-50  # 4 ulp of a float in [0.5, 1)
    slip = 2.5e-16  # 2*pi - TWO_PI = 2.449e-16, rounded up
    span = (npts - 1) * h
    M = max(abs(s_lo), abs(s_lo + span))
    weights = [float(w) for w in f.amplitude_moduli]
    bound = 2.0 * (len(weights) - 1) * u * 2.0 * sum(weights)
    for lam, w in zip(f.exponents_float, weights):
        lam = abs(float(lam))
        angle = (
            4.0 * u * lam * (span + M)  # the first three terms
            + 2.0 * ((lam * M / TWO_PI + 1.0) * slip + half_ulp_2pi)
            + half_ulp_2pi
        )
        bound += w * angle + 4.0 * w * (sin_err + u)
    return 2.0**10 * bound


def orbit_segment_sample(
    f: QuasiperiodicSignal, s_lo: float, s_hi: float, radius: float
) -> PointSample:
    """Dense sample of translate coordinates for s in [s_lo, s_hi].

    The s-step is radius/(SAFETY*C), so consecutive samples are within
    radius/SAFETY of each other in the chord metric. The rows lie on the
    arithmetic grid s_lo + k h, so the sample carries D(k h) as its lag
    distances.
    """
    C = lipschitz_constant(f)
    step = radius / (SAFETY * C)
    npts = int(math.ceil((s_hi - s_lo) / step)) + 1
    if npts > MAX_SEGMENT_POINTS:
        raise BudgetExceeded(f"segment sample needs {npts} points, cap is {MAX_SEGMENT_POINTS}")
    h = (s_hi - s_lo) / max(1, npts - 1)
    lags = np.arange(npts, dtype=np.float64) * h
    return PointSample(
        points=orbit_angles_many(f, s_lo + lags),
        weights=tuple(float(w) for w in f.amplitude_moduli),
        density_radius=C * (s_hi - s_lo) / max(1, npts - 1) / 2.0,
        lag_distance=translation_distance_many(f, lags),
        lag_margin=_lag_margin(f, s_lo, h, npts),
    )


@dataclass(frozen=True)
class SegmentCoverChecks:
    """Raw counts and pass flags for the segment-vs-hull covering comparisons."""

    eps: float
    inclusion_lengths: tuple[tuple[float, float], ...]
    segment_count_2eps: int
    segment_count_eps: int
    segment_count_half_eps: int
    hull_count_eps: int
    count_bound: float
    slack: float
    sandwich_lower_ok: bool
    sandwich_upper_ok: bool
    count_bound_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.sandwich_lower_ok and self.sandwich_upper_ok and self.count_bound_ok


def segment_cover_checks(
    f: QuasiperiodicSignal,
    eps: float,
    inclusion_lengths: Mapping[float, float],
) -> SegmentCoverChecks:
    """Compare orbit-segment covering counts with the full-hull count at eps.

    The segment at scale r is {translate(s) : |s| <= L(r/2)}, with L taken
    from ``inclusion_lengths`` (keys eps, eps/2, eps/4 required). Checks, up
    to the factor SEGMENT_SLACK: segment count at 2*eps <= hull count at eps
    <= segment count at eps/2, and the segment count at eps stays below
    2*L(eps/2)/delta + 1 for delta = (eps/2)/C. Reports numbers and flags,
    never raises on a violated inequality.
    """
    required = (eps, eps / 2.0, eps / 4.0)
    missing = [k for k in required if k not in inclusion_lengths]
    if missing:
        raise ValueError(f"inclusion lengths required at scales {missing}")
    C = lipschitz_constant(f)

    def segment_count(ball_radius: float, half_length: float) -> int:
        sample = orbit_segment_sample(f, -half_length, half_length, ball_radius)
        return _points_greedy_cover(sample, ball_radius)

    L_eps = inclusion_lengths[eps]
    L_half = inclusion_lengths[eps / 2.0]
    L_quarter = inclusion_lengths[eps / 4.0]
    seg_2eps = segment_count(2.0 * eps, L_eps)
    seg_eps = segment_count(eps, L_half)
    seg_half = segment_count(eps / 2.0, L_quarter)
    hull_eps = _grid_greedy_cover(TorusGridSample.hull_grid(f, eps), eps)
    delta_half = (eps / 2.0) / C
    bound = 2.0 * L_half / delta_half + 1.0
    return SegmentCoverChecks(
        eps=eps,
        inclusion_lengths=tuple((k, inclusion_lengths[k]) for k in required),
        segment_count_2eps=seg_2eps,
        segment_count_eps=seg_eps,
        segment_count_half_eps=seg_half,
        hull_count_eps=hull_eps,
        count_bound=bound,
        slack=SEGMENT_SLACK,
        sandwich_lower_ok=seg_2eps <= SEGMENT_SLACK * hull_eps,
        sandwich_upper_ok=hull_eps <= SEGMENT_SLACK * seg_half,
        count_bound_ok=seg_eps <= SEGMENT_SLACK * bound,
    )

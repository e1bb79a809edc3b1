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
from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

import numpy as np
from mpmath import mpf

from .almost_periods import loglog_fit
from .errors import BudgetExceeded, GridTooCoarse, TooFewScales
from .precision import fold_angle
from .signal import QuasiperiodicSignal, lipschitz_constant

TWO_PI = 2.0 * math.pi
DEFAULT_MAX_CELLS = 2**27
DEFAULT_MAX_SEGMENT_POINTS = 2**24


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
    as in torus_distance."""

    points: np.ndarray
    weights: tuple[float, ...] | None = None
    density_radius: float | None = None

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
    def density_radius(self) -> float:
        # farthest any torus point can be from a grid point: half-cell offsets
        parts = []
        for axis, m in enumerate(self.cells):
            half_cell = math.pi / m
            if self.weights is None:
                parts.append(half_cell)
            else:
                parts.append(2.0 * self.weights[axis] * abs(math.sin(0.5 * half_cell)))
        return max(parts) if self.weights is None else float(sum(parts))

    def axis_profile(self, axis: int) -> np.ndarray:
        """Contribution of a pure offset o along one axis, o = 0..m//2."""
        m = self.cells[axis]
        o = np.arange(m // 2 + 1, dtype=np.float64)
        if self.weights is None:
            return TWO_PI * o / m
        return 2.0 * self.weights[axis] * np.abs(np.sin(math.pi * o / m))

    def reach(self, axis: int, radius: float) -> int:
        """Largest offset along the axis with contribution strictly below radius."""
        profile = self.axis_profile(axis)
        below = np.flatnonzero(profile < radius)
        return int(below[-1]) if below.size else 0

    def offset_metric(self, offsets: Sequence[int]) -> float:
        """Metric value of an integer cell-offset vector (components <= m//2)."""
        parts = [float(self.axis_profile(axis)[abs(o)]) for axis, o in enumerate(offsets)]
        return max(parts) if self.weights is None else float(sum(parts))

    @classmethod
    def hull_grid(
        cls,
        f: QuasiperiodicSignal,
        eps: float,
        safety: float = 4.0,
        max_cells: int = DEFAULT_MAX_CELLS,
    ) -> "TorusGridSample":
        weights = tuple(float(w) for w in f.amplitude_moduli)
        c2 = sum(weights)
        m = int(math.ceil(TWO_PI * safety * c2 / eps))
        if m ** f.n > max_cells:
            raise BudgetExceeded(f"torus grid needs {m ** f.n} cells, cap is {max_cells}")
        return cls(cells=(m,) * f.n, weights=weights)

    @classmethod
    def sup_grid(
        cls, n: int, eps: float, safety: float = 4.0, max_cells: int = DEFAULT_MAX_CELLS
    ) -> "TorusGridSample":
        m = int(math.ceil(TWO_PI * safety / eps))
        if m**n > max_cells:
            raise BudgetExceeded(f"torus grid needs {m ** n} cells, cap is {max_cells}")
        return cls(cells=(m,) * n, weights=None)


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


def _grid_mark(covered: np.ndarray, center: Sequence[int], reaches: Sequence[int], mask):
    """OR a stencil (or a full box when mask is None) into covered, with wraparound."""
    axis_segments = []
    for c, r, m in zip(center, reaches, covered.shape):
        length = 2 * r + 1
        start = (c - r) % m
        if start + length <= m:
            axis_segments.append([(start, start + length, 0, length)])
        else:
            first = m - start
            axis_segments.append([(start, m, 0, first), (0, length - first, first, length)])
    for combo in product(*axis_segments):
        grid_idx = tuple(slice(g0, g1) for g0, g1, _, _ in combo)
        if mask is None:
            covered[grid_idx] = True
        else:
            mask_idx = tuple(slice(m0, m1) for _, _, m0, m1 in combo)
            covered[grid_idx] |= mask[mask_idx]


def _grid_ball_mask(sample: TorusGridSample, reaches: Sequence[int], radius: float):
    """Stencil of offsets with metric < radius, or None when the box is entirely inside."""
    if sample.weights is None:
        return None  # sup metric: every cell of the reach box is inside the ball
    grids = [
        sample.axis_profile(axis)[np.abs(np.arange(-r, r + 1))] for axis, r in enumerate(reaches)
    ]
    total = grids[0]
    for g in grids[1:]:
        total = total[..., None] + g
    return total < radius


def _grid_mark_slow(covered: np.ndarray, sample: TorusGridSample, center, radius: float):
    """Exact ball marking via full per-axis distance arrays (small grids only)."""
    parts = []
    for axis, (c, m) in enumerate(zip(center, sample.cells)):
        o = np.abs(np.arange(m) - c)
        o = np.minimum(o, m - o)
        contrib = sample.axis_profile(axis)[o]
        shape = [1] * len(sample.cells)
        shape[axis] = m
        parts.append(contrib.reshape(shape))
    if sample.weights is None:
        total = parts[0]
        for p in parts[1:]:
            total = np.maximum(total, p)
    else:
        total = parts[0]
        for p in parts[1:]:
            total = total + p
    covered |= total < radius


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


def _grid_greedy_cover(sample: TorusGridSample, radius: float) -> int:
    reaches = [sample.reach(axis, radius) for axis in range(len(sample.cells))]
    slow = any(2 * r + 1 > m for r, m in zip(reaches, sample.cells))
    mask = None if slow else _grid_ball_mask(sample, reaches, radius)
    covered = np.zeros(sample.cells, dtype=bool)
    flat = covered.reshape(-1)
    shape = covered.shape
    advances = _cover_advances(sample, radius)
    cursor = 0
    count = 0
    while True:
        i = _next_unset(flat, cursor)
        if i < 0:
            break
        count += 1
        center = [
            (c + a) % m for c, a, m in zip(np.unravel_index(i, shape), advances, shape)
        ]
        if slow:
            _grid_mark_slow(covered, sample, center, radius)
        else:
            _grid_mark(covered, center, reaches, mask)
        cursor = i
    return count


def _grid_greedy_packing(sample: TorusGridSample, separation: float) -> int:
    reaches = [sample.reach(axis, separation) for axis in range(len(sample.cells))]
    slow = any(2 * r + 1 > m for r, m in zip(reaches, sample.cells))
    mask = None if slow else _grid_ball_mask(sample, reaches, separation)
    blocked = np.zeros(sample.cells, dtype=bool)
    flat = blocked.reshape(-1)
    shape = blocked.shape
    cursor = 0
    count = 0
    while True:
        i = _next_unset(flat, cursor)
        if i < 0:
            break
        count += 1
        center = list(np.unravel_index(i, shape))
        if slow:
            _grid_mark_slow(blocked, sample, center, separation)
        else:
            _grid_mark(blocked, center, reaches, mask)
        cursor = i + 1
    return count


def _points_greedy_cover(sample: PointSample, radius: float) -> int:
    points = sample.points
    n = sample.size
    covered = np.zeros(n, dtype=bool)
    cursor = 0
    count = 0
    while True:
        u = _next_unset(covered, cursor)
        if u < 0:
            break
        # slide the ball forward: last consecutive index still within radius of u
        c = u
        j = u + 1
        while j < n:
            block = torus_distance(points[j : j + 512], points[u], sample.weights)
            beyond = np.flatnonzero(block >= radius)
            if beyond.size:
                c = j + int(beyond[0]) - 1
                break
            j += block.size
            c = j - 1
        count += 1
        covered |= torus_distance(points, points[c], sample.weights) < radius
        cursor = u
    return count


def _points_greedy_packing(sample: PointSample, separation: float) -> int:
    points = sample.points
    n = sample.size
    blocked = np.zeros(n, dtype=bool)
    cursor = 0
    count = 0
    while True:
        i = _next_unset(blocked, cursor)
        if i < 0:
            break
        count += 1
        blocked |= torus_distance(points, points[i], sample.weights) < separation
        blocked[i] = True
        cursor = i + 1
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
    """Covering/packing counts over a decreasing eps grid, with optional fit."""

    eps_grid: tuple[float, ...]
    counts: tuple[tuple[int, int], ...]
    lower_dim: float | None = None
    upper_dim: float | None = None

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


def hull_dimension_report(
    f: QuasiperiodicSignal,
    eps_list: Sequence[float],
    safety: float = 4.0,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> CoveringReport:
    """Covering/packing counts of the full torus under the chord metric."""
    counts = []
    for eps in eps_list:
        grid = TorusGridSample.hull_grid(f, eps, safety=safety, max_cells=max_cells)
        counts.append(covering_number(grid, eps))
    return CoveringReport(eps_grid=tuple(eps_list), counts=tuple(counts))


def torus_dimension_report(
    n: int,
    eps_list: Sequence[float],
    safety: float = 4.0,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> CoveringReport:
    """Covering/packing counts of the n-torus under the sup metric."""
    counts = []
    for eps in eps_list:
        grid = TorusGridSample.sup_grid(n, eps, safety=safety, max_cells=max_cells)
        counts.append(covering_number(grid, eps))
    return CoveringReport(eps_grid=tuple(eps_list), counts=tuple(counts))


# ---------------------------------------------------------------------------
# orbit-segment covering checks


def orbit_segment_sample(
    f: QuasiperiodicSignal,
    s_lo: float,
    s_hi: float,
    radius: float,
    safety: float = 4.0,
    max_points: int = DEFAULT_MAX_SEGMENT_POINTS,
) -> PointSample:
    """Dense sample of translate coordinates for s in [s_lo, s_hi].

    The s-step is radius/(safety*C), so consecutive samples are within
    radius/safety of each other in the chord metric.
    """
    C = lipschitz_constant(f)
    step = radius / (safety * C)
    npts = int(math.ceil((s_hi - s_lo) / step)) + 1
    if npts > max_points:
        raise BudgetExceeded(f"segment sample needs {npts} points, cap is {max_points}")
    s = s_lo + np.arange(npts, dtype=np.float64) * ((s_hi - s_lo) / max(1, npts - 1))
    return PointSample(
        points=orbit_angles_many(f, s),
        weights=tuple(float(w) for w in f.amplitude_moduli),
        density_radius=C * (s_hi - s_lo) / max(1, npts - 1) / 2.0,
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
    slack: float = 2.0,
    safety: float = 4.0,
    max_cells: int = DEFAULT_MAX_CELLS,
    max_segment_points: int = DEFAULT_MAX_SEGMENT_POINTS,
) -> SegmentCoverChecks:
    """Compare orbit-segment covering counts with the full-hull count at eps.

    The segment at scale r is {translate(s) : |s| <= L(r/2)}, with L taken
    from ``inclusion_lengths`` (keys eps, eps/2, eps/4 required). Checks, with
    a multiplicative slack: segment count at 2*eps <= hull count at eps <=
    segment count at eps/2, and the segment count at eps stays below
    2*L(eps/2)/delta + 1 for delta = (eps/2)/C. Reports numbers and flags,
    never raises on a violated inequality.
    """
    required = (eps, eps / 2.0, eps / 4.0)
    missing = [k for k in required if k not in inclusion_lengths]
    if missing:
        raise ValueError(f"inclusion lengths required at scales {missing}")
    C = lipschitz_constant(f)

    def segment_count(ball_radius: float, half_length: float) -> int:
        sample = orbit_segment_sample(
            f, -half_length, half_length, ball_radius, safety=safety,
            max_points=max_segment_points,
        )
        return _points_greedy_cover(sample, ball_radius)

    L_eps = inclusion_lengths[eps]
    L_half = inclusion_lengths[eps / 2.0]
    L_quarter = inclusion_lengths[eps / 4.0]
    seg_2eps = segment_count(2.0 * eps, L_eps)
    seg_eps = segment_count(eps, L_half)
    seg_half = segment_count(eps / 2.0, L_quarter)
    hull_grid = TorusGridSample.hull_grid(f, eps, safety=safety, max_cells=max_cells)
    hull_eps = _grid_greedy_cover(hull_grid, eps)
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
        slack=slack,
        sandwich_lower_ok=seg_2eps <= slack * hull_eps,
        sandwich_upper_ok=hull_eps <= slack * seg_half,
        count_bound_ok=seg_eps <= slack * bound,
    )

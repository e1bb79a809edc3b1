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
from typing import Callable, Sequence

import numpy as np
from mpmath import mpf

from .almost_periods import loglog_fit
from .errors import BudgetExceeded, GridTooCoarse, TooFewScales, grid_count
from .precision import fold_angle
from .signal import QuasiperiodicSignal, lipschitz_constant, translation_distance_many

TWO_PI = 2.0 * math.pi
# cap on hull-grid cells; it bounds the greedy walks' time, not their memory,
# since their flags are held for a band of lines, not the grid
MAX_CELLS = 2**27
MAX_SEGMENT_POINTS = 2**24
# hull grids and orbit segments are SAFETY times finer than the radius needs
SAFETY = 4.0
_SCATTER_CHUNK = 2**14  # grid greedy: flat indices per scatter batch of an n >= 3 line's balls
_TABLE_CELLS = 64  # grid greedy: unset cells from which a line's chain is cheaper from a table than walked
_REACH_PROBES = 4096  # _reach: offsets per metric call, so a half-axis of up to this many takes one call


def orbit_angles(f: QuasiperiodicSignal, s: float) -> np.ndarray:
    """Angle coordinates of the s-translate, lambda_j * s mod 2*pi per term.

    Each angle is reduced at working precision, then rounded to a float; one
    that rounds up to 2*pi folds to 0.0, so every angle lies in [0, 2*pi).
    """
    return np.array([float(fold_angle(lam * mpf(s))) % TWO_PI for lam in f.exponents])


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


def equivalence_constants(f: QuasiperiodicSignal) -> tuple[float, float]:
    """Exact bounds C1 <= chord / torus < C2 on the ratio of the two metrics.

    Both metrics depend only on the difference x of the two points. With w_j
    the amplitude moduli, fold x != 0 to angles in [-pi, pi]; its torus
    distance from 0 is M = |x_k| for some k. Since sin(t/2) >= t/pi
    on [0, pi], the chord metric sum_j 2 w_j |sin(x_j/2)| is at least
    2 w_k sin(M/2) >= 2 w_k M/pi, with equality at x_k = pi and every other
    x_j = 0: C1 = 2 min_j w_j / pi. Since |sin(t/2)| <= |t|/2, it is at most
    sum_j w_j M, approached on the diagonal as M -> 0 and never attained:
    C2 = sum_j w_j, summed in term order.
    """
    w = [float(w) for w in f.amplitude_moduli]
    return 2.0 * min(w) / math.pi, sum(w)


# ---------------------------------------------------------------------------
# finite metric samples and greedy covering/packing


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

    @classmethod
    def hull_grid(cls, f: QuasiperiodicSignal, eps: float) -> "TorusGridSample":
        m = grid_count(TWO_PI * SAFETY * equivalence_constants(f)[1], eps)
        if m ** f.n > MAX_CELLS:
            raise BudgetExceeded(f"torus grid needs {m ** f.n} cells, cap is {MAX_CELLS}")
        return cls(cells=(m,) * f.n, weights=tuple(float(w) for w in f.amplitude_moduli))


def _next_unset(flat: np.ndarray, start: int, block: int = 512) -> int:
    """Index of the first False at or after start, else -1. Monotone scans only.

    Each block read is twice the one before, so a long run of set flags costs
    a few reads.
    """
    n = flat.size
    c = start
    while c < n:
        seg = flat[c : c + block]
        i = int(seg.argmin())
        if not seg[i]:
            return c + i
        c += seg.size
        block *= 2
    return -1


def _offsets_metric(sample: TorusGridSample, offsets: Sequence[Sequence[float]]) -> np.ndarray:
    """Metric of every combination of per-axis cell offsets (|o| <= m//2), axis k on dimension k."""
    angles = [TWO_PI * np.abs(np.asarray(o, dtype=np.float64)) / m for o, m in zip(offsets, sample.cells)]
    points = np.stack(np.meshgrid(*angles, indexing="ij"), axis=-1)
    return torus_distance(points, np.zeros(len(angles)), sample.weights)


def _reach(sample: TorusGridSample, axis: int, radius: float) -> int:
    """Largest offset along the axis, others 0, with metric strictly below radius (0 if none is).

    A K-ary search that assumes the computed metric does not decrease along the half-axis
    0..m//2: one call per level measures up to _REACH_PROBES offsets of [lo, hi), which holds
    the first offset not below radius, and keeps the gap after the last probe below radius."""
    offsets = [[0]] * len(sample.cells)
    lo, hi = 0, sample.cells[axis] // 2 + 1
    while lo < hi:
        k = min(hi - lo, _REACH_PROBES)
        offsets[axis] = probes = lo + np.arange(k) * (hi - lo) // k
        below = int(np.count_nonzero(_offsets_metric(sample, offsets) < radius))
        lo, hi = (int(probes[below - 1]) + 1 if below else lo), (int(probes[below]) if below < k else hi)
    return max(lo - 1, 0)


def _cover_advances(sample: TorusGridSample, radius: float) -> list[int]:
    """Per-axis center offset keeping the first uncovered cell inside the ball."""
    n_axes = len(sample.cells)
    per_axis = radius if sample.weights is None else radius / n_axes
    advances = [_reach(sample, axis, per_axis) for axis in range(n_axes)]
    while (
        _offsets_metric(sample, [[a] for a in advances]).item() >= radius
        and any(a > 0 for a in advances)
    ):
        k = max(range(n_axes), key=lambda a: advances[a])
        advances[k] -= 1
    return advances


def _ball_centers(unset: np.ndarray, p: int, a: int, w: int) -> np.ndarray:
    """Last-axis centers of the balls that a line calls for.

    ``unset`` flags the line's unset cells from position p on, short of the
    first ball's wrapped tail. Each ball is centered a past the first unset
    cell that no earlier ball reaches, and reaches w cells either side of its
    center. On a line with many unset cells one search gives each the first
    unset cell past its ball's reach, and the chain follows that table; a few
    cells are simply walked in order.
    """
    cells = np.flatnonzero(unset)
    if cells.size >= _TABLE_CELLS:
        after = np.searchsorted(cells, cells + (a + w), "right").tolist()
        size = len(after)
        chain = []
        j = 0
        while j < size:
            chain.append(j)
            j = after[j]
        return cells[chain] + (p + a)
    centers = []
    reach = -1
    for c in cells.tolist():
        if c > reach:
            centers.append(c + p + a)
            reach = c + a + w
    return np.array(centers, dtype=np.intp)


def _line_dilation(m: int, R: int) -> Callable[[np.ndarray], np.ndarray]:
    """``dilate(centers)`` for a line of m cells, with R <= m/2.

    It returns a view whose row h, for h <= R, flags the cells within h of a
    center, circularly. The buffers are made once: column j stands for cell
    (j - R) mod m, and row h is exact in columns h to m + 2R - h. ``grow``
    flags the cells at most one past a center, so each row is one OR: row h at
    column j is row h - 1 at column j + 1 (centers from h - 2 before j to h
    after it) or grow at column j - h + 1 (centers h and h - 1 before j).
    """
    size = m + 2 * R
    stack = np.zeros((R + 1, size), dtype=bool)
    grow = np.zeros(size, dtype=bool)
    line = stack[0]
    pads = ((line[:R], line[m : m + R]), (line[m + R :], line[R : 2 * R]))
    steps = [
        (stack[h - 1, h + 1 : size - h + 1], grow[1 : size - 2 * h + 1], stack[h, h : size - h])
        for h in range(1, R + 1)
    ]
    cells = stack[:, R : R + m]

    def dilate(centers: np.ndarray) -> np.ndarray:
        line[:] = False
        line[centers % m + R] = True
        for pad, source in pads:
            pad[:] = source
        np.logical_or(line[1:], line[:-1], out=grow[1:])
        for before, grown, out in steps:
            np.logical_or(before, grown, out=out)
        return cells

    return dilate


def _grid_greedy(sample: TorusGridSample, radius: float, advances: Sequence[int]) -> int:
    """Count greedy balls: each is centered at the first unset cell plus ``advances``
    and marks every cell within radius.

    On the line of its first unset cell every ball covers the same interval
    [c - w, c + w] (mod m) of the last axis, and only the line's first ball can
    wrap past 0. So n = 1, one line, has a closed form: a chain from cell 0 in
    steps of a + w + 1 up to that ball's tail [m + a - w, m). Other grids are
    walked a line of the last axis at a time: one read, up to short of the tail,
    gives the line's balls, which are then marked together, since on its own
    line a ball marks only the tail and cells the chain has passed. For n = 2 a
    stencil row is a run of half-width h along the last axis; it ORs the line's
    centers, grown by h cells, into its line through a slice of the rows after
    the line's row, or of the last planes if it wraps below line 0. For n >= 3
    each stencil cell's flat index is its line's start plus its last-axis
    offset, moved by m past an end of the line, and each batch of balls is one
    scatter. A ball wraps onto itself only when an axis has m even and reach
    m/2; its stencil then holds the cell at offset +-m/2 twice, and marking a
    cell twice does nothing.

    Flags live in one buffer: W + ceil(W/2) held lines from line ``origin`` on,
    where no ball read on a line marks W or more lines past it, then the last
    planes, lines ``split`` on, which marks wrapping below 0 along axis 0
    reach. Once the scan is ceil(W/2) lines past origin, the held lines slide up
    to its line, but never past the last planes. Marks before origin are
    dropped, since every cell before the scan is covered; where a scattered
    mark lands depends only on its line, so it is routed once per line. This is
    exact because:
    - before the last slide the scan is less than ceil(W/2) lines past origin,
      so no mark reaches past origin + held;
    - marks past the held lines come only from balls that wrap below 0 along
      axis 0, and they land on lines from split on;
    - after the last slide, row L - origin is line L for every line left; a
      row past the buffer's end is a line from m_0 on, wrapped onto one passed.
    """
    cells = sample.cells
    n = len(cells)
    reaches = [_reach(sample, axis, radius) for axis in range(n)]
    # stencil over the reach box: offsets with metric < radius (the whole box for sup)
    mask = _offsets_metric(sample, [np.arange(-r, r + 1) for r in reaches]) < radius
    m, a, r = cells[-1], advances[-1], reaches[-1]
    # the stencil row through the first unset cell; symmetric and contiguous
    w = int(np.count_nonzero(mask[tuple(q - b for q, b in zip(reaches[:-1], advances[:-1]))])) // 2
    if n == 1:
        return -(-(m - max(0, w - a)) // (a + w + 1))
    # heads[i_0, ..., i_{n-2}] is the flat start of the line at head coordinates
    # (i_k - r_k) mod m_k: the stencil cell at head offsets o_k of a ball centered
    # at x_k + b_k lies on heads[x_k + b_k + o_k + r_k], wrapped on every head axis
    heads = np.zeros((), dtype=np.intp)
    for k in range(n - 1):
        wrapped = (np.arange(cells[k] + advances[k] + 2 * reaches[k]) - reaches[k]) % cells[k]
        heads = np.add.outer(heads, wrapped * math.prod(cells[k + 1 :]))
    head_strides = [int(np.prod(heads.shape[k + 1 :])) for k in range(n - 1)]
    heads = heads.ravel()
    coords = np.nonzero(mask)  # lexicographic order, offset o_k stored as o_k + r_k
    last = coords[-1] - r  # offsets along the last axis, in [-r, r]
    head_offsets = sum(coords[k] * head_strides[k] for k in range(n - 1))
    # stencil cells from `ahead` on fall on lines after the line of the first unset
    # cell; the others fall on that line or earlier ones, which are never read again,
    # unless the ball wraps past 0 along a head axis onto a later line
    own = sum((reaches[k] - advances[k]) * head_strides[k] for k in range(n - 1))  # the line itself
    ahead = int(np.searchsorted(head_offsets, own, "right"))
    # on a line whose stencil wraps on no head axis, those cells lie at flat_ahead
    # from the start of the line at head coordinates x_k + b_k - r_k
    flat_ahead = sum(
        (coords[k][ahead:] * math.prod(cells[k + 1 :]) for k in range(n - 1)), last[ahead:]
    )
    lines = math.prod(cells[:-1])
    plane = math.prod(cells[1:-1])  # lines per step along axis 0
    reach_lines = (advances[0] + reaches[0] + 1) * plane
    lead = (reach_lines + 1) // 2  # lines the scan reads past origin before a slide
    held = min(reach_lines + lead, lines)
    split = min(lines, max(held, (cells[0] - reaches[0] + advances[0]) * plane))
    # rows [0, held) hold lines [origin, origin + held), the rows after them lines [split, lines)
    flags = np.zeros((held + lines - split) * m, dtype=bool)
    origin = 0
    scan = flags[: held * m] if held < split else flags  # the rows the scan reads
    chunk = max(1, _SCATTER_CHUNK // last.size)
    if n == 2:
        half = np.count_nonzero(mask, axis=1) // 2  # of each stencil row's run of the last axis
        behind = reaches[0] - advances[0]  # the line's own stencil row
        # a row that wraps below line 0 mirrors one after the line's own: none is wider
        half_ahead = half[behind + 1 :]
        dilate = _line_dilation(m, int(half_ahead.max(initial=0)))
        marks = flags.reshape(-1, m)  # one row per line of the buffer
    count = 0
    i = _next_unset(scan, 0)
    while True:
        if origin + held < split and (i < 0 or i >= lead * m):
            # slide to the scan's line, or past the held lines, but not past the last planes
            shift = min(held if i < 0 else i // m, split - held - origin)
            flags[: (held - shift) * m] = flags[shift * m : held * m]
            flags[(held - shift) * m : held * m] = False
            origin += shift
            if origin + held == split:
                scan = flags
            i = _next_unset(scan, 0) if i < 0 else i - shift * m
            continue
        if i < 0:
            return count
        line, p = divmod(i, m)
        start = line * m
        line += origin
        key, first, fast = 0, ahead, True
        for k in range(n - 2, -1, -1):
            line, x = divmod(line, cells[k])
            key += (x + advances[k]) * head_strides[k]
            if x + advances[k] < reaches[k]:
                first = 0
            fast = fast and reaches[k] <= x + advances[k] < cells[k] - reaches[k]
        # the line's balls: only the first can wrap past 0, and the read stops short of its tail
        centers = _ball_centers(~flags[start + p : start + m + min(0, p + a - w)], p, a, w)
        count += centers.size
        if n == 2:
            # each stencil row ORs the line's centers, grown to its half-width, into its line
            grown = dilate(centers)
            after = marks[start // m + 1 :][: half_ahead.size]
            after |= grown[half_ahead[: len(after)]]
            wrap = behind - x
            if wrap > 0:
                marks[held + cells[0] - wrap - split :][:wrap] |= grown[half[:wrap]]
        else:
            if fast:
                offsets = last[ahead:]
                base = heads[key] - origin * m
                cells_of_line = flat_ahead
            else:
                # lines past the held ones are in the last planes' rows; those before origin are covered
                starts = heads[key:][head_offsets[first:]] - origin * m
                starts[starts >= held * m] += (origin + held - split) * m
                kept = starts >= 0
                offsets = last[first:][kept]
                base = 0
                cells_of_line = starts[kept] + offsets
            for lo in range(0, centers.size, chunk):
                batch = centers[lo : lo + chunk]
                idx = np.add.outer(batch + base, cells_of_line)
                # centers are ascending: only the first and last balls wrap past an end of the line
                for b, c in enumerate(batch):
                    if c >= r:
                        break
                    np.add(idx[b], m, out=idx[b], where=offsets < -c)
                for b in range(batch.size - 1, -1, -1):
                    if batch[b] + r < m:
                        break
                    np.subtract(idx[b], m, out=idx[b], where=offsets >= m - batch[b])
                flags[idx] = True
        i = _next_unset(scan, start + m)


def _grid_greedy_cover(sample: TorusGridSample, radius: float) -> int:
    return _grid_greedy(sample, radius, _cover_advances(sample, radius))


def _grid_greedy_packing(sample: TorusGridSample, separation: float) -> int:
    return _grid_greedy(sample, separation, [0] * len(sample.cells))


def _points_greedy_cover(sample: np.ndarray, radius: float) -> int:
    """Greedy open-ball cover of an orbit segment given by its lag distances.

    Translates i and j of the segment are sample[|i - j|] apart, so the ball at
    translate c holds exactly the translates c + k with sample[|k|] < radius.
    """
    n = sample.size
    # lags are the sorted offsets, of both signs, within radius of a center, and
    # stop is the first positive offset out of reach
    near = sample < radius
    k = np.flatnonzero(near)
    lags = np.concatenate((-k[:0:-1], k))
    stop = int(np.argmin(near)) or n  # near[0]: D(0) = 0
    covered = np.zeros(n, dtype=bool)
    count = 0
    u = _next_unset(covered, 0)
    while u >= 0:
        # slide the ball forward to the last translate that still holds u
        c = min(n, u + stop) - 1
        count += 1
        covered[c + lags[np.searchsorted(lags, -c) : np.searchsorted(lags, n - c)]] = True
        u = _next_unset(covered, u + 1)
    return count


def covering_number(sample: TorusGridSample, eps: float) -> tuple[int, int]:
    """(cover_upper, packing_lower) for a torus grid at radius eps.

    cover_upper counts greedy open balls of radius eps covering the grid,
    an upper bound for its covering number; packing_lower is the size of a
    greedy subset with pairwise distances >= 2*eps, a lower bound. Requires
    the grid to be eps/4-dense in the torus.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    # farthest any torus point can be from a grid point: half-cell offsets
    density = _offsets_metric(sample, [[0.5]] * len(sample.cells)).item()
    if density > eps / 4.0 + 1e-12:
        raise GridTooCoarse(
            f"sample density radius {density:g} exceeds eps/4 = {eps / 4.0:g}"
        )
    return (
        _grid_greedy_cover(sample, eps),
        _grid_greedy_packing(sample, 2.0 * eps),
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
    # every grid first, so a scale over the cell budget fails before any cover
    grids = [TorusGridSample.hull_grid(f, eps) for eps in eps_list]
    counts = [covering_number(grid, eps) for grid, eps in zip(grids, eps_list)]
    return CoveringReport(eps_grid=tuple(eps_list), counts=tuple(counts))


# ---------------------------------------------------------------------------
# orbit segments


def orbit_segment_sample(
    f: QuasiperiodicSignal, s_lo: float, s_hi: float, radius: float
) -> np.ndarray:
    """Lag distances D(k h), k = 0..npts-1, of a dense orbit segment on [s_lo, s_hi].

    The segment is the translates at s_lo + k h. The s-step h is at most
    radius/(SAFETY*C), so consecutive translates are within radius/SAFETY of
    each other in the chord metric. By the metric identity, translates i and j
    are D(|i - j| h) apart, so these distances are the whole sample.
    """
    C = lipschitz_constant(f)
    step = radius / (SAFETY * C)
    npts = grid_count(s_hi - s_lo, step) + 1
    if npts > MAX_SEGMENT_POINTS:
        raise BudgetExceeded(f"segment sample needs {npts} points, cap is {MAX_SEGMENT_POINTS}")
    h = (s_hi - s_lo) / max(1, npts - 1)
    return translation_distance_many(f, np.arange(npts, dtype=np.float64) * h)

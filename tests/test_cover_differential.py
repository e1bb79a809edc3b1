"""Differential gate for the greedy covers of qplab.dimension.

The torus-grid greedy works one line of the last axis at a time, marks a
line's balls together (for n = 2 by growing the line's centers to each stencil
row's half-width and ORing them through two slices of the flags, the rows after
the line's own and the rows that wrap below line 0, otherwise in one scatter),
and holds its flags for a band of lines that slides until it meets the grid's
last planes; the orbit-segment greedy marks each ball's lag offsets, the k with
D(k h) below the radius. Both must give exactly the counts
of the per-ball references kept here: the grid greedy that finds each first
unset cell and marks one ball at a time (``_grid_mark``, ``_next_unset``, and
``_grid_mark_slow`` from full per-axis distances when a ball wraps onto itself
along some axis, which the line-by-line scatter handles like any other ball),
and two segment greedies that test every row: one on float angle rows of the
translates (``reference_points_cover``), one at the lag distances. The grid's
reach, stencil box and density radius, which qplab measures with
torus_distance, must also equal the per-axis references here bit for bit, and
the reach, a K-ary search of the half-axis, must equal a scan of every offset.
"""
import math
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from qplab import dimension, verify
from qplab.almost_periods import length_curve
from qplab.dimension import (
    TorusGridSample,
    _grid_greedy_cover,
    _grid_greedy_packing,
    _points_greedy_cover,
    orbit_segment_sample,
    torus_distance,
)
from qplab.signal import QuasiperiodicSignal
from qplab.verify import GOLDEN_EPS_LADDER

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# reference: the per-ball greedy covers


def _axis_part(sample, axis, o):
    """Metric of offsets 0 <= o <= m/2 along one axis: the circle distance of the angle
    (sup) or 2 w |sin(angle/2)| (chord)."""
    m = sample.cells[axis]
    if sample.weights is None:
        # at o = m/2 the angle can round to one ulp above pi; the circle distance folds it back
        a = TWO_PI * o / m
        return np.minimum(a, TWO_PI - a)
    return 2.0 * sample.weights[axis] * np.abs(np.sin(math.pi * o / m))


def _axis_profile(sample, axis):
    m = sample.cells[axis]
    return _axis_part(sample, axis, np.arange(m // 2 + 1, dtype=np.float64))


def _reach(sample, axis, radius):
    below = np.flatnonzero(_axis_profile(sample, axis) < radius)
    return int(below[-1]) if below.size else 0


def _offset_metric(sample, offsets):
    parts = [float(_axis_profile(sample, axis)[abs(o)]) for axis, o in enumerate(offsets)]
    return max(parts) if sample.weights is None else float(sum(parts))


def _box_metric(sample, offsets):
    """Metric of every combination of per-axis offsets, parts joined in axis order."""
    parts = [
        _axis_part(sample, axis, np.abs(np.asarray(o, dtype=np.float64)))
        for axis, o in enumerate(offsets)
    ]
    total = parts[0]
    for p in parts[1:]:
        total = np.maximum(total[..., None], p) if sample.weights is None else total[..., None] + p
    return total


def _next_unset(flat, start, block=512):
    n = flat.size
    c = start
    while c < n:
        seg = flat[c : c + block]
        i = int(seg.argmin())
        if not seg[i]:
            return c + i
        c += seg.size
    return -1


def _grid_mark(covered, center, reaches, mask):
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


def _grid_ball_mask(sample, reaches, radius):
    if sample.weights is None:
        return None
    return _box_metric(sample, [np.arange(-r, r + 1) for r in reaches]) < radius


def _grid_mark_slow(covered, sample, center, radius):
    parts = []
    for axis, (c, m) in enumerate(zip(center, sample.cells)):
        o = np.abs(np.arange(m) - c)
        o = np.minimum(o, m - o)
        shape = [1] * len(sample.cells)
        shape[axis] = m
        parts.append(_axis_profile(sample, axis)[o].reshape(shape))
    total = parts[0]
    for p in parts[1:]:
        total = np.maximum(total, p) if sample.weights is None else total + p
    covered |= total < radius


def _cover_advances(sample, radius):
    n_axes = len(sample.cells)
    per_axis = radius if sample.weights is None else radius / n_axes
    advances = [_reach(sample, axis, per_axis) for axis in range(n_axes)]
    while _offset_metric(sample, advances) >= radius and any(a > 0 for a in advances):
        k = max(range(n_axes), key=lambda a: advances[a])
        advances[k] -= 1
    return advances


def _reference_grid(sample, radius, advances, cursor_step):
    reaches = [_reach(sample, axis, radius) for axis in range(len(sample.cells))]
    slow = any(2 * r + 1 > m for r, m in zip(reaches, sample.cells))
    mask = None if slow else _grid_ball_mask(sample, reaches, radius)
    covered = np.zeros(sample.cells, dtype=bool)
    flat = covered.reshape(-1)
    cursor = 0
    count = 0
    while True:
        i = _next_unset(flat, cursor)
        if i < 0:
            return count
        count += 1
        center = [(c + a) % m for c, a, m in zip(np.unravel_index(i, sample.cells), advances, sample.cells)]
        if slow:
            _grid_mark_slow(covered, sample, center, radius)
        else:
            _grid_mark(covered, center, reaches, mask)
        cursor = i + cursor_step


def reference_grid_counts(sample, eps):
    cover = _reference_grid(sample, eps, _cover_advances(sample, eps), 0)
    packing = _reference_grid(sample, 2.0 * eps, [0] * len(sample.cells), 1)
    return cover, packing


def grid_counts(sample, eps):
    return _grid_greedy_cover(sample, eps), _grid_greedy_packing(sample, 2.0 * eps)


def _mark_all_rows(marked, columns, weights, start, c, radius):
    """Mark the rows from start on within radius of row c, testing every unmarked one.

    Rows before start are marked already and marked rows stay marked, so only
    unmarked rows are tested. The chord distance is torus_distance's
    expression, evaluated in place on the angle columns.
    """
    rest = start + np.flatnonzero(~marked[start:])
    acc = np.zeros(rest.size)
    for col, w in zip(columns, weights):
        x = col[rest]
        np.subtract(x, col[c], out=x)
        np.multiply(x, 0.5, out=x)
        np.sin(x, out=x)
        np.abs(x, out=x)
        np.multiply(x, 2.0 * w, out=x)
        acc += x
    marked[rest[acc < radius]] = True


def reference_points_cover(sample, radius):
    points, n, w = sample.points, sample.size, sample.weights
    columns = points.T.copy()
    covered = np.zeros(n, dtype=bool)
    cursor = 0
    count = 0
    while True:
        u = _next_unset(covered, cursor)
        if u < 0:
            return count
        c = u
        j = u + 1
        while j < n:
            block = torus_distance(points[j : j + 512], points[u], w)
            beyond = np.flatnonzero(block >= radius)
            if beyond.size:
                c = j + int(beyond[0]) - 1
                break
            j += block.size
            c = j - 1
        count += 1
        _mark_all_rows(covered, columns, w, u, c, radius)
        cursor = u


def segment_rows(f, s_lo, s_hi, npts):
    """The float angle rows of the translates at s_lo + k h, k < npts, for reference_points_cover."""
    h = (s_hi - s_lo) / max(1, npts - 1)
    points = np.mod(np.outer(s_lo + np.arange(npts, dtype=np.float64) * h, f.exponents_float), TWO_PI)
    return SimpleNamespace(points=points, size=npts, weights=tuple(float(w) for w in f.amplitude_moduli))


def reference_lag_cover(sample, radius):
    """The segment greedy testing every unmarked row i at its lag distance sample[|i - c|]."""
    n = sample.size
    covered = np.zeros(n, dtype=bool)
    count = 0
    while True:
        u = _next_unset(covered, 0)
        if u < 0:
            return count
        beyond = np.flatnonzero(sample[1 : n - u] >= radius)
        c = u + int(beyond[0]) if beyond.size else n - 1
        count += 1
        rest = np.flatnonzero(~covered)
        covered[rest[sample[np.abs(rest - c)] < radius]] = True


# ---------------------------------------------------------------------------
# torus-grid cases


GOLDEN_GRID_EPS = [0.25, 0.125, 0.0625, 0.03125]
SUP_GRIDS = [(1, 0.05), (1, 0.7), (2, 0.2), (2, 0.9), (3, 0.5)]
NON_SQUARE_CELLS = [(50, 37), (37, 50), (7, 11, 13), (13, 7, 11)]
NON_SQUARE_EPS = [0.15, 0.3, 0.6]


def _sup_grid(n, eps):
    return TorusGridSample(cells=(math.ceil(8 * math.pi / eps),) * n)


def _non_square_grid(cells, chord):
    return TorusGridSample(cells=cells, weights=(1.0, 0.6, 0.35)[: len(cells)] if chord else None)


@pytest.mark.parametrize("eps", GOLDEN_GRID_EPS)
def test_golden_hull_grid_matches_per_ball(golden, eps):
    grid = TorusGridSample.hull_grid(golden, eps)
    assert grid_counts(grid, eps) == reference_grid_counts(grid, eps)


def test_sqrt23_hull_grid_matches_per_ball(sqrt23):
    grid = TorusGridSample.hull_grid(sqrt23, 0.5)
    assert grid_counts(grid, 0.5) == reference_grid_counts(grid, 0.5)


@pytest.mark.parametrize("n,eps", SUP_GRIDS)
def test_sup_grid_matches_per_ball(n, eps):
    grid = _sup_grid(n, eps)
    assert grid_counts(grid, eps) == reference_grid_counts(grid, eps)


@pytest.mark.parametrize("cells", NON_SQUARE_CELLS)
@pytest.mark.parametrize("chord", [False, True])
@pytest.mark.parametrize("eps", NON_SQUARE_EPS)
def test_non_square_grid_matches_per_ball(cells, chord, eps):
    grid = _non_square_grid(cells, chord)
    assert grid_counts(grid, eps) == reference_grid_counts(grid, eps)


def _packing_wraps(grid, eps):
    reaches = [_reach(grid, axis, 2.0 * eps) for axis in range(len(grid.cells))]
    return any(2 * r + 1 > m for r, m in zip(reaches, grid.cells))


def _self_wrapping_grids(count):
    """Seeded small grids, sup or chord, on which the packing ball wraps onto itself."""
    rng = np.random.default_rng(3000)
    out = []
    while len(out) < count:
        n = int(rng.integers(1, 4))
        cells = tuple(int(m) for m in rng.integers(1, {1: 91, 2: 31, 3: 13}[n], n))
        weights = None if rng.random() < 0.3 else tuple(float(w) for w in rng.uniform(0.2, 2.0, n))
        eps = round(float(rng.uniform(0.05, 3.5)), 3)
        if _packing_wraps(TorusGridSample(cells=cells, weights=weights), eps):
            out.append((cells, weights, eps))
    return out


SELF_WRAPPING_GRIDS = [
    ((6,), None, 1.7),
    ((6,), (1.0,), 1.1),
    ((4, 6), None, 1.7),
    ((8, 3), (1.0, 0.5), 1.05),
    ((8, 11, 13), (1.0, 0.6, 0.35), 1.1),
    ((4, 40), (0.4, 1.0), 0.5),
    *_self_wrapping_grids(60),
]


@pytest.mark.parametrize("cells,weights,eps", SELF_WRAPPING_GRIDS)
def test_self_wrapping_grid_matches_per_ball(cells, weights, eps):
    grid = TorusGridSample(cells=cells, weights=weights)
    assert _packing_wraps(grid, eps)
    assert grid_counts(grid, eps) == reference_grid_counts(grid, eps)


def _random_grid(seed):
    rng = np.random.default_rng(1000 + seed)
    n = 1 + seed % 3
    top = {1: 3000, 2: 160, 3: 40}[n]
    cells = tuple(int(m) for m in rng.integers(top // 4, top, n))
    weights = None if seed % 5 == 4 else tuple(float(w) for w in rng.uniform(0.2, 2.0, n))
    total = n * math.pi if weights is None else 2.0 * sum(weights)
    eps = float(rng.uniform(0.02, 0.12)) * total
    return TorusGridSample(cells=cells, weights=weights), eps


@pytest.mark.parametrize("seed", range(16))
def test_random_grid_matches_per_ball(seed):
    grid, eps = _random_grid(seed)
    assert grid_counts(grid, eps) == reference_grid_counts(grid, eps)


def _all_grids(golden, sqrt23):
    """(grid, eps) of every torus-grid case above."""
    grids = [(TorusGridSample.hull_grid(golden, eps), eps) for eps in GOLDEN_GRID_EPS]
    grids.append((TorusGridSample.hull_grid(sqrt23, 0.5), 0.5))
    grids += [(_sup_grid(n, eps), eps) for n, eps in SUP_GRIDS]
    grids += [
        (_non_square_grid(cells, chord), eps)
        for cells in NON_SQUARE_CELLS for chord in (False, True) for eps in NON_SQUARE_EPS
    ]
    grids += [(TorusGridSample(cells=c, weights=w), eps) for c, w, eps in SELF_WRAPPING_GRIDS]
    grids += [(TorusGridSample(cells=c, weights=w), eps) for _, c, w, eps in WINDOW_GRIDS]
    return grids + [_random_grid(seed) for seed in range(16)]


# grids whose line is longer than _SCATTER_CHUNK cells: n = 1, counted in closed form,
# then n = 2, where such a line is read in one piece and its balls grown and marked together
LONG_LINE_GRIDS = [
    ((40000,), (1.0,), 0.001),
    ((70001,), (0.7,), 0.0004),
    ((3, 40000), None, 0.01),
    ((3, 40000), (0.01, 1.0), 0.03),
    ((5, 20011), (0.02, 0.9), 0.04),
]


@pytest.mark.parametrize("cells,weights,eps", LONG_LINE_GRIDS)
def test_long_line_grid_matches_per_ball(cells, weights, eps):
    grid = TorusGridSample(cells=cells, weights=weights)
    assert grid.cells[-1] > dimension._SCATTER_CHUNK
    assert grid_counts(grid, eps) == reference_grid_counts(grid, eps)


def _lines_walked(monkeypatch, grid, radius, advances):
    """Lines of one walk on which the grid greedy placed balls (n = 2, one read a line)."""
    lines = []
    ball_centers = dimension._ball_centers

    def recording(unset, p, a, w):
        centers = ball_centers(unset, p, a, w)
        lines.append(centers.size)
        return centers

    with monkeypatch.context() as patch:
        patch.setattr(dimension, "_ball_centers", recording)
        dimension._grid_greedy(grid, radius, advances)
    return sum(1 for balls in lines if balls)


def test_line_wide_dilation_grid_matches_per_ball(monkeypatch):
    # the widest stencil row reaches m/2 = 3 cells along the last axis, so a line's
    # centers grow onto the whole line, and the balls of many lines mark lines ahead
    grid = TorusGridSample(cells=(12, 6), weights=(1.0, 0.2))
    eps = 0.6
    for radius, advances in _walks(grid, eps):
        assert 2 * _reach(grid, 1, radius) >= grid.cells[1]
        assert _reach(grid, 0, radius) >= 1
        assert _lines_walked(monkeypatch, grid, radius, advances) > 1
    assert grid_counts(grid, eps) == reference_grid_counts(grid, eps)


# ---------------------------------------------------------------------------
# the window of held lines
#
# The grid greedy keeps its flags in one buffer: one and a half times the window
# of lines that a ball read on a line can mark, or the whole grid when that is
# fewer lines, then the last planes, which marks wrapping below 0 along axis 0 reach. The
# held lines slide with the scan until they meet the last planes; from then on
# the buffer holds every line left, in order.


def _layout(grid, radius, advances):
    """This file's model of the grid greedy's flag buffer for one walk: it holds
    `held` lines, then lines [split, lines); the held lines slide once the scan
    is `lead` lines past the first of them."""
    cells = grid.cells
    plane = math.prod(cells[1:-1])
    r0 = _reach(grid, 0, radius)
    window = (advances[0] + r0 + 1) * plane
    lead = (window + 1) // 2
    lines = math.prod(cells[:-1])
    held = min(window + lead, lines)
    split = min(lines, max(held, (cells[0] - r0 + advances[0]) * plane))
    return SimpleNamespace(held=held, split=split, lines=lines, window=window, lead=lead, r0=r0)


def _walks(grid, eps):
    """(radius, advances) of the cover and of the packing."""
    return [(eps, _cover_advances(grid, eps)), (2.0 * eps, [0] * len(grid.cells))]


def _window_grids(kind, count):
    """Seeded grids of one kind:

    - "sliding": both walks hold at most an eighth of the lines, so the window
      slides many times and marks wrapping below 0 land on the last planes;
    - "clamped": n = 2 and n = 3 in turn; for a walk, the held lines are apart
      from the last planes by a distance that is not a multiple of the lines a
      slide moves, so their last slide is cut short of the scan's line;
    - "split_in_held": for a walk, the last planes begin inside the first held
      lines, which hold fewer than all lines: the buffer is the whole grid;
    - "near_wrap": m_0 is 2 r_0 + 2 or 2 r_0 + 3 for a walk, or the reach is m_0/2,
      so the ball nearly wraps or wraps onto itself along axis 0;
    - "whole": n >= 2, no walk's grid is longer than two windows, so each walk
      holds the whole grid or slides its held lines only a little, and no ball
      wraps onto itself;
    - "line": n = 1.
    """
    seeds = {"sliding": 6000, "near_wrap": 6100, "whole": 6200, "line": 6300, "clamped": 6400,
             "split_in_held": 6500}
    rng = np.random.default_rng(seeds[kind])
    out = []
    while len(out) < count:
        if kind == "line":
            n = 1
        elif kind == "clamped":
            n = 2 + len(out) % 2
        else:
            n = int(rng.integers(2, 4))
        if kind in ("sliding", "clamped"):
            head = int(rng.integers(120, 480)) if n == 2 else int(rng.integers(60, 140))
        else:
            head = int(rng.integers(1, 3000 if n == 1 else 40))
        cells = (head, *(int(m) for m in rng.integers(3, 14, n - 1)))
        weights = None if rng.random() < 0.25 else tuple(float(w) for w in rng.uniform(0.2, 2.0, n))
        scale = 1.0 if weights is None else weights[0]
        eps = round(float(rng.uniform(0.01, 0.14 if kind in ("sliding", "clamped") else 1.6)) * scale, 4)
        grid = TorusGridSample(cells=cells, weights=weights)
        layouts = [_layout(grid, radius, adv) for radius, adv in _walks(grid, eps)]
        if kind == "sliding":
            keep = all(8 * w.held <= w.lines for w in layouts)
        elif kind == "clamped":
            keep = any(w.held < w.split < w.lines and (w.split - w.held) % w.lead for w in layouts)
        elif kind == "split_in_held":
            keep = any(w.held == w.split < w.lines for w in layouts)
        elif kind == "near_wrap":
            keep = any(head - 2 * w.r0 in (2, 3) or 2 * w.r0 == head for w in layouts)
        elif kind == "whole":
            keep = all(w.lines <= 2 * w.window and 2 * w.r0 + 1 <= head for w in layouts)
        else:
            keep = True
        if keep:
            out.append((cells, weights, eps))
    return out


# n = 1 grids for the closed form ceil((m - max(0, w - a)) / (a + w + 1)), with the
# cover's a = w and the packing's a = 0 < w unless w = 0: m = 1 and 2; m = 2 and 6,
# where the packing's ball reaches m/2 and wraps onto itself; m = 12, 13, 40 and 41,
# where m, or m - w for the packing, is 0 or 1 mod a + w + 1
LINE_GRIDS = [
    ((1,), None, 0.5),
    ((2,), (0.7,), 0.5),
    ((2,), None, 4.0),
    ((6,), None, 1.7),
    ((12,), (1.0,), 0.5),
    ((13,), (1.0,), 0.5),
    ((40,), None, 0.3),
    ((41,), None, 0.3),
]

WINDOW_GRIDS = [
    (kind, *case)
    for kind, count in (
        ("sliding", 24), ("near_wrap", 24), ("whole", 12), ("line", 12), ("clamped", 16),
        ("split_in_held", 12),
    )
    for case in _window_grids(kind, count)
] + [("line", *case) for case in LINE_GRIDS]


@pytest.mark.parametrize("kind,cells,weights,eps", WINDOW_GRIDS)
def test_window_grid_matches_per_ball(kind, cells, weights, eps):
    grid = TorusGridSample(cells=cells, weights=weights)
    assert grid_counts(grid, eps) == reference_grid_counts(grid, eps)


def _scan_calls(monkeypatch, grid, radius, advances):
    """(flags read, start) of every scan for an unset cell in one walk."""
    calls = []

    def recording(flat, start, block=512):
        calls.append((flat.size, start))
        return _next_unset(flat, start, block)

    with monkeypatch.context() as patch:
        patch.setattr(dimension, "_next_unset", recording)
        dimension._grid_greedy(grid, radius, advances)
    return calls


@pytest.mark.parametrize(
    "kind,cells,weights,eps", [case for case in WINDOW_GRIDS if case[0] in ("clamped", "split_in_held")]
)
def test_window_grid_layout_case_occurs(monkeypatch, kind, cells, weights, eps):
    grid = TorusGridSample(cells=cells, weights=weights)
    m = cells[-1]
    occurs = False
    for radius, adv in _walks(grid, eps):
        w = _layout(grid, radius, adv)
        calls = _scan_calls(monkeypatch, grid, radius, adv)
        whole = (w.held + w.lines - w.split) * m  # the buffer's cells
        # the scan reads the held lines until they meet the last planes, then the whole buffer
        assert calls[0][0] == (w.held * m if w.held < w.split else whole)
        assert {size for size, _ in calls} <= {w.held * m, whole}
        if kind == "split_in_held":
            occurs |= w.held == w.split < w.lines and whole == w.lines * m
        else:
            # after a slide cut short of the scan's line, the scan goes on from that
            # line, one or more lines past the first held line, in the whole buffer
            after = [start for size, start in calls if size == whole]
            occurs |= w.held < w.split < w.lines and bool(after) and after[0] >= 2 * m
    assert occurs


def _lines_read(monkeypatch, grid, radius, advances):
    """(x, origin, row) of every line an n = 2 walk reads: the line x from the first
    unset cells of the per-ball reference, its buffer row from the scan after it."""
    m = grid.cells[-1]
    lines = []
    reference_scan = _next_unset

    def recording(flat, start, block=512):
        i = reference_scan(flat, start, block)
        if i >= 0 and (not lines or lines[-1] != i // m):
            lines.append(i // m)
        return i

    with monkeypatch.context() as patch:
        patch.setitem(globals(), "_next_unset", recording)
        _reference_grid(grid, radius, advances, 0)
    # every scan but the first and those after a slide starts on the line after a read one
    rows = [start // m - 1 for _, start in _scan_calls(monkeypatch, grid, radius, advances) if start >= m]
    assert len(rows) == len(lines)
    return [(x, x - row, row) for x, row in zip(lines, rows)]


# n = 2 grids on which an edge of the two slices that mark a line's stencil rows occurs:
# - "wrap_after_slide": a line whose rows wrap below line 0 is read after a slide;
# - "cut_at_end": after the last slide, the slice of rows after a line's own is cut
#   at the buffer's end;
# - "same_line": m_0 = 2 r_0, and a wrapped row and a row after the line's own mark
#   the same line
MARKING_SLICE_GRIDS = [
    ((60, 20), (1.0, 0.5), 0.4, "wrap_after_slide"),
    ((202, 202), (1.0, 1.0), 0.25, "wrap_after_slide"),  # golden's hull grid at 0.25
    ((60, 20), (1.0, 0.5), 0.4, "cut_at_end"),
    ((202, 202), (1.0, 1.0), 0.25, "cut_at_end"),
    ((20, 15), (1.0, 1.0), 1.2, "same_line"),
    ((16, 12), (1.0, 0.5), 1.2, "same_line"),
]


@pytest.mark.parametrize("cells,weights,eps,case", MARKING_SLICE_GRIDS)
def test_marking_slice_case_occurs(monkeypatch, cells, weights, eps, case):
    grid = TorusGridSample(cells=cells, weights=weights)
    m0 = cells[0]
    occurs = False
    for radius, adv in _walks(grid, eps):
        w = _layout(grid, radius, adv)
        ahead = w.r0 + adv[0]  # stencil rows after the line's own
        rows = w.held + w.lines - w.split  # the buffer's lines
        for x, origin, row in _lines_read(monkeypatch, grid, radius, adv):
            wrap = w.r0 - adv[0] - x  # stencil rows that wrap below line 0
            if case == "wrap_after_slide":
                occurs |= wrap > 0 and origin > 0
            elif case == "cut_at_end":
                occurs |= origin > 0 and origin + w.held == w.split and row + ahead >= rows
            else:
                # the first stencil row, wrapped, and the last mark the same buffer row
                occurs |= m0 == 2 * w.r0 and wrap > 0 and w.held + m0 - wrap - w.split == row + ahead
    assert occurs
    assert grid_counts(grid, eps) == reference_grid_counts(grid, eps)


@pytest.fixture(scope="module")
def small_grid_references(golden, sqrt23):
    """(grid, eps, reference counts) of every torus-grid case above with at most 3e5 cells."""
    return [
        (grid, eps, reference_grid_counts(grid, eps))
        for grid, eps in _all_grids(golden, sqrt23) if grid.size <= 300_000
    ]


@pytest.mark.parametrize("chunk", [3, 7, 64])
def test_small_scan_windows_match_per_ball(monkeypatch, small_grid_references, chunk):
    # _SCATTER_CHUNK sizes scatter batches only: batches of a few flat indices mark
    # an n >= 3 line's balls one or a few at a time
    monkeypatch.setattr(dimension, "_SCATTER_CHUNK", chunk)
    for grid, eps, reference in small_grid_references:
        assert grid_counts(grid, eps) == reference, (grid.cells, grid.weights, eps)


def test_grid_metric_matches_references_bitwise(golden, sqrt23):
    # the counts only see a metric change that moves a stencil cell across the
    # radius; reach, stencil box and density radius must equal the references exactly
    for grid, eps in _all_grids(golden, sqrt23):
        n = len(grid.cells)
        for radius in (eps, 2.0 * eps):
            reaches = [_reach(grid, axis, radius) for axis in range(n)]
            assert [dimension._reach(grid, axis, radius) for axis in range(n)] == reaches
            box = [np.arange(-r, r + 1) for r in reaches]
            assert np.array_equal(dimension._offsets_metric(grid, box), _box_metric(grid, box))
            corner = [[r] for r in reaches]
            assert dimension._offsets_metric(grid, corner).item() == _offset_metric(grid, reaches)
        half = [[0.5]] * n
        assert dimension._offsets_metric(grid, half).item() == _box_metric(grid, half).item()


# ---------------------------------------------------------------------------
# orbit-segment cases


# radii of the golden suite's segment covers: 2 eps, eps and eps/2 for eps = 0.4
# and 0.2, where the two scales share 0.4 and 0.2; the cover at radius r holds
# the translates with |s| <= L(r/2)
GOLDEN_RADII = (0.8, 0.4, 0.2, 0.1)


@pytest.fixture(scope="module")
def golden_lengths(golden):
    return {s.eps: s.L_upper for s in length_curve(golden, GOLDEN_EPS_LADDER).samples}


def _random_signal(seed: int) -> QuasiperiodicSignal:
    rng = np.random.default_rng(2000 + seed)
    n = 1 + seed % 4
    amps = rng.uniform(0.3, 1.5, n) * np.exp(1j * rng.uniform(0, TWO_PI, n))
    lams = rng.uniform(0.5, 4.0, n) * rng.choice([-1.0, 1.0], n)
    return QuasiperiodicSignal(list(zip(amps, lams)), label=f"random{seed}")


def _segment_samples(golden, sqrt23, golden_lengths):
    """(lag sample, float rows, radius) of the golden suite, sqrt23 and seeded random segments."""
    cases = [(golden, -golden_lengths[r / 2.0], golden_lengths[r / 2.0], r) for r in GOLDEN_RADII]
    cases += [(sqrt23, -L, L, r) for r, L in ((0.8, 12.0), (0.4, 8.0), (0.2, 4.0))]
    for seed in range(8):
        f = _random_signal(seed)
        lo = (-1.0) ** seed * 37.5 * seed
        cases.append((f, lo, lo + 12.0 + 3.0 * seed, 0.15 * float(np.sum(f.amplitude_moduli))))
    out = []
    for f, s_lo, s_hi, r in cases:
        sample = orbit_segment_sample(f, s_lo, s_hi, r)
        out.append((sample, segment_rows(f, s_lo, s_hi, sample.size), r))
    return out


@pytest.fixture(scope="module")
def segment_samples(golden, sqrt23, golden_lengths):
    return _segment_samples(golden, sqrt23, golden_lengths)


def test_golden_suite_segment_counts(segment_samples):
    counts = []
    for sample, rows, r in segment_samples[:4]:
        counts.append(_points_greedy_cover(sample, r))
        assert counts[-1] == reference_points_cover(rows, r)
    assert counts == [74, 327, 1063, 5556]


def test_golden_suite_sandwich_checks(golden, golden_lengths, monkeypatch):
    radii = []

    def counted(sample, radius):
        radii.append(radius)
        return _points_greedy_cover(sample, radius)

    monkeypatch.setattr(verify, "_points_greedy_cover", counted)
    checks = verify._segment_cover_checks(golden, golden_lengths, (0.4, 0.2))
    assert radii == list(GOLDEN_RADII)  # one cover per distinct radius
    assert checks == [
        {"name": "segment_cover_sandwich_eps_0.4", "passed": True, "eps": 0.4,
         "segment_count_2eps": 74, "hull_count_eps": 196, "segment_count_half_eps": 1063,
         "segment_count_eps": 327, "count_bound": 2133.947186117383, "slack": 2.0},
        {"name": "segment_cover_sandwich_eps_0.2", "passed": True, "eps": 0.2,
         "segment_count_2eps": 327, "hull_count_eps": 784, "segment_count_half_eps": 5556,
         "segment_count_eps": 1063, "count_bound": 11181.435560905507, "slack": 2.0},
    ]


def test_segment_covers_match_all_rows(segment_samples):
    for sample, rows, r in segment_samples[4:]:
        assert _points_greedy_cover(sample, r) == reference_points_cover(rows, r)


def test_segment_covers_match_all_lags(segment_samples):
    for sample, _, r in segment_samples:
        assert _points_greedy_cover(sample, r) == reference_lag_cover(sample, r)


def test_segment_radius_on_a_lag_distance(golden):
    # with the radius equal to D(k h), every pair at lag k lies outside the open ball
    sample = orbit_segment_sample(golden, -8.0, 8.0, 0.4)
    for k in (5, 9, 14, 23):
        r = float(sample[k])
        assert _points_greedy_cover(sample, r) == reference_lag_cover(sample, r)


# ---------------------------------------------------------------------------
# the K-ary reach search against a scan of every offset


def _full_scan_reach(sample, axis, radius):
    """_reach as a scan of the whole half-axis through _offsets_metric, the reference."""
    offsets = [[0]] * len(sample.cells)
    offsets[axis] = np.arange(sample.cells[axis] // 2 + 1)
    below = np.flatnonzero(dimension._offsets_metric(sample, offsets) < radius)
    return int(below[-1]) if below.size else 0


def _axis_metric(sample, axis, o):
    offsets = [[0]] * len(sample.cells)
    offsets[axis] = [o]
    return dimension._offsets_metric(sample, offsets).item()


@pytest.mark.parametrize("probes", [3, 64, 4096])
@pytest.mark.parametrize("seed", range(10))
def test_reach_search_matches_full_scan(monkeypatch, probes, seed):
    # radii at a metric value of the half-axis and one ulp either side of it
    monkeypatch.setattr(dimension, "_REACH_PROBES", probes)
    rng = np.random.default_rng(seed)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        cells = tuple(int(m) for m in rng.integers(1, 3000, size=n))
        weights = tuple(float(w) for w in rng.uniform(0.3, 1.5, size=n)) if rng.random() < 0.5 else None
        sample = TorusGridSample(cells=cells, weights=weights)
        axis = int(rng.integers(n))
        value = _axis_metric(sample, axis, int(rng.integers(cells[axis] // 2 + 1)))
        for radius in (math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf)):
            expected = _full_scan_reach(sample, axis, radius)
            assert dimension._reach(sample, axis, radius) == expected, (cells, weights, axis, radius)


def _reach_calls(monkeypatch, sample, radius):
    calls = []
    metric = dimension._offsets_metric

    def counted(sample, offsets):
        calls.append(max(len(o) for o in offsets))
        return metric(sample, offsets)

    monkeypatch.setattr(dimension, "_offsets_metric", counted)
    return dimension._reach(sample, 0, radius), calls


@pytest.mark.parametrize("weights", [None, (1.0,)])
def test_reach_of_a_half_axis_up_to_the_probe_count_takes_one_call(monkeypatch, weights):
    # 8,191 cells have 4,096 offsets on their half-axis, 8,192 have one more,
    # which takes a second call once every probe of the first is below radius
    for m, expected_calls in ((1, 1), (2, 1), (8190, 1), (8191, 1), (8192, 2)):
        sample = TorusGridSample(cells=(m,), weights=weights)
        for radius in (_axis_metric(sample, 0, m // 3), math.inf):
            reach, calls = _reach_calls(monkeypatch, sample, radius)
            assert len(calls) == (1 if radius < math.inf else expected_calls), (m, radius)
            assert max(calls) <= dimension._REACH_PROBES
            assert reach == _full_scan_reach(sample, 0, radius)


def test_reach_of_a_long_axis_takes_few_calls(monkeypatch):
    # the hull grid of 1+0i@1 at eps = 2e-6, whose half-axis has 6,283,186 offsets
    f = QuasiperiodicSignal([(1, 1)])
    sample = TorusGridSample.hull_grid(f, 2e-6)
    assert sample.cells == (12566371,)
    reach, calls = _reach_calls(monkeypatch, sample, 2e-6)
    assert len(calls) == 2 and max(calls) <= dimension._REACH_PROBES
    assert _axis_metric(sample, 0, reach) < 2e-6 <= _axis_metric(sample, 0, reach + 1)

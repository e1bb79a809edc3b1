"""Differential gate for the greedy covers of qplab.dimension.

The torus-grid greedy works one line of the last axis at a time and marks a
line's balls in one scatter; the orbit-segment greedy tests only the rows at
lags where D(k h) can fall below the radius. Both must give exactly the counts
of the per-ball references kept here: the grid greedy that finds each first
unset cell and marks one ball at a time (``_grid_mark``, ``_next_unset``,
``_grid_mark_slow``), and the segment greedy that tests every row.
"""
import math
from itertools import product

import numpy as np
import pytest

from qplab.almost_periods import length_curve
from qplab.dimension import (
    PointSample,
    TorusGridSample,
    _grid_greedy_cover,
    _grid_greedy_packing,
    _lag_margin,
    _points_greedy_cover,
    _points_greedy_packing,
    orbit_segment_sample,
    torus_distance,
)
from qplab.signal import QuasiperiodicSignal
from qplab.verify import GOLDEN_EPS_LADDER

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# reference: the per-ball greedy covers


def _axis_profile(sample, axis):
    m = sample.cells[axis]
    o = np.arange(m // 2 + 1, dtype=np.float64)
    if sample.weights is None:
        return TWO_PI * o / m
    return 2.0 * sample.weights[axis] * np.abs(np.sin(math.pi * o / m))


def _reach(sample, axis, radius):
    below = np.flatnonzero(_axis_profile(sample, axis) < radius)
    return int(below[-1]) if below.size else 0


def _offset_metric(sample, offsets):
    parts = [float(_axis_profile(sample, axis)[abs(o)]) for axis, o in enumerate(offsets)]
    return max(parts) if sample.weights is None else float(sum(parts))


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
    grids = [_axis_profile(sample, axis)[np.abs(np.arange(-r, r + 1))] for axis, r in enumerate(reaches)]
    total = grids[0]
    for g in grids[1:]:
        total = total[..., None] + g
    return total < radius


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


def reference_points_packing(sample, separation):
    columns = sample.points.T.copy()
    blocked = np.zeros(sample.size, dtype=bool)
    cursor = 0
    count = 0
    while True:
        i = _next_unset(blocked, cursor)
        if i < 0:
            return count
        count += 1
        _mark_all_rows(blocked, columns, sample.weights, i, i, separation)
        blocked[i] = True
        cursor = i + 1


# ---------------------------------------------------------------------------
# torus-grid cases


@pytest.mark.parametrize("eps", [0.25, 0.125, 0.0625, 0.03125])
def test_golden_hull_grid_matches_per_ball(golden, eps):
    grid = TorusGridSample.hull_grid(golden, eps)
    assert grid_counts(grid, eps) == reference_grid_counts(grid, eps)


def test_sqrt23_hull_grid_matches_per_ball(sqrt23):
    grid = TorusGridSample.hull_grid(sqrt23, 0.5)
    assert grid_counts(grid, 0.5) == reference_grid_counts(grid, 0.5)


@pytest.mark.parametrize("n,eps", [(1, 0.05), (1, 0.7), (2, 0.2), (2, 0.9), (3, 0.5)])
def test_sup_grid_matches_per_ball(n, eps):
    grid = TorusGridSample(cells=(math.ceil(8 * math.pi / eps),) * n)
    assert grid_counts(grid, eps) == reference_grid_counts(grid, eps)


@pytest.mark.parametrize("cells", [(50, 37), (37, 50), (7, 11, 13), (13, 7, 11)])
@pytest.mark.parametrize("chord", [False, True])
@pytest.mark.parametrize("eps", [0.15, 0.3, 0.6])
def test_non_square_grid_matches_per_ball(cells, chord, eps):
    weights = (1.0, 0.6, 0.35)[: len(cells)] if chord else None
    grid = TorusGridSample(cells=cells, weights=weights)
    assert grid_counts(grid, eps) == reference_grid_counts(grid, eps)


@pytest.mark.parametrize(
    "cells,weights,eps",
    [
        ((6,), None, 1.7),
        ((6,), (1.0,), 1.1),
        ((4, 6), None, 1.7),
        ((8, 3), (1.0, 0.5), 1.05),
        ((8, 11, 13), (1.0, 0.6, 0.35), 1.1),
        ((4, 40), (0.4, 1.0), 0.5),
    ],
)
def test_small_grid_exact_path_matches_per_ball(cells, weights, eps):
    grid = TorusGridSample(cells=cells, weights=weights)
    reaches = [_reach(grid, axis, 2.0 * eps) for axis in range(len(cells))]
    assert any(2 * r + 1 > m for r, m in zip(reaches, cells))  # the packing takes the exact path
    assert grid_counts(grid, eps) == reference_grid_counts(grid, eps)


@pytest.mark.parametrize("seed", range(16))
def test_random_grid_matches_per_ball(seed):
    rng = np.random.default_rng(1000 + seed)
    n = 1 + seed % 3
    top = {1: 3000, 2: 160, 3: 40}[n]
    cells = tuple(int(m) for m in rng.integers(top // 4, top, n))
    weights = None if seed % 5 == 4 else tuple(float(w) for w in rng.uniform(0.2, 2.0, n))
    total = n * math.pi if weights is None else 2.0 * sum(weights)
    eps = float(rng.uniform(0.02, 0.12)) * total
    grid = TorusGridSample(cells=cells, weights=weights)
    assert grid_counts(grid, eps) == reference_grid_counts(grid, eps)


# ---------------------------------------------------------------------------
# orbit-segment cases


def _golden_segments(golden):
    """The (radius, half length) of the six segment covers of the golden suite."""
    lengths = {s.eps: s.L_upper for s in length_curve(golden, GOLDEN_EPS_LADDER).samples}
    calls = []
    for eps in (0.4, 0.2):
        for radius, scale in ((2.0 * eps, eps), (eps, eps / 2.0), (eps / 2.0, eps / 4.0)):
            calls.append((radius, lengths[scale]))
    return calls


def _random_signal(seed: int) -> QuasiperiodicSignal:
    rng = np.random.default_rng(2000 + seed)
    n = 1 + seed % 4
    amps = rng.uniform(0.3, 1.5, n) * np.exp(1j * rng.uniform(0, TWO_PI, n))
    lams = rng.uniform(0.5, 4.0, n) * rng.choice([-1.0, 1.0], n)
    return QuasiperiodicSignal(list(zip(amps, lams)), label=f"random{seed}")


def _segment_samples(golden, sqrt23):
    samples = [(orbit_segment_sample(golden, -L, L, r), r) for r, L in dict.fromkeys(_golden_segments(golden))]
    for r, L in ((0.8, 12.0), (0.4, 8.0), (0.2, 4.0)):
        samples.append((orbit_segment_sample(sqrt23, -L, L, r), r))
    for seed in range(8):
        f = _random_signal(seed)
        r = 0.15 * float(np.sum(f.amplitude_moduli))
        lo = (-1.0) ** seed * 37.5 * seed
        samples.append((orbit_segment_sample(f, lo, lo + 12.0 + 3.0 * seed, r), r))
    return samples


@pytest.fixture(scope="module")
def segment_samples(golden, sqrt23):
    return _segment_samples(golden, sqrt23)


def test_golden_suite_segment_counts(golden, segment_samples):
    calls = _golden_segments(golden)
    assert len(calls) == 6 and len(set(calls)) == 4  # two calls repeat a sample
    counts = {}
    for sample, r in segment_samples[:4]:
        counts[r] = _points_greedy_cover(sample, r)
        assert counts[r] == reference_points_cover(sample, r)
    assert [counts[r] for r, _ in calls] == [74, 327, 1063, 327, 1063, 5556]


def test_segment_covers_match_all_rows(segment_samples):
    for sample, r in segment_samples[4:]:
        assert sample.lag_distance is not None
        assert _points_greedy_cover(sample, r) == reference_points_cover(sample, r)
        assert _points_greedy_packing(sample, 2.0 * r) == reference_points_packing(sample, 2.0 * r)


def test_segment_packing_matches_all_rows(segment_samples):
    for sample, r in segment_samples[:3]:
        assert _points_greedy_packing(sample, 2.0 * r) == reference_points_packing(sample, 2.0 * r)


def test_segment_radius_on_a_lag_distance(golden):
    # with the radius equal to D(k h), rows at lag k sit within rounding of it
    # and only the exact row distance decides them
    sample = orbit_segment_sample(golden, -8.0, 8.0, 0.4)
    for k in (5, 9, 14, 23):
        r = float(sample.lag_distance[k])
        assert _points_greedy_cover(sample, r) == reference_points_cover(sample, r)
        assert _points_greedy_packing(sample, r) == reference_points_packing(sample, r)


def test_point_cloud_without_lags_tests_every_row():
    rng = np.random.default_rng(5)
    cloud = PointSample(points=rng.uniform(0, TWO_PI, (400, 2)), weights=(1.0, 0.7))
    for r in (0.3, 0.8):
        assert _points_greedy_cover(cloud, r) == reference_points_cover(cloud, r)
        assert _points_greedy_packing(cloud, 2 * r) == reference_points_packing(cloud, 2 * r)


# ---------------------------------------------------------------------------
# the lag margin certificate


def test_lag_margin_bounds_measured_gap(segment_samples):
    for sample, _ in segment_samples:
        n = sample.size
        gap = 0.0
        for c in np.linspace(0, n - 1, 7).astype(int):
            lag = np.abs(np.arange(n) - c)
            row = torus_distance(sample.points, sample.points[c], sample.weights)
            gap = max(gap, float(np.max(np.abs(row - sample.lag_distance[lag]))))
        assert gap <= sample.lag_margin / 100.0


def test_lag_margin_grows_with_angle(golden):
    h = 1e-3
    near = _lag_margin(golden, -10.0, h, 20001)
    far = _lag_margin(golden, 1e4, h, 20001)
    wide = _lag_margin(golden, -10.0, 10 * h, 20001)
    assert near < wide < far
    fast = QuasiperiodicSignal([(1, 2 * math.pi * 100), (1, 2 * math.pi * 161.8)])
    assert _lag_margin(fast, -10.0, h, 20001) > near

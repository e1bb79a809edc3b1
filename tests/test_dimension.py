import math
from types import SimpleNamespace

import numpy as np
import pytest
from test_cover_differential import reference_grid_counts, reference_points_cover

from qplab.dimension import (
    CoveringReport,
    TorusGridSample,
    covering_number,
    dimension_fit,
    equivalence_constants,
    hull_dimension_report,
    orbit_angles,
    orbit_segment_sample,
    torus_distance,
)
from qplab.errors import BudgetExceeded, GridTooCoarse, TooFewScales
from qplab.almost_periods import length_curve
from qplab.signal import QuasiperiodicSignal, translation_distance
from qplab.verify import _segment_cover_checks

# 2*pi*(phi - 1) at 200 bits
GOLDEN_ANGLE_S1 = 3.883222077450933
D_GOLDEN_55 = 0.05108062929278753


def test_orbit_angles_folds(single_term):
    unit = QuasiperiodicSignal([(1, 1)], label="unit")
    p = orbit_angles(unit, 7.0)
    assert 0 <= p[0] < 2 * math.pi
    assert p[0] == pytest.approx(7.0 - 2 * math.pi)
    assert orbit_angles(unit, -0.5)[0] == pytest.approx(2 * math.pi - 0.5)
    # 2*pi - 6e-20 rounds up to the float 2*pi, which folds to 0
    assert orbit_angles(single_term, -1e-20)[0] == 0.0


def test_orbit_angles_zero(golden):
    assert orbit_angles(golden, 0.0).tolist() == [0.0, 0.0]


def test_orbit_angles_quarter_period(single_term):
    p = orbit_angles(single_term, 0.25)
    assert p[0] == pytest.approx(math.pi / 2, abs=1e-12)


def test_orbit_angles_golden_unit(golden):
    p = orbit_angles(golden, 1.0)
    assert p[0] == pytest.approx(0.0, abs=1e-12)
    assert p[1] == pytest.approx(GOLDEN_ANGLE_S1, abs=1e-12)


def test_segment_rows_match_orbit_angles(golden):
    # translates of the segment on [-7.5, 13.25] sit at -7.5 + k h; by the metric
    # identity, sample[k] is the chord distance of the rows at -7.5 + k h and -7.5
    sample = orbit_segment_sample(golden, -7.5, 13.25, 0.4)
    h = 20.75 / (sample.size - 1)
    first = orbit_angles(golden, -7.5)
    for k in (0, 1, sample.size // 3, sample.size - 1):
        row = orbit_angles(golden, -7.5 + k * h)
        chord = torus_distance(row, first, golden.amplitude_moduli)
        assert abs(sample[k] - chord) < 1e-9


def test_torus_metric_examples():
    def sup(x, y):
        return torus_distance(np.array(x), np.array(y))

    assert sup((0.3, 1.0), (0.3, 1.0)) == 0.0
    assert sup((0.0,), (math.pi,)) == pytest.approx(math.pi)
    assert sup((0.1, 6.2), (0.0, 0.0)) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        sup((0.0,), (0.0, 0.0))


def test_hull_metric_examples(single_term, golden):
    def chord(f, x, y):
        return torus_distance(np.array(x), np.array(y), f.amplitude_moduli)

    assert chord(single_term, (0.0,), (math.pi,)) == pytest.approx(2.0)
    assert chord(golden, (0.0, 0.0), (0.0, 0.0)) == 0.0
    p = orbit_angles(golden, 55.0)
    assert chord(golden, p, np.zeros(2)) == pytest.approx(D_GOLDEN_55, abs=1e-11)
    with pytest.raises(ValueError):
        chord(golden, (0.0,), (0.0, 0.0))
    with pytest.raises(ValueError):
        chord(golden, (0.0,), (0.0,))


def test_translation_distance_equals_chord(golden):
    rng = np.random.default_rng(9)
    for tau in rng.uniform(-100, 100, 2000):
        d = translation_distance(golden, float(tau))
        h = torus_distance(orbit_angles(golden, float(tau)), np.zeros(2), golden.amplitude_moduli)
        assert abs(d - h) < 1e-12


def test_metric_axioms(golden):
    rng = np.random.default_rng(13)
    pts = rng.uniform(0, 2 * math.pi, (60, 2))
    for weights in (None, golden.amplitude_moduli):
        def metric(x, y):
            return torus_distance(x, y, weights)

        for x in pts[:20]:
            assert metric(x, x) == 0.0
        for x, y, z in zip(pts[:20], pts[20:40], pts[40:]):
            assert metric(x, y) == pytest.approx(metric(y, x), abs=1e-15)
            assert metric(x, z) <= metric(x, y) + metric(y, z) + 1e-12


def test_equivalence_constants_single_term(single_term):
    # one term of modulus 1: chord = 2|sin(x/2)| against torus |x|, x in [-pi, pi]
    c1, c2 = equivalence_constants(single_term)
    assert (c1, c2) == (2 / math.pi, 1.0)
    x = np.linspace(1e-6, math.pi, 10001)[:, None]
    ratio = torus_distance(x, np.zeros(1), single_term.amplitude_moduli) / torus_distance(x, np.zeros(1))
    assert c1 <= ratio.min() and ratio.max() < c2


def test_equivalence_constants_golden_positive_at_fine_scales(golden):
    # the closed forms hold the ratio of a pair at torus distance 2**-20
    c1, c2 = equivalence_constants(golden)
    assert (c1, c2) == (2 / math.pi, 2.0)
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 2 * math.pi, (1000, 2))
    u = rng.uniform(-1.0, 1.0, (1000, 2))
    y = x + u / np.abs(u).max(axis=1)[:, None] * 2.0**-20
    ratio = torus_distance(x, y, golden.amplitude_moduli) / torus_distance(x, y)
    assert c1 < ratio.min() and ratio.max() <= c2


def test_covering_single_point():
    # one cell, radius large enough for the grid's density
    assert covering_number(TorusGridSample(cells=(1,), weights=(0.01,)), 0.5) == (1, 1)


def test_covering_circle_arc_metric():
    cover, packing = covering_number(TorusGridSample(cells=(64,)), math.pi / 4)
    assert 4 <= cover <= 5
    assert packing == 4


def test_covering_circle_grid_matches_point_cloud():
    # the per-ball reference greedy walks the grid's cells as an explicit array
    grid = TorusGridSample(cells=(64,), weights=None)
    for eps in (math.pi / 4, math.pi / 3, 1.0):
        assert covering_number(grid, eps) == reference_grid_counts(grid, eps)


def test_covering_hull_grid_matches_point_cloud(single_term):
    grid = TorusGridSample(cells=(50,), weights=(1.0,))
    # the cells as explicit angle rows; the all-rows reference tests every row
    pts = (np.arange(50) * (2 * math.pi / 50)).reshape(-1, 1)
    cloud = SimpleNamespace(points=pts, size=50, weights=tuple(single_term.amplitude_moduli))
    for eps in (0.5, 0.9):
        counts = covering_number(grid, eps)
        assert counts == reference_grid_counts(grid, eps)
        assert counts[0] == reference_points_cover(cloud, eps)


def test_covering_torus_sup():
    grid = TorusGridSample(cells=(math.ceil(8 * math.pi / (math.pi / 2)),) * 2)
    cover, packing = covering_number(grid, math.pi / 2)
    assert 4 <= cover <= 9
    assert packing >= 2


def test_covering_grid_too_coarse():
    with pytest.raises(GridTooCoarse):
        covering_number(TorusGridSample(cells=(8,)), 0.5)  # density pi/8; needs <= 0.125


def test_covering_budget(golden):
    with pytest.raises(BudgetExceeded):
        TorusGridSample.hull_grid(golden, 1e-4)


def test_packing_separation_is_genuine():
    # brute re-check: greedily kept points of a small grid are pairwise >= 2 eps
    m = 40
    grid = TorusGridSample(cells=(m,), weights=None)
    eps = 0.7
    _, packing = covering_number(grid, eps)
    angles = np.arange(m) * (2 * math.pi / m)
    kept = []
    for a in angles:
        if all(min(abs(a - b) % (2 * math.pi), 2 * math.pi - abs(a - b) % (2 * math.pi)) >= 2 * eps for b in kept):
            kept.append(a)
    assert packing == len(kept)


def test_dimension_fit_synthetic_power_law():
    eps = tuple(2.0**-k for k in range(2, 8))
    counts = tuple((int(math.ceil(1 / e)), int(math.ceil(1 / e))) for e in eps)
    lower, upper = dimension_fit(CoveringReport(eps_grid=eps, counts=counts))
    assert lower == pytest.approx(1.0, abs=0.02)
    assert upper == pytest.approx(1.0, abs=0.02)


def test_dimension_fit_too_few_scales():
    report = CoveringReport(eps_grid=(0.5, 0.25, 0.125), counts=((2, 1), (4, 2), (8, 4)))
    with pytest.raises(TooFewScales):
        dimension_fit(report)


def test_torus_dimension_circle():
    eps = [2.0**-k for k in range(2, 9)]
    counts = [covering_number(TorusGridSample(cells=(math.ceil(8 * math.pi / e),)), e) for e in eps]
    lower, upper = dimension_fit(CoveringReport(eps_grid=tuple(eps), counts=tuple(counts)))
    assert abs(lower - 1.0) <= 0.1
    assert abs(upper - 1.0) <= 0.1


def test_report_counts_monotone_and_sandwiched(golden):
    eps = [2.0**-k for k in range(2, 6)]
    report = hull_dimension_report(golden, eps)
    covers = [c for c, _ in report.counts]
    packs = [p for _, p in report.counts]
    # eps decreasing => counts non-decreasing
    assert covers == sorted(covers)
    assert packs == sorted(packs)
    for c, p in report.counts:
        assert p <= c
    # packing at 2*eps (separation 4*eps) cannot exceed any eps-cover
    for k in range(len(eps) - 1):
        assert packs[k] <= covers[k + 1]


def test_covering_report_validation():
    with pytest.raises(ValueError):
        CoveringReport(eps_grid=(0.1, 0.2), counts=((1, 1), (1, 1)))
    with pytest.raises(ValueError):
        CoveringReport(eps_grid=(0.2, 0.1), counts=((1, 1),))


def test_orbit_segment_sample_density(golden):
    sample = orbit_segment_sample(golden, -5.0, 5.0, 0.4)
    # consecutive translates are within r/4 of each other in the chord metric
    assert sample[1] <= 0.4 / 4 + 1e-12
    with pytest.raises(BudgetExceeded):
        # more than 2**24 points; raised before any distance is computed
        orbit_segment_sample(golden, -1e5, 1e5, 0.4)


@pytest.mark.parametrize("half_length,radius", [(1e10, 1e-300), (1.0, 1e-323)])
def test_orbit_segment_sample_too_large_for_an_int(golden, half_length, radius):
    # (s_hi - s_lo) / step overflows to inf, or the step underflows to 0: a budget
    # error, not an OverflowError or a ZeroDivisionError
    with pytest.raises(BudgetExceeded, match="^segment sample needs inf points, cap is 16777216$"):
        orbit_segment_sample(golden, -half_length, half_length, radius)


def test_segment_cover_checks_single_term_full_circle(single_term):
    curve = length_curve(single_term, [1.0, 0.5, 0.25])
    lengths = {s.eps: s.L_upper for s in curve.samples}
    [check] = _segment_cover_checks(single_term, lengths, (1.0,))
    assert check["passed"]
    # the segment at radius 1 wraps the whole circle: its count matches the
    # circle covering count at chord radius 1 (arcs of half-angle 2*asin(1/2))
    grid = TorusGridSample.hull_grid(single_term, 1.0)
    circle_cover, _ = covering_number(grid, 1.0)
    assert abs(check["segment_count_eps"] - circle_cover) <= 2


def test_segment_cover_checks_golden(golden):
    curve = length_curve(golden, [0.4, 0.2, 0.1])
    lengths = {s.eps: s.L_upper for s in curve.samples}
    [check] = _segment_cover_checks(golden, lengths, (0.4,))
    assert check["segment_count_2eps"] <= check["slack"] * check["hull_count_eps"]
    assert check["hull_count_eps"] <= check["slack"] * check["segment_count_half_eps"]
    assert check["segment_count_eps"] <= check["slack"] * check["count_bound"]
    assert check["passed"]


def test_segment_cover_checks_trivial_above_diameter(golden):
    eps = 5.0  # above the diameter 2*sum|A| = 4
    curve = length_curve(golden, [eps / 4])
    lengths = {eps: 0.0, eps / 2: 0.0, eps / 4: curve.samples[0].L_upper}
    [check] = _segment_cover_checks(golden, lengths, (eps,))
    assert check["segment_count_2eps"] == 1
    assert check["hull_count_eps"] == 1
    assert check["passed"]

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qplab.almost_periods import (
    IntervalSet,
    LengthCurve,
    LengthSample,
    fit_exponent,
    inclusion_length,
    length_curve,
    sublevel_scan,
)
from qplab.errors import (
    BudgetExceeded,
    EmptyAlmostPeriodSet,
    StepTooCoarse,
    TooFewSamples,
    grid_count,
)
from qplab.signal import lipschitz_constant, preset, translation_distance
from qplab.verify import GOLDEN_EPS_LADDER, SQRT23_EPS_LADDER

# half-width of {2|sin(pi tau)| < 0.1} around each integer: asin(0.05)/pi
SINGLE_TERM_HALFWIDTH = 0.015922133236660344

# the 0.1-sublevel set of the golden signal on [0, 200], from a dense brute
# scan of D at step 1e-3 cross-checked against the uniform-norm oracle; the
# components sit near integers q with q*phi near-integral and near their
# conjugates q/phi
GOLDEN_01_COMPONENTS = (0.0, 21.013, 33.992, 55.0, 89.0, 110.01, 122.989, 144.0, 165.015, 178.0, 199.0)


def certified_step(f, eps):
    return eps / (4.0 * lipschitz_constant(f))


def test_scan_single_term_integers(single_term):
    eps = 0.1
    scan = sublevel_scan(single_term, eps, (0.0, 3.0), certified_step(single_term, eps))
    assert len(scan.outer) == 4
    for center, (a, b) in zip((0.0, 1.0, 2.0, 3.0), scan.outer):
        # outer interval must contain the true component, with at most one
        # grid step of slack on each side
        true_lo = max(0.0, center - SINGLE_TERM_HALFWIDTH)
        true_hi = min(3.0, center + SINGLE_TERM_HALFWIDTH)
        assert a <= true_lo + 1e-12 and true_hi <= b + 1e-12
        assert true_lo - a <= 2 * scan.step + 1e-12
        assert b - true_hi <= 2 * scan.step + 1e-12
    for a, b in scan.inner:
        assert b - a <= 2 * SINGLE_TERM_HALFWIDTH + 1e-12


def test_scan_inner_certified(golden):
    eps = 0.1
    scan = sublevel_scan(golden, eps, (0.0, 100.0), certified_step(golden, eps))
    rng = np.random.default_rng(2)
    for a, b in scan.inner:
        for tau in rng.uniform(a, b, 5):
            assert translation_distance(golden, float(tau)) < eps


def test_scan_outer_complete(golden):
    # every brute-scan component of the sublevel set lies inside some outer interval
    eps = 0.1
    scan = sublevel_scan(golden, eps, (0.0, 200.0), certified_step(golden, eps))
    for c in GOLDEN_01_COMPONENTS:
        assert any(a - 1e-9 <= c <= b + 1e-9 for a, b in scan.outer), c


def test_scan_inner_inside_outer(golden):
    eps = 0.07
    scan = sublevel_scan(golden, eps, (0.0, 150.0), certified_step(golden, eps))
    for a, b in scan.inner:
        assert any(c <= a + 1e-12 and b - 1e-12 <= d for c, d in scan.outer)


def test_scan_zero_membership(golden):
    eps = 0.05
    scan = sublevel_scan(golden, eps, (-10.0, 10.0), certified_step(golden, eps))
    assert any(a <= 0.0 <= b for a, b in scan.inner)


def test_scan_symmetry(golden):
    eps = 0.1
    scan = sublevel_scan(golden, eps, (-60.0, 60.0), certified_step(golden, eps))
    h = scan.step
    mirrored = sorted((-b, -a) for a, b in scan.outer)
    for (a, b), (c, d) in zip(scan.outer, mirrored):
        assert abs(a - c) <= h + 1e-9
        assert abs(b - d) <= h + 1e-9


def test_scan_monotone_in_eps(golden):
    window = (0.0, 100.0)
    step = certified_step(golden, 0.05)
    small = sublevel_scan(golden, 0.05, window, step)
    large = sublevel_scan(golden, 0.1, window, step)
    # every inner member at the tighter eps lies in an outer interval at the looser one
    for a, b in small.inner:
        mid = 0.5 * (a + b)
        assert any(c <= mid <= d for c, d in large.outer)
    L_small = inclusion_length(small)
    L_large = inclusion_length(large)
    assert L_small[1] >= L_large[0] - 2 * step


def test_scan_refinement(golden):
    eps = 0.1
    window = (0.0, 80.0)
    coarse = sublevel_scan(golden, eps, window, certified_step(golden, eps))
    fine = sublevel_scan(golden, eps, window, certified_step(golden, eps) / 2)
    # refining never loses certified members: each coarse inner interval stays
    # inside a fine inner interval padded by one coarse step
    for a, b in coarse.inner:
        assert any(
            c - coarse.step <= a and b <= d + coarse.step for c, d in fine.inner
        )


def test_scan_eps_above_diameter(golden):
    eps = 3.0 * 2.0 * float(np.sum(golden.amplitude_moduli))
    scan = sublevel_scan(golden, eps, (0.0, 5.0), certified_step(golden, eps))
    assert scan.inner == ((0.0, 5.0),)
    assert inclusion_length(scan) == (0.0, 0.0)


def test_scan_subnormal_window(golden):
    # with a subnormal grid step the zeros of the leading term far from the window
    # sit at grid indices beyond int64; they are clipped to the chunk before the cast
    eps = 0.4
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scan = sublevel_scan(golden, eps, (0.0, 1e-320), certified_step(golden, eps))
    assert scan.inner == scan.outer == ((0.0, 1e-320),)
    assert inclusion_length(scan) == (0.0, 0.0)


def test_scan_step_too_coarse(golden):
    with pytest.raises(StepTooCoarse):
        sublevel_scan(golden, 0.1, (0.0, 10.0), 0.1)


def test_scan_budget(golden):
    with pytest.raises(BudgetExceeded):
        sublevel_scan(golden, 0.1, (0.0, 10.0), certified_step(golden, 0.1), max_grid_points=100)


def test_scan_validation(golden):
    with pytest.raises(ValueError):
        sublevel_scan(golden, -0.1, (0.0, 1.0), 1e-4)
    with pytest.raises(ValueError):
        sublevel_scan(golden, 0.1, (1.0, 0.0), 1e-4)


def test_inclusion_length_whole_window():
    s = IntervalSet(window=(0.0, 10.0), inner=((0.0, 10.0),), outer=((0.0, 10.0),), step=0.01, eps=1.0)
    assert inclusion_length(s) == (0.0, 0.0)


def test_inclusion_length_single_point_edge_gap():
    s = IntervalSet(window=(0.0, 100.0), inner=(), outer=((0.0, 0.0),), step=0.01, eps=0.5)
    L_lower, L_upper = inclusion_length(s)
    assert L_lower == 100.0
    assert L_upper == 100.0  # empty inner: nothing certified, gap is the window


def test_inclusion_length_empty_outer():
    s = IntervalSet(window=(0.0, 1.0), inner=(), outer=(), step=0.01, eps=0.1)
    with pytest.raises(EmptyAlmostPeriodSet):
        inclusion_length(s)


def test_inclusion_length_golden_01(golden):
    # dense brute scan gives components at GOLDEN_01_COMPONENTS; the largest
    # gap is 55.009 -> 88.993, just under 34
    eps = 0.1
    scan = sublevel_scan(golden, eps, (0.0, 200.0), certified_step(golden, eps))
    L_lower, L_upper = inclusion_length(scan)
    assert 20.0 <= L_lower <= 34.1
    assert 33.5 <= L_upper <= 34.5


def test_length_curve_single_term(single_term):
    curve = length_curve(single_term, [0.2, 0.1, 0.05])
    for s in curve.samples:
        assert s.resolved
        assert 0.9 <= s.L_upper <= 1.0
        assert 0.9 <= s.L_lower <= 1.0
    fit = fit_exponent(curve)
    assert abs(fit.slope) <= 0.1


def test_length_curve_eps_above_diameter(single_term):
    curve = length_curve(single_term, [10.0])
    assert curve.samples[0].L_upper == 0.0
    assert curve.samples[0].L_lower == 0.0
    # one outer interval covering the window stops the doubling at the initial width 4/eps
    assert curve.samples[0].window_used == 0.4


def test_length_curve_golden_01(golden):
    curve = length_curve(golden, [0.1])
    s = curve.samples[0]
    assert 33.5 <= s.L_upper <= 34.5


def test_length_curve_validation(golden):
    with pytest.raises(ValueError):
        length_curve(golden, [0.1, 0.2])
    with pytest.raises(ValueError):
        length_curve(golden, [])
    with pytest.raises(ValueError):
        length_curve(golden, [0.1, -0.05])


def test_length_curve_unresolved_sample(golden):
    curve = length_curve(golden, [0.1], max_grid_points=50)
    assert not curve.samples[0].resolved
    assert math.isnan(curve.samples[0].L_upper)


def test_length_curve_budget_cut_doubling_is_unresolved(golden):
    eps = [0.4, 0.2, 0.1, 0.05]
    full = length_curve(golden, eps)
    # the cap holds the first window at 0.05, 4/eps = 80, but not its doubling to 160
    cap = grid_count(80.0, certified_step(golden, 0.05)) + 1
    cut = length_curve(golden, eps, max_grid_points=cap)
    assert cut.samples[:3] == full.samples[:3]
    first = length_curve(golden, [0.05], max_doublings=0).samples[0]
    assert first.resolved and first.window_used == 80.0
    # the cut sample keeps its last window's bracket, and the fit skips it
    assert cut.samples[3] == replace(first, resolved=False)
    assert fit_exponent(cut) == fit_exponent(LengthCurve(full.samples[:3], full.signal_id))


def test_fit_exponent_exact_power_law():
    samples = tuple(
        LengthSample(eps=e, L_lower=e**-2, L_upper=e**-2, window_used=1.0, resolved=True)
        for e in (1e-1, 1e-2, 1e-3)
    )
    fit = fit_exponent(LengthCurve(samples=samples, signal_id="synthetic"))
    assert fit.slope == pytest.approx(2.0, abs=1e-9)
    assert fit.residual == pytest.approx(0.0, abs=1e-9)
    assert fit.max_ratio == pytest.approx(2.0, abs=1e-9)


def test_fit_exponent_too_few():
    samples = tuple(
        LengthSample(eps=e, L_lower=1.0, L_upper=1.0, window_used=1.0, resolved=True)
        for e in (0.2, 0.1)
    )
    with pytest.raises(TooFewSamples):
        fit_exponent(LengthCurve(samples=samples, signal_id="x"))


def test_fit_exponent_skips_unresolved():
    good = [
        LengthSample(eps=e, L_lower=e**-1, L_upper=e**-1, window_used=1.0, resolved=True)
        for e in (0.4, 0.2, 0.1, 0.05)
    ]
    bad = [LengthSample(eps=0.025, L_lower=math.nan, L_upper=math.nan, window_used=1.0, resolved=False)]
    fit = fit_exponent(LengthCurve(samples=tuple(good + bad), signal_id="x"))
    assert fit.slope == pytest.approx(1.0, abs=1e-9)


def test_length_curve_window_policy(golden):
    wide = length_curve(golden, [0.1], initial_width=200.0)
    assert wide.samples[0].window_used == 200.0


def test_interval_set_validation():
    with pytest.raises(ValueError):
        IntervalSet(window=(0.0, 1.0), inner=((0.5, 0.4),), outer=((0.0, 1.0),), step=0.01, eps=0.1)
    with pytest.raises(ValueError):
        IntervalSet(window=(0.0, 1.0), inner=((0.2, 0.3),), outer=(), step=0.01, eps=0.1)
    with pytest.raises(ValueError):
        IntervalSet(window=(0.0, 1.0), inner=(), outer=((0.6, 0.7), (0.1, 0.2)), step=0.01, eps=0.1)


@pytest.mark.parametrize(
    "window,outer",
    [
        ((0.0, 10.0), ((math.nan, 5.0),)),
        ((0.0, 10.0), ((1.0, 2.0), (math.nan, 5.0))),
        ((0.0, 10.0), ((1.0, math.nan),)),
        ((0.0, math.nan), ((1.0, 2.0),)),
        ((-math.inf, 10.0), ((1.0, 2.0),)),
    ],
)
def test_interval_set_rejects_nan_endpoints_and_windows(window, outer):
    # no comparison with NaN is true, so a check that looks for a bad order passes
    # these; inclusion_length would then read (0, 10), (5, 10), (1, 10), (1, nan)
    # and (inf, inf) from them
    with pytest.raises(ValueError):
        IntervalSet(window=window, inner=(), outer=outer, step=0.01, eps=0.1)


@pytest.mark.parametrize("step,eps", [(math.nan, 0.1), (math.inf, 0.1), (0.01, math.nan), (0.01, -math.inf)])
def test_interval_set_rejects_non_finite_step_and_eps(step, eps):
    with pytest.raises(ValueError, match="finite"):
        IntervalSet(window=(0.0, 10.0), inner=(), outer=((1.0, 2.0),), step=step, eps=eps)


def test_interval_set_many_intervals_accepted():
    outer = tuple((float(k), k + 0.5) for k in range(10_000))
    inner = tuple((k + 0.1, k + 0.4) for k in range(10_000))
    s = IntervalSet(window=(0.0, 10_000.0), inner=inner, outer=outer, step=0.01, eps=0.1)
    assert len(s.inner) == 10_000


def test_interval_set_inner_straddling_two_outers_rejected():
    with pytest.raises(ValueError, match="not contained"):
        IntervalSet(
            window=(0.0, 1.0), inner=((0.3, 0.7),), outer=((0.1, 0.5), (0.5, 0.9)), step=0.01, eps=0.1
        )


def test_length_curve_records_signal_id(golden):
    curve = length_curve(golden, [0.4])
    assert curve.signal_id == "golden"


def test_scan_chunk_size_does_not_change_result(golden, monkeypatch):
    import qplab.almost_periods as ap

    eps = 0.1
    step = certified_step(golden, eps)
    ref = sublevel_scan(golden, eps, (0.0, 50.0), step)
    monkeypatch.setattr(ap, "_CHUNK", 97)
    small = sublevel_scan(golden, eps, (0.0, 50.0), step)
    assert small == ref


@pytest.mark.parametrize(
    "name,ladder,limit",
    [("sqrt23", SQRT23_EPS_LADDER, 20_000), ("golden", GOLDEN_EPS_LADDER, 5_000)],
)
def test_length_curve_evaluates_near_every_term_zero_only(name, ladder, limit, monkeypatch):
    # D is evaluated only where every term is near a zero: a filter on one term
    # alone evaluates about 6.1 M points on the sqrt23 ladder and 231 k on golden's
    import qplab.almost_periods as ap

    points = []
    distance = ap.translation_distance_many

    def counting(f, taus):
        points.append(taus.size)
        return distance(f, taus)

    monkeypatch.setattr(ap, "translation_distance_many", counting)
    curve = length_curve(preset(name), ladder)
    assert all(s.resolved for s in curve.samples)
    assert 0 < sum(points) < limit

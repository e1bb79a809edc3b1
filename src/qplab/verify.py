"""Bundled verification suites composing the module-level checks.

Each check returns raw numbers next to its pass flag so reports stay
diagnosable; a suite passes iff every check passes. Results are pure
functions of (suite, seed), which makes reports byte-reproducible.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .almost_periods import LengthCurve, fit_exponent, length_curve
from .diophantine import (
    badness_score,
    best_simultaneous_denominator,
    cf_expand,
    kronecker_residuals,
    kronecker_solve,
)
from .dimension import (
    TorusGridSample,
    _grid_greedy_cover,
    _points_greedy_cover,
    equivalence_constants,
    orbit_angles,
    orbit_segment_sample,
    torus_distance,
)
from .precision import golden_ratio, sqrt2, two_pi
from .signal import QuasiperiodicSignal, lipschitz_constant, preset, translation_distance_many

GOLDEN_EPS_LADDER = tuple(0.4 * 2.0**-k for k in range(8))
SQRT23_EPS_LADDER = tuple(0.8 * 2.0**-k for k in range(6))
SLOPE_BAND_GOLDEN = (0.85, 1.15)
SLOPE_FLOOR_SQRT23 = 1.7
# largest gap of the 0.1-sublevel set, cross-checked against a dense brute
# scan and the uniform-norm oracle (the set contains the q/phi family, e.g.
# D(34/phi) = D(34) = 0.0826, so the measured gap is 33.98, close to 34)
INCLUSION_LENGTH_BAND_AT_0_1 = (30.0, 40.0)
# multiplicative slack of the segment-cover inequalities
SEGMENT_SLACK = 2.0


def _check(name: str, passed: bool, **data) -> dict:
    entry = {"name": name, "passed": bool(passed)}
    entry.update(data)
    return entry


def _metric_checks(f: QuasiperiodicSignal, seed: int, count: int = 2000) -> list[dict]:
    """The metric identity D = chord, and chord/torus inside [C1, C2], on one sample of translates."""
    rng = np.random.default_rng(seed)
    taus = rng.uniform(-100.0, 100.0, count)
    # angles reduced at working precision, independent of D's float products
    angles = np.array([orbit_angles(f, float(tau)) for tau in taus])
    zero = np.zeros(f.n)
    chord = torus_distance(angles, zero, f.amplitude_moduli)
    worst = float(np.max(np.abs(translation_distance_many(f, taus) - chord)))
    ratio = chord / torus_distance(angles, zero)
    lo, hi = float(ratio.min()), float(ratio.max())
    c1, c2 = equivalence_constants(f)
    return [
        _check("translation_distance_matches_torus_chord", worst < 1e-12, max_abs_error=worst, samples=count),
        _check(
            "metric_equivalence_bounds",
            c1 * (1.0 - 1e-12) <= lo and hi <= c2 * (1.0 + 1e-12),
            c1=c1, c2=c2, ratio_min=lo, ratio_max=hi,
        ),
    ]


def _samples(curve: LengthCurve) -> list[dict]:
    return [
        {"eps": s.eps, "L_lower": s.L_lower, "L_upper": s.L_upper, "window": s.window_used}
        for s in curve.samples
    ]


def _growth_exponent_check(curve: LengthCurve, band: tuple[float, float]) -> dict:
    fit = fit_exponent(curve)
    passed = band[0] <= fit.slope <= band[1]
    return _check(
        "inclusion_length_growth_exponent",
        passed,
        slope=fit.slope,
        residual=fit.residual,
        max_ratio=fit.max_ratio,
        band=list(band),
        samples=_samples(curve),
    )


def _growth_floor_check(curve: LengthCurve, floor: float) -> dict:
    fit = fit_exponent(curve)
    return _check(
        "inclusion_length_growth_exponent_floor",
        fit.slope >= floor,
        slope=fit.slope,
        floor=floor,
        samples=_samples(curve),
    )


def _inclusion_length_spot_check(curve: LengthCurve) -> dict:
    sample = next(s for s in curve.samples if abs(s.eps - 0.1) < 1e-12)
    lo, hi = INCLUSION_LENGTH_BAND_AT_0_1
    return _check(
        "inclusion_length_at_eps_0.1",
        lo <= sample.L_upper <= hi,
        L_lower=sample.L_lower,
        L_upper=sample.L_upper,
        band=[lo, hi],
    )


def _segment_cover_checks(f: QuasiperiodicSignal, lengths: dict, scales: Sequence[float]) -> list[dict]:
    """Compare orbit-segment covering counts with the full-hull count, one check per scale eps.

    g(r) counts the greedy cover at radius r of the segment {translate(s) :
    |s| <= L(r/2)}, with L from ``lengths``. The check at eps holds when, up to
    the factor SEGMENT_SLACK, g(2 eps) <= hull count at eps <= g(eps/2), and
    g(eps) stays below 2 L(eps/2)/delta + 1 for delta = (eps/2)/C. Scales a
    factor 2 or 4 apart share radii, so each g(r) is computed once. Reports
    numbers and flags, never raises on a violated inequality.
    """
    g = {}
    for r in dict.fromkeys(r for eps in scales for r in (2.0 * eps, eps, eps / 2.0)):
        g[r] = _points_greedy_cover(orbit_segment_sample(f, -lengths[r / 2.0], lengths[r / 2.0], r), r)
    C = lipschitz_constant(f)
    checks = []
    for eps in scales:
        hull = _grid_greedy_cover(TorusGridSample.hull_grid(f, eps), eps)
        bound = 2.0 * lengths[eps / 2.0] / ((eps / 2.0) / C) + 1.0
        lower, upper = g[2.0 * eps], g[eps / 2.0]
        checks.append(_check(
            f"segment_cover_sandwich_eps_{eps:g}",
            lower <= SEGMENT_SLACK * hull and hull <= SEGMENT_SLACK * upper and g[eps] <= SEGMENT_SLACK * bound,
            eps=eps, segment_count_2eps=lower, hull_count_eps=hull, segment_count_half_eps=upper,
            segment_count_eps=g[eps], count_bound=bound, slack=SEGMENT_SLACK,
        ))
    return checks


def _quotients_check() -> dict:
    cf_phi = cf_expand(golden_ratio(), 30)
    cf_s2 = cf_expand(sqrt2(), 30)
    ok_phi = cf_phi.a0 == 1 and cf_phi.quotients == (1,) * 30
    ok_s2 = cf_s2.a0 == 1 and cf_s2.quotients == (2,) * 30
    return _check(
        "bounded_partial_quotients",
        ok_phi and ok_s2,
        phi_quotients_all_one=ok_phi,
        sqrt2_quotients_all_two=ok_s2,
    )


def _badness_check() -> dict:
    phi = golden_ratio()
    inv_phi = phi - 1  # inverse of the second exponent ratio; same quotient tail
    r_phi = badness_score([phi], 10**5)
    r_inv = badness_score([inv_phi], 10**5)
    r_s2 = badness_score([sqrt2()], 10**5)
    prefix_ok = all(badness_score([phi], q).score >= 0.38 for q in (10, 1000))
    passed = (
        abs(r_phi.score - 0.3819660113) <= 1e-4
        and r_phi.argmin_q == 1
        and r_phi.score >= 0.38
        and prefix_ok
        and abs(r_s2.score - 0.3431457505) <= 1e-3
        and r_s2.argmin_q == 2
        and r_inv.score >= 0.38
    )
    return _check(
        "badly_approximable_scores",
        passed,
        phi_score=r_phi.score,
        phi_argmin_q=r_phi.argmin_q,
        inverse_ratio_score=r_inv.score,
        sqrt2_score=r_s2.score,
        sqrt2_argmin_q=r_s2.argmin_q,
    )


def _aligned_denominator_check() -> dict:
    q = best_simultaneous_denominator([golden_ratio()], 0.01, 1000)
    return _check("smallest_aligned_denominator", q == 55, q=q, expected=55)


def _phase_alignment_check() -> dict:
    tp = float(two_pi())
    lams = [tp, tp * float(golden_ratio())]
    kaps = [0.0, math.pi]
    t = kronecker_solve(lams, kaps, 0.3, 50.0)
    found_ok = t is not None and max(kronecker_residuals(lams, kaps, t)) < 0.3
    res17 = kronecker_residuals(lams, kaps, 17.0)
    return _check(
        "phase_alignment_solver",
        found_ok and max(res17) < 0.3,
        t=t,
        residuals=list(kronecker_residuals(lams, kaps, t)) if t is not None else None,
        residuals_at_17=list(res17),
    )


def golden_suite(seed: int = 7) -> list[dict]:
    """Full verification battery for the two-harmonic golden-ratio signal."""
    f = preset("golden")
    checks = _metric_checks(f, seed)
    curve = length_curve(f, GOLDEN_EPS_LADDER)
    checks.append(_growth_exponent_check(curve, SLOPE_BAND_GOLDEN))
    checks.append(_inclusion_length_spot_check(curve))
    lengths = {s.eps: s.L_upper for s in curve.samples}
    checks.extend(_segment_cover_checks(f, lengths, (0.4, 0.2)))
    checks.append(_quotients_check())
    checks.append(_badness_check())
    checks.append(_aligned_denominator_check())
    checks.append(_phase_alignment_check())
    return checks


def sqrt23_suite(seed: int = 7) -> list[dict]:
    """Growth-exponent floor for the three-harmonic sqrt(2)/sqrt(3) signal."""
    f = preset("sqrt23")
    checks = _metric_checks(f, seed, count=500)
    curve = length_curve(f, SQRT23_EPS_LADDER)
    checks.append(_growth_floor_check(curve, SLOPE_FLOOR_SQRT23))
    return checks


SUITES: dict[str, Callable[[int], list[dict]]] = {
    "golden": golden_suite,
    "sqrt23": sqrt23_suite,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, seed: int = 7) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    checks = SUITES[name](seed)
    return {"suite": name, "seed": seed, "passed": all(c["passed"] for c in checks), "checks": checks}

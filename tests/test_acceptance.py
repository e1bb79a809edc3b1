"""Acceptance battery: nine numbered criteria with pinned tolerances.

Each test prints one PASS/FAIL line (visible with pytest -s or in failure
output). Criterion 5's inclusion-length band [50, 60] is asserted unchanged;
the computed value sits near 34 because the 0.1-sublevel set of the golden
signal contains the conjugate family tau = q/phi (verified against both a
dense brute scan and the uniform-norm oracle), so that sub-check documents a
known discrepancy rather than a code defect. See the growth-exponent check of
the same criterion for the behavior both bounds actually pin down.
"""
import json
import math
import time

import numpy as np
import pytest

from qplab.almost_periods import fit_exponent, length_curve
from qplab.cli import main as cli_main
from qplab.dimension import dimension_fit, equivalence_constants, hull_dimension_report
from qplab.diophantine import badness_score
from qplab.precision import golden_ratio, sqrt2
from qplab.signal import QuasiperiodicSignal, preset, sup_oracle, translation_distance
from qplab.verify import (
    _aligned_denominator_check,
    _metric_identity_check,
    _phase_alignment_check,
    _quotients_check,
    _segment_cover_check,
)


def conclude(criterion: str, passed: bool, detail: str):
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def golden():
    return preset("golden")


@pytest.fixture(scope="module")
def golden_ladder(golden):
    """Inclusion-length curve over eps_k = 0.4 * 2**-k, k = 0..7, with timing."""
    eps_list = [0.4 * 2.0**-k for k in range(8)]
    t0 = time.monotonic()
    curve = length_curve(golden, eps_list)
    return curve, time.monotonic() - t0


def test_criterion_1_closed_form_vs_oracle(golden):
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    taus = rng.uniform(0.0, 100.0, 20)
    worst_low = math.inf
    for tau in taus:
        d = translation_distance(golden, float(tau))
        o = sup_oracle(golden, float(tau), 1e4, 1e-2)
        assert o <= d + 1e-9
        assert o >= 0.98 * d - 1e-3
        if d > 0:
            worst_low = min(worst_low, o / d)
    elapsed = time.monotonic() - t0
    conclude(
        "criterion 1 (oracle vs closed form)",
        elapsed < 30.0,
        f"20 taus in band, worst ratio {worst_low:.4f}, {elapsed:.1f}s",
    )


def test_criterion_2_metric_identity_and_equivalence(golden):
    worst = _metric_identity_check(golden, 11, count=10**4)["max_abs_error"]
    assert worst <= 1e-12
    c1, c2 = equivalence_constants(golden, 4000, seed=11)
    assert 0.0 < c1 <= c2
    per_scale = []
    for k in (5, 8, 11, 14, 17, 20):
        c1_k, _ = equivalence_constants(
            golden, 1000, seed=11000 + k, near_diagonal_scales=(k,), include_uniform=False
        )
        per_scale.append(c1_k)
    mean = sum(per_scale) / len(per_scale)
    stable = all(0.8 * mean <= v <= 1.2 * mean for v in per_scale)
    conclude(
        "criterion 2 (metric identity + equivalence)",
        stable,
        f"max identity error {worst:.2e}, c1={c1:.3f}, c2={c2:.3f}, "
        f"near-diagonal c1 range [{min(per_scale):.3f}, {max(per_scale):.3f}]",
    )


def test_criterion_3_hull_dimension(golden):
    t0 = time.monotonic()
    eps = [2.0**-k for k in range(2, 8)]
    single = QuasiperiodicSignal([(1, 2 * math.pi)], label="single")
    lo1, up1 = dimension_fit(hull_dimension_report(single, eps))
    lo2, up2 = dimension_fit(hull_dimension_report(golden, eps))
    elapsed = time.monotonic() - t0
    assert abs(lo1 - 1.0) <= 0.1 and abs(up1 - 1.0) <= 0.1
    assert abs(lo2 - 2.0) <= 0.2 and abs(up2 - 2.0) <= 0.2
    conclude(
        "criterion 3 (hull dimension)",
        elapsed < 300.0,
        f"T1 dims ({lo1:.3f}, {up1:.3f}), T2 dims ({lo2:.3f}, {up2:.3f}), {elapsed:.0f}s",
    )


def test_criterion_4_sandwich_and_count_bound(golden, golden_ladder):
    curve, _ = golden_ladder
    lengths = {s.eps: s.L_upper for s in curve.samples}
    results = {}
    for eps in (0.4, 0.2):
        r = _segment_cover_check(golden, eps, lengths)
        results[eps] = r
        assert r["slack"] == 2.0
        assert r["segment_count_2eps"] <= 2.0 * r["hull_count_eps"], (
            f"segment count at 2*eps exceeds slack at eps={eps}"
        )
        assert r["hull_count_eps"] <= 2.0 * r["segment_count_half_eps"], (
            f"hull count exceeds slack at eps={eps}"
        )
        assert r["segment_count_eps"] <= 2.0 * r["count_bound"], f"count bound violated at eps={eps}"
    detail = "; ".join(
        f"eps={e}: {r['segment_count_2eps']} <= {r['hull_count_eps']} <= {r['segment_count_half_eps']}, "
        f"count {r['segment_count_eps']} <= bound {r['count_bound']:.0f}"
        for e, r in results.items()
    )
    conclude("criterion 4 (cover sandwich + count bound)", True, detail)


def test_criterion_5_growth_exponent_band(golden_ladder):
    curve, elapsed = golden_ladder
    fit = fit_exponent(curve)
    assert 0.85 <= fit.slope <= 1.15, f"slope {fit.slope}"
    conclude(
        "criterion 5 (growth exponent in [0.85, 1.15])",
        elapsed < 300.0,
        f"slope {fit.slope:.4f}, residual {fit.residual:.4f}, {elapsed:.0f}s",
    )


def test_criterion_5_inclusion_length_at_eps_0_1(golden_ladder):
    curve, _ = golden_ladder
    sample = next(s for s in curve.samples if s.eps == 0.1)
    in_band = 50.0 <= sample.L_upper <= 60.0
    conclude(
        "criterion 5 (inclusion length at eps=0.1 in [50, 60])",
        in_band,
        f"L_upper = {sample.L_upper:.3f}; the 0.1-sublevel set contains "
        f"tau = 34/phi = 21.013 and tau = 55/phi = 33.992 (uniform-norm oracle "
        f"confirms both), so the largest gap is close to 34, not 55",
    )


def test_criterion_6_growth_floor_three_exponents():
    f = preset("sqrt23")
    eps_list = [0.8 * 2.0**-k for k in range(6)]
    t0 = time.monotonic()
    curve = length_curve(f, eps_list)
    fit = fit_exponent(curve)
    elapsed = time.monotonic() - t0
    conclude(
        "criterion 6 (three-exponent growth floor)",
        fit.slope >= 1.7,
        f"slope {fit.slope:.4f} >= 1.7 over eps in [{eps_list[-1]:.4f}, {eps_list[0]:.1f}], {elapsed:.0f}s",
    )


def test_criterion_7_diophantine_suite():
    t0 = time.monotonic()
    phi = golden_ratio()
    quotients = _quotients_check()
    assert quotients["phi_quotients_all_one"] and quotients["sqrt2_quotients_all_two"]
    rep_phi = badness_score([phi], 10**5)
    assert abs(rep_phi.score - 0.38197) <= 1e-4
    assert rep_phi.argmin_q == 1
    for Q in (10, 10**3, 10**5):
        assert badness_score([phi], Q).score >= 0.38
    rep_s2 = badness_score([sqrt2()], 10**5)
    assert abs(rep_s2.score - 0.3431) <= 1e-3
    assert rep_s2.argmin_q == 2
    assert _aligned_denominator_check()["q"] == 55
    elapsed = time.monotonic() - t0
    conclude(
        "criterion 7 (diophantine suite)",
        elapsed < 10.0,
        f"phi score {rep_phi.score:.5f}@q=1, sqrt2 score {rep_s2.score:.5f}@q=2, "
        f"q*=55, {elapsed:.1f}s",
    )


def test_criterion_8_kronecker():
    t0 = time.monotonic()
    check = _phase_alignment_check()
    elapsed = time.monotonic() - t0
    t = check["t"]
    assert t is not None
    rechecked = check["residuals"]
    assert max(rechecked) < 0.3
    res17 = check["residuals_at_17"]
    assert max(res17) < 0.3  # t = 17 admissible
    conclude(
        "criterion 8 (phase alignment)",
        elapsed < 1.0,
        f"t={t:.4f} residuals {tuple(round(r, 4) for r in rechecked)}, "
        f"t=17 residuals {tuple(round(r, 4) for r in res17)}, {elapsed:.2f}s",
    )


def test_criterion_9_determinism(tmp_path):
    out = tmp_path / "verify.json"
    args = ["verify", "--suite", "golden", "--seed", "7", "--out", str(out)]
    code1 = cli_main(list(args))
    first = out.read_bytes()
    code2 = cli_main(list(args))
    second = out.read_bytes()
    assert code1 == 0 and code2 == 0
    payload = json.loads(first.decode("utf-8"))
    assert payload["passed"] is True
    conclude(
        "criterion 9 (byte-identical verify reports)",
        first == second,
        f"{len(first)} bytes, suite passed both runs",
    )

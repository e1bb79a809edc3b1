import math
from itertools import product

import numpy as np
import pytest
from mpmath import mp, mpf

from qplab.errors import BudgetExceeded, SignalParseError
from qplab.precision import as_mpf, golden_ratio, two_pi
from qplab.signal import (
    PRESET_NAMES,
    RELATION_MAX_COEFF,
    RELATION_REL_TOL,
    QuasiperiodicSignal,
    evaluate,
    lipschitz_constant,
    parse_signal,
    preset,
    sup_oracle,
    suspected_rational_relation,
    translation_distance,
    translation_distance_many,
)

# 2*|sin(55*pi*phi)| computed with mpmath at 200 bits
D_GOLDEN_55 = 0.05108062929278753


def test_evaluate_unit_harmonic_at_zero(single_term):
    assert evaluate(single_term, 0.0) == pytest.approx(1.0 + 0j, abs=1e-15)


def test_evaluate_golden_sum_at_zero(golden):
    assert evaluate(golden, 0.0) == pytest.approx(2.0 + 0j, abs=1e-15)


def test_evaluate_half_period(single_term):
    assert evaluate(single_term, 0.5) == pytest.approx(-1.0 + 0j, abs=1e-12)


def test_evaluate_bounded_by_amplitude_sum(golden):
    rng = np.random.default_rng(3)
    total = float(np.sum(golden.amplitude_moduli))
    for t in rng.uniform(-50, 50, 200):
        assert abs(evaluate(golden, float(t))) <= total + 1e-12


def test_translation_distance_antipodal(single_term):
    assert translation_distance(single_term, 0.5) == pytest.approx(2.0, abs=1e-12)


def test_translation_distance_zero_translate(golden, single_term, sqrt23):
    for f in (golden, single_term, sqrt23):
        assert translation_distance(f, 0.0) == 0.0


def test_translation_distance_golden_55(golden):
    assert translation_distance(golden, 55.0) == pytest.approx(D_GOLDEN_55, abs=1e-11)


def test_translation_distance_even_and_bounded(golden):
    rng = np.random.default_rng(11)
    bound = 2.0 * float(np.sum(golden.amplitude_moduli))
    for tau in rng.uniform(-200, 200, 500):
        d = translation_distance(golden, float(tau))
        assert d == translation_distance(golden, -float(tau))
        assert 0.0 <= d <= bound + 1e-12


def test_translation_distance_lipschitz(golden):
    rng = np.random.default_rng(5)
    C = lipschitz_constant(golden)
    taus = rng.uniform(-100, 100, 300)
    perturbed = taus + rng.uniform(-1, 1, 300)
    for a, b in zip(taus, perturbed):
        lhs = abs(translation_distance(golden, float(a)) - translation_distance(golden, float(b)))
        assert lhs <= C * abs(a - b) + 1e-12


def test_translation_distance_many_bounds_every_term(golden, sqrt23):
    # sublevel_scan excludes a grid point once one term alone reaches the cut
    unequal = QuasiperiodicSignal([(0.3 - 1.1j, -7.25), (1.4, 2.0**0.5), (-0.2 + 0.5j, 0.31)])
    rng = np.random.default_rng(23)
    taus = np.concatenate([rng.uniform(-50, 50, 2000), rng.uniform(-2e5, 2e5, 2000)])
    for f in (golden, sqrt23, unequal):
        d = translation_distance_many(f, taus)
        for amp, lam in zip(f._amps, f._lams):
            term = (2.0 * abs(amp)) * np.abs(np.sin((lam * 0.5) * taus))
            assert np.all(d >= term)


def test_lipschitz_constant_values(golden, single_term):
    assert lipschitz_constant(single_term) == pytest.approx(2 * math.pi, rel=1e-15)
    phi = float(golden_ratio())
    assert lipschitz_constant(golden) == pytest.approx(2 * math.pi * (1 + phi), rel=1e-12)
    f = QuasiperiodicSignal([(3, 1.0)])
    assert lipschitz_constant(f) == pytest.approx(3.0, rel=1e-15)


def test_sup_oracle_zero_translate(golden):
    assert sup_oracle(golden, 0.0, 10.0, 0.01) == 0.0


def test_sup_oracle_single_term_half_period(single_term):
    got = sup_oracle(single_term, 0.5, 1.0, 1e-3)
    assert got == pytest.approx(2.0, abs=1e-4)


def test_sup_oracle_golden_55(golden):
    got = sup_oracle(golden, 55.0, 1e4, 0.01)
    assert 0.051 * (1 - 1e-2) <= got <= 0.0511


def test_sup_oracle_below_translation_distance(golden):
    rng = np.random.default_rng(17)
    for tau in rng.uniform(0, 100, 10):
        o = sup_oracle(golden, float(tau), 500.0, 0.05)
        assert o <= translation_distance(golden, float(tau)) + 1e-9


def test_sup_oracle_gap_shrinks_with_horizon(golden):
    taus = [7.3, 13.9, 41.5]
    gaps = []
    for horizon in (1e2, 1e3, 1e4):
        gap = 0.0
        for tau in taus:
            gap += translation_distance(golden, tau) - sup_oracle(golden, tau, horizon, 0.01)
        gaps.append(gap / len(taus))
    assert gaps[0] >= gaps[1] - 1e-12
    assert gaps[1] >= gaps[2] - 1e-12


def test_sup_oracle_budget(golden):
    with pytest.raises(BudgetExceeded):
        sup_oracle(golden, 1.0, 1e6, 1e-6)


def test_sup_oracle_grid_too_large_for_an_int(golden):
    # horizon / grid_step overflows to inf: a budget error, not an OverflowError
    with pytest.raises(BudgetExceeded, match="^oracle grid needs inf points, cap is 67108864$"):
        sup_oracle(golden, 1.0, 1e300, 1e-10)


def test_sup_oracle_input_validation(golden):
    with pytest.raises(ValueError):
        sup_oracle(golden, 1.0, -1.0, 0.01)
    with pytest.raises(ValueError):
        sup_oracle(golden, 1.0, 1.0, 0.0)


def test_signal_validation():
    with pytest.raises(ValueError):
        QuasiperiodicSignal([(0, 1.0)])
    with pytest.raises(ValueError):
        QuasiperiodicSignal([(1, 0.0)])
    with pytest.raises(ValueError):
        QuasiperiodicSignal([(1, 2.0), (1j, 2.0)])
    with pytest.raises(ValueError):
        QuasiperiodicSignal([])


@pytest.mark.parametrize(
    "terms",
    [[(1, "1e400")], [(1, "-1e400")], [(1, "1e-400")], [(1, math.nan)], [(1e400, 1)],
     [(complex(1, math.nan), 1)], [(1.5e308 + 1.5e308j, 1)]],
)
def test_signal_float_copies_must_be_finite_and_nonzero(terms):
    # the exact amplitude and exponent pass; their float64 copies overflow, underflow or are NaN
    with pytest.raises(ValueError, match="float64"):
        QuasiperiodicSignal(terms)


@pytest.mark.parametrize("text", ["1+0i@1e400", "1e400+0i@1", "1+0i@1e-400", "1+0i@1,1+0i@-1e-400"])
def test_parse_signal_rejects_terms_float64_cannot_hold(text):
    with pytest.raises(SignalParseError, match="float64"):
        parse_signal(text)


def test_presets():
    g = preset("golden")
    s = preset("sqrt23")
    assert g.n == 2 and s.n == 3
    tp = float(two_pi())
    phi = float(golden_ratio())
    assert g.exponents_float[0] == pytest.approx(tp, rel=1e-15)
    assert g.exponents_float[1] == pytest.approx(tp * phi, rel=1e-15)
    assert s.exponents_float[1] == pytest.approx(tp * math.sqrt(2), rel=1e-12)
    for name in ("nope", "golden1"):
        with pytest.raises(SignalParseError):
            preset(name)


def test_parse_signal_literal():
    f = parse_signal("1+0i@6.28,2-1i@1.0")
    assert f.n == 2
    assert f.terms[0][0] == 1 + 0j
    assert f.terms[1][0] == 2 - 1j
    assert float(f.terms[1][1]) == 1.0


def test_parse_signal_preset_name():
    assert parse_signal("golden").n == 2


def test_parse_signal_zero_amplitude():
    with pytest.raises(SignalParseError):
        parse_signal("0+0i@1.0")


def test_parse_signal_reports_position():
    with pytest.raises(SignalParseError) as err:
        parse_signal("1+0i@6.28,bogus")
    assert err.value.position == 10


def test_parse_signal_rejects_zero_exponent():
    with pytest.raises(SignalParseError):
        parse_signal("1+0i@0.0")


def test_parse_signal_empty():
    with pytest.raises(SignalParseError):
        parse_signal("   ")


def test_suspected_rational_relation_finds_multiple():
    hit = suspected_rational_relation([mp.pi, 2 * mp.pi])
    assert hit is not None
    c1, c2 = hit
    assert 2 * c1 + c2 * 4 == 2 * c1 + 4 * c2  # coefficients are integers
    assert abs(2 * c1 + 1 * c2) + abs(c1) > 0
    assert c1 * 1 + c2 * 2 == 0  # pi and 2 pi satisfy 2x - y = 0


def test_suspected_rational_relation_none_for_golden(golden):
    assert suspected_rational_relation(golden.exponents) is None


def reference_relation(exponents):
    """The relation search that sums every coefficient tuple in mpmath, in product order."""
    lams = [as_mpf(x) for x in exponents]
    scale = max(abs(l) for l in lams)
    bound = mpf(RELATION_REL_TOL) * scale
    for coeffs in product(range(-RELATION_MAX_COEFF, RELATION_MAX_COEFF + 1), repeat=len(lams)):
        if all(c == 0 for c in coeffs):
            continue
        if next(c for c in coeffs if c != 0) < 0:
            continue
        combo = mpf(0)
        for c, lam in zip(coeffs, lams):
            combo += c * lam
        if abs(combo) < bound:
            return coeffs
    return None


def _seeded_exponents(seed):
    rng = np.random.default_rng(4000 + seed)
    n = 1 + seed % 4
    return [mpf(float(x)) * 10 ** int(k) for x, k in zip(rng.uniform(-9, 9, n), rng.integers(-3, 4, n))]


def _planted_relations(seed):
    """Exponent lists with sum c_j lambda_j, gcd(c) = 1, at RELATION_REL_TOL * max|lambda|
    times 1 -+ 2**-30, 1 -+ 2**-(prec - 48) and 1, at the working precision prec."""
    rng = np.random.default_rng(5000 + seed)
    n = 2 + seed % 3
    tight = mpf(2) ** (48 - mp.prec)
    factors = (1 - mpf(2) ** -30, 1 - tight, mpf(1), 1 + tight, 1 + mpf(2) ** -30)
    out = []
    while len(out) < len(factors):
        coeffs = [int(c) for c in rng.integers(-RELATION_MAX_COEFF, RELATION_MAX_COEFF + 1, n)]
        if coeffs[-1] == 0 or math.gcd(*coeffs) != 1:
            continue
        lams = [mpf(float(x)) for x in rng.uniform(1.0, 10.0, n - 1) * rng.choice([-1.0, 1.0], n - 1)]
        scale = max(abs(l) for l in lams)
        target = factors[len(out)] * mpf(RELATION_REL_TOL) * scale * int(rng.choice([-1, 1]))
        last = (target - sum(c * l for c, l in zip(coeffs, lams))) / coeffs[-1]
        if abs(last) < scale:  # max|lambda| stays the planted scale
            out.append(lams + [last])
    return out


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_relation_matches_reference_on_presets(name):
    exponents = preset(name).exponents
    assert suspected_rational_relation(exponents) == reference_relation(exponents) is None


def test_relation_matches_reference_on_seeded_exponents():
    cases = [_seeded_exponents(seed) for seed in range(16)]
    cases += [[mp.pi, 2 * mp.pi], [1, -1], [3, mpf(2) / 3, 5], [mp.e, mp.pi, mp.e + mp.pi, 1]]
    found = 0
    for exponents in cases:
        expected = reference_relation(exponents)
        assert suspected_rational_relation(exponents) == expected, exponents
        found += expected is not None
    assert found >= 4  # the four lists with a relation by construction


@pytest.mark.parametrize("bits", [80, 256])
@pytest.mark.parametrize("seed", range(4))
def test_relation_matches_reference_at_the_tolerance_edge(seed, bits):
    with mp.workprec(bits):
        hits = []
        for exponents in _planted_relations(seed):
            expected = reference_relation(exponents)
            assert suspected_rational_relation(exponents) == expected, exponents
            hits.append(expected is not None)
    assert hits[0] and not hits[-1]


def _differential_relation_cases(seed):
    """Seeded commensurable lists, near relations at 1e-6 to 1e-12 of max|lambda| and
    lists with one exponent at 1e-8 to 1e-14 of the others; n = 2-3, and n = 4 for seed 0."""
    rng = np.random.default_rng(6000 + seed)
    cases = []
    for n in (2, 3, 4) if seed == 0 else (2, 3):
        base = mpf(float(rng.uniform(0.1, 10.0)))
        cases.append([base * int(k) * int(rng.choice([-1, 1])) for k in rng.integers(1, 10, n)])
        lams = [mpf(float(x)) for x in rng.uniform(1.0, 10.0, n - 1) * rng.choice([-1.0, 1.0], n - 1)]
        coeffs = [int(c) for c in rng.integers(-RELATION_MAX_COEFF, RELATION_MAX_COEFF + 1, n - 1)]
        last = int(rng.choice([-1, 1])) * int(rng.integers(1, RELATION_MAX_COEFF + 1))
        near = mpf(10) ** -float(rng.uniform(6, 12)) * max(abs(l) for l in lams)
        cases.append(lams + [(near - sum(c * l for c, l in zip(coeffs, lams))) / last])
        tiny = [mpf(float(x)) for x in rng.uniform(1.0, 10.0, n)]
        tiny[int(rng.integers(n))] *= mpf(10) ** -int(rng.integers(8, 15))
        cases.append(tiny)
    return cases


def test_relation_agrees_with_reference_on_commensurable_near_and_tiny_exponents():
    cases = [case for seed in range(8) for case in _differential_relation_cases(seed)]
    found = 0
    for exponents in cases:
        got = suspected_rational_relation(exponents)
        assert (got is None) == (reference_relation(exponents) is None), exponents
        if got is not None:
            found += 1
            assert max(abs(c) for c in got) <= RELATION_MAX_COEFF
            assert next(c for c in got if c) > 0
            scale = max(abs(as_mpf(x)) for x in exponents)
            combo = mpf(0)
            for c, lam in zip(got, exponents):
                combo += c * as_mpf(lam)
            assert abs(combo) < mpf(RELATION_REL_TOL) * scale
    assert 0 < found < len(cases)


def test_relation_of_zero_and_doubled_exponents():
    assert suspected_rational_relation([0, 0]) is None
    assert suspected_rational_relation([2 * mp.pi, mp.pi]) == (1, -2)


def test_evaluate_array_matches_scalar(golden):
    t = np.linspace(-3, 3, 50)
    vec = evaluate(golden, t)
    assert vec.shape == t.shape
    for ti, vi in zip(t, vec):
        assert vi == pytest.approx(evaluate(golden, float(ti)), abs=1e-12)

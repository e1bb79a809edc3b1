import math
import random
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from qplab.diophantine import (
    BadnessReport,
    ContinuedFraction,
    badness_score,
    best_simultaneous_denominator,
    cf_expand,
    kronecker_residuals,
    kronecker_solve,
)
from qplab.errors import BudgetExceeded, PrecisionExhausted
from qplab.precision import (
    as_mpf,
    golden_ratio,
    mpf_to_fraction,
    sqrt2,
    sqrt3,
    to_fixed_point,
    two_pi,
)

BADNESS_PHI = 0.38196601125010515  # 2 - phi
BADNESS_SQRT2 = 0.3431457505076198  # 6 - 4*sqrt(2)
KRONECKER_RES_17 = 0.04132959128020562  # |2*pi*phi*17 - pi| folded


def test_cf_phi_all_ones():
    cf = cf_expand(golden_ratio(), 30)
    assert cf.a0 == 1
    assert cf.quotients == (1,) * 30
    assert not cf.exact


def test_cf_sqrt2_all_twos():
    cf = cf_expand(sqrt2(), 30)
    assert cf.a0 == 1
    assert cf.quotients == (2,) * 30


def test_cf_rational_terminates():
    cf = cf_expand(Fraction(649, 200), 10)
    assert cf.a0 == 3
    assert cf.quotients == (4, 12, 4)
    assert cf.exact
    assert cf.convergents[-1] == (649, 200)
    assert Fraction(*cf.convergents[-1]) == Fraction(649, 200)


def test_cf_float_is_exact_dyadic():
    cf = cf_expand(0.5, 10)
    assert (cf.a0, cf.quotients, cf.exact) == (0, (2,), True)


def test_cf_negative_rational_reconstructs():
    cf = cf_expand(Fraction(-7, 3), 10)
    assert cf.exact
    assert Fraction(*cf.convergents[-1]) == Fraction(-7, 3)
    assert all(a >= 1 for a in cf.quotients)


def test_cf_rational_cut_off_at_depth():
    # cut off at depth, an exact input keeps the bound 1/q_k**2 of its last convergent
    cf = cf_expand(Fraction(355, 113), 1)
    assert (cf.quotients, cf.exact, cf.error_bound) == ((7,), False, Fraction(1, 49))
    # 355/113 = [3; 7, 16] ends exactly at depth 2
    cf = cf_expand(Fraction(355, 113), 2)
    assert (cf.quotients, cf.exact, cf.error_bound) == ((7, 16), True, 0)


@pytest.mark.parametrize("seed", range(20))
def test_cf_rational_cut_off_error_bound_holds(seed):
    rng = random.Random(seed)
    x = Fraction(rng.randrange(-10**30, 10**30), rng.randrange(1, 10**25))
    full = cf_expand(x, 10**4)
    assert full.exact
    for depth in range(1, len(full.quotients)):
        cf = cf_expand(x, depth)
        p, q = cf.convergents[-1]
        assert not cf.exact and cf.quotients == full.quotients[:depth]
        assert cf.error_bound == Fraction(1, q * q)
        assert abs(x - Fraction(p, q)) <= cf.error_bound


def test_cf_integer():
    cf = cf_expand(7, 5)
    assert (cf.a0, cf.quotients, cf.exact) == (7, (), True)


def test_cf_depth_validation():
    with pytest.raises(ValueError):
        cf_expand(golden_ratio(), 0)


def test_cf_precision_exhausted():
    with mp.workprec(40):
        x = (1 + mp.sqrt(5)) / 2
        with pytest.raises(PrecisionExhausted) as err:
            cf_expand(x, 60)
    assert 0 < err.value.certified_quotients < 60


def test_cf_reconstruction_error_bound():
    x = sqrt2()
    cf = cf_expand(x, 25)
    approx = Fraction(*cf.convergents[-1])
    assert abs(mpf_to_fraction(x) - approx) <= cf.error_bound


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_non_finite_constants_are_rejected(token):
    x = mp.mpf(token)
    with pytest.raises(ValueError, match="non-finite"):
        mpf_to_fraction(x)
    with pytest.raises(ValueError, match="non-finite"):
        cf_expand(x, 5)
    with pytest.raises(ValueError, match="non-finite"):
        badness_score([x], 100)
    with pytest.raises(ValueError, match="non-finite"):
        badness_score([golden_ratio(), x], 100)
    with pytest.raises(ValueError, match="non-finite"):
        best_simultaneous_denominator([x], 0.1, 100)


def test_convergents_phi_fibonacci():
    cf = cf_expand(golden_ratio(), 10)
    assert cf.convergents[:5] == ((1, 1), (2, 1), (3, 2), (5, 3), (8, 5))
    assert cf.convergents[:1] == ((1, 1),)


def test_convergents_recurrence_and_coprime():
    cf = cf_expand(sqrt2(), 20)
    pairs = cf.convergents
    for k in range(2, len(pairs)):
        a = cf.quotients[k - 1]
        assert pairs[k][0] == a * pairs[k - 1][0] + pairs[k - 2][0]
        assert pairs[k][1] == a * pairs[k - 1][1] + pairs[k - 2][1]
    for p, q in pairs:
        assert math.gcd(p, q) == 1
    qs = [q for _, q in pairs[1:]]
    assert qs == sorted(qs) and len(set(qs)) == len(qs)


def test_convergents_alternate_and_tighten():
    x = mpf_to_fraction(sqrt2())
    cf = cf_expand(sqrt2(), 15)
    errs = [Fraction(p, q) - x for p, q in cf.convergents]
    for a, b in zip(errs, errs[1:]):
        assert (a < 0) != (b < 0)
        assert abs(b) < abs(a)
    for k in range(len(cf.quotients)):
        p, q = cf.convergents[k]
        q_next = cf.convergents[k + 1][1]
        assert abs(x - Fraction(p, q)) < Fraction(1, q * q_next)


def test_badness_phi():
    rep = badness_score([golden_ratio()], 10**5)
    assert rep.score == pytest.approx(BADNESS_PHI, abs=1e-4)
    assert rep.argmin_q == 1
    assert rep.n == 1


def test_badness_sqrt2():
    rep = badness_score([sqrt2()], 10**5)
    assert rep.score == pytest.approx(BADNESS_SQRT2, abs=1e-3)
    assert rep.argmin_q == 2


def test_badness_rational_collapses():
    rep = badness_score([Fraction(1, 2)], 2)
    assert rep.score == 0.0
    assert rep.argmin_q == 2
    truncated_pi = badness_score([Fraction(355, 113)], 1000)
    assert truncated_pi.score == 0.0
    assert truncated_pi.argmin_q == 113


def test_badness_monotone_in_Q():
    phi = golden_ratio()
    scores = [badness_score([phi], Q).score for Q in (10, 100, 10**4)]
    assert scores[0] >= scores[1] >= scores[2]
    assert all(s >= 0.38 for s in scores)


def test_badness_pair():
    rep = badness_score([golden_ratio(), sqrt2()], 1000)
    assert rep.n == 2
    assert rep.score > 0


def test_badness_validation():
    with pytest.raises(ValueError):
        badness_score([], 10)
    with pytest.raises(ValueError):
        badness_score([golden_ratio()], 0)
    with pytest.raises(BudgetExceeded):
        badness_score([golden_ratio()], 10**8)


def test_simdenom_phi():
    assert best_simultaneous_denominator([golden_ratio()], 0.01, 1000) == 55


def test_simdenom_rational():
    assert best_simultaneous_denominator([Fraction(1, 3)], 0.001, 100) == 3


def test_simdenom_pair():
    # brute-force verified: q = 157 is the first with both distances <= 0.05
    assert best_simultaneous_denominator([golden_ratio(), sqrt2()], 0.05, 1000) == 157


def test_simdenom_is_smallest():
    phi = golden_ratio()
    q = best_simultaneous_denominator([phi], 0.01, 1000)
    for smaller in range(1, q):
        d = abs(smaller * phi - mp.nint(smaller * phi))
        assert d > 0.01


def test_simdenom_not_found():
    assert best_simultaneous_denominator([golden_ratio()], 1e-9, 100) is None


def test_simdenom_validation():
    with pytest.raises(ValueError):
        best_simultaneous_denominator([golden_ratio()], 0.7, 100)
    with pytest.raises(BudgetExceeded):
        best_simultaneous_denominator([golden_ratio()], 0.01, 10**8)


def test_kronecker_zero_targets():
    assert kronecker_solve([1.0, 2.0], [0.0, 0.0], 0.1, 10.0) == 0.0


def test_kronecker_single_equation():
    t = kronecker_solve([1.0], [math.pi], 0.1, 10.0)
    assert t is not None
    assert abs(t - math.pi) < 0.2
    assert kronecker_residuals([1.0], [math.pi], t)[0] < 0.1


def test_kronecker_golden_case():
    tp = float(two_pi())
    lams = [tp, tp * float(golden_ratio())]
    kaps = [0.0, math.pi]
    t = kronecker_solve(lams, kaps, 0.3, 50.0)
    assert t is not None
    assert max(kronecker_residuals(lams, kaps, t)) < 0.3
    res17 = kronecker_residuals(lams, kaps, 17.0)
    assert res17[0] < 1e-9
    assert res17[1] == pytest.approx(KRONECKER_RES_17, abs=1e-4)
    assert max(res17) < 0.3  # t = 17 is admissible


def test_kronecker_returned_solution_rechecks():
    rng = np.random.default_rng(23)
    tp = float(two_pi())
    lams = [tp, tp * float(golden_ratio())]
    for _ in range(5):
        kaps = list(rng.uniform(0, 2 * math.pi, 2))
        t = kronecker_solve(lams, kaps, 0.5, 200.0)
        assert t is not None
        assert max(kronecker_residuals(lams, kaps, t)) < 0.5


def test_kronecker_not_found_small_horizon():
    tp = float(two_pi())
    lams = [tp, tp * float(golden_ratio())]
    assert kronecker_solve(lams, [0.0, math.pi], 0.3, 2.0) is None


def test_kronecker_validation():
    with pytest.raises(ValueError):
        kronecker_solve([1.0], [0.0, 1.0], 0.1, 10.0)
    with pytest.raises(ValueError):
        kronecker_solve([1.0], [0.0], -0.1, 10.0)
    with pytest.raises(BudgetExceeded):
        kronecker_solve([1.0], [0.0], 1e-9, 1e6)


def test_fixed_point_exactness():
    # round(phi * 2^80) must be exact: compare against Fraction arithmetic
    phi_frac = mpf_to_fraction(golden_ratio())
    expected = (phi_frac * (1 << 80)).__round__()
    assert to_fixed_point(phi_frac, 80) == expected
    assert to_fixed_point(Fraction(1, 3), 10) == round(1024 / 3)
    assert to_fixed_point(Fraction(1, 2), 4) == 8
    assert to_fixed_point(Fraction(3), 4) == 48
    assert to_fixed_point(Fraction(-1, 3), 10) == -341  # -341.33 rounds to -341
    # an exact half unit rounds up, toward +inf, on both signs
    assert to_fixed_point(Fraction(3, 2**5), 4) == 2  # 1.5 units
    assert to_fixed_point(Fraction(-3, 2**5), 4) == -1  # -1.5 units


def test_continued_fraction_validation():
    with pytest.raises(ValueError):
        ContinuedFraction(a0=1, quotients=(0,), convergents=((1, 1), (1, 1)), exact=True, error_bound=Fraction(0))
    with pytest.raises(ValueError):
        BadnessReport(n=1, Q=10, score=-1.0, argmin_q=1)


def test_badness_stays_bounded_to_one_million():
    # bounded partial quotients keep the score bounded away from zero
    assert badness_score([golden_ratio()], 10**6).score >= 0.3
    assert badness_score([sqrt2()], 10**6).score >= 0.3


# Lagrange: a best approximation of the second kind is a convergent denominator
# (Khinchin, Continued Fractions, section 6). The first argmin of q*dist(q*alpha, Z)
# is one, since rounding is monotone; so is the smallest q with dist <= delta.


def _convergent_denominators(x):
    """Every convergent denominator of the exact rational stored in x (q_0 = 1 included)."""
    cf = cf_expand(mpf_to_fraction(as_mpf(x)), 10**4)
    return {q for _, q in cf.convergents}


def _oracle_inputs():
    rng = random.Random(11)
    seeded = [mp.mpf(rng.randrange(1, 10**40)) / rng.randrange(2, 10**8) for _ in range(10)]
    return [golden_ratio(), 1 / golden_ratio(), sqrt2(), sqrt3()] + seeded


@pytest.mark.parametrize("Q", [10, 1000, 10**5])
def test_badness_argmin_is_a_convergent_denominator(Q):
    for x in _oracle_inputs():
        assert badness_score([x], Q).argmin_q in _convergent_denominators(x), x


@pytest.mark.parametrize("delta", [0.3, 0.05, 1e-3, 1e-5])
def test_simdenom_is_a_convergent_denominator(delta):
    for x in _oracle_inputs():
        q = best_simultaneous_denominator([x], delta, 10**5)
        # Dirichlet: some q <= 1/delta has dist(q*x, Z) < delta
        assert q is not None
        assert q in _convergent_denominators(x), x

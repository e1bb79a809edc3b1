"""Differential gate for the Diophantine scans of qplab.diophantine.

badness_score and best_simultaneous_denominator filter each chunk of q by a
certified uint64 fixed-point bound and recheck only the survivors exactly.
Both must give exactly the results of the per-q loops they replaced, kept here
as references: the same (score, argmin_q), ties and exact zeros included, and
the same smallest q. kronecker_solve evaluates its grid in blocks of _BLOCK
points; it must return exactly the first hit, or None, of the loop over blocks
of 2**20 points kept here.
"""
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from qplab import diophantine
from qplab.diophantine import (
    _exact_residue_increments,
    badness_score,
    best_simultaneous_denominator,
    kronecker_solve,
)
from qplab.precision import golden_ratio, sqrt2, sqrt3
from qplab.signal import preset

CHUNK = diophantine._Q_CHUNK
PRESETS = {
    "phi": golden_ratio,
    "1/phi": lambda: 1 / golden_ratio(),
    "sqrt2": sqrt2,
    "sqrt3": sqrt3,
}
# the Q a scan can end on: the smallest, and either side of a chunk boundary
EDGE_QS = (1, 2, 3, 1000, CHUNK - 1, CHUNK, CHUNK + 1)


# ---------------------------------------------------------------------------
# reference: the per-q loops


def _reference_badness_prefix(alpha, Q):
    """(q, score, argmin_q) of the badness scan after each q = 1..Q."""
    n = len(alpha)
    coords = _exact_residue_increments(alpha)
    power = 1.0 / n
    residues = [0] * n
    best_score = math.inf
    best_q = 0
    for q in range(1, Q + 1):
        worst = 0.0
        for j, (inc, den) in enumerate(coords):
            r = residues[j] + inc
            if r >= den:
                r -= den
            residues[j] = r
            d = min(r, den - r) / den
            if d > worst:
                worst = d
        score = (q**power) * worst
        if score < best_score:
            best_score = score
            best_q = q
        yield q, best_score, best_q


def reference_badness(alpha, Qs):
    """{Q: (score, argmin_q)} for every Q in Qs, from one scan."""
    wanted = set(Qs)
    return {
        q: (score, best_q)
        for q, score, best_q in _reference_badness_prefix(alpha, max(wanted))
        if q in wanted
    }


def reference_simdenom(alpha, delta, qmax):
    coords = _exact_residue_increments(alpha)
    delta_frac = Fraction(delta)
    thresholds = [(delta_frac.numerator * den, delta_frac.denominator) for _, den in coords]
    residues = [0] * len(coords)
    for q in range(1, qmax + 1):
        ok = True
        for j, (inc, den) in enumerate(coords):
            r = residues[j] + inc
            if r >= den:
                r -= den
            residues[j] = r
            if ok:
                num_bound, dden = thresholds[j]
                if min(r, den - r) * dden > num_bound:
                    ok = False
        if ok:
            return q
    return None


def _assert_badness_matches(alpha, Qs):
    for Q, expected in reference_badness(alpha, Qs).items():
        rep = badness_score(alpha, Q)
        assert (rep.score, rep.argmin_q) == expected, (alpha, Q)


def _assert_simdenom_matches(alpha, delta, qmaxes):
    # the reference's answer at the largest qmax decides every smaller one
    first = reference_simdenom(alpha, delta, max(qmaxes))
    for qmax in qmaxes:
        expected = first if first is not None and first <= qmax else None
        assert best_simultaneous_denominator(alpha, delta, qmax) == expected, (alpha, delta, qmax)


# ---------------------------------------------------------------------------
# inputs


def sqrt_decimal(k, digits=60):
    """sqrt(k) truncated to ``digits`` decimals, the benchmark's string inputs."""
    whole, frac = divmod(math.isqrt(k * 10 ** (2 * digits)), 10**digits)
    return f"{whole}.{frac:0{digits}d}"


def _random_coordinate(rng):
    kind = rng.choice(("mpf", "fraction", "float", "int"))
    sign = rng.choice((1, -1))
    if kind == "mpf":
        return sign * mp.mpf(rng.randrange(1, 10**30)) / rng.randrange(1, 10**6)
    if kind == "fraction":
        return Fraction(sign * rng.randrange(0, 10**4), rng.randrange(1, 500))
    if kind == "float":
        return sign * rng.uniform(0.0, 20.0)
    return sign * rng.randrange(0, 50)


def _random_tuples(seed, count):
    rng = random.Random(seed)
    return [
        [_random_coordinate(rng) for _ in range(rng.randint(1, 4))]
        for _ in range(count)
    ]


# a coordinate whose fixed-point value is a rounding tie, so the fixed-point
# distance is off by exactly q/2 units, the most the bound allows
HALF_UNIT = Fraction(2**41 + 1, 2**65)


# ---------------------------------------------------------------------------
# badness


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_badness_presets(name):
    _assert_badness_matches([PRESETS[name]()], EDGE_QS)


@pytest.mark.parametrize("k", [2, 7, 13, 61, 94])
def test_badness_sqrt_decimal(k):
    _assert_badness_matches([mp.mpf(sqrt_decimal(k))], (1000, CHUNK + 1))


@pytest.mark.parametrize("pair", [(13, 29), (5, 71)])
def test_badness_sqrt_decimal_pair(pair):
    _assert_badness_matches([mp.mpf(sqrt_decimal(k)) for k in pair], (1000, CHUNK + 1))


def test_badness_preset_triple():
    _assert_badness_matches([sqrt2(), sqrt3(), golden_ratio()], (1, 2, 5000))


@pytest.mark.parametrize("seed", range(4))
def test_badness_random_tuples(seed):
    for alpha in _random_tuples(seed, 10):
        _assert_badness_matches(alpha, (1, 2, 50, 2000))


@pytest.mark.parametrize(
    "alpha",
    [
        [Fraction(1, 2)],
        [Fraction(1, 3)],
        [Fraction(355, 113)],
        [0.1],
        [Fraction(2, 5)],  # scores tie exactly at q = 1 and 2
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(-7, 4), 0.1, 3],
        [HALF_UNIT],
    ],
    ids=str,
)
def test_badness_exact_zeros_and_ties(alpha):
    # a zero score is reached at many q; the first must win
    _assert_badness_matches(alpha, (1, 2, 3, 4, 200, 1000))


def _from_quotients(quotients):
    """[0; a_1, ..., a_m] as an exact Fraction."""
    x = Fraction(0)
    for a in reversed(quotients):
        x = 1 / (a + x)
    return x


@pytest.mark.parametrize(
    "quotients",
    [
        [1] * 9 + [3, 3] + [1] * 9,
        [1] * 9 + [9, 9] + [1] * 9,
        [2] + [1] * 15 + [11, 11] + [1] * 15 + [2],
    ],
    ids=("3", "9", "11"),
)
def test_badness_palindrome_near_tie(quotients):
    # A palindromic expansion gives q*dist(q*alpha, Z) exactly equal values at
    # the convergents either side of the middle pair; after rounding, the
    # later one is the strictly smaller score, by one ulp.
    half = len(quotients) // 2
    _, q_low = diophantine._convergents_from(0, quotients[: half - 1])[-1]
    _, q_high = diophantine._convergents_from(0, quotients[:half])[-1]
    alpha = [_from_quotients(quotients)]
    assert badness_score(alpha, q_high).argmin_q == q_high
    _assert_badness_matches(alpha, (q_low, q_high, q_high + 1))


def test_badness_zero_in_second_chunk():
    _assert_badness_matches([Fraction(1, CHUNK + 1)], (CHUNK, CHUNK + 1, CHUNK + 2))


# ---------------------------------------------------------------------------
# simdenom


@pytest.mark.parametrize("name", sorted(PRESETS))
@pytest.mark.parametrize("delta", [0.3, 0.01, 1e-4])
def test_simdenom_presets(name, delta):
    _assert_simdenom_matches([PRESETS[name]()], delta, (1, 2, CHUNK - 1, CHUNK, CHUNK + 1))


def test_simdenom_sqrt_decimal_pair():
    alpha = [mp.mpf(sqrt_decimal(k)) for k in (13, 29)]
    _assert_simdenom_matches(alpha, 0.02, (1000, CHUNK + 1))


@pytest.mark.parametrize("seed", range(4))
def test_simdenom_random_tuples(seed):
    rng = random.Random(100 + seed)
    for alpha in _random_tuples(seed, 10):
        _assert_simdenom_matches(alpha, rng.uniform(0.01, 0.3), (1, 2, 3000))


def _attained_dyadic_distances(alpha, qmax):
    """(q, d): max_j dist(q*alpha_j, Z) at q, where d is exactly a float in (0, 1/2)."""
    coords = _exact_residue_increments(alpha)
    out = []
    for q in range(1, qmax + 1):
        d = max(min(q * inc % den, den - q * inc % den) * Fraction(1, den) for inc, den in coords)
        if 0 < d < Fraction(1, 2) and Fraction(float(d)) == d:
            out.append((q, float(d)))
    return out


@pytest.mark.parametrize(
    "alpha",
    [[0.3], [0.7, 0.45], [HALF_UNIT], [HALF_UNIT, 0.25], [Fraction(3, 8)]],
    ids=str,
)
def test_simdenom_delta_equal_to_attained_distance(alpha):
    pairs = _attained_dyadic_distances(alpha, 40)
    assert pairs
    for q, delta in pairs:
        assert reference_simdenom(alpha, delta, q) is not None
        _assert_simdenom_matches(alpha, delta, (1, q, 40))


@pytest.mark.parametrize(
    "alpha",
    [[Fraction(1, 3)], [Fraction(355, 113)], [0.1], [Fraction(1, 2), Fraction(1, 3)]],
    ids=str,
)
def test_simdenom_exact_zeros(alpha):
    _assert_simdenom_matches(alpha, 1e-6, (1, 2, 5, 200, 1000))


# ---------------------------------------------------------------------------
# the filter must leave few q to recheck: against the running best alone, with
# no prefix minimum of the upper bounds, every q of the first chunk would pass


@pytest.mark.parametrize(
    "alpha",
    [[golden_ratio()], [sqrt2()], [golden_ratio(), sqrt2()]],
    ids=("phi", "sqrt2", "pair"),
)
def test_badness_rechecks_few_q(alpha, monkeypatch):
    rechecked = []
    exact_score = diophantine._exact_score

    def counting(coords, power, q):
        rechecked.append(q)
        return exact_score(coords, power, q)

    monkeypatch.setattr(diophantine, "_exact_score", counting)
    badness_score(alpha, 2 * CHUNK)
    assert rechecked == sorted(rechecked)
    assert len(rechecked) <= 64


# ---------------------------------------------------------------------------
# kronecker_solve against fixed blocks


def reference_kronecker(lambdas, kappas, eps, tmax):
    """The first grid point with every folded residual below eps, over blocks of 2**20 points."""
    lams = np.array([float(l) for l in lambdas], dtype=np.float64)
    kaps = np.array([float(k) for k in kappas], dtype=np.float64)
    step = eps / (2.0 * float(np.max(np.abs(lams))))
    npts = int(math.floor(tmax / step)) + 1
    two_pi = 2.0 * math.pi
    for start in range(0, npts, 2**20):
        t = np.arange(start, min(start + 2**20, npts), dtype=np.float64) * step
        worst = np.zeros(t.shape, dtype=np.float64)
        for lam, kap in zip(lams, kaps):
            r = np.mod(lam * t - kap, two_pi)
            np.maximum(worst, np.minimum(r, two_pi - r), out=worst)
        hits = np.flatnonzero(worst < eps)
        if hits.size:
            return float(t[hits[0]])
    return None


KRONECKER_EPS = 1e-6
BLOCK = diophantine._BLOCK
# first-hit indices: the first point, either side of the middle and of the end
# of the first block, before the middle of the second, the last of the third,
# either side of the reference's 2**20-point block end, and inside a block past it
KRONECKER_HITS = (
    0, BLOCK // 2 - 1, BLOCK // 2, BLOCK - 1, BLOCK, 3 * BLOCK // 2 - 1, 3 * BLOCK - 1,
    2**20 - 1, 2**20 + 5, 127 * BLOCK // 2 + 2**20 + 7,
)


def _planted_kappas(lams, index):
    """Phases whose residuals at grid index k are (k - index - 1.5) * step * lambda_j:
    below eps from `index` on, at least 1.25 eps before it, for the largest |lambda_j|."""
    step = KRONECKER_EPS / (2.0 * max(abs(l) for l in lams))
    return [math.fmod(l * (index + 1.5) * step, 2.0 * math.pi) for l in lams], step


@pytest.mark.parametrize("index", KRONECKER_HITS)
def test_kronecker_first_hit_matches_fixed_blocks(index):
    lams = [float(l) for l in preset("sqrt23").exponents_float]
    kaps, step = _planted_kappas(lams, index)
    tmax = (index + 1000) * step
    t = kronecker_solve(lams, kaps, KRONECKER_EPS, tmax)
    assert t == reference_kronecker(lams, kaps, KRONECKER_EPS, tmax)
    assert round(t / step) == index


@pytest.mark.parametrize("npts", [3 * BLOCK // 2 + 123, 3 * BLOCK + 123, 2**20 + 77])
def test_kronecker_last_point_and_none_match_fixed_blocks(npts):
    # grids that end inside a block: a hit on the last point, then one point short of it
    lams = [float(l) for l in preset("sqrt23").exponents_float]
    kaps, step = _planted_kappas(lams, npts - 1)
    tmax = (npts - 0.5) * step
    t = kronecker_solve(lams, kaps, KRONECKER_EPS, tmax)
    assert t == reference_kronecker(lams, kaps, KRONECKER_EPS, tmax)
    assert round(t / step) == npts - 1
    short = (npts - 1.5) * step
    assert kronecker_solve(lams, kaps, KRONECKER_EPS, short) is None
    assert reference_kronecker(lams, kaps, KRONECKER_EPS, short) is None

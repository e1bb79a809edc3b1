"""Differential gate: each single implementation against the scalar loop it replaced.

D, the signal value, the chord and sup metrics and the log-log slope each
have one implementation in qplab. The loops below are the implementations
they replaced, kept as references. Where the arithmetic is the same, results
must be equal bit for bit. The sampled equivalence constants, replaced by
closed forms, are kept the same way: every ratio they draw must lie between
the closed forms.
"""
import math

import numpy as np
import pytest

from qplab.almost_periods import loglog_fit
from qplab.dimension import equivalence_constants, torus_distance
from qplab.signal import (
    QuasiperiodicSignal,
    evaluate,
    preset,
    translation_distance,
    translation_distance_many,
)

TWO_PI = 2.0 * math.pi


def ref_translation_distance(f, tau):
    acc = 0.0
    for amp, lam in zip(f._amps, f._lams):
        acc += 2.0 * abs(amp) * abs(math.sin(lam * tau * 0.5))
    return acc


def ref_evaluate(f, t):
    acc = 0j
    for amp, lam in zip(f._amps, f._lams):
        acc += amp * complex(math.cos(lam * t), math.sin(lam * t))
    return acc


def ref_hull_metric(f, x, y):
    acc = 0.0
    for w, a, b in zip(f.amplitude_moduli, x, y):
        acc += 2.0 * w * abs(math.sin(0.5 * (a - b)))
    return acc


def ref_torus_metric(x, y):
    best = 0.0
    for a, b in zip(x, y):
        d = abs(a - b) % TWO_PI
        best = max(best, min(d, TWO_PI - d))
    return best


def ref_equivalence_constants(f, sample_count, seed, near_diagonal_scales, include_uniform):
    """The per-group loop: each draw's ratios folded into a running min and max."""
    rng = np.random.default_rng(seed)
    n = f.n
    ratios_min = math.inf
    ratios_max = 0.0

    def absorb(x, y):
        nonlocal ratios_min, ratios_max
        torus = torus_distance(x, y)
        keep = torus > 1e-12
        if not np.any(keep):
            return
        hull = torus_distance(x, y, f.amplitude_moduli)
        ratio = hull[keep] / torus[keep]
        ratios_min = min(ratios_min, float(ratio.min()))
        ratios_max = max(ratios_max, float(ratio.max()))

    if include_uniform:
        absorb(
            rng.uniform(0.0, TWO_PI, (sample_count, n)),
            rng.uniform(0.0, TWO_PI, (sample_count, n)),
        )
    per_scale = max(100, sample_count // max(1, len(near_diagonal_scales)))
    for k in near_diagonal_scales:
        x = rng.uniform(0.0, TWO_PI, (per_scale, n))
        u = rng.uniform(-1.0, 1.0, (per_scale, n))
        norms = np.abs(u).max(axis=1)
        norms[norms == 0] = 1.0
        u /= norms[:, None]
        absorb(x, x + u * 2.0**-k)
    if not math.isfinite(ratios_min):
        raise ValueError("no usable pair sampled")
    return ratios_min, ratios_max


def ref_loglog_slope(eps, counts):
    x = np.log(1.0 / np.asarray(eps, dtype=np.float64))
    y = np.log(np.asarray(counts, dtype=np.float64))
    xm = x.mean()
    return float(((x - xm) * (y - y.mean())).sum() / ((x - xm) ** 2).sum())


def seeded_signal(seed, n):
    """n terms, unequal amplitude moduli, exponents of both signs."""
    rng = np.random.default_rng(seed)
    moduli = rng.uniform(0.2, 1.5, n)
    phases = rng.uniform(0.0, TWO_PI, n)
    lams = rng.choice([-1.0, 1.0], n) * rng.uniform(0.3, 8.0, n)
    terms = [(complex(r * math.cos(p), r * math.sin(p)), float(l)) for r, p, l in zip(moduli, phases, lams)]
    return QuasiperiodicSignal(terms), rng


CASES = [(seed, n) for n in (1, 2, 3, 4) for seed in range(3)]


@pytest.mark.parametrize("seed,n", CASES)
def test_translation_distance_matches_scalar_loop(seed, n):
    f, rng = seeded_signal(seed, n)
    taus = np.concatenate([rng.uniform(-1e4, 1e4, 500), rng.uniform(-3.0, 3.0, 500)])
    ref = [ref_translation_distance(f, float(tau)) for tau in taus]
    assert [translation_distance(f, float(tau)) for tau in taus] == ref
    assert translation_distance_many(f, taus).tolist() == ref


@pytest.mark.parametrize("seed,n", CASES)
def test_evaluate_matches_scalar_loop(seed, n):
    f, rng = seeded_signal(seed, n)
    ts = np.concatenate([rng.uniform(-1e4, 1e4, 500), rng.uniform(-3.0, 3.0, 500)])
    ref = [ref_evaluate(f, float(t)) for t in ts]
    scalar = [evaluate(f, float(t)) for t in ts]
    assert all(type(v) is complex for v in scalar)
    assert scalar == ref
    # on arrays numpy's SIMD complex multiply rounds differently from the
    # scalar multiply in the last bits, so only the scalar path is exact
    assert evaluate(f, ts) == pytest.approx(np.array(ref), abs=1e-12)


@pytest.mark.parametrize("seed,n", CASES)
def test_row_distances_match_scalar_loops(seed, n):
    f, rng = seeded_signal(seed, n)
    # uniform angle rows, and orbit rows as the segment covers see them
    orbit = np.mod(np.outer(rng.uniform(-1e4, 1e4, 200), f.exponents_float), TWO_PI)
    points = np.concatenate([rng.uniform(0.0, TWO_PI, (200, n)), orbit])
    for center in (rng.uniform(0.0, TWO_PI, n), orbit[0]):
        chord = torus_distance(points, center, f.amplitude_moduli)
        assert chord.tolist() == [ref_hull_metric(f, row, center) for row in points]
        sup = torus_distance(points, center)
        assert sup.tolist() == [ref_torus_metric(row, center) for row in points]
    # a center per row, as equivalence_constants pairs them
    centers = rng.uniform(0.0, TWO_PI, (400, n))
    pairs = torus_distance(points, centers, f.amplitude_moduli)
    assert pairs.tolist() == [ref_hull_metric(f, x, y) for x, y in zip(points, centers)]
    pairs = torus_distance(points, centers)
    assert pairs.tolist() == [ref_torus_metric(x, y) for x, y in zip(points, centers)]


# cover and packing counts of `qplab dimension --signal golden --eps 0.25:6:2`
GOLDEN_EPS = tuple(0.25 * 2.0**-k for k in range(6))
GOLDEN_COVERS = (509, 1981, 8020, 31863, 127842, 511225)
GOLDEN_PACKINGS = (252, 1056, 4183, 16882, 67473, 270269)


@pytest.mark.parametrize("counts", [GOLDEN_COVERS, GOLDEN_PACKINGS])
def test_loglog_fit_matches_old_slope(counts):
    slope, _, _ = loglog_fit(GOLDEN_EPS, counts)
    assert slope == ref_loglog_slope(GOLDEN_EPS, counts)


EQUIVALENCE_SIGNALS = ["golden", "sqrt23", *[(seed, n) for seed in (5, 6) for n in (1, 2, 3)]]


def equivalence_signal(which):
    return preset(which) if isinstance(which, str) else seeded_signal(*which)[0]


@pytest.mark.parametrize("which", EQUIVALENCE_SIGNALS)
@pytest.mark.parametrize("include_uniform", [True, False])
def test_equivalence_constants_match_per_group_loop(which, include_uniform):
    """The closed forms bound every ratio the per-group sampling loop draws."""
    f = equivalence_signal(which)
    c1, c2 = equivalence_constants(f)
    for seed in (7, 11, 1234):
        for scales in (tuple(range(3, 31)), (5, 10, 15, 20), (12,), (3, 30)):
            lo, hi = ref_equivalence_constants(f, 4000, seed, scales, include_uniform)
            assert c1 <= lo and hi <= c2


@pytest.mark.parametrize("which", EQUIVALENCE_SIGNALS)
def test_equivalence_constants_are_sharp(which):
    f = equivalence_signal(which)
    c1, c2 = equivalence_constants(f)
    w = f.amplitude_moduli
    zero = np.zeros(f.n)
    # C1 is attained at pi on an axis of least modulus, 0 on the others
    point = np.where(np.arange(f.n) == int(np.argmin(w)), math.pi, 0.0)
    assert torus_distance(point, zero, w) / torus_distance(point, zero) == c1
    # C2 is approached on the diagonal near 0
    point = np.full(f.n, 2.0**-20)
    assert 0.0 < c2 - torus_distance(point, zero, w) / torus_distance(point, zero) < 1e-6

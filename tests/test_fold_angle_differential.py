"""Differential gate: fold_angle's libmp calls against the mpf expression they replaced.

fold_angle makes the libmp calls of x - tp*floor(x/tp) at 64 extra bits and of
the two corrections at working precision, and wraps the result without
rounding it. The reference below is that expression, written with mpf
operators; both must return the same _mpf_ tuple, bit for bit.
"""
import math

import numpy as np
import pytest
from mpmath import mp, mpf

from qplab.dimension import orbit_angles
from qplab.precision import fold_angle, two_pi
from qplab.signal import QuasiperiodicSignal, preset


def fold_angle_reference(x):
    tp = two_pi()
    with mp.extraprec(64):
        folded = x - tp * mp.floor(x / tp)
    if folded < 0:
        folded += tp
    if folded >= tp:
        folded -= tp
    return folded


def angles(bits, seed):
    """Seeded angles at this precision: near 0, negative, multiples of 2*pi, large, and
    angles whose fold is negative or at 2*pi before the corrections, or carries more
    bits than the working precision."""
    rng = np.random.default_rng(seed)
    tp = two_pi()
    xs = [mpf(0), tp, -tp, tp * 2**40, -(tp * 3), tp * 7 - mpf(2) ** -bits, mpf(10) ** 30, -(mpf(2) ** 90)]
    with mp.workprec(bits + 200):
        # x/tp rounds to k at 64 extra bits, so x - tp*k is a sliver below or above 0
        xs += [tp * k * (1 + sign * mpf(2) ** -(bits + 66)) for k in (1, 3, 2**20) for sign in (1, -1)]
        xs += [-(tp * 2**20) * (1 - mpf(2) ** -(bits + 66)), -(mpf(2) ** -(bits + 20)), mpf(2) ** -(bits + 20)]
    xs += [tp * int(k) for k in rng.integers(-10**9, 10**9, 20)]
    xs += [mpf(float(v)) * mpf(float(w)) for v, w in rng.uniform(-1.0, 1.0, (200, 2)) * [1e9, 8.0]]
    xs += [mpf(float(v)) for v in rng.uniform(-1e-3, 1e-3, 20)]
    return xs


@pytest.mark.parametrize("bits", [80, 256])
@pytest.mark.parametrize("seed", range(3))
def test_fold_angle_matches_mpf_expression(bits, seed):
    with mp.workprec(bits):
        for x in angles(bits, seed):
            folded = fold_angle(x)
            assert folded._mpf_ == fold_angle_reference(x)._mpf_, x
            assert 0 <= folded < two_pi()


@pytest.mark.parametrize("bits", [80, 256])
def test_orbit_angles_of_seeded_translates_match_mpf_expression(bits):
    # the products orbit_angles folds: golden, sqrt23 and a negative exponent
    rng = np.random.default_rng(bits)
    signals = [preset("golden"), preset("sqrt23"), QuasiperiodicSignal([(1.0, -0.037), (0.5j, math.pi)])]
    with mp.workprec(bits):
        for f in signals:
            for s in rng.uniform(-1e9, 1e9, 300):
                for lam in f.exponents:
                    x = lam * mpf(float(s))
                    assert fold_angle(x)._mpf_ == fold_angle_reference(x)._mpf_
            assert orbit_angles(f, float(s)).tolist() == [
                float(fold_angle_reference(lam * mpf(float(s)))) % (2.0 * math.pi) for lam in f.exponents
            ]

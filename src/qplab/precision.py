"""Working precision control and high-precision constants.

Exponent arithmetic (distance-to-nearest-integer of q*alpha for q up to ~1e6)
amplifies representation error, so irrational constants are produced by mpmath
at the configured working precision instead of being parsed from decimals.
"""
from __future__ import annotations

import os
from fractions import Fraction

from mpmath import mp, mpf

ENV_PRECISION_BITS = "QPLAB_PRECISION_BITS"
DEFAULT_PRECISION_BITS = 256
MIN_PRECISION_BITS = 80
# guard bits of ulp_uncertainty: they cover the rounding of the short expression behind an mpf
GUARD_BITS = 4


def configured_precision_bits() -> int:
    """Precision in bits, from the environment or the package default."""
    raw = os.environ.get(ENV_PRECISION_BITS)
    if raw is None:
        return DEFAULT_PRECISION_BITS
    try:
        bits = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_PRECISION_BITS} must be an integer, got {raw!r}") from exc
    if bits < MIN_PRECISION_BITS:
        raise ValueError(f"{ENV_PRECISION_BITS} must be >= {MIN_PRECISION_BITS}")
    return bits


def set_working_precision(bits: int | None = None) -> int:
    """Set the global mpmath precision; returns the value applied."""
    applied = bits if bits is not None else configured_precision_bits()
    if applied < MIN_PRECISION_BITS:
        raise ValueError(f"working precision must be >= {MIN_PRECISION_BITS} bits")
    mp.prec = applied
    return applied


def golden_ratio() -> mpf:
    """(1 + sqrt 5) / 2 at working precision."""
    return (1 + mp.sqrt(5)) / 2


def sqrt2() -> mpf:
    return mp.sqrt(2)


def sqrt3() -> mpf:
    return mp.sqrt(3)


def two_pi() -> mpf:
    return 2 * mp.pi


def as_mpf(x) -> mpf:
    """Exact conversion for int/float/Fraction/str/mpf inputs."""
    if isinstance(x, mpf):
        return x
    if isinstance(x, Fraction):
        with mp.extraprec(64):
            return mpf(x.numerator) / x.denominator
    return mpf(x)


def mpf_to_fraction(x: mpf) -> Fraction:
    """The exact dyadic rational stored in an mpf."""
    sign, man, exp, _ = mp.mpf(x)._mpf_
    man = int(man)  # the gmpy backend returns mpz mantissas
    exp = int(exp)
    if man == 0:
        return Fraction(0)
    value = Fraction(man, 1)
    if exp >= 0:
        value *= 1 << exp
    else:
        value /= 1 << (-exp)
    return -value if sign else value


def ulp_uncertainty(x: mpf) -> Fraction:
    """Radius of the uncertainty interval around an mpf computed at mp.prec,
    widened by GUARD_BITS."""
    frac = abs(mpf_to_fraction(x))
    if frac == 0:
        return Fraction(1, 1 << (mp.prec - GUARD_BITS))
    return frac / (1 << (mp.prec - GUARD_BITS))


def to_fixed_point(alpha, frac_bits: int) -> int:
    """round(alpha * 2**frac_bits) computed exactly.

    Accepts mpf, Fraction, int, float, or a decimal string. Floats convert
    exactly (they are dyadic rationals).
    """
    if isinstance(alpha, int):
        return alpha << frac_bits
    if isinstance(alpha, float):
        alpha = Fraction(alpha)
    if isinstance(alpha, Fraction):
        scaled = alpha * (1 << frac_bits)
        floor = scaled.numerator // scaled.denominator
        rem = scaled - floor
        return floor + (1 if 2 * rem >= 1 else 0)
    with mp.extraprec(frac_bits + 64):
        x = as_mpf(alpha)
        return int(mp.nint(mp.ldexp(x, frac_bits)))


def fold_angle(x: mpf) -> mpf:
    """Reduce an angle into [0, 2*pi) at working precision."""
    tp = two_pi()
    with mp.extraprec(64):
        folded = x - tp * mp.floor(x / tp)
    if folded < 0:
        folded += tp
    if folded >= tp:
        folded -= tp
    return folded

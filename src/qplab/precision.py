"""Working precision control and high-precision constants.

Exponent arithmetic (distance-to-nearest-integer of q*alpha for q up to ~1e6)
amplifies representation error, so irrational constants are produced by mpmath
at the configured working precision instead of being parsed from decimals.
"""
from __future__ import annotations

import os
from fractions import Fraction

from mpmath import libmp, mp, mpf

from .errors import ConfigError

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


_CONSTANTS = {"phi": golden_ratio, "sqrt2": sqrt2, "sqrt3": sqrt3, "pi": lambda: mp.pi, "2pi": two_pi}
MAX_DECIMAL_EXPONENT = 4300  # largest |e| of a decimal literal's exponent


def parse_constant(token: str):
    """A number token: a named constant, as an mpf at working precision, else the
    exact Fraction of an integer, p/q rational or decimal literal."""
    token = token.strip()
    if token in _CONSTANTS:
        return _CONSTANTS[token]()
    # Fraction("1e30000000") would build 10**30000000; the mantissa is held to
    # Python's 4,300-digit int limit
    _, e, exponent = token.lower().partition("e")
    try:
        if e and abs(int(exponent)) > MAX_DECIMAL_EXPONENT:
            raise ConfigError(f"decimal exponent of {token!r} exceeds {MAX_DECIMAL_EXPONENT} in size")
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(
            f"bad number {token!r}: need a finite integer, p/q with q > 0, decimal, "
            f"or one of {', '.join(_CONSTANTS)}"
        ) from exc


def parse_float(token: str) -> float:
    """parse_constant(token) in float64, a zero signed as float(token) signs it; ConfigError on overflow."""
    try:
        x = float(parse_constant(token))
    except OverflowError:
        raise ConfigError(f"{token.strip()!r} is not finite in float64") from None
    return -abs(x) if token.strip().startswith("-") else x


def as_mpf(x) -> mpf:
    """Exact conversion for int/float/Fraction/str/mpf inputs."""
    if isinstance(x, mpf):
        return x
    if isinstance(x, Fraction):
        with mp.extraprec(64):
            return mpf(x.numerator) / x.denominator
    return mpf(x)


def mpf_to_fraction(x: mpf) -> Fraction:
    """The exact dyadic rational stored in a finite mpf."""
    if not mp.isfinite(x):
        raise ValueError(f"cannot convert non-finite {x} to a fraction")
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


def to_fixed_point(alpha: Fraction, frac_bits: int) -> int:
    """round(alpha * 2**frac_bits) computed exactly, halves rounded up."""
    num, den = alpha.numerator, alpha.denominator
    return ((num << (frac_bits + 1)) + den) // (2 * den)


def fold_angle(x: mpf) -> mpf:
    """Reduce an angle into [0, 2*pi): x - 2pi*floor(x/2pi) at 64 extra bits, then one
    correction at working precision, through the libmp calls the mpf operators make."""
    tp, prec = two_pi()._mpf_, mp.prec
    turns = libmp.mpf_floor(libmp.mpf_div(x._mpf_, tp, prec + 64, "n"), prec + 64, "n")
    folded = libmp.mpf_sub(x._mpf_, libmp.mpf_mul(tp, turns, prec + 64, "n"), prec + 64, "n")
    if libmp.mpf_lt(folded, libmp.fzero):
        folded = libmp.mpf_add(folded, tp, prec, "n")
    if libmp.mpf_ge(folded, tp):
        folded = libmp.mpf_sub(folded, tp, prec, "n")
    return mp.make_mpf(folded)

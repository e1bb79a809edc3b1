"""Quasiperiodic trigonometric sums and their translation-distance function.

A signal is a finite sum of complex harmonics A_j * exp(i*lambda_j*t). The
translation distance D(tau) = sum_j 2*|A_j|*|sin(lambda_j*tau/2)| measures how
far the tau-translate moves the signal in the uniform norm: it is always an
upper bound for sup_t |f(t+tau) - f(t)|, and equals it when the exponents are
rationally independent.
"""
from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np
from mpmath import mp, mpf

from .errors import BudgetExceeded, ConfigError, SignalParseError, grid_count
from .precision import as_mpf, golden_ratio, parse_constant, parse_float, sqrt2, sqrt3, two_pi

MAX_ORACLE_POINTS = 2**26
# search box and tolerance of suspected_rational_relation
RELATION_MAX_COEFF = 6
RELATION_REL_TOL = 1e-9
_CHUNK = 2**21

PRESET_NAMES = ("golden", "sqrt23")


def _float_copies(terms: Sequence[tuple[complex, mpf]]) -> tuple[np.ndarray, np.ndarray]:
    """The complex128 amplitudes and float64 exponents of the terms, which every
    computation uses; ValueError unless each modulus and exponent is nonzero and finite."""
    amps = np.array([a for a, _ in terms], dtype=np.complex128)
    lams = np.array([float(l) for _, l in terms], dtype=np.float64)
    moduli = np.abs(amps)
    if not np.all(np.isfinite(moduli) & (moduli != 0)):
        raise ValueError("amplitudes must be nonzero and finite in float64")
    if not np.all(np.isfinite(lams) & (lams != 0)):
        raise ValueError("exponents must be nonzero and finite in float64")
    return amps, lams


class QuasiperiodicSignal:
    """Finite trigonometric sum with nonzero amplitudes and distinct exponents."""

    __slots__ = ("terms", "label", "_amps", "_lams")

    def __init__(self, terms: Iterable[tuple[complex, object]], label: str = ""):
        normalized = [(complex(amp), as_mpf(lam)) for amp, lam in terms]
        if not normalized:
            raise ValueError("signal needs at least one term")
        exponents = [lam for _, lam in normalized]
        if len({str(lam) for lam in exponents}) != len(exponents):
            raise ValueError("exponents must be pairwise distinct")
        self.terms: tuple[tuple[complex, mpf], ...] = tuple(normalized)
        self.label = label
        self._amps, self._lams = _float_copies(self.terms)

    @property
    def n(self) -> int:
        return len(self.terms)

    @property
    def amplitude_moduli(self) -> np.ndarray:
        return np.abs(self._amps)

    @property
    def exponents_float(self) -> np.ndarray:
        return self._lams

    @property
    def exponents(self) -> tuple[mpf, ...]:
        return tuple(lam for _, lam in self.terms)

    def describe(self) -> str:
        if self.label:
            return self.label
        parts = [f"{a.real:g}{a.imag:+g}i@{float(l):.17g}" for a, l in self.terms]
        return ",".join(parts)

    def __repr__(self) -> str:
        return f"QuasiperiodicSignal({self.describe()!r}, n={self.n})"


def preset(name: str) -> QuasiperiodicSignal:
    """Named signals built from constants at full working precision."""
    tp = two_pi()
    if name == "golden":
        return QuasiperiodicSignal([(1, tp), (1, tp * golden_ratio())], label=name)
    if name == "sqrt23":
        return QuasiperiodicSignal([(1, tp), (1, tp * sqrt2()), (1, tp * sqrt3())], label=name)
    raise SignalParseError(f"unknown preset {name!r}")


def parse_signal(text: str) -> QuasiperiodicSignal:
    """Parse a comma-separated list of ``RE(+|-)IMi@LAMBDA`` terms or a preset name.

    Each number is a parse_constant token, e.g. ``1+0i@6.283,2-1i@phi`` or
    ``1+0i@15540375437/25845432348``. A term splits at its one ``@`` and at the
    sign that starts the imaginary part: the last + or - that neither opens the
    term nor follows e or E. Raises SignalParseError with the character
    position of the offending term.
    """
    stripped = text.strip()
    if not stripped:
        raise SignalParseError("empty signal literal", 0)
    if stripped in PRESET_NAMES:
        return preset(stripped)
    terms: list[tuple[complex, mpf]] = []
    offset = 0
    for piece in text.split(","):
        try:
            amp, lam = piece.strip().split("@")
            cut = max(k for k, c in enumerate(amp) if c in "+-" and k and amp[k - 1] not in "eE")
            if len(piece.split()) != 1 or not amp.endswith("i"):
                raise ValueError(piece)
            parts = amp[:cut], amp[cut:-1]
            # every token is read here, so a malformed one is named before an amplitude past float64
            lam = as_mpf([parse_constant(token) for token in (*parts, lam)][-1])
        except (ValueError, ConfigError):
            raise SignalParseError(f"malformed term {piece.strip()!r}", offset) from None
        try:
            amp = complex(parse_float(parts[0]), parse_float(parts[1]))
        except ConfigError:  # past float64; the float64 check below names it, after the zero checks
            amp = complex(math.inf)
        if amp == 0:
            raise SignalParseError("zero amplitude", offset)
        if lam == 0:
            raise SignalParseError("zero exponent", offset)
        try:
            _float_copies([(amp, lam)])
        except ValueError as exc:
            raise SignalParseError(str(exc), offset) from exc
        terms.append((amp, lam))
        offset += len(piece) + 1
    try:
        return QuasiperiodicSignal(terms, label=text.strip())
    except ValueError as exc:
        raise SignalParseError(str(exc)) from exc


def evaluate(f: QuasiperiodicSignal, t):
    """Signal value at time t, or values at an array of times, in fixed term order.

    A scalar t returns a complex. It goes through a 0-d array, whose scalar
    complex multiply rounds like Python's; on arrays numpy's SIMD multiply may
    differ from that in the last bits.
    """
    t = np.asarray(t, dtype=np.float64)
    acc = np.zeros(t.shape, dtype=np.complex128)
    for amp, lam in zip(f._amps, f._lams):
        acc += amp * np.exp(1j * (lam * t))
    return complex(acc) if acc.ndim == 0 else acc


def translation_distance(f: QuasiperiodicSignal, tau: float) -> float:
    """D(tau) = sum_j 2|A_j| |sin(lambda_j tau / 2)| at one translation."""
    return float(translation_distance_many(f, np.asarray(tau, dtype=np.float64)))


def translation_distance_many(f: QuasiperiodicSignal, taus: np.ndarray) -> np.ndarray:
    """D over an array of translations, summed in fixed term order."""
    acc = np.zeros(taus.shape, dtype=np.float64)
    # sublevel_scan relies on this fixed-order sum of non-negative terms: D >= every term
    for amp, lam in zip(f._amps, f._lams):
        acc += (2.0 * abs(amp)) * np.abs(np.sin((lam * 0.5) * taus))
    return acc


def lipschitz_constant(f: QuasiperiodicSignal) -> float:
    """C = sum_j |A_j| |lambda_j|; bounds |f(t)-f(s)| and |D(t)-D(s)| by C|t-s|."""
    return float(sum(abs(a) * abs(l) for a, l in zip(f._amps, f._lams)))


def sup_oracle(f: QuasiperiodicSignal, tau: float, horizon: float, grid_step: float) -> float:
    """Brute-force grid maximum of |f(t+tau) - f(t)| over t in [0, horizon].

    A lower bound for the uniform translation distance; converges upward to
    D(tau) as the horizon grows and the step shrinks when the exponents are
    rationally independent.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    npts = grid_count(horizon, grid_step, math.floor) + 1
    if npts > MAX_ORACLE_POINTS:
        raise BudgetExceeded(f"oracle grid needs {npts} points, cap is {MAX_ORACLE_POINTS}")
    # f(t+tau) - f(t) = sum_j B_j e^{i lambda_j t} with B_j = A_j (e^{i lambda_j tau} - 1)
    coeffs = f._amps * (np.exp(1j * f._lams * tau) - 1.0)
    best = 0.0
    for start in range(0, npts, _CHUNK):
        k = np.arange(start, min(start + _CHUNK, npts), dtype=np.float64)
        t = k * grid_step
        acc = np.zeros(t.shape, dtype=np.complex128)
        for b, lam in zip(coeffs, f._lams):
            acc += b * np.exp(1j * (lam * t))
        best = max(best, float(np.max(np.abs(acc))))
    return best


def suspected_rational_relation(exponents: Sequence[object]) -> tuple[int, ...] | None:
    """Small-integer-relation heuristic for the exponent list.

    Returns c_j in [-RELATION_MAX_COEFF, RELATION_MAX_COEFF], first nonzero one positive,
    with |sum c_j lambda_j| < RELATION_REL_TOL * max|lambda|, or None: the unit vector of
    the last exponent below that bound, else mpmath's PSLQ relation on lambda / max|lambda|
    (of several, PSLQ's choice), rechecked here since PSLQ's tolerance is on a
    Euclidean-normalised vector. A heuristic: finding none certifies nothing.
    """
    lams = [as_mpf(x) for x in exponents]
    scale = max(abs(l) for l in lams)
    if not scale:
        return None  # every sum is 0, and none is below a bound of 0
    bound = mpf(RELATION_REL_TOL) * scale
    tiny = [j for j, lam in enumerate(lams) if abs(lam) < bound]
    if tiny:  # PSLQ misses these, or raises on them
        return tuple(int(j == tiny[-1]) for j in range(len(lams)))
    if len(lams) < 2:
        return None
    found = mp.pslq([l / scale for l in lams], tol=RELATION_REL_TOL, maxcoeff=RELATION_MAX_COEFF + 1)
    if found is None or not abs(sum((c * l for c, l in zip(found, lams)), mpf(0))) < bound:
        return None
    sign = 1 if next(c for c in found if c) > 0 else -1
    return tuple(sign * c for c in found)

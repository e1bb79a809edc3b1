"""Differential gate for the CLI's exact number reader.

qplab.cli.parse_constant reads every literal other than a named constant as
its exact Fraction. The reader it replaced turned a decimal into an mpf at
working precision; it is kept here as the reference. On long decimal
expansions of sqrt(k), the inputs the benchmark passes, badness, simdenom and
kronecker must write the same report bytes with either reader, and cf must
certify the same quotients. Short decimals, which the mpf could not expand,
are checked against their p/q spelling.

Signal literals read their numbers through the same parse_constant. Their
reader before that, a term regex with float amplitudes and mpf exponents, is
kept here too: on seeded literals built as the benchmark builds its random
signals, in every spelling that regex took, both readers must give bitwise
equal amplitudes, exponents and labels, the same error message and position,
and byte-identical eval, scan and length-curve reports.
"""
import json
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from qplab import cli, precision
from qplab.errors import SignalParseError
from qplab.precision import as_mpf, golden_ratio
from qplab.signal import PRESET_NAMES, QuasiperiodicSignal, _float_copies, parse_signal, preset

DIGITS = 60


def sqrt_decimal(k, digits=DIGITS):
    """sqrt(k) truncated to ``digits`` decimals, computed exactly in integers."""
    whole, frac = divmod(math.isqrt(k * 10 ** (2 * digits)), 10**digits)
    return f"{whole}.{frac:0{digits}d}"


def mpf_reader(token):
    """The reader before exact literals, for the decimal tokens used here."""
    return mp.mpf(token.strip())


def _non_squares(rng, count):
    return rng.sample([k for k in range(2, 100) if math.isqrt(k) ** 2 != k], count)


def _report(argv, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


def _both_readers(argv, tmp_path, monkeypatch):
    exact = _report(argv, tmp_path)
    with monkeypatch.context() as m:
        # cli reads --x and --alpha, precision.parse_float --eps and --kappa
        m.setattr(cli, "parse_constant", mpf_reader)
        m.setattr(precision, "parse_constant", mpf_reader)
        reference = _report(argv, tmp_path)
    return exact, reference


def _seeded_commands(seed):
    rng = random.Random(seed)
    k, a, b = _non_squares(rng, 3)
    pair = f"{sqrt_decimal(a)},{sqrt_decimal(b)}"
    kappa = ",".join(sqrt_decimal(j) for j in _non_squares(rng, 3))
    return [
        ["badness", "--alpha", sqrt_decimal(k), "--qmax", "100000"],
        ["badness", "--alpha", pair, "--qmax", "100000"],
        ["simdenom", "--alpha", pair, "--delta", "0.002", "--qmax", "1000000"],
        ["kronecker", "--signal", "sqrt23", "--kappa", kappa, "--eps", "0.1", "--tmax", "100000"],
    ]


@pytest.mark.parametrize("seed", range(6))
def test_sqrt_decimals_give_the_mpf_readers_reports(seed, tmp_path, monkeypatch):
    for argv in _seeded_commands(seed):
        exact, reference = _both_readers(argv, tmp_path, monkeypatch)
        assert exact == reference, argv


@pytest.mark.parametrize("seed", range(6))
def test_sqrt_decimal_cf_quotients_match_the_mpf_reader(seed, tmp_path, monkeypatch):
    (k,) = _non_squares(random.Random(seed), 1)
    exact, reference = _both_readers(["cf", "--x", sqrt_decimal(k), "--depth", "20"], tmp_path, monkeypatch)
    exact, reference = json.loads(exact), json.loads(reference)
    assert (exact["a0"], exact["quotients"]) == (reference["a0"], reference["quotients"])
    assert len(exact["quotients"]) == 20 and not exact["exact"]


@pytest.mark.parametrize(
    "argv",
    [
        ["badness", "--alpha", "{},0.3", "--qmax", "1000"],
        ["simdenom", "--alpha", "{}", "--delta", "0.01", "--qmax", "1000"],
    ],
)
def test_decimal_and_rational_spellings_give_equal_reports(argv, tmp_path):
    payloads = []
    for spelling in ("0.125", "1/8"):
        payload = json.loads(_report([tok.format(spelling) for tok in argv], tmp_path))
        payload.pop("config")
        payloads.append(payload)
    assert payloads[0] == payloads[1]


# ---------------------------------------------------------------------------
# signal literals


_TERM_RE = re.compile(
    r"^\s*([+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"([+-]\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)i"
    r"@([+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)\s*$"
)


def regex_parse_signal(text):
    """parse_signal before its terms were read through parse_constant."""
    stripped = text.strip()
    if not stripped:
        raise SignalParseError("empty signal literal", 0)
    if stripped in PRESET_NAMES:
        return preset(stripped)
    terms = []
    offset = 0
    for piece in text.split(","):
        match = _TERM_RE.match(piece)
        if match is None:
            raise SignalParseError(f"malformed term {piece.strip()!r}", offset)
        re_part, im_part, lam_part = match.groups()
        amp = complex(float(re_part), float(im_part))
        if amp == 0:
            raise SignalParseError("zero amplitude", offset)
        lam = as_mpf(lam_part)
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


# spellings the term regex took: a real part, a signed imaginary part, an exponent
RE_FORMATS = ("{:.6f}", "{:+.6f}", "{!r}", "{:.3e}", "{:+.4E}", "{:.0f}")
IM_FORMATS = ("{:+.6f}", "{:+.3e}", "{:+.4E}", "{:+.0f}")
LAM_FORMATS = ("{!r}", "{:+.12e}", "{:.8E}", "{:.3f}")


def random_literal(rng, spelled, scaled=True):
    """A 3-term literal with unequal amplitudes and exponents 2*pi*(1, sqrt a, sqrt b),
    as the benchmark's random_signal builds it, or with each number spelled at random
    and, if scaled, multiplied by a random power of 10 and sign."""
    a, b = rng.sample([k for k in range(2, 40) if math.isqrt(k) ** 2 != k], 2)
    terms = []
    for k in (1, a, b):
        m, theta = rng.uniform(0.3, 1.5), rng.uniform(0.0, 2.0 * math.pi)
        re_, im = round(m * math.cos(theta), 6), round(m * math.sin(theta), 6)
        lam = 2.0 * math.pi * math.sqrt(k)
        if not spelled:
            terms.append(f"{re_:.6f}{im:+.6f}i@{lam!r}")
            continue
        if scaled:
            re_, lam = re_ * 10.0 ** rng.randint(-4, 4), lam * rng.choice((1.0, -1.0)) * 10.0 ** rng.randint(-3, 3)
        terms.append(
            rng.choice(RE_FORMATS).format(re_)
            + rng.choice(IM_FORMATS).format(im)
            + "i@"
            + rng.choice(LAM_FORMATS).format(lam)
        )
    return ",".join(terms)


def _outcome(reader, text):
    try:
        f = reader(text)
    except SignalParseError as exc:
        return str(exc), exc.position
    return f._amps.tobytes(), f._lams.tobytes(), f.label


def test_bench_literals_read_as_before():
    for seed in range(200):
        text = random_literal(random.Random(seed), spelled=False)
        assert _outcome(parse_signal, text) == _outcome(regex_parse_signal, text), text


def test_spelled_literals_read_as_before():
    for seed in range(500):
        text = random_literal(random.Random(seed), spelled=True)
        assert _outcome(parse_signal, text) == _outcome(regex_parse_signal, text), text


@pytest.mark.parametrize(
    "text",
    [
        "1e-5-2.5E+3i@-1.5",
        "+2-0i@1E+3",
        " 1+0i@1 , 2-1i@1.0 ",
        "1.25e+2-3e-2i@6.283185307179586",
        "",
        " ",
        "1+2i",
        "1+0i@6.28,bogus",
        "1+0i@1,",
        "1 +0i@1",
        "1+0i @1",
        "1+0I@1",
        "1+i@1",
        "1+-2i@1",
        "1e+5i@1",
        "1+0i@1@2",
        "0+0i@1",
        "0e7-0.0i@1",
        "1+0i@0",
        "1+0i@-0.0e3",
        "1+0i@1,1e400+0i@2",
        "1+0i@1,1+0i@1e400",
        "1+0i@1e-400",
        "1e-400+1e-400i@1",
        "1e400+0i@0",
        "1e400+xi@1",
        "x+1e400i@1",
        "1+0i@1,1+0i@1.0",
        "golden",
        "sqrt23",
    ],
)
def test_edge_literals_read_as_before(text):
    assert _outcome(parse_signal, text) == _outcome(regex_parse_signal, text)


def _reports(argv, tmp_path, monkeypatch):
    new = _report(argv, tmp_path)
    with monkeypatch.context() as m:
        m.setattr(cli, "parse_signal", regex_parse_signal)
        reference = _report(argv, tmp_path)
    return new, reference


@pytest.mark.parametrize("seed", range(3))
def test_literals_give_the_regex_readers_reports(seed, tmp_path, monkeypatch):
    rng = random.Random(seed)
    for text in (random_literal(rng, spelled=False), random_literal(rng, spelled=True, scaled=False)):
        f = parse_signal(text)
        eps = float(f"{2.2 * float(f.amplitude_moduli.min()):.4g}")
        for argv in (
            ["eval", f"--signal={text}", "--t", "0.75"],
            ["scan", f"--signal={text}", "--eps", repr(eps), "--window", "0:5"],
            ["length-curve", f"--signal={text}", "--eps", f"{eps!r}:3:2",
             "--initial-width", "2", "--min-hits", "1"],
        ):
            new, reference = _reports(argv, tmp_path, monkeypatch)
            assert new == reference, argv


def _decimal(value: Fraction, digits: int) -> str:
    """value truncated to ``digits`` decimals, exactly in integers."""
    whole, frac = divmod(abs(value.numerator) * 10**digits // value.denominator, 10**digits)
    return f"{'-' if value < 0 else ''}{whole}.{frac:0{digits}d}"


def test_named_constant_exponent():
    f = parse_signal("1+0i@phi")
    assert f.exponents_float[0] == float(golden_ratio())
    assert parse_signal("phi+0i@2pi")._amps[0] == complex(float(golden_ratio()))


def test_rational_exponent_matches_its_40_digit_decimal():
    rng = random.Random(5)
    pairs = [(15540375437, 25845432348)] + [(rng.randrange(1, 10**12), rng.randrange(1, 10**12)) for _ in range(50)]
    for p, q in pairs:
        lam = Fraction(p, q)
        rational = parse_signal(f"1+0i@1,1+0i@{p}/{q}").exponents_float[1]
        decimal = parse_signal(f"1+0i@1,1+0i@{_decimal(lam, 40)}").exponents_float[1]
        assert rational == decimal == float(lam), (p, q)


def test_new_grammar_keeps_term_errors():
    with pytest.raises(SignalParseError) as err:
        parse_signal("1+0i@6.28,bogus")
    assert err.value.position == 10
    with pytest.raises(SignalParseError, match="malformed term '1\\+2i'"):
        parse_signal("1+2i")
    # a decimal exponent past MAX_DECIMAL_EXPONENT is a bad token, as in every other number
    for text in ("1e5000+0i@1", "1+0i@1e-5000"):
        with pytest.raises(SignalParseError, match="malformed term"):
            parse_signal(text)
    # tokens only parse_constant reads: named constants, p/q, digit separators
    f = parse_signal("1/2-3/4i@1_000,2+0i@sqrt2")
    assert f._amps[0] == complex(0.5, -0.75) and f.exponents_float.tolist() == [1000.0, math.sqrt(2)]
    assert np.array_equal(parse_signal("1+0i@6.283185307179586")._lams, parse_signal("1+0i@2pi")._lams)

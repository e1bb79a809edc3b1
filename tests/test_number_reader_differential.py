"""Differential gate for the CLI's exact number reader.

qplab.cli.parse_constant reads every literal other than a named constant as
its exact Fraction. The reader it replaced turned a decimal into an mpf at
working precision; it is kept here as the reference. On long decimal
expansions of sqrt(k), the inputs the benchmark passes, badness, simdenom and
kronecker must write the same report bytes with either reader, and cf must
certify the same quotients. Short decimals, which the mpf could not expand,
are checked against their p/q spelling.
"""
import json
import math
import random

import pytest
from mpmath import mp

from qplab import cli

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
        m.setattr(cli, "parse_constant", mpf_reader)
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

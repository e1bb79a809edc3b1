import argparse
import json
import math
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import qplab
from qplab.cli import (
    RunConfig,
    build_config,
    build_parser,
    main,
    parse_constant,
    parse_eps_spec,
    parse_window_spec,
    read_config_file,
)
from qplab.errors import BudgetExceeded, ConfigError
from qplab.precision import golden_ratio
from qplab.signal import preset

SINGLE = "1+0i@6.283185307179586"


def run_cli(args):
    return main(args)


def test_parse_eps_range():
    values = parse_eps_spec("0.4:8:2")
    assert len(values) == 8
    assert values[0] == pytest.approx(0.4)
    assert values[-1] == pytest.approx(0.4 * 2**-7)
    for a, b in zip(values, values[1:]):
        assert b == pytest.approx(a / 2)


def test_parse_eps_list():
    assert parse_eps_spec("0.2,0.1") == [0.2, 0.1]


def test_parse_eps_errors():
    for bad in ("", "0:3:2", "0.4:0:2", "0.4:3:1", "a,b", "inf", "0.4,nan", "nan:2:2", "0.4:2:inf",
                "0.1,0.2", "0.2,0.2", "0.4,0.1,0.2"):
        with pytest.raises(ConfigError):
            parse_eps_spec(bad)


def test_parse_window():
    assert parse_window_spec("-3:7.5") == (-3.0, 7.5)
    with pytest.raises(ConfigError):
        parse_window_spec("5:1")
    with pytest.raises(ConfigError):
        parse_window_spec("1")
    for bad in ("0:inf", "-inf:0", "nan:1"):
        with pytest.raises(ConfigError):
            parse_window_spec(bad)


def test_parse_constant():
    assert float(parse_constant("phi")) == pytest.approx(float(golden_ratio()))
    assert parse_constant("355/113") == pytest.approx(355 / 113)
    assert float(parse_constant("0.25")) == 0.25
    with pytest.raises(ConfigError):
        parse_constant("nope")
    # integer literals are exact; decimals stay mpf
    for token, value in (("5", 5), ("0", 0), ("-17", -17), ("+3", 3)):
        assert parse_constant(token) == value
        assert type(parse_constant(token)) is int
    assert type(parse_constant("5.0")) is not int


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nsignal = golden\ngrid = 500\nformat = csv\n", encoding="utf-8")
    values = read_config_file(str(cfg), "scan")
    assert values == {"signal": "golden", "grid": "500", "format": "csv"}


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        read_config_file(str(cfg), "scan")


def test_cli_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("qmax = 500\nalpha = sqrt2\nformat = csv\n", encoding="utf-8")
    parser = build_parser()
    args = parser.parse_args(["badness", "--config", str(cfg), "--alpha", "phi", "--qmax", "10"])
    config = build_config(args)
    assert config.qmax == 10  # flag wins
    assert config.alpha == "phi"
    assert config.format == "csv"  # config fills what flags left unset


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(command="nope")
    with pytest.raises(ConfigError):
        RunConfig(command="eval", format="xml")
    with pytest.raises(ConfigError):
        RunConfig(command="eval", qmax=0)
    for name in ("step", "t", "delta", "tmax", "initial_width"):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ConfigError, match=name):
                RunConfig(command="eval", **{name: bad})


def test_eval_json(tmp_path, capsys):
    out = tmp_path / "eval.json"
    code = run_cli(["eval", "--signal", "golden", "--t", "0.0", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["re"] == pytest.approx(2.0)
    assert payload["im"] == pytest.approx(0.0)
    assert payload["config"]["command"] == "eval"
    assert payload["config"]["signal"] == "golden"


def test_eval_csv(tmp_path):
    out = tmp_path / "eval.csv"
    code = run_cli(["eval", "--signal", SINGLE, "--t", "0.5", "--format", "csv", "--out", str(out)])
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert "\r" not in text
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0] == "t,re,im,abs"
    assert len(lines) == 2
    assert [float(v) for v in lines[1].split(",")][1] == pytest.approx(-1.0)


@pytest.mark.parametrize("t", ["1e308", "-1e308", "1.77e307"])
def test_eval_overflowing_phase_is_input_error(t, capsys):
    # lambda_j * t is inf in float64 for the golden exponent 2*pi*phi, though t is finite
    assert run_cli(["eval", "--signal", "golden", f"--t={t}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: lambda_j * t overflows float64 at t = {float(t)!r}\n"


def test_eval_largest_phases_stay_finite(capsys):
    assert run_cli(["eval", "--signal", "golden", "--t", "1.76e307"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(math.isfinite(payload[k]) for k in ("re", "im", "abs"))


def test_missing_signal_is_input_error(capsys):
    assert run_cli(["eval", "--t", "1.0"]) == 1
    assert "requires --signal" in capsys.readouterr().err


def test_bad_signal_is_input_error(capsys):
    assert run_cli(["eval", "--signal", "0+0i@1.0", "--t", "1.0"]) == 1


def test_step_too_coarse_is_input_error(capsys):
    code = run_cli(["scan", "--signal", "golden", "--eps", "0.1", "--window", "0:10", "--step", "0.5"])
    assert code == 1


def test_budget_exhaustion_exit_code(capsys):
    code = run_cli(["scan", "--signal", "golden", "--eps", "0.1", "--window", "0:100", "--grid", "10"])
    assert code == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (["scan", "--signal", "golden", "--eps", "1e-310", "--window", "0:1"],
         "scan grid needs inf points, cap is 536870912"),
        (["dimension", "--signal", "golden", "--eps", "1e-320"],
         "torus grid needs inf cells, cap is 134217728"),
        (["kronecker", "--signal", "golden", "--kappa", "0,pi", "--eps", "1e-300", "--tmax", "1e10"],
         "solver grid needs inf points, cap is 67108864"),
        # the grid step underflows to 0
        (["kronecker", "--signal", "golden", "--kappa", "0,pi", "--eps", "1e-323", "--tmax", "1"],
         "solver grid needs inf points, cap is 67108864"),
        (["scan", "--signal", "golden", "--eps", "1e-322", "--window", "0:1"],
         "scan grid needs inf points, cap is 536870912"),
    ],
)
def test_grid_too_large_for_an_int_is_budget_exhaustion(argv, message, capsys):
    assert run_cli(argv) == 2
    assert capsys.readouterr() == ("", f"budget exhausted: {message}\n")


def test_length_curve_grid_too_large_for_an_int_is_unresolved(tmp_path):
    out = tmp_path / "curve.json"
    # at 1e-323 the scan step eps/(4C) underflows to 0
    for eps in ("1e-310", "1e-323"):
        assert run_cli(["length-curve", "--signal", "golden", "--eps", eps, "--out", str(out)]) == 0
        [sample] = json.loads(out.read_text(encoding="utf-8"))["samples"]
        assert sample["resolved"] is False and math.isnan(sample["L_upper"])


@pytest.mark.parametrize(
    "flag, value",
    [("step", "0"), ("step", "-0.01"), ("initial_width", "0"), ("initial_width", "-1")],
    ids=["0", "-0.01", "initial_width-0", "initial_width--1"],
)
def test_nonpositive_step_is_an_input_error(flag, value, capsys):
    argv = {
        "step": ["scan", "--signal", "golden", "--eps", "0.1", "--window", "0:1"],
        "initial_width": ["length-curve", "--signal", "golden", "--eps", "0.1"],
    }[flag]
    assert run_cli(argv + ["--" + flag.replace("_", "-"), value]) == 1
    assert capsys.readouterr().err == f"error: {flag} must be positive\n"


def test_scan_json(tmp_path):
    out = tmp_path / "scan.json"
    code = run_cli(["scan", "--signal", SINGLE, "--eps", "0.1", "--window", "0:3", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert len(payload["outer"]) == 4
    assert payload["L_lower"] <= payload["L_upper"]


def test_length_curve_csv_rows(tmp_path):
    out = tmp_path / "curve.csv"
    code = run_cli(
        ["length-curve", "--signal", SINGLE, "--eps", "0.2:3:2", "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    lines = [l for l in out.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    assert lines[0] == "eps,L_lower,L_upper,window,resolved"
    assert len(lines) == 4


def test_di_fit_json(tmp_path):
    out = tmp_path / "fit.json"
    code = run_cli(["di-fit", "--signal", SINGLE, "--eps", "0.2:4:2", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    for key in ("slope", "intercept", "residual", "max_ratio", "samples"):
        assert key in payload
    assert abs(payload["slope"]) < 0.1
    assert len(payload["samples"]) == 4


def test_cf_json(tmp_path):
    out = tmp_path / "cf.json"
    code = run_cli(["cf", "--x", "phi", "--depth", "6", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["a0"] == 1
    assert payload["quotients"] == [1] * 6
    assert payload["convergents"][0] == ["1", "1"]


def test_cf_rational_csv(tmp_path):
    out = tmp_path / "cf.csv"
    code = run_cli(["cf", "--x", "649/200", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = [l for l in out.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    assert lines[-1].endswith("649,200")


@pytest.mark.parametrize("x", [5, 0, -17])
def test_cf_integer_is_exact(x, tmp_path):
    out = tmp_path / "cf.json"
    assert run_cli(["cf", "--x", str(x), "--depth", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert (payload["a0"], payload["quotients"], payload["exact"]) == (x, [], True)
    assert payload["convergents"] == [[str(x), "1"]]
    assert payload["error_bound"] == 0.0


def test_badness_json(tmp_path):
    out = tmp_path / "badness.json"
    code = run_cli(["badness", "--alpha", "phi", "--qmax", "1000", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["argmin_q"] == 1
    assert payload["score"] == pytest.approx(0.38196601125, abs=1e-6)


def test_simdenom_json(tmp_path):
    out = tmp_path / "q.json"
    code = run_cli(["simdenom", "--alpha", "phi", "--delta", "0.01", "--qmax", "1000", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text(encoding="utf-8"))["q"] == 55


def test_kronecker_json(tmp_path):
    out = tmp_path / "k.json"
    code = run_cli(
        ["kronecker", "--signal", "golden", "--kappa", "0,pi", "--eps", "0.3", "--tmax", "50", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["t"] is not None
    assert max(payload["residuals"]) < 0.3


def test_kronecker_kappa_arity(capsys):
    assert run_cli(["kronecker", "--signal", "golden", "--kappa", "0", "--eps", "0.3"]) == 1


def test_dimension_json(tmp_path):
    out = tmp_path / "dim.json"
    code = run_cli(["dimension", "--signal", SINGLE, "--eps", "0.25:4:2", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert len(payload["counts"]) == 4
    assert payload["lower_dim"] == pytest.approx(1.0, abs=0.15)
    assert payload["upper_dim"] == pytest.approx(1.0, abs=0.15)
    assert (payload["c1"], payload["c2"]) == (2.0 / math.pi, 1.0)


def test_dimension_report_does_not_read_seed(tmp_path):
    reports = []
    out = tmp_path / "dim.json"
    for seed in ("1", "2"):
        assert run_cli(["dimension", "--signal", "golden", "--eps", "0.5", "--seed", seed, "--out", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["config"].pop("seed") == int(seed)
        reports.append(payload)
    assert reports[0] == reports[1]
    assert (reports[0]["c1"], reports[0]["c2"]) == (2.0 / math.pi, 2.0)


def test_dimension_unordered_eps_is_a_usage_error(monkeypatch, capsys):
    import qplab.cli as cli_mod

    def no_cover(f, eps_list):
        raise AssertionError("no cover may be computed")

    monkeypatch.setattr(cli_mod, "hull_dimension_report", no_cover)
    assert run_cli(["dimension", "--signal", "golden", "--eps", "0.001,0.5"]) == 1
    assert "strictly decreasing" in capsys.readouterr().err


def test_dimension_budget_checked_before_any_cover(monkeypatch, capsys):
    import qplab.dimension as dimension_mod

    def no_cover(sample, eps):
        raise AssertionError("no cover may be computed")

    monkeypatch.setattr(dimension_mod, "covering_number", no_cover)
    # 0.5 and 0.25 fit the cell budget; 0.125 does not
    with pytest.raises(BudgetExceeded):
        dimension_mod.hull_dimension_report(preset("sqrt23"), [0.5, 0.25, 0.125, 0.0625])
    assert run_cli(["dimension", "--signal", "sqrt23", "--eps", "0.5:4:2"]) == 2
    assert capsys.readouterr().err == (
        "budget exhausted: torus grid needs 220348864 cells, cap is 134217728\n"
    )


@pytest.mark.parametrize("command", ["dimension", "di-fit", "verify"])
def test_negative_seed_is_an_input_error(monkeypatch, capsys, tmp_path, command):
    import qplab.cli as cli_mod

    def no_work(config):
        raise AssertionError("no work may be done")

    monkeypatch.setitem(cli_mod._COMMAND_TABLE, command, (no_work,) + cli_mod._COMMAND_TABLE[command][1:])
    argv = {"dimension": ["--signal", "golden", "--eps", "0.25:5:2"],
            "di-fit": ["--signal", "golden", "--eps", "0.4:3:2"],
            "verify": []}[command]
    assert run_cli([command, *argv, "--seed", "-3"]) == 1
    assert capsys.readouterr().err == "error: seed must be non-negative, got -3\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = -1\n", encoding="utf-8")
    assert run_cli([command, *argv, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"


def test_dimension_csv(tmp_path):
    out = tmp_path / "dim.csv"
    code = run_cli(
        ["dimension", "--signal", SINGLE, "--eps", "0.25,0.125", "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    lines = [l for l in out.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    assert lines[0] == "eps,cover_upper,packing_lower"
    assert len(lines) == 3


def test_reports_are_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "a2.json"
    args = ["scan", "--signal", SINGLE, "--eps", "0.1", "--window", "0:3"]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes().replace(b"a.json", b"x") == out2.read_bytes().replace(b"a2.json", b"x")


def test_json_round_trip_parses(tmp_path):
    out = tmp_path / "fit.json"
    run_cli(["di-fit", "--signal", SINGLE, "--eps", "0.2:3:2", "--out", str(out)])
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["config"]["eps"] == "0.2:3:2"


def test_parse_warning_on_integer_relation(capsys):
    code = run_cli(
        ["eval", "--signal", "1+0i@3.14159265358979,1+0i@6.28318530717958", "--t", "0.0"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == (
        "warning: exponents admit a small integer relation (2, -1); "
        "they may not be rationally independent\n"
    )


def _python(*argv, **env):
    """Run the interpreter in a child that imports the same qplab as this process
    (installed or from src/); only ``env`` is added, so no stray QPLAB_* variable
    leaks in."""
    package_root = Path(qplab.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(package_root), **env},
    )


def test_env_var_sets_precision(tmp_path):
    result = _python(
        "-c", "import qplab; from mpmath import mp; print(mp.prec)", QPLAB_PRECISION_BITS="128"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "128", result.stderr


def test_verify_failure_exit_code(tmp_path, monkeypatch):
    import qplab.verify as verify_mod

    def failing_suite(seed):
        return [{"name": "stub", "passed": False}]

    monkeypatch.setitem(verify_mod.SUITES, "golden", failing_suite)
    out = tmp_path / "r.json"
    assert run_cli(["verify", "--suite", "golden", "--out", str(out)]) == 3
    assert json.loads(out.read_text(encoding="utf-8"))["passed"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--signal", "golden", "--eps", "0.1", "--window", "0:inf"],
        ["kronecker", "--signal", "golden", "--kappa", "0,pi", "--eps", "0.3", "--tmax", "inf"],
        ["length-curve", "--signal", "golden", "--eps", "0.4:2:2", "--initial-width", "inf"],
        ["scan", "--signal", "golden", "--eps", "inf", "--window", "0:10"],
        ["length-curve", "--signal", "golden", "--eps", "0.4,nan"],
        ["eval", "--signal", "golden", "--t", "nan"],
        ["badness", "--alpha", "nan"],
        ["badness", "--alpha", "inf"],
        ["simdenom", "--alpha", "nan", "--delta", "0.1"],
        ["kronecker", "--signal", "golden", "--kappa", "nan,0", "--eps", "0.3", "--tmax", "10"],
        ["cf", "--x", "nan"],
        ["cf", "--x=-inf"],
    ],
)
def test_non_finite_numbers_are_input_errors(argv, capsys):
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--signal", "1+0i@1e400", "--t", "1"],
        ["eval", "--signal", "1e400+0i@1", "--t", "1"],
        ["scan", "--signal", "1+0i@1e-400", "--eps", "0.1", "--window", "0:1"],
        ["length-curve", "--signal", "1+0i@1e-400", "--eps", "0.1"],
        ["kronecker", "--signal", "1+0i@1e-400", "--kappa", "1", "--eps", "0.1", "--tmax", "5"],
        ["dimension", "--signal", "1+0i@1e-400", "--eps", "0.5"],
    ],
)
def test_signal_terms_float64_cannot_hold_are_input_errors(argv, capsys):
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "float64" in captured.err
    assert "Traceback" not in captured.err


def test_float64_term_error_names_the_term_position(capsys):
    # the same position a zero amplitude in that term reports
    for text, message in (
        ("1+0i@1,1+0i@1e400", "exponents must be nonzero and finite in float64"),
        ("1+0i@1,1e400+0i@2", "amplitudes must be nonzero and finite in float64"),
        ("1+0i@1,0+0i@2", "zero amplitude"),
    ):
        assert run_cli(["eval", "--signal", text, "--t", "1"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message} (at position 7)\n")


def test_precision_bits_applies_to_one_run_only(capsys):
    argv = ["cf", "--x", "sqrt2", "--depth", "60"]
    assert run_cli(argv) == 0
    assert run_cli([*argv, "--precision-bits", "80"]) == 1
    assert "cannot certify" in capsys.readouterr().err
    # the next run without the flag is back at the default precision
    assert run_cli(argv) == 0
    assert capsys.readouterr().err == ""


# RunConfig fields each command takes as flags and config keys (besides --config)
REPORT_FLAGS = {"out", "format", "precision_bits"}
CURVE_FLAGS = {"signal", "eps", "grid", "initial_width", "min_hits", "max_doublings"}
COMMAND_FLAGS = {
    "eval": {"signal", "t"} | REPORT_FLAGS,
    "scan": {"signal", "eps", "window", "step", "grid"} | REPORT_FLAGS,
    "length-curve": CURVE_FLAGS | REPORT_FLAGS,
    "di-fit": CURVE_FLAGS | {"seed"} | REPORT_FLAGS,
    "cf": {"x", "depth"} | REPORT_FLAGS,
    "badness": {"alpha", "qmax"} | REPORT_FLAGS,
    "simdenom": {"alpha", "delta", "qmax"} | REPORT_FLAGS,
    "kronecker": {"signal", "eps", "kappa", "tmax"} | REPORT_FLAGS,
    "dimension": {"signal", "eps", "seed"} | REPORT_FLAGS,
    "verify": {"suite", "seed", "out", "precision_bits"},
}
FLAG_VALUES = {"format": "csv", "suite": "sqrt23", "step": "0.25", "t": "0.25", "delta": "0.25",
               "tmax": "0.25", "initial_width": "0.25", "signal": "golden", "eps": "0.1",
               "window": "0:1", "out": "r.json", "x": "phi", "alpha": "phi", "kappa": "0,pi"}


def test_flags_and_config_lines_give_equal_configs(tmp_path):
    parser = build_parser()
    for command, expected in COMMAND_FLAGS.items():
        exposed = set()
        for f in fields(RunConfig):
            if f.name == "command":
                continue
            value = FLAG_VALUES.get(f.name, "3")
            try:
                args = parser.parse_args([command, "--" + f.name.replace("_", "-"), value])
            except SystemExit:
                continue
            exposed.add(f.name)
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{f.name} = {value}\n", encoding="utf-8")
            from_file = build_config(parser.parse_args([command, "--config", str(cfg)]))
            assert build_config(args) == from_file, (command, f.name)
        assert exposed == expected, command
    assert sum(len(flags) + 1 for flags in COMMAND_FLAGS.values()) == 75  # with --config


def test_unread_flag_and_config_key_are_rejected(tmp_path, capsys):
    for command, expected in COMMAND_FLAGS.items():
        unread = next(f.name for f in fields(RunConfig) if f.name not in expected | {"command"})
        value = FLAG_VALUES.get(unread, "3")
        with pytest.raises(SystemExit) as exc:
            main([command, "--" + unread.replace("_", "-"), value])
        assert exc.value.code == 1, (command, unread)
        assert "unrecognized arguments" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# {command} does not read {unread}\n{unread} = {value}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"run.cfg:2: unknown key '{unread}'"):
            build_config(build_parser().parse_args([command, "--config", str(cfg)]))


def test_config_file_non_number_names_key(tmp_path):
    parser = build_parser()
    for command, key in (("badness", "qmax"), ("dimension", "seed"), ("kronecker", "tmax"),
                         ("scan", "step")):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = many\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=key):
            build_config(parser.parse_args([command, "--config", str(cfg)]))


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--signal", "golden", "--eps", "0.1", "--window", "0:10", "--step", "abc"],
        ["scan", "--signal", "golden", "--bogus", "1"],
        ["nope"],
        [],
    ],
)
def test_usage_errors_exit_1_without_traceback(argv):
    result = _python("-m", "qplab", *argv)
    assert result.returncode == 1, result.stderr
    assert "usage:" in result.stderr
    assert "Traceback" not in result.stderr


def test_help_exits_0():
    result = _python("-m", "qplab", "scan", "--help")
    assert result.returncode == 0, result.stderr
    assert "--window" in result.stdout and "--seed" not in result.stdout


def test_every_flag_has_help():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            assert action.help, (command, action.option_strings)


def test_flags_are_never_abbreviated(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kronecker", "--signal", "golden", "--kappa", "0,pi", "--eps", "0.3", "--t", "5"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --t 5" in capsys.readouterr().err
    assert main(["eval", "--signal", "golden", "--t", "0.5"]) == 0


def test_length_curve_and_di_fit_share_samples(tmp_path):
    reports = {}
    for command in ("length-curve", "di-fit"):
        out = tmp_path / f"{command}.json"
        assert run_cli([command, "--signal", SINGLE, "--eps", "0.2:4:2", "--min-hits", "3",
                        "--out", str(out)]) == 0
        reports[command] = json.loads(out.read_text(encoding="utf-8"))
    assert reports["length-curve"]["samples"] == reports["di-fit"]["samples"]
    assert reports["length-curve"]["signal_id"] == reports["di-fit"]["signal_id"]


def _readme_commands():
    """The ``qplab ...`` lines of the code block under README's "Command line" heading."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("qplab ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) == 10
    for line in commands:
        args = build_parser().parse_args(shlex.split(line)[1:])
        assert build_config(args).command == args.command

import json
import math
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
from qplab.errors import ConfigError
from qplab.precision import golden_ratio

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
    for bad in ("", "0:3:2", "0.4:0:2", "0.4:3:1", "a,b", "inf", "0.4,nan", "nan:2:2", "0.4:2:inf"):
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
    assert 0 < payload["c1_est"] <= payload["c2_est"]


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
    assert "integer relation" in captured.err


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
        return {
            "suite": "golden",
            "seed": seed,
            "passed": False,
            "checks": [{"name": "stub", "passed": False}],
        }

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
    ],
)
def test_non_finite_numbers_are_input_errors(argv, capsys):
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "finite" in err
    assert "Traceback" not in err


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

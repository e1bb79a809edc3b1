"""Tests of the benchmark itself. Run from the checkout root:

  python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_tiny_pass_is_correct_and_prints_the_declared_metrics(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))


def test_declared_workloads_and_layers_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOAD_NAMES)
    layers = [(m.name, m.unit, m.better) for m in tracing.METRICS] + [tracing.OVERHEAD]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == layers


def test_run_without_sources_fails_without_a_result(tmp_path):
    # a directory with the benchmark's own files and nothing else
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("sqrt23-curves", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("size", workloads.SIZES)
@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_seed_determines_the_inputs(workload, size):
    def inputs(seed):
        w = workloads.build(workload, seed, size)
        return w.signals, [c.argv for c in w.commands]

    assert inputs(11) == inputs(11)
    assert inputs(11) != inputs(12)


def _qplab_bindings() -> dict:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "qplab" or name.startswith("qplab.")
        for attr, value in vars(module).items()
    }


def test_traced_pass_restores_every_binding(tmp_path, monkeypatch):
    import qplab.cli

    monkeypatch.chdir(tmp_path)
    workload = workloads.build("golden-hull-diophantine", 3, "tiny")
    for command in workload.commands:
        Path(command.argv[-1]).parent.mkdir(parents=True, exist_ok=True)
    before = _qplab_bindings()
    with tracing.Tracer() as tracer:
        wrapped = {key for key, value in _qplab_bindings().items() if value is not before[key]}
        record = worker.run_pass(workload)
    assert ("qplab.cli", "main") in wrapped
    # a function imported by name is patched where it is bound, not only where defined
    assert ("qplab.cli", "hull_dimension_report") not in wrapped
    assert ("qplab.verify", "equivalence_constants") in wrapped
    assert ("qplab.diophantine", "as_mpf") in wrapped
    assert all(c["error"] is None for c in record["commands"]), record
    assert not tracer.missing
    metrics = tracing.layer_metrics(tracer.spans, tracer.missing)
    assert metrics["dimension.grid_balls"]["value"] > 0
    assert metrics["precision.calls"]["value"] > 0
    after = _qplab_bindings()
    assert all(after[key] is value for key, value in before.items())
    assert qplab.cli.main is before[("qplab.cli", "main")]


def test_a_function_that_no_longer_exists_reads_missing(monkeypatch):
    import qplab.dimension

    monkeypatch.delattr(qplab.dimension, "_grid_greedy_cover")
    with tracing.Tracer() as tracer:
        pass
    metrics = tracing.layer_metrics(tracer.spans, tracer.missing)
    grid = metrics["dimension.grid_balls"]
    assert grid["value"] is None and "_grid_greedy_cover" in grid["missing"]
    assert metrics["signal.d_points"]["value"] == 0

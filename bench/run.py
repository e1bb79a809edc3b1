"""Run one workload of the qplab benchmark and print its metrics.

  python3 bench/run.py --workload NAME --seed S --seconds T --trace 0|1 [--size tiny]

Run it from the root of a qplab checkout; it uses the sources in ``src/`` and
fails without printing a result when they are absent. Each run starts, one
after another: a few fresh processes that only set qplab up, then one workload
process that sets up and runs passes over the workload's commands for about T
seconds, at least one (``bench/worker.py``). ``setup_s`` is the median set-up
time of all of them. The loop is closed with one client: each command starts
when the previous one returns. ``QPLAB_PRECISION_BITS`` is removed from the
environment, so the default 256-bit working precision applies.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end metrics of BENCHMARK.json, from untraced passes; with
``--trace 1`` they are the per-layer metrics, medians over traced passes, and
``trace.overhead_frac``. The lines before it give the environment, every
metric with its unit and sample count, ``ops_failed_frac``, and which reports
changed against the digests in ``bench/digests.json``. The full record is kept
in ``bench/out/runs/``.

A run that has not ended ``PASS_MARGIN_S`` seconds after ``--seconds`` fails
without a result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from worker import run_path

BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"
DIGESTS = BENCH / "digests.json"
SETUP_PROBES = 6  # fresh set-up processes per run, besides the workload process
# The worker stops within about half a pass of --seconds, but runs at least one
# pass, and a traced run one untraced and one traced pass. A full-size pass
# takes about 45 s traced on a 2-vCPU KVM guest; the margin covers two such
# passes and the set-up processes.
PASS_MARGIN_S = 130.0


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def median_layers(traced: list[dict]) -> dict:
    """Per-layer metrics, each the median over the traced passes."""
    out = {}
    for name, first in traced[0]["layers"].items():
        values = [p["layers"][name]["value"] for p in traced]
        if any(v is None for v in values):
            out[name] = first
        else:
            out[name] = {"value": statistics.median(values), "unit": first["unit"]}
    return out


def compare_digests(workload: str, seed: int, size: str, first_pass: dict) -> dict:
    """Report digests of the first pass against those recorded (full size only)."""
    recorded = {}
    if size == "full" and DIGESTS.is_file():
        recorded = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed), {})
    result = {"unchanged": [], "changed": [], "unrecorded": []}
    for c in first_pass["commands"]:
        if c["name"] not in recorded:
            result["unrecorded"].append(c["name"])
        elif recorded[c["name"]] == c["digest"]:
            result["unchanged"].append(c["name"])
        else:
            result["changed"].append(c["name"])
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny runs small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    time_limit = args.seconds + PASS_MARGIN_S
    root = Path.cwd()
    if not (root / "src" / "qplab" / "__init__.py").is_file():
        print(f"error: no qplab sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "QPLAB_PRECISION_BITS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]

    def child(extra: list[str]) -> subprocess.CompletedProcess:
        remaining = time_limit - (time.perf_counter() - started)
        return subprocess.run(
            [sys.executable, str(WORKER), *common, *extra], cwd=root, env=env,
            capture_output=True, text=True, timeout=max(1.0, remaining),
        )

    result_path = run_path(args.workload, args.seed, args.trace, args.size)
    result_path.unlink(missing_ok=True)
    try:
        # the first process also writes the bytecode caches, so its time is not kept
        probes = [child(["--setup-only"]) for _ in range(SETUP_PROBES + 1)][1:]
        worker = child(["--seconds", str(args.seconds), "--trace", str(args.trace)])
    except subprocess.TimeoutExpired as exc:
        print(f"error: {' '.join(exc.cmd[1:])} did not finish within {time_limit:g} s",
              file=sys.stderr)
        return 1
    for proc in [*probes, worker]:
        if proc.returncode != 0:
            print(f"error: {' '.join(proc.args[1:])} exited {proc.returncode}\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return 1
    record = json.loads(result_path.read_text())
    setup = [json.loads(p.stdout.splitlines()[-1])["setup_s"] for p in probes] + [record["setup_s"]]
    passes, traced = record["passes"], record["traced"]
    commands = [c for p in passes + traced for c in p["commands"]]
    errors = [f"{c['name']}: {c['error']}" for c in commands if c["error"]]
    walls = [p["wall_s"] for p in passes]

    end_to_end = {
        "wall_s": {"value": statistics.median(walls), "unit": "s",
                   "samples": len(walls), "of": "median of passes"},
        "setup_s": {"value": statistics.median(setup), "unit": "s",
                    "samples": len(setup), "of": "median of processes"},
        "peak_rss_mib": {"value": record["peak_rss_mib"], "unit": "MiB",
                         "samples": 1, "of": "workload process"},
        "ops_failed_frac": {"value": len(errors) / len(commands), "unit": "ratio",
                            "samples": len(commands), "of": "commands"},
    }
    digests = compare_digests(args.workload, args.seed, args.size, passes[0])
    env_info = dict(record["env"], commit=git_commit(root))
    record.update(end_to_end=end_to_end, setup_samples=setup, digests=digests, env=env_info)

    print("env: " + json.dumps(env_info, sort_keys=True))
    for name, m in end_to_end.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} ({m['of']}: {m['samples']})")
    print(f"reports vs recorded digests: {len(digests['unchanged'])} unchanged, "
          f"changed: {digests['changed']}, unrecorded: {digests['unrecorded']}")
    for line in errors:
        print(f"failed: {line}")
    if args.trace:
        metrics = median_layers(traced)
        metrics.update(record["overhead"])
        record["layers"] = metrics
        for name, m in metrics.items():
            shown = f"{m['value']:.6g}" if m["value"] is not None else f"missing ({m['missing']})"
            print(f"{args.workload} {name} = {shown} {m['unit']} (median of {len(traced)})")
    else:
        metrics = {k: {"value": end_to_end[k]["value"], "unit": end_to_end[k]["unit"]}
                   for k in ("wall_s", "setup_s", "peak_rss_mib")}
    result_path.write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": not errors,
        "attempted": len(commands),
        "failed": len(errors),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The workload process: set qplab up, then run passes of a workload's commands.

``run.py`` starts this in a fresh process and reads the JSON record it
writes to ``run_path(...)``, beside the spans of its traced passes. Every
command is an in-process call of ``qplab.cli.main(argv)``.

  python3 bench/worker.py --workload NAME --seed S --seconds T --trace 0|1 --size full
  python3 bench/worker.py --setup-only --workload NAME --seed S --size full

With ``--setup-only`` it prints the set-up time as JSON and exits. Set-up is
importing qplab, applying the working precision, and parsing the workload's
signals with the same relation-search warning as the CLI.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from tracing import OVERHEAD, Tracer, layer_metrics

RUNS = Path(__file__).resolve().parent / "out" / "runs"


def run_path(workload: str, seed: int, trace: int, size: str, suffix: str = ".json") -> Path:
    """Where the record (or, with suffix ``.spans.json``, the spans) of a run goes."""
    tiny = "-tiny" if size == "tiny" else ""
    return RUNS / f"{workload}-s{seed}-t{trace}{tiny}{suffix}"


def set_up(workload: workloads.Workload) -> float:
    """Seconds to import qplab, apply the precision and parse the signals."""
    start = time.perf_counter()
    import qplab.cli  # noqa: F401  (imports every layer)
    from qplab.precision import set_working_precision
    from qplab.signal import parse_signal, suspected_rational_relation

    set_working_precision()
    for text in workload.signals:
        f = parse_signal(text)
        if 1 < f.n <= 4 and suspected_rational_relation(f.exponents) is not None:
            print(f"warning: exponents of {text!r} admit a small integer relation", file=sys.stderr)
    return time.perf_counter() - start


def run_command(command: workloads.Command) -> dict:
    """One CLI call: its time, its report digest and why it failed, if it did."""
    import qplab.cli

    out = Path(command.argv[command.argv.index("--out") + 1])
    out.unlink(missing_ok=True)
    sink = io.StringIO()  # verify prints PASS/FAIL lines; keep stdout for the result
    error = None
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = qplab.cli.main(list(command.argv))
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    except Exception as exc:  # a raising command is a failed operation, not a crash
        code, error = None, f"raised {type(exc).__name__}: {exc}"
    seconds, cpu_s = time.perf_counter() - start, time.process_time() - cpu_start
    data = out.read_bytes() if out.exists() else None
    if error is None and code != 0:
        error = f"exit code {code}: {sink.getvalue().strip()[-300:]}"
    if error is None:
        error = workloads.check_report(command, data)
    return {
        "name": command.name,
        "seconds": seconds,
        "cpu_s": cpu_s,
        "error": error,
        "digest": hashlib.sha256(data).hexdigest()[:16] if data else None,
    }


def run_pass(workload: workloads.Workload) -> dict:
    commands = [run_command(c) for c in workload.commands]
    return {
        "wall_s": sum(c["seconds"] for c in commands),
        "cpu_s": sum(c["cpu_s"] for c in commands),
        "commands": commands,
    }


def environment() -> dict:
    import mpmath
    import numpy
    from qplab.precision import mp

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "precision_bits": mp.prec,
        "QPLAB_PRECISION_BITS": os.environ.get("QPLAB_PRECISION_BITS"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.build(args.workload, args.seed, args.size)
    setup_s = set_up(workload)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    for command in workload.commands:
        out = command.argv[command.argv.index("--out") + 1]
        Path(out).parent.mkdir(parents=True, exist_ok=True)

    # Passes while the next one, at the mean pass time so far, would end less
    # than half a pass after --seconds; so a run measures about --seconds
    # whatever the pass length. A traced run alternates untraced and traced
    # passes, so both see the same machine state, and needs one of each.
    passes, traced, spans = [], [], []
    start = time.perf_counter()

    def more() -> bool:
        elapsed = time.perf_counter() - start
        mean_pass = elapsed / max(1, len(passes) + len(traced))
        return not passes or (args.trace and not traced) or elapsed + mean_pass / 2 < args.seconds

    while more():
        if args.trace and len(traced) < len(passes):
            with Tracer() as tracer:
                record = run_pass(workload)
            record["layers"] = layer_metrics(tracer.spans, tracer.missing)
            traced.append(record)
            spans.append(tracer.records())
        else:
            passes.append(run_pass(workload))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib,
        "env": environment(),
        "passes": passes,
        "traced": traced,
    }
    if traced:
        name, unit, _ = OVERHEAD
        overhead = statistics.median(p["wall_s"] for p in traced) / statistics.median(
            p["wall_s"] for p in passes
        ) - 1.0
        record["overhead"] = {name: {"value": overhead, "unit": unit}}
    tag = (args.workload, args.seed, args.trace, args.size)
    RUNS.mkdir(parents=True, exist_ok=True)
    run_path(*tag, suffix=".spans.json").write_text(json.dumps(spans), encoding="utf-8")
    run_path(*tag).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

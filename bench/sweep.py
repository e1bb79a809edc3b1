"""Run the benchmark over several seeds and summarise every metric per workload.

  python3 bench/sweep.py --seeds 1-10 [--traced-seed S] [--compare TRAJECTORY.json]
      [--trajectory OUT.json] [--record-digests]

Run it from the checkout root. It calls ``bench/run.py`` once per seed for
every workload of BENCHMARK.json, one process at a time, for the
``run_seconds`` there, and prints for each end-to-end metric its median,
quartiles and quartile spread (q3 - q1 over the median) next to the metric's
bound, with ``ops_failed_frac`` over all runs. ``--traced-seed`` adds one
traced run per workload for the per-layer metrics. ``--compare`` prints each
median as a share of the median in an earlier trajectory file, and flags those
worse by more than the bound. ``--trajectory`` writes the whole summary as a
trajectory point; ``--record-digests`` stores the report digests of these runs
in ``bench/digests.json``, the reference later runs compare against.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import DIGESTS, PASS_MARGIN_S, git_commit
from tracing import METRICS
from worker import run_path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, trace: int) -> dict:
    """One benchmark run; returns its full record."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True,
                          timeout=SPEC["run_seconds"] + PASS_MARGIN_S + 30)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads(run_path(workload, seed, trace, "full").read_text())
    record["result"] = result
    return record


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--compare", default=None)
    parser.add_argument("--trajectory", default=None)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    why = {w["name"]: w["why"] for w in SPEC["workloads"]}
    earlier = json.loads(Path(args.compare).read_text())["workloads"] if args.compare else {}
    moves = {m.name: m.moves for m in METRICS}
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    summary, env = {}, None
    for workload in why:
        records = [run_once(workload, seed, 0) for seed in seeds]
        env = records[-1]["env"]
        attempted = sum(r["result"]["attempted"] for r in records)
        failed = sum(r["result"]["failed"] for r in records)
        entry = {"why": why[workload], "seeds": seeds, "end_to_end": {},
                 "ops_failed_frac": {"value": failed / attempted, "unit": "ratio", "samples": attempted}}
        print(f"== {workload}: {len(seeds)} runs, ops_failed_frac {failed}/{attempted}")
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = spread([r["result"]["metrics"][name]["value"] for r in records])
            stats.update(unit=metric["unit"], bound=bound)
            entry["end_to_end"][name] = stats
            line = (f"  {name:14s} median {stats['median']:.6g} {metric['unit']}  "
                    f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {stats['spread']:.4f} "
                    f"(bound {bound}, a third {bound / 3:.4f})")
            if workload in earlier:
                ratio = stats["median"] / earlier[workload]["end_to_end"][name]["median"]
                line += f"  vs earlier {ratio:.4f}" + ("  WORSE" if ratio > 1 + bound else "")
            print(line)
        if args.traced_seed is not None:
            traced = run_once(workload, args.traced_seed, 1)
            entry["traced_seed"] = args.traced_seed
            entry["per_layer"] = {
                name: dict(m, moves=moves.get(name, "none: it measures the harness"))
                for name, m in traced["layers"].items()
            }
            for name, m in traced["layers"].items():
                print(f"  {name:40s} {m['value']!s:>22} {m['unit']}")
        if args.record_digests:
            digests.setdefault(workload, {}).update(
                {str(r["seed"]): {c["name"]: c["digest"] for c in r["passes"][0]["commands"]}
                 for r in records}
            )
        summary[workload] = entry
    if args.trajectory:
        point = {"commit": git_commit(BENCH.parent), "env": env,
                 "run_seconds": SPEC["run_seconds"], "workloads": summary}
        Path(args.trajectory).parent.mkdir(parents=True, exist_ok=True)
        Path(args.trajectory).write_text(json.dumps(point, indent=1) + "\n")
    if args.record_digests:
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

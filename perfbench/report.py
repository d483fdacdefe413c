"""Human-facing commands on top of run.py.

Every workload once, untraced and then traced, with a table per workload:

    python3 perfbench/report.py [--seed 1] [--workloads king-linear]

It prints the jobs of each part of the workload, wall_s, job_geomean_s,
setup_s, peak_rss_mb and failed_frac with their units, then each module's
share of self time in each part, the tracing overhead and the per-layer
metrics, and writes perfbench/out/report-seed<N>.json.

Steadiness: two sets of runs on the same code, each over seeds 1..RUNS:

    python3 perfbench/report.py --steady [--workloads presentations-diagonal]

For every workload and end-to-end metric it prints each set's median and
spread (quartile distance over median) and the second set's change against
the first.  It fails when a spread exceeds the metric's bound in
BENCHMARK.json, or when the two medians differ by more than the bound; it
flags spreads above a third of the bound.  Every run uses BENCHMARK.json's
run_seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = BENCH["run_seconds"]
RUNS = 10  # seeds per set, as the benchmark's acceptance asks


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed on {workload}:\n{proc.stderr}")
    if proc.stderr:
        print(proc.stderr, end="", file=sys.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((OUT / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    return {**result, "detail": detail}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summary(args) -> int:
    report = {"seed": args.seed, "seconds": SECONDS, "workloads": {}}
    status = 0
    for workload in args.workloads:
        plain = run(workload, args.seed, 0)
        failed_frac = plain["failed"] / plain["attempted"]
        status |= plain["failed"] > 0
        print(f"\n== {workload} (seed {args.seed}, {len(plain['detail']['passes'])} passes) ==")
        for part in jobs.WORKLOAD_PARTS[workload]:
            print(f"  {part} jobs: " + ", ".join(job.name for job in jobs.PARTS[part]))
        for name, metric in plain["metrics"].items():
            print(f"  {name:16s} {metric['value']:12.4f} {metric['unit']}")
        print(f"  {'failed_frac':16s} {failed_frac:12.4f} ratio "
              f"({plain['failed']} of {plain['attempted']} jobs)")
        entry = {"metrics": plain["metrics"], "failed_frac": failed_frac,
                 "machine": plain["detail"]["machine"], "commit": plain["detail"]["commit"]}
        traced = run(workload, args.seed, 1)
        status |= traced["failed"] > 0
        layers = traced["metrics"]
        overhead = traced["detail"]["tracing_overhead_s"]
        untraced = traced["detail"]["untraced_wall_s"]
        print(f"  tracing overhead: spans {overhead['spans']:+.3f} s, counts "
              f"{overhead['counts']:+.3f} s on an untraced {untraced:.3f} s")
        shares = traced["detail"]["self_time_shares"]
        for part, by_module in shares.items():
            print(f"  self-time shares in {part}: " + ", ".join(
                f"{k} {v:.1%}" for k, v in sorted(by_module.items(), key=lambda kv: -kv[1])
                if v >= 0.001))
        for name, metric in layers.items():
            if metric["value"]:
                print(f"    {name:38s} {metric['value']:14.6g} {metric['unit']}")
        entry["per_layer"] = layers
        entry["self_time_shares"] = shares
        entry["tracing_overhead_s"] = overhead
        report["workloads"][workload] = entry
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-seed{args.seed}.json").write_text(json.dumps(report, indent=1) + "\n")
    return status


def steady(args) -> int:
    seeds = list(range(1, RUNS + 1))
    sets = []
    for label in ("first", "second"):
        values = {w: {} for w in args.workloads}
        for seed in seeds:
            for workload in args.workloads:
                started = time.monotonic()
                result = run(workload, seed, 0)
                if result["failed"]:
                    raise SystemExit(f"{workload} seed {seed}: {result['failed']} jobs failed")
                for name, metric in result["metrics"].items():
                    values[workload].setdefault(name, []).append(metric["value"])
                print(f"{label} set, seed {seed}, {workload}: "
                      f"{time.monotonic() - started:.1f} s", file=sys.stderr)
        sets.append(values)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    problems = []
    print(f"{'workload':14s} {'metric':14s} {'median 1':>10s} {'median 2':>10s} "
          f"{'spread 1':>8s} {'spread 2':>8s} {'change':>7s} {'bound':>6s}")
    for workload in args.workloads:
        for name, bound in bounds.items():
            first, second = sets[0][workload][name], sets[1][workload][name]
            m1, m2 = statistics.median(first), statistics.median(second)
            s1, s2 = spread(first), spread(second)
            change = (m2 - m1) / m1
            flags = []
            if max(s1, s2) > bound:
                problems.append(f"{workload} {name}: spread {max(s1, s2):.3f} > {bound}")
                flags.append("SPREAD")
            elif max(s1, s2) > bound / 3:
                flags.append("spread>bound/3")
            if abs(change) > bound:
                problems.append(f"{workload} {name}: medians differ by {change:+.3f}")
                flags.append("DRIFT")
            print(f"{workload:14s} {name:14s} {m1:10.4f} {m2:10.4f} {s1:8.3f} {s2:8.3f} "
                  f"{change:+7.3f} {bound:6.2f} {' '.join(flags)}")
    OUT.mkdir(exist_ok=True)
    (OUT / "steady.json").write_text(json.dumps({"seeds": seeds, "sets": sets}, indent=1) + "\n")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--steady", action="store_true")
    args = parser.parse_args(argv)
    args.workloads = args.workloads.split(",")
    unknown = set(args.workloads) - {w["name"] for w in BENCH["workloads"]}
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")
    return steady(args) if args.steady else summary(args)


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload king-linear --seed 3 --seconds 60 --trace 0

Load model: one client in a closed loop.  Each pass is a fresh worker
process (worker.py) that sets up, then runs the workload's jobs one after
another, each starting when the previous one returns.  With ``--trace 0``
the run first spawns SETUP_SAMPLES set-up-only workers, then repeats passes
while another pass is predicted to end within ``--seconds`` (at least one),
and reports the end-to-end metrics:

    wall_s         sum over jobs of the job's median time over passes
    job_geomean_s  geometric mean over jobs of those medians
    setup_s        median over every worker of spawn -> first job
    peak_rss_mb    median over passes of the worker's peak RSS

With ``--trace 1`` it runs one untraced pass, one spans pass and one
counting pass (see tracer.py) and reports the per-layer metrics.  The
result file adds each module's share of self time in each part of the
workload (see jobs.PARTS) and the tracing overhead: the spans pass's job time minus the untraced pass's.

Every worker runs under a wall-clock cap enforced from this process, so a
runaway job is killed and counted as failed instead of hanging the run.
Each run writes a result file to perfbench/out/ holding the machine, seed,
commit, every pass's job times and the metrics.  The last line of standard
output is the JSON summary {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("king-linear", "presentations-diagonal")

SETUP_SAMPLES = 9
PASS_CAP_S = 90.0   # the longest pass takes about 20 s
RUN_LIMIT_S = 170.0  # every run, caps included, ends within this


def run_worker(args: list[str], cap: float) -> dict:
    """Spawn one worker under a wall-clock cap and collect its records."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            capture_output=True, text=True, timeout=max(cap, 0.1), env=env, cwd=ROOT,
        )
        stdout, stderr, code, timed_out = proc.stdout, proc.stderr, proc.returncode, False
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        stdout = exc.stdout.decode() if isinstance(exc.stdout, bytes) else (exc.stdout or "")
        stderr, code, timed_out = "", None, True
    records = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    ready = next((r for r in records if "setup_done" in r), None)
    end = next((r for r in records if "end" in r), None)
    return {
        "setup_s": ready["setup_done"] - spawned if ready else None,
        "job_names": ready["jobs"] if ready else None,
        "jobs": [r for r in records if "job" in r],
        "maxrss_kb": end["maxrss_kb"] if end else None,
        "layers": end["layers"] if end else None,
        "shares": end["shares"] if end else None,
        "exit_code": code,
        "timed_out": timed_out,
        "stderr_tail": stderr[-2000:],
        "seconds": time.monotonic() - spawned,
    }


def pass_failures(result: dict, job_names: list[str]) -> int:
    """Jobs that gave a wrong answer or raised, plus every job the pass did
    not finish (cut off by the cap, or lost to a crashed worker)."""
    wrong = sum(1 for j in result["jobs"] if j["problems"])
    return wrong + len(job_names) - len(result["jobs"])


def job_seconds(result: dict) -> float:
    return sum(j["seconds"] for j in result["jobs"])


def machine_info() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": cpu}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
    return proc.stdout.strip() or "unknown"


def untraced(workload: str, seed: int, seconds: float, started: float) -> tuple[dict, dict]:
    setups, passes = [], []
    job_names = None
    for _ in range(SETUP_SAMPLES):
        remaining = RUN_LIMIT_S - (time.monotonic() - started)
        result = run_worker([workload, str(seed), "setup"], min(PASS_CAP_S, remaining))
        if result["setup_s"] is None:
            raise SystemExit(f"set-up failed (exit {result['exit_code']}):\n{result['stderr_tail']}")
        setups.append(result["setup_s"])
        job_names = result["job_names"]
    measured = time.monotonic()
    while True:
        remaining = RUN_LIMIT_S - (time.monotonic() - started)
        result = run_worker([workload, str(seed), "plain"], min(PASS_CAP_S, remaining))
        passes.append(result)
        if result["setup_s"] is not None:
            setups.append(result["setup_s"])
        # start another pass only if it should end within the measuring time
        predicted = max(p["seconds"] for p in passes)
        elapsed = time.monotonic() - measured
        spare = RUN_LIMIT_S - (time.monotonic() - started)
        if elapsed + predicted > seconds or spare < 1.5 * predicted:
            break
    medians = {}
    for name in job_names:
        times = [j["seconds"] for p in passes for j in p["jobs"] if j["job"] == name]
        if times:
            medians[name] = statistics.median(times)
    rss = [p["maxrss_kb"] for p in passes if p["maxrss_kb"] is not None]
    metrics = {
        "wall_s": (sum(medians.values()), "s"),
        "job_geomean_s": (math.exp(statistics.fmean(math.log(t) for t in medians.values()))
                          if medians else 0.0, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss) / 1024 if rss else 0.0, "MB"),
    }
    detail = {"job_names": job_names, "setup_samples": setups, "job_medians_s": medians,
              "passes": passes}
    return metrics, detail


def traced(workload: str, seed: int, started: float) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{workload}-seed{seed}.json.gz"
    runs = {}
    for mode in ("plain", "spans", "counts"):
        remaining = RUN_LIMIT_S - (time.monotonic() - started)
        extra = [str(spans_file)] if mode == "spans" else []
        runs[mode] = run_worker([workload, str(seed), mode, *extra], min(PASS_CAP_S, remaining))
    if runs["plain"]["job_names"] is None:
        raise SystemExit(f"set-up failed:\n{runs['plain']['stderr_tail']}")
    layers = {}
    for mode in ("spans", "counts"):
        layers.update({name: tuple(v) for name, v in (runs[mode]["layers"] or {}).items()})
    overhead = job_seconds(runs["spans"]) - job_seconds(runs["plain"])
    detail = {
        "job_names": runs["plain"]["job_names"],
        "passes": list(runs.values()),
        "tracing_overhead_s": {"spans": overhead,
                               "counts": job_seconds(runs["counts"]) - job_seconds(runs["plain"])},
        "untraced_wall_s": job_seconds(runs["plain"]),
        "self_time_shares": runs["spans"]["shares"],
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return layers, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "invtheory" / "__init__.py").is_file():
        print(f"no invtheory sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    if args.trace:
        metrics, detail = traced(args.workload, args.seed, started)
    else:
        metrics, detail = untraced(args.workload, args.seed, args.seconds, started)
    job_names = detail["job_names"]
    attempted = len(job_names) * len(detail["passes"])
    failed = sum(pass_failures(p, job_names) for p in detail["passes"])
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(), "machine": machine_info(),
        "failed_frac": failed / attempted, **summary, **detail,
    }
    result_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1) + "\n")
    for p in detail["passes"]:
        for j in p["jobs"]:
            if j["problems"]:
                print(f"FAILED {j['job']}: {'; '.join(j['problems'])}", file=sys.stderr)
        if p["timed_out"]:
            print(f"a worker hit its wall-clock cap after {p['seconds']:.1f} s and was killed",
                  file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

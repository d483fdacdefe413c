"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED MODE [SPANS_FILE]

MODE is ``setup`` (stop after set-up), ``plain`` (run every job untraced),
``spans`` or ``counts`` (install the tracer's wrappers first; see
tracer.py).  The worker prints one JSON object per line and flushes each
line, so a parent that kills it at the run cap still sees every job that
finished:

    {"setup_done": <time.monotonic() after set-up>, "jobs": [NAME, ...]}
    {"job": NAME, "seconds": S, "problems": [...]}      one per job
    {"end": true, "maxrss_kb": K, "layers": {...}, "shares": {...}}

Set-up is importing the package and building every job's action; the
parent times it from just before spawning this process.  Each job's call is
timed alone; its golden check runs right after, outside the timed region
and with tracing paused.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    tracer = None
    if mode in ("spans", "counts"):
        import tracer as tracing

        tracer = tracing.Tracer(counting=mode == "counts")
        tracer.install()
        tracer.job = "setup"
    import jobs

    prepared = [(job.name, job.make(seed)) for job in jobs.WORKLOADS[workload]]
    emit({"setup_done": time.monotonic(), "jobs": [name for name, _ in prepared]})
    if mode == "setup":
        return 0
    job_seconds = {}
    for name, job in prepared:
        gc.collect()
        if tracer is not None:
            tracer.job = name
        start = time.perf_counter()
        try:
            result = job.run()
        except Exception as exc:  # a raising job is a failed job, not a failed pass
            seconds = time.perf_counter() - start
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
            try:
                problems = job.check(result)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if tracer is not None:
                tracer.enabled = True
            del result
        job_seconds[name] = seconds
        emit({"job": name, "seconds": seconds, "problems": problems})
    layers = shares = None
    if tracer is not None:
        tracer.enabled = False
        layers = tracer.metrics()
        if not tracer.counting:
            shares = tracer.shares(job_seconds, jobs.PART_OF)
            if len(argv) > 3:
                tracer.write(Path(argv[3]))
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit({"end": True, "maxrss_kb": maxrss_kb, "layers": layers, "shares": shares})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

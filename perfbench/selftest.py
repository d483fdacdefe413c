"""Self-test of the benchmark's own checks and accounting.

    python3 perfbench/selftest.py

Shows that a wrong answer counts as a failure: for one job of every kind,
the golden check passes the real answer and rejects a corrupted one, and
run.py's accounting turns a rejected, raising or unfinished job into a
failure.  Then shows the wall-clock cap: a worker given a cap far below its
pass time is killed from outside, and every job it did not finish counts as
failed.  Also checks that design.json describes every part and every
per-layer metric.  Exits non-zero if anything is off.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import invtheory as it  # noqa: E402
import jobs  # noqa: E402
import run as runner  # noqa: E402

SEED = 3
failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        failures.append(what)


def job(part: str, name: str):
    found = [j for j in jobs.PARTS[part] if j.name == name]
    return found[0].make(SEED)


def corrupted(label: str, prepared, wrong) -> None:
    """The real answer passes; the corrupted one is rejected."""
    answer = prepared.run()
    expect(prepared.check(answer) == [], f"{label}: real answer passes")
    expect(prepared.check(wrong(answer)) != [], f"{label}: wrong answer is rejected")


def with_generators(inv, generators):
    return it.RingOfInvariants(inv.action, generators, inv.method)


def main() -> int:
    corrupted("king A4, generator dropped", job("king", "king-A4"),
              lambda inv: with_generators(inv, inv.generators[:-1]))

    def swap_for_variable(inv):
        ring = inv.ring
        gens = list(inv.generators)
        gens[0] = ring.variable(0)  # same degree 1, not invariant
        return with_generators(inv, gens)

    corrupted("linear A4, generator not invariant", job("linear-verify", "linear_algebra-A4"),
              swap_for_variable)

    def failing_degree(report):
        bad = report[2]
        report[2] = it.DegreeCheck(bad.degree, bad.expected, bad.actual - 1, False)
        return report

    corrupted("verify C5, one degree fails", job("linear-verify", "verify-C5-d6"), failing_degree)
    corrupted("Molien S5, series changed", job("linear-verify", "molien-S5"),
              lambda series: series + it.RationalFunction(it.UniPoly((0, 1))))
    corrupted("Hilbert rewrite A4, numerator changed", job("linear-verify", "hilbert-rewrite-A4"),
              lambda num: num + it.UniPoly((0, Fraction(1))))

    def extra_relation(result):
        inv, rels = result
        return inv, rels[:-1] + [rels[0] + rels[0].ring.variable(0)]

    corrupted("presentation Z5, relation replaced", job("presentations", "presentation-Z5-123"),
              extra_relation)
    corrupted("presentation Z5, relation dropped", job("presentations", "presentation-Z5-123"),
              lambda result: (result[0], result[1][:-1]))
    corrupted("SL2 cubic Hilbert ideal, generator scaled by a variable",
              job("presentations", "hilbert_ideal-sl2-cubic"),
              lambda polys: [polys[0] * polys[0].ring.variable(0)])
    corrupted("diagonal GF(9), monomial dropped", job("diagonal", "diagonal-paper-torus-gf9"),
              lambda monos: monos[1:])
    corrupted("diagonal GF(9), monomial not invariant",
              job("diagonal", "diagonal-paper-torus-gf9"),
              lambda monos: monos[:-1] + [it.Monomial((1, 0, 0, 0))])

    # run.py's accounting: problems, a raise, and unfinished jobs all count
    names = ["a", "b", "c", "d"]
    fake_pass = {"jobs": [{"job": "a", "seconds": 0.1, "problems": []},
                          {"job": "b", "seconds": 0.1, "problems": ["degrees [1], expected [2]"]},
                          {"job": "c", "seconds": 0.1, "problems": ["raised ValueError: x"]}]}
    expect(runner.pass_failures(fake_pass, names) == 3,
           "a wrong answer, a raise and an unfinished job are three failures")

    # the cap: a king-linear pass takes about 20 s, a 1 s cap kills it from outside
    started = time.monotonic()
    capped = runner.run_worker(["king-linear", str(SEED), "plain"], 1.0)
    waited = time.monotonic() - started
    job_names = [j.name for j in jobs.WORKLOADS["king-linear"]]
    expect(capped["timed_out"], "a worker over its cap is killed")
    expect(waited < 10, f"the capped worker was stopped after {waited:.1f} s")
    unfinished = len(job_names) - len(capped["jobs"])
    expect(unfinished > 0 and runner.pass_failures(capped, job_names) >= unfinished,
           f"the {unfinished} jobs it did not finish count as failed")

    expect(runner.WORKLOADS == tuple(jobs.WORKLOADS), "run.py accepts exactly the workloads jobs.py defines")
    design = json.loads((HERE / "design.json").read_text())
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expect(list(design["parts"]) == list(jobs.PARTS), "design.json describes every part")
    expect(list(design["per_layer"]) == [m["name"] for m in bench["per_layer"]],
           "design.json describes every per-layer metric")

    print(f"\n{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

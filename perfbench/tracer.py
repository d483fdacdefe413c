"""Per-module tracing for the benchmark, installed from outside the package.

Two kinds of pass, each in its own worker process:

* spans pass: every boundary function in SPANS is replaced by a wrapper
  that records a span (name, start, end, parent span, job).  A module-level
  function is rebound in every ``invtheory`` module that holds it, because
  ``from .poly import substitute`` gives each importing module its own
  name.  Self time is a span's duration minus its children's durations.
* counting pass: the hot per-term operations (Field arithmetic,
  TermOrder.key, Polynomial.__mul__/__add__) and a few boundaries whose
  results carry counters get count-only wrappers.  Keeping them out of the
  spans pass stops their cost from inflating span self times.  Every count
  repeats exactly for a given seed.

Spans stay in memory and are written out once, when the pass ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# span name -> (invtheory submodule, function or Class.method)
SPANS = {
    "finite.invariants_king": ("finite", "invariants_king"),
    "finite.invariants_linear_algebra": ("finite", "invariants_linear_algebra"),
    "finite.reynolds": ("finite", "reynolds"),
    "finite.act_on": ("finite", "act_on"),
    "finite.group_closure": ("finite", "FiniteGroupAction.group_closure"),
    "finite.invariant_space_basis": ("finite", "invariant_space_basis"),
    "finite.molien_series": ("finite", "molien_series"),
    "poly.substitute": ("poly", "substitute"),
    "groebner.reduce": ("groebner", "_IncrementalGroebner.reduce"),
    "groebner.add_generator": ("groebner", "_IncrementalGroebner.add_generator"),
    "groebner.process_to": ("groebner", "_IncrementalGroebner.process_to"),
    "groebner.buchberger": ("groebner", "buchberger"),
    "groebner.elimination_ideal": ("groebner", "elimination_ideal"),
    "groebner.normal_form": ("groebner", "normal_form"),
    "linalg.rref": ("linalg", "rref"),
    "linalg.nullspace": ("linalg", "nullspace"),
    "ratfunc.rational_function_sum": ("ratfunc", "rational_function_sum"),
    "diagonal.invariants": ("diagonal", "diagonal_invariants"),
    "diagonal.literal": ("diagonal", "diagonal_invariants_literal"),
    "diagonal.torus_hilbert_basis": ("diagonal", "torus_hilbert_basis"),
    "reductive.hilbert_ideal": ("reductive", "hilbert_ideal"),
    "reductive.invariant_basis": ("reductive", "reductive_invariant_basis"),
    "reductive.invariants": ("reductive", "reductive_invariants"),
    "rings.invariant_ring": ("rings", "invariant_ring"),
    "rings.defining_ideal": ("rings", "defining_ideal"),
    "rings.verify_generators": ("rings", "verify_generators"),
    "rings.hilbert_series_rewrite": ("rings", "hilbert_series_rewrite"),
    "parsing.parse_polynomial": ("parsing", "parse_polynomial"),
}

# Modules whose self time is reported as a share of the jobs' time.  fields
# and orders are reached only through count-only wrappers, so their time is
# part of their callers' self time.
SHARED_MODULES = ("finite", "poly", "groebner", "linalg", "ratfunc",
                  "diagonal", "reductive", "rings")

# Every Field method a per-term loop calls; nested calls (coerce -> from_pair,
# div -> mul and inv) each count.
FIELD_OPS = ("add", "sub", "mul", "neg", "inv", "div", "is_zero", "coerce",
             "from_pair", "zero", "one")


def patch(module: str, attr: str, make_wrapper) -> None:
    """Replace a package function or method by make_wrapper(original)."""
    mod = importlib.import_module(f"invtheory.{module}")
    owner_name, _, name = attr.rpartition(".")
    if owner_name:
        owner = getattr(mod, owner_name)
        original = owner.__dict__[name]
        wrapper = make_wrapper(original)
        for alias, value in list(owner.__dict__.items()):  # e.g. __rmul__ = __mul__
            if value is original:
                setattr(owner, alias, wrapper)
        return
    original = getattr(mod, name)
    wrapper = make_wrapper(original)
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded_name == "invtheory" or loaded_name.startswith("invtheory."):
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)


class Tracer:
    def __init__(self, counting: bool):
        self.counting = counting
        self.enabled = True
        self.job = None
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()
        self._closures: set[int] = set()
        self._king_depth = 0

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        importlib.import_module("invtheory")
        if self.counting:
            self._install_counters()
        else:
            for span_name, (module, attr) in SPANS.items():
                patch(module, attr, lambda fn, s=span_name: self._span_wrapper(s, fn))

    def _span_wrapper(self, span_name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            record = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def _counter(self, fn, before=None, after=None):
        """Count-only wrapper: before(args) runs first, after(args, result) last."""

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _install_counters(self) -> None:
        counts, peaks = self.counts, self.peaks

        def field_op(fn):
            def wrapper(field, *args):
                if self.enabled:
                    counts["fields.ops.qq" if field.p is None else "fields.ops.gfp"] += 1
                return fn(field, *args)
            return wrapper

        for op in FIELD_OPS:
            patch("fields", f"Field.{op}", field_op)

        def bump(name):
            def before(args):
                counts[name] += 1
            return before

        patch("orders", "TermOrder.key", lambda fn: self._counter(fn, bump("orders.key.calls")))
        patch("poly", "Polynomial.__add__", lambda fn: self._counter(fn, bump("poly.add.calls")))

        def mul_before(args):
            a, b = args
            counts["poly.mul.calls"] += 1
            counts["poly.mul.term_pairs"] += len(a.terms) * (
                len(b.terms) if hasattr(b, "terms") else 1)

        patch("poly", "Polynomial.__mul__", lambda fn: self._counter(fn, mul_before))

        def reduce_after(args, result):
            counts["groebner.reduce.count_calls"] += 1
            if not result:
                counts["groebner.reduce.zero"] += 1
            else:
                bits = max(abs(v).bit_length() for v in result.values())
                peaks["groebner.coeff_bits_peak"] = max(peaks["groebner.coeff_bits_peak"], bits)

        def basis_after(args, result):
            size = len(args[0].elements)
            peaks["groebner.basis_peak"] = max(peaks["groebner.basis_peak"], size)

        patch("groebner", "_IncrementalGroebner.reduce",
              lambda fn: self._counter(fn, after=reduce_after))
        patch("groebner", "_IncrementalGroebner.add_generator",
              lambda fn: self._counter(fn, after=basis_after))
        patch("groebner", "_IncrementalGroebner.process_to",
              lambda fn: self._counter(fn, after=basis_after))

        def closure_after(args, result):
            if id(args[0]) not in self._closures:
                self._closures.add(id(args[0]))
                counts["finite.closure_size"] += len(result)

        patch("finite", "FiniteGroupAction.group_closure",
              lambda fn: self._counter(fn, after=closure_after))

        def king_before(args):
            self._king_depth += 1

        def king_after(args, result):
            self._king_depth -= 1
            counts["finite.king.accepted"] += len(result)

        def reynolds_before(args):
            if self._king_depth:
                counts["finite.king.candidates"] += 1

        patch("finite", "invariants_king",
              lambda fn: self._counter(fn, king_before, king_after))
        patch("finite", "reynolds", lambda fn: self._counter(fn, reynolds_before))

        def rref_before(args):
            rows = args[0]
            counts["linalg.rref.cells"] += len(rows) * (len(rows[0]) if len(rows) else 0)

        patch("linalg", "rref", lambda fn: self._counter(fn, rref_before))

        def basis_size(args, result):
            counts["diagonal.basis_size"] += len(result)

        patch("diagonal", "diagonal_invariants", lambda fn: self._counter(fn, after=basis_size))
        patch("diagonal", "diagonal_invariants_literal",
              lambda fn: self._counter(fn, after=basis_size))

    # -- results ----------------------------------------------------------------

    def _self_times(self) -> list[float]:
        """Each span's duration minus its children's durations."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [end - start - child_time[i]
                for i, (name, start, end, parent, job) in enumerate(self.spans)]

    def span_stats(self):
        """Per span name: calls, self seconds and total seconds; spans made
        during set-up are keyed ``setup.<name>``."""
        spans = self.spans
        stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        spairs = 0
        for (name, start, end, parent, job), self_s in zip(spans, self._self_times()):
            key = ("setup." if job == "setup" else "") + name
            entry = stats[key]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += self_s
            if name == "groebner.reduce" and parent >= 0 and spans[parent][0] == "groebner.process_to":
                spairs += 1
        return dict(stats), spairs

    def metrics(self) -> dict:
        """Flat per-layer metrics from this pass: {name: (value, unit)}."""
        return self._count_metrics() if self.counting else self._span_metrics()

    def _span_metrics(self) -> dict:
        stats, spairs = self.span_stats()

        def get(name, field):
            return stats.get(name, {}).get(field, 0)

        out = {}
        for name in ("finite.reynolds", "finite.act_on", "poly.substitute",
                     "groebner.reduce", "linalg.rref", "reductive.invariant_basis"):
            out[f"{name}.calls"] = (get(name, "calls"), "count")
        for name in ("finite.reynolds", "finite.act_on", "finite.invariant_space_basis",
                     "finite.molien_series", "poly.substitute", "groebner.reduce",
                     "groebner.process_to", "groebner.buchberger",
                     "groebner.elimination_ideal", "groebner.normal_form",
                     "linalg.rref", "linalg.nullspace", "ratfunc.rational_function_sum",
                     "diagonal.invariants", "diagonal.literal",
                     "diagonal.torus_hilbert_basis", "reductive.hilbert_ideal",
                     "reductive.invariant_basis", "rings.defining_ideal",
                     "rings.verify_generators"):
            out[f"{name}.self_s"] = (get(name, "self_s"), "s")
        out["finite.group_closure.s"] = (get("finite.group_closure", "total_s"), "s")
        out["groebner.spairs"] = (spairs, "count")
        out["parsing.parse_polynomial.self_s"] = (
            get("setup.parsing.parse_polynomial", "self_s")
            + get("parsing.parse_polynomial", "self_s"), "s")
        return out

    def shares(self, job_seconds: dict, part_of: dict) -> dict:
        """Per part of the workload: each module's span self time over the
        part's job time, and the share no span covers."""
        module_self = defaultdict(Counter)
        for (name, start, end, parent, job), self_s in zip(self.spans, self._self_times()):
            if job in part_of:
                module_self[part_of[job]][name.split(".")[0]] += self_s
        part_seconds = Counter()
        for job, seconds in job_seconds.items():
            part_seconds[part_of[job]] += seconds
        out = {}
        for part, total in part_seconds.items():
            if total:
                selfs = module_self[part]
                out[part] = {m: selfs[m] / total for m in SHARED_MODULES}
                out[part]["outside_spans"] = max(total - sum(selfs.values()), 0.0) / total
        return out

    def _count_metrics(self) -> dict:
        c, peaks = self.counts, self.peaks
        out = {name: (c[name], "count") for name in (
            "fields.ops.qq", "fields.ops.gfp", "orders.key.calls", "poly.mul.calls",
            "poly.mul.term_pairs", "poly.add.calls", "linalg.rref.cells",
            "finite.closure_size", "diagonal.basis_size")}
        candidates = c["finite.king.candidates"]
        out["finite.king.accept_frac"] = (
            c["finite.king.accepted"] / candidates if candidates else 0.0, "ratio")
        reduces = c["groebner.reduce.count_calls"]
        out["groebner.reduce.zero_frac"] = (
            c["groebner.reduce.zero"] / reduces if reduces else 0.0, "ratio")
        out["groebner.basis_peak"] = (peaks["groebner.basis_peak"], "count")
        out["groebner.coeff_bits_peak"] = (peaks["groebner.coeff_bits_peak"], "bit")
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt") as out:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, out)

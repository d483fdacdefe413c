"""Batch front end: read a JSON action description, run one computation,
print the result as text or JSON.

Exit codes: 0 success, 1 malformed input or flags, 2 domain error raised by
the underlying computation (the error class name is printed).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .diagonal import DiagonalAction, is_prime_power
from .errors import InvariantTheoryError
from .fields import Field, QQ, prime_field
from .finite import FiniteGroupAction, molien_series, permutation_matrix
from .poly import format_polynomial, polynomial_ring
from .ratfunc import RationalFunction, UniPoly
from .reductive import LinearlyReductiveAction, hilbert_ideal
from .rings import (
    _relation_names,
    defining_ideal,
    hilbert_series_rewrite,
    invariant_ring,
    verify_generators,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="invariant-ring",
        description="Compute generators of rings of invariants described "
        "by a JSON action file.",
    )
    sub = parser.add_subparsers(dest="command", metavar="subcommand")
    for name, driver in _DRIVERS.items():
        cmd = sub.add_parser(name, help=driver.__doc__)
        cmd.add_argument("input", help="action description JSON file")
        cmd.add_argument(
            "--output", choices=("json", "text"), default="text",
            help="output format (default text)",
        )
        if name in ("invariants", "defining-ideal", "verify", "hilbert-ideal"):
            cmd.add_argument(
                "--algorithm", choices=("king", "linear"), default=None,
                help="finite-group algorithm (default king)",
            )
            cmd.add_argument(
                "--literal", action="store_true",
                help="literal invariance over F_q for diagonal actions "
                "(q from the literalQ field)",
            )
            if name == "verify":
                cmd.add_argument(
                    "--max-degree", dest="depth", metavar="MAX_DEGREE",
                    type=int, default=6,
                    help="report depth (default 6)",
                )
            else:
                cmd.add_argument(
                    "--max-degree", type=int, default=None,
                    help="degree cap (finite actions)",
                )
        if name == "hilbert-series":
            cmd.add_argument(
                "--degrees", required=True,
                help="comma-separated positive integers, e.g. 1,2,3,4",
            )
    return parser


# ---------------------------------------------------------------------------
# input file
# ---------------------------------------------------------------------------


def _fail(field: str, problem: str):
    raise _UsageError(f"{field}: {problem}")


def _load_field(data: dict) -> Field:
    spec = data.get("field")
    if not isinstance(spec, dict) or "type" not in spec:
        _fail("field", 'expected {"type": "Q"} or {"type": "Fp", "p": <prime>}')
    if spec["type"] == "Q":
        return QQ
    if spec["type"] == "Fp":
        p = spec.get("p")
        if not isinstance(p, int):
            _fail("field.p", "a prime integer is required")
        try:
            return prime_field(p)
        except ValueError as exc:
            _fail("field.p", str(exc))
    _fail("field.type", f"unknown field type {spec['type']!r}")


def _load_ring(field: Field, names, label: str):
    """The ring on a JSON list of variable names; bad names fail as ``label``."""
    if (
        not isinstance(names, list)
        or not names
        or not all(isinstance(v, str) for v in names)
    ):
        _fail(label, "expected a non-empty list of variable names")
    try:
        return polynomial_ring(field, names)
    except ValueError as exc:
        _fail(label, str(exc))


def _finite_generator(ring, entry, index: int):
    label = f"action.generators[{index}]"
    if isinstance(entry, str):
        try:
            return permutation_matrix(entry)
        except InvariantTheoryError as exc:
            _fail(label, str(exc))
    if not isinstance(entry, list):
        _fail(label, "expected a matrix or a one-line permutation string")
    n = ring.n
    if len(entry) != n or any(
        not isinstance(row, list) or len(row) != n for row in entry
    ):
        _fail(label, f"matrix must be {n}x{n} to act on {n} variables")
    rows = []
    for row in entry:
        out = []
        for value in row:
            try:
                out.append(ring.field.coerce(value))
            except (InvariantTheoryError, ValueError, TypeError) as exc:
                _fail(label, f"bad entry {value!r}: {exc}")
        rows.append(tuple(out))
    return tuple(rows)


def _load_action(data: dict):
    """Build the action object; returns (action, kind, literal_q)."""
    field = _load_field(data)
    ring = _load_ring(field, data.get("variables"), "variables")
    spec = data.get("action")
    if not isinstance(spec, dict) or "kind" not in spec:
        _fail("action", "expected an object with a 'kind' key")
    kind = spec["kind"]
    if kind == "finite":
        gens = spec.get("generators")
        if not isinstance(gens, list) or not gens:
            _fail("action.generators", "expected a non-empty list of matrices")
        mats = [_finite_generator(ring, g, i) for i, g in enumerate(gens)]
        try:
            return FiniteGroupAction(ring, mats), kind, None
        except InvariantTheoryError as exc:
            _fail("action.generators", str(exc))
    if kind == "diagonal":
        r = spec.get("torusRank", 0)
        orders = spec.get("cyclicOrders", [])
        weights = spec.get("weights")
        # type(...) is int: JSON true and false load as bools, an int subclass
        if type(r) is not int or r < 0:
            _fail("action.torusRank", "expected a non-negative integer")
        if not isinstance(orders, list) or not all(
            type(d) is int and d >= 2 for d in orders
        ):
            _fail("action.cyclicOrders", "expected a list of integers >= 2")
        if not isinstance(weights, list) or not all(
            isinstance(row, list) and all(type(w) is int for w in row)
            for row in weights
        ):
            _fail("action.weights", "expected a matrix of integers")
        literal_q = spec.get("literalQ")
        if literal_q is not None:
            try:
                prime_power = isinstance(literal_q, int) and is_prime_power(literal_q)
            except ValueError as exc:  # too large to decide
                _fail("action.literalQ", str(exc))
            if not prime_power:
                _fail("action.literalQ", "expected a prime power >= 2")
        try:
            return DiagonalAction(ring, r, orders, weights), kind, literal_q
        except InvariantTheoryError as exc:
            _fail("action.weights", str(exc))
    if kind == "reductive":
        group_ring = _load_ring(field, spec.get("groupVariables"), "action.groupVariables")
        ideal = spec.get("groupIdeal")
        if not isinstance(ideal, list) or not ideal or not all(isinstance(s, str) for s in ideal):
            _fail("action.groupIdeal", "expected a non-empty list of polynomials")
        matrix = spec.get("actionMatrix")
        n = ring.n
        if not isinstance(matrix, list) or len(matrix) != n or any(
            not isinstance(row, list) or len(row) != n
            or not all(isinstance(s, str) for s in row)
            for row in matrix
        ):
            _fail("action.actionMatrix", f"expected an {n}x{n} matrix of polynomials")
        try:
            parsed_ideal = [group_ring.parse(s) for s in ideal]
        except InvariantTheoryError as exc:
            _fail("action.groupIdeal", str(exc))
        try:
            parsed_matrix = [
                [group_ring.parse(s) for s in row] for row in matrix
            ]
        except InvariantTheoryError as exc:
            _fail("action.actionMatrix", str(exc))
        try:
            action = LinearlyReductiveAction(
                group_ring, parsed_ideal, parsed_matrix, ring
            )
        except (InvariantTheoryError, ValueError) as exc:
            _fail("action", str(exc))
        return action, kind, None
    _fail("action.kind", f"unknown kind {kind!r}")


def _read_input(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise _UsageError(f"{path}: top level must be a JSON object")
    return _load_action(data)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _factor_into_cyclotomic_products(poly: UniPoly):
    """Multiset {a: e} with poly = prod (1 - T^a)^e, or None."""
    if poly.is_zero():
        return None

    def search(work: UniPoly, cap: int):
        if work.degree() == 0:
            return {} if work.coefficient(0) == 1 else None
        for a in range(min(cap, work.degree()), 0, -1):
            quotient, remainder = divmod(work, UniPoly.one_minus_t_power(a))
            if remainder.is_zero():
                sub = search(quotient, a)
                if sub is not None:
                    sub[a] = sub.get(a, 0) + 1
                    return sub
        return None

    return search(poly, poly.degree())


def _format_factored(factors: dict) -> str:
    parts = []
    for a in sorted(factors):
        base = "(1-T)" if a == 1 else f"(1-T^{a})"
        e = factors[a]
        parts.append(base if e == 1 else f"{base}^{e}")
    return "".join(parts)


def _series_strings(series: RationalFunction) -> dict:
    num, den = series.num, series.den
    num_str = str(num)
    factors = _factor_into_cyclotomic_products(den)
    if den.degree() == 0 and den.coefficient(0) == 1:
        text = num_str if num.degree() == 0 else f"({num_str})"
    else:
        den_str = _format_factored(factors) if factors else f"({den})"
        head = num_str if num_str == "1" else f"({num_str})"
        text = f"{head}/{den_str}"
    return {
        "numerator": num_str,
        "denominator": str(den),
        "series": text,
    }


def _generator_list(polys) -> dict:
    """The JSON fields of a list of generators, in their printed order."""
    strings = [format_polynomial(f) for f in polys]
    return {
        "count": len(strings),
        "degrees": [f.degree() for f in polys],
        "generators": strings,
    }


def _indented(strings) -> list[str]:
    return [f"  {s}" for s in strings]


# ---------------------------------------------------------------------------
# subcommand drivers: each returns (JSON payload, text lines, exit code); the
# payload holds only the driver's own keys, run_command adds the shared ones
# ---------------------------------------------------------------------------


def _ring_options(args, kind: str, literal_q) -> dict:
    """invariant_ring keywords for the flags that were set; a flag the action
    kind does not take is a usage error."""
    options = {}
    if args.algorithm is not None:
        if kind != "finite":
            raise _UsageError("--algorithm applies only to finite actions")
        options["algorithm"] = args.algorithm
    if args.literal:
        if kind != "diagonal":
            raise _UsageError("--literal applies only to diagonal actions")
        if literal_q is None:
            raise _UsageError("action.literalQ: required when --literal is given")
        options["literal_q"] = literal_q
    # verify's --max-degree is its report depth, kept apart as args.depth
    if getattr(args, "max_degree", None) is not None:
        if kind != "finite":
            raise _UsageError("--max-degree applies only to finite actions")
        options["max_degree"] = args.max_degree
    return options


def _cmd_invariants(args, action, kind, literal_q):
    """minimal generators of the invariant ring"""
    inv = invariant_ring(action, **_ring_options(args, kind, literal_q))
    listing = _generator_list(inv.generators)
    lines = [
        f"generators ({listing['count']}), method {inv.method}:",
        *_indented(listing["generators"]),
        "degrees: " + " ".join(str(d) for d in listing["degrees"]),
    ]
    return {"method": inv.method, **listing}, lines, 0


def _cmd_molien(args, action, kind, literal_q):
    """Molien series of a finite action over Q"""
    if kind != "finite":
        raise _UsageError("molien requires a finite action")
    payload = _series_strings(molien_series(action))
    return payload, [payload["series"]], 0


def _cmd_hilbert_ideal(args, action, kind, literal_q):
    """generators of the Hilbert ideal"""
    if kind != "reductive":
        # for finite and diagonal actions the minimal invariant generators
        # also generate the Hilbert ideal
        return _cmd_invariants(args, action, kind, literal_q)
    _ring_options(args, kind, literal_q)  # rejects every flag
    listing = _generator_list(hilbert_ideal(action))
    lines = [f"hilbert ideal ({listing['count']} generators):",
             *_indented(listing["generators"])]
    return listing, lines, 0


def _cmd_defining_ideal(args, action, kind, literal_q):
    """relations among the invariant generators"""
    inv = invariant_ring(action, **_ring_options(args, kind, literal_q))
    relations = [format_polynomial(f) for f in defining_ideal(inv)]
    payload = {
        "generators": _generator_list(inv.generators)["generators"],
        "relation_variables": list(_relation_names(inv)),
        "count": len(relations),
        "relations": relations,
    }
    lines = [f"relations ({len(relations)}):", *(_indented(relations) or ["  (none)"])]
    return payload, lines, 0


def _cmd_hilbert_series(args, action, kind, literal_q):
    """Molien numerator against supplied degrees"""
    if kind != "finite":
        raise _UsageError("hilbert-series requires a finite action")
    try:
        degrees = [int(part) for part in args.degrees.split(",") if part]
    except ValueError:
        raise _UsageError("--degrees: expected comma-separated integers")
    if not degrees or any(d < 1 for d in degrees):
        raise _UsageError("--degrees: expected positive integers")
    numerator = str(hilbert_series_rewrite(action, degrees))
    return {"degrees": degrees, "numerator": numerator}, [numerator], 0


def _cmd_verify(args, action, kind, literal_q):
    """per-degree dimension check of the generators"""
    inv = invariant_ring(action, **_ring_options(args, kind, literal_q))
    report = verify_generators(inv, args.depth)
    all_passed = all(r.passed for r in report)
    payload = {
        "max_degree": args.depth,
        "report": [
            {"degree": r.degree, "expected": r.expected,
             "actual": r.actual, "pass": r.passed}
            for r in report
        ],
        "all_passed": all_passed,
    }
    lines = [
        f"degree {r.degree}: expected {r.expected} actual {r.actual} "
        + ("pass" if r.passed else "FAIL")
        for r in report
    ]
    lines.append("all passed" if all_passed else "FAILED")
    return payload, lines, 0 if all_passed else 2


_DRIVERS = {
    "invariants": _cmd_invariants,
    "molien": _cmd_molien,
    "hilbert-ideal": _cmd_hilbert_ideal,
    "defining-ideal": _cmd_defining_ideal,
    "hilbert-series": _cmd_hilbert_series,
    "verify": _cmd_verify,
}


def run_command(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required "
                              f"(one of: {', '.join(_DRIVERS)})")
        bound = getattr(args, "max_degree", getattr(args, "depth", None))
        if bound is not None and bound < 1:
            raise _UsageError("--max-degree: expected a positive integer")
        started = time.perf_counter()
        action, kind, literal_q = _read_input(args.input)
        payload, lines, code = _DRIVERS[args.command](args, action, kind, literal_q)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantTheoryError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    if args.output == "json":
        print(json.dumps({"command": args.command, "kind": kind, **payload,
                          "elapsed_seconds": round(elapsed, 6)}, indent=2))
    else:
        print("\n".join(lines + [f"elapsed: {elapsed:.3f}s"]))
    return code


def main() -> int:
    return run_command(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())

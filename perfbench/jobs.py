"""Workload definitions: the jobs each workload runs, their seeded inputs,
and the golden checks that decide whether a job's answer is right.

A job is built in two steps.  ``make(seed)`` is set-up: it relabels the
job's variables by a permutation drawn from the seed, builds the action
(parsing any polynomial strings) and returns a ``Prepared`` holding the
zero-argument call that is timed and the check that runs afterwards,
outside the timed region.  Relabelling conjugates group matrices by the
permutation and permutes the columns of weight matrices, so every golden
answer stays exact while the work the engines do changes with the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import invtheory as it

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())


@dataclass
class Prepared:
    run: Callable[[], object]
    check: Callable[[object], list]  # problems found; empty when the answer is right


@dataclass(frozen=True)
class Job:
    name: str
    make: Callable[[int], Prepared]


# ---------------------------------------------------------------------------
# relabelling
# ---------------------------------------------------------------------------


def relabelling(seed: int, job: str, n: int) -> list[int]:
    """The permutation j -> p[j] of variable indices used for one job."""
    perm = list(range(n))
    random.Random(f"{seed}/{job}").shuffle(perm)
    return perm


def conjugate(mat, perm):
    """P g P^-1: the matrix acting on the relabelled variables."""
    n = len(mat)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            out[perm[i]][perm[k]] = mat[i][k]
    return out


def relabel(exponents, perm) -> tuple:
    out = [0] * len(exponents)
    for j, e in enumerate(exponents):
        out[perm[j]] = e
    return tuple(out)


def permute_columns(rows, perm):
    return [list(relabel(row, perm)) for row in rows]


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------


def perm(one_line: str):
    return [list(row) for row in it.permutation_matrix(one_line)]


def sign_change(n: int):
    return [[(-1 if i == 0 else 1) if i == j else 0 for j in range(n)] for i in range(n)]


def dihedral(n: int):
    """Symmetries of the n-gon permuting its vertices."""
    rotation = "".join(str((i + 1) % n + 1) for i in range(n))
    reflection = "".join(str((-i) % n + 1) for i in range(n))
    return [perm(rotation), perm(reflection)]


GROUPS = {
    "A4": (4, [perm("2314"), perm("2143")]),
    "S4": (4, [perm("2341"), perm("2134")]),
    "B3": (3, [perm("213"), perm("231"), sign_change(3)]),
    "B4": (4, [perm("2134"), perm("2341"), sign_change(4)]),
    "C5": (5, [perm("23451")]),
    "D5": (5, dihedral(5)),
    "D6": (6, dihedral(6)),
    "A5": (5, [perm("23451"), perm("23145")]),
    "S5": (5, [perm("23451"), perm("21345")]),
}

# Minimal generator degrees.  A_n adds the Vandermonde product (degree
# n(n-1)/2) to the power sums; B_n has the even power sums.
DEGREES = {
    "A4": [1, 2, 3, 4, 6],
    "S4": [1, 2, 3, 4],
    "B3": [2, 4, 6],
    "C5": GOLDEN["degrees"]["C5"],
    "D5": GOLDEN["degrees"]["D5"],
    "D6": GOLDEN["degrees"]["D6"],
    "A5": [1, 2, 3, 4, 5, 10],
    "S5": [1, 2, 3, 4, 5],
}


def field_of(p: int | None):
    return it.QQ if p is None else it.prime_field(p)


def finite_action(seed: int, job: str, group: str, p: int | None):
    n, gens = GROUPS[group]
    sigma = relabelling(seed, job, n)
    ring = it.polynomial_ring(field_of(p), [f"x{i + 1}" for i in range(n)])
    return it.FiniteGroupAction(ring, [conjugate(g, sigma) for g in gens])


def fixed_by_group(action, generators) -> list:
    problems = []
    for f in generators:
        for g in action.generators:
            if it.act_on(g, f) != f:
                problems.append(f"generator {f} is not invariant")
                return problems
    return problems


def check_generators(action, inv, degrees) -> list:
    got = sorted(f.degree() for f in inv.generators)
    if got != degrees:
        return [f"degrees {got}, expected {degrees}"]
    return fixed_by_group(action, inv.generators)


# ---------------------------------------------------------------------------
# job makers
# ---------------------------------------------------------------------------


def generators_job(group: str, algorithm: str, p: int | None = None) -> Job:
    field = "" if p is None else f"-gf{p}"
    name = f"{algorithm}-{group}{field}"

    def make(seed: int) -> Prepared:
        action = finite_action(seed, name, group, p)
        return Prepared(
            run=lambda: it.invariant_ring(action, algorithm=algorithm),
            check=lambda inv: check_generators(action, inv, DEGREES[group]),
        )

    return Job(name, make)


def verify_job(group: str, max_degree: int, p: int | None = None) -> Job:
    field = "" if p is None else f"-gf{p}"
    name = f"verify-{group}{field}-d{max_degree}"

    def make(seed: int) -> Prepared:
        action = finite_action(seed, name, group, p)

        def run():
            return it.verify_generators(it.invariant_ring(action), max_degree)

        return Prepared(run=run, check=lambda report: check_verify(report, max_degree))

    return Job(name, make)


def check_verify(report, max_degree: int) -> list:
    if [c.degree for c in report] != list(range(1, max_degree + 1)):
        return ["verify report does not cover every degree"]
    return [f"degree {c.degree}: expected {c.expected}, spanned {c.actual}"
            for c in report if not c.passed]


def closed_form(exponents) -> "it.RationalFunction":
    den = it.UniPoly.one()
    for e in exponents:
        den = den * it.UniPoly.one_minus_t_power(e)
    return it.RationalFunction(it.UniPoly.one(), den)


def molien_job(group: str, den_exponents) -> Job:
    name = f"molien-{group}"
    expected = closed_form(den_exponents)

    def make(seed: int) -> Prepared:
        action = finite_action(seed, name, group, None)
        return Prepared(
            run=lambda: it.molien_series(action),
            check=lambda series: [] if series == expected else [f"series {series}"],
        )

    return Job(name, make)


def rewrite_job() -> Job:
    name = "hilbert-rewrite-A4"
    expected = it.UniPoly((1, 0, 0, 0, 0, 0, 1))  # T^6 + 1

    def make(seed: int) -> Prepared:
        action = finite_action(seed, name, "A4", None)

        def run():
            return it.hilbert_series_rewrite(it.invariant_ring(action), [1, 2, 3, 4])

        return Prepared(
            run=run,
            check=lambda num: [] if num == expected else [f"numerator {num}"],
        )

    return Job(name, make)


# SL2 acting on binary forms of degree d: entry [i][k] is the coefficient of
# x^(d-i) y^i in (z11 x + z12 y)^(d-k) (z21 x + z22 y)^k.
SL2_GROUP = ("z11", "z12", "z21", "z22")
SL2_IDEAL = ["z11*z22-z12*z21-1"]
BINARY_FORMS = {
    "quadric": (
        ("a", "b", "c"),
        [["z11^2", "z11*z21", "z21^2"],
         ["2*z11*z12", "z11*z22+z12*z21", "2*z21*z22"],
         ["z12^2", "z12*z22", "z22^2"]],
        "b^2-4*a*c",
    ),
    "cubic": (
        ("a", "b", "c", "d"),
        [["z11^3", "z11^2*z21", "z11*z21^2", "z21^3"],
         ["3*z11^2*z12", "z11^2*z22+2*z11*z12*z21",
          "2*z11*z21*z22+z12*z21^2", "3*z21^2*z22"],
         ["3*z11*z12^2", "2*z11*z12*z22+z12^2*z21",
          "z11*z22^2+2*z12*z21*z22", "3*z21*z22^2"],
         ["z12^3", "z12^2*z22", "z12*z22^2", "z22^3"]],
        "b^2*c^2-4*a*c^3-4*b^3*d-27*a^2*d^2+18*a*b*c*d",
    ),
}


def sl2_action(seed: int, job: str, form: str):
    """SL2 on binary forms with the form's coefficients relabelled: the
    names move to permuted positions and the matrix is conjugated to match,
    so the discriminant keeps its text."""
    names, matrix, disc = BINARY_FORMS[form]
    sigma = relabelling(seed, job, len(names))
    target_names = [""] * len(names)
    for i, name in enumerate(names):
        target_names[sigma[i]] = name
    target = it.polynomial_ring(it.QQ, target_names)
    action = it.LinearlyReductiveAction(
        it.polynomial_ring(it.QQ, SL2_GROUP), SL2_IDEAL,
        conjugate(matrix, sigma), target,
    )
    return action, it.parse_polynomial(disc, target).monic()


def sl2_verify_job(form: str, max_degree: int) -> Job:
    name = f"verify-sl2-{form}-d{max_degree}"

    def make(seed: int) -> Prepared:
        action, _ = sl2_action(seed, name, form)

        def run():
            return it.verify_generators(it.invariant_ring(action), max_degree)

        return Prepared(run=run, check=lambda report: check_verify(report, max_degree))

    return Job(name, make)


def sl2_job(form: str, entry: str) -> Job:
    """hilbert_ideal or reductive_invariants; both are the discriminant alone."""
    name = f"{entry}-sl2-{form}"
    call = {"hilbert_ideal": it.hilbert_ideal,
            "reductive_invariants": it.reductive_invariants}[entry]

    def make(seed: int) -> Prepared:
        action, disc = sl2_action(seed, name, form)

        def check(polys):
            if [f.monic() for f in polys] != [disc]:
                return [f"got {[str(f) for f in polys]}, expected [{disc}]"]
            return []

        return Prepared(run=lambda: call(action), check=check)

    return Job(name, make)


def diagonal_action(seed: int, job: str, n: int, torus_rank: int, cyclic, weights,
                    p: int | None = None):
    sigma = relabelling(seed, job, n)
    ring = it.polynomial_ring(field_of(p), [f"x{i + 1}" for i in range(n)])
    return it.DiagonalAction(ring, torus_rank, cyclic, permute_columns(weights, sigma)), sigma


def presentation_job(label: str, torus_rank: int, cyclic, weights, relations: int,
                     p: int | None = None) -> Job:
    name = f"presentation-{label}"
    n = len(weights[0])

    def make(seed: int) -> Prepared:
        action, _ = diagonal_action(seed, name, n, torus_rank, cyclic, weights, p)

        def run():
            inv = it.invariant_ring(action)
            return inv, it.defining_ideal(inv)

        def check(result):
            inv, rels = result
            if len(rels) != relations:
                return [f"{len(rels)} relations, expected {relations}"]
            images = list(inv.generators)
            return [f"relation {r} does not vanish" for r in rels
                    if not it.substitute(r, images).is_zero()][:1]

        return Prepared(run=run, check=check)

    return Job(name, make)


def invariant_exponent(weights, moduli, exps) -> bool:
    """The benchmark's own test: torus rows (modulus 0) vanish, others vanish mod d."""
    for row, d in zip(weights, moduli):
        total = sum(w * a for w, a in zip(row, exps))
        if (total % d if d else total) != 0:
            return False
    return True


def diagonal_job(label: str, torus_rank: int, cyclic, weights, literal_q: int | None = None) -> Job:
    name = f"diagonal-{label}"
    n = len(weights[0])
    if literal_q is None:
        moduli = [0] * torus_rank + list(cyclic)
    else:
        moduli = [literal_q - 1] * torus_rank + list(cyclic)

    def make(seed: int) -> Prepared:
        action, sigma = diagonal_action(seed, name, n, torus_rank, cyclic, weights)
        expected = {relabel(v, sigma) for v in GOLDEN["monomials"][label]}

        def run():
            if literal_q is None:
                return it.diagonal_invariants(action)
            return it.diagonal_invariants_literal(action, literal_q)

        def check(monomials):
            got = [m.exponents for m in monomials]
            problems = []
            if len(got) != len(set(got)) or set(got) != expected:
                problems.append(f"{len(got)} monomials differ from the {len(expected)} golden ones")
            bad = [v for v in got if not invariant_exponent(action.weights, moduli, v)]
            if bad:
                problems.append(f"{bad[0]} is not invariant")
            return problems

        return Prepared(run=run, check=check)

    return Job(name, make)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

PAPER_TORUS = [[5, -3, -1, 4], [-3, 1, 1, 5], [0, -4, 2, 6]]

# One job list per engine.  A workload runs two of them back to back: host
# load on a small VM moves job times by up to 1.5x for tens of seconds, and
# only runs of about a minute average that out, which the runner's time
# budget allows for two workloads, not four.  Traced runs still report
# module shares per part.
PARTS: dict[str, list[Job]] = {
    "king": [
        generators_job("A4", "king"),
        generators_job("S4", "king"),
        generators_job("B3", "king"),
        generators_job("C5", "king"),
        generators_job("D6", "king"),
        generators_job("A5", "king"),
        generators_job("S5", "king"),
        generators_job("S5", "king", p=7),
        generators_job("A4", "king", p=5),
    ],
    "linear-verify": [
        generators_job("A4", "linear_algebra"),
        generators_job("B3", "linear_algebra"),
        generators_job("C5", "linear_algebra"),
        generators_job("D5", "linear_algebra"),
        generators_job("A4", "linear_algebra", p=7),
        verify_job("A4", 8),
        verify_job("A4", 8, p=7),
        verify_job("C5", 6),
        sl2_verify_job("quadric", 6),
        molien_job("S5", [1, 2, 3, 4, 5]),
        molien_job("B4", [2, 4, 6, 8]),
        rewrite_job(),
    ],
    "presentations": [
        presentation_job("Z2-11111", 0, [2], [[1, 1, 1, 1, 1]], 50),
        presentation_job("T1-12333-gf32003", 1, [], [[1, 2, 3, -3, -3]], 14, p=32003),
        presentation_job("Z3-111", 0, [3], [[1, 1, 1]], 27),
        presentation_job("Z5-123", 0, [5], [[1, 2, 3]], 18),
        sl2_job("cubic", "hilbert_ideal"),
        sl2_job("cubic", "reductive_invariants"),
    ],
    "diagonal": [
        diagonal_job("paper-torus", 3, [], PAPER_TORUS),
        diagonal_job("paper-torus-gf9", 3, [], PAPER_TORUS, literal_q=9),
        diagonal_job("paper-torus-gf16", 3, [], PAPER_TORUS, literal_q=16),
        diagonal_job("paper-torus-gf25", 3, [], PAPER_TORUS, literal_q=25),
        diagonal_job("T1xZ3", 1, [3], [[2, 3, -1, -4, -5], [1, 2, 0, 1, 2]]),
        diagonal_job("T2", 2, [], [[1, 2, -3, 4, -1, -2], [2, -1, 1, -3, 1, 1]]),
    ],
}

WORKLOAD_PARTS: dict[str, tuple[str, ...]] = {
    "king-linear": ("king", "linear-verify"),
    "presentations-diagonal": ("presentations", "diagonal"),
}

WORKLOADS: dict[str, list[Job]] = {
    workload: [job for part in parts for job in PARTS[part]]
    for workload, parts in WORKLOAD_PARTS.items()
}

PART_OF = {job.name: part for part, listed in PARTS.items() for job in listed}

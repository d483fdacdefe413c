"""Invariants of linearly reductive groups presented by equations.

The group is the vanishing locus of an ideal in Q[z_1..z_m] and acts on
Q[x_1..x_n] through an n x n matrix of polynomials in the z's: the variable
x_i is sent to the linear form given by row i.  One elimination yields
everything (Derksen, *Computation of invariants for reductive groups*, Adv.
Math. 1999).  Let B be the group ideal plus the graph relations y_i - image_i
in Q[z, x, y].  Eliminating the z's gives B ∩ Q[x, y]; setting every y to
zero there gives the Hilbert ideal I, and h is invariant exactly when
h(y) - h(x) lies in B ∩ Q[x, y].  So one reducer modulo that basis serves
the degree-by-degree linear solve for an invariant vector-space basis.
Minimal algebra generators are swept only in the degrees of I's minimal
generators (graded Nakayama).  In the lowest of them, d0, I_d0 is the space
of degree-d0 invariants, so it needs no solve, once the generators there
pass the same membership test.
"""

from __future__ import annotations

import math

from .errors import (
    DimensionMismatch,
    IncompleteGeneration,
    NonZeroCharacteristic,
    RingMismatch,
)
from .fields import integral
from .groebner import degree_sweep, elimination_ideal, reducer
from .linalg import nullspace, rref
from .poly import Polynomial, PolynomialRing, fresh_names, polynomial_ring


class LinearlyReductiveAction:
    """Group subscheme V(group_ideal) of affine m-space acting on the target
    ring by x_i -> sum_j matrix[i][j] * x_j."""

    def __init__(self, group_ring: PolynomialRing, group_ideal, action_matrix,
                 target_ring: PolynomialRing):
        if not (group_ring.field.is_rationals and target_ring.field.is_rationals):
            raise NonZeroCharacteristic(
                "linearly reductive actions require rational coefficients"
            )
        if set(group_ring.names) & set(target_ring.names):
            raise ValueError("group and target rings must use distinct names")
        self.group_ring = group_ring
        self.target_ring = target_ring
        self.group_ideal = tuple(
            self._coerce(group_ring, f) for f in group_ideal
        )
        if not self.group_ideal:
            raise ValueError("group ideal needs at least one generator")
        if any(f.is_zero() for f in self.group_ideal):
            raise ValueError("group ideal generators must be nonzero")
        n = target_ring.n
        rows = tuple(tuple(row) for row in action_matrix)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise DimensionMismatch(
                f"action matrix must be {n}x{n} over the group ring"
            )
        self.matrix = tuple(
            tuple(self._coerce(group_ring, entry) for entry in row)
            for row in rows
        )
        self._graph = None

    @staticmethod
    def _coerce(ring: PolynomialRing, value) -> Polynomial:
        if isinstance(value, str):
            return ring.parse(value)
        if isinstance(value, Polynomial):
            if value.ring != ring:
                raise RingMismatch("entry lives in the wrong ring")
            return value
        return ring.constant(ring.field.coerce(value))

    def __repr__(self) -> str:
        return (
            f"LinearlyReductiveAction({self.group_ring} -> {self.target_ring}, "
            f"{len(self.group_ideal)} group relations)"
        )


def _embed(f: Polynomial, ring: PolynomialRing) -> Polynomial:
    """f in a ring whose first variables are f's."""
    pad = (0,) * (ring.n - f.ring.n)
    return ring.from_terms({exp + pad: coeff for exp, coeff in f.terms})


def _minimal_generators(polys: list[Polynomial]) -> list[Polynomial]:
    """Drop homogeneous generators lying in the ideal of the others; greedy
    by ascending degree, so the kept set is degreewise as small as possible."""
    if not polys:
        return []
    ring = polys[0].ring
    ordered = sorted(
        polys, key=lambda f: (f.degree(), ring.order.key(f.lead_exponents()))
    )
    kept, _ = degree_sweep(
        ring,
        sorted({f.degree() for f in ordered}),
        lambda engine, d: [f for f in ordered if f.degree() == d],
        lambda engine, d, kept: False,
    )
    return [f.monic() for f in kept]


def _graph(action: LinearlyReductiveAction):
    """The minimal generators `hilbert_ideal` returns, the ring Q[x, y]
    (grevlex, x before y) and one `reducer` modulo B ∩ Q[x, y], where B is
    the group ideal plus the graph relations y_i - image_i; built once per
    action by one elimination."""
    if action._graph is None:
        gring, tring = action.group_ring, action.target_ring
        m, n = gring.n, tring.n
        ynames = fresh_names(
            n, set(gring.names) | set(tring.names), ("y", "w", "v", "h")
        )
        combined = polynomial_ring(
            tring.field, tuple(gring.names) + tuple(tring.names) + ynames
        )
        relations = [_embed(f, combined) for f in action.group_ideal]
        for i, row in enumerate(action.matrix):
            image = combined.zero()
            for j, entry in enumerate(row):
                if not entry.is_zero():
                    image = image + _embed(entry, combined) * combined.variable(m + j)
            relations.append(combined.variable(m + n + i) - image)
        eliminated = elimination_ideal(relations, eliminate=gring.names)
        # B is homogeneous for deg x = deg y = 1, deg z = 0, so its reduced
        # basis is too under any order, and setting y = 0 keeps each element
        # homogeneous: no projected generator can be inhomogeneous
        projected = [tring.from_terms({exp[:n]: coeff for exp, coeff in g.terms
                                       if not any(exp[n:])}) for g in eliminated]
        xy = polynomial_ring(tring.field, tuple(tring.names) + ynames)
        action._graph = (_minimal_generators([h for h in projected if not h.is_zero()]),
                         xy, reducer(xy, eliminated))
    return action._graph


def _shift(action: LinearlyReductiveAction, h: Polynomial) -> Polynomial:
    """h(y) - h(x) in the graph's Q[x, y]: its normal form is zero exactly
    when h is invariant."""
    pad = (0,) * action.target_ring.n
    return _graph(action)[1].from_terms(
        [(pad + e, c) for e, c in h.terms] + [(e + pad, -c) for e, c in h.terms])


def hilbert_ideal(action: LinearlyReductiveAction) -> list[Polynomial]:
    """Minimal homogeneous generators of the ideal of the target ring spanned
    by all positive-degree invariants.

    Eliminates the group variables from the graph relations y_i - image_i
    together with the group ideal, then sets every y to zero.  The
    generators need not be invariant themselves.
    """
    return list(_graph(action)[0])


def reductive_invariant_basis(action: LinearlyReductiveAction, degree: int) -> list[Polynomial]:
    """Reduced-echelon basis of the invariant polynomials of the given degree.

    h is invariant exactly when h(y) - h(x) lies in B ∩ Q[x, y] (`_graph`),
    so the invariants are the kernel of the linear map m -> NF(m(y) - m(x))
    on the degree-`degree` monomials m: one equation per surviving term.
    This holds for any group ideal, since Q[z, x, y]/B is Q[z, x]/(group
    ideal) by y -> sigma(x), and the reduced echelon basis of a kernel does
    not depend on the group ring's order.
    """
    tring = action.target_ring
    monos = tring.monomial_basis(degree)
    if not monos:
        return []
    in_graph = _graph(action)[2]
    width = len(monos)
    entries: dict = {}  # surviving term -> {column: coefficient}
    for col, mono in enumerate(monos):
        for h, v in in_graph(_shift(action, tring.monomial(mono))).terms:
            entries.setdefault(h, {})[col] = v
    # One row per surviving term, in the order met (the kernel does not depend
    # on it), made primitive with a positive first entry and without repeats.
    rows: dict = {}
    for entry in entries.values():
        ints = integral(entry.values())[0]
        content = math.gcd(*ints) * (1 if ints[0] > 0 else -1)
        row = [0] * width
        for col, v in zip(entry, ints):
            row[col] = v // content
        rows[tuple(row)] = None
    return [tring.from_terms({monos[col].exponents: v for col, v in enumerate(vec) if v})
            for vec in nullspace(list(rows), width, tring.field)]


def reductive_invariants(action: LinearlyReductiveAction) -> list[Polynomial]:
    """Minimal invariant homogeneous generators of the Hilbert ideal I, which
    are likewise minimal algebra generators of the ring of invariants.

    By graded Nakayama the sweep keeps, in each degree, as many invariants as
    I has minimal generators there, so only those degrees are swept; it keeps
    invariants independent modulo the ideal of those already accepted and
    stops once they generate I.  In the lowest degree d0, I has nothing below,
    so I_d0 = R^G_d0: the candidates are the reduced echelon form of I's
    degree-d0 generators, and only higher degrees solve
    `reductive_invariant_basis`.  Those generators are checked first: h is
    invariant exactly when h(y) - h(x) lies in B ∩ Q[x, y], B the graph ideal
    the elimination already holds a basis of.  A failed check, like a sweep
    that does not generate I, raises IncompleteGeneration.
    """
    ideal, _, in_graph = _graph(action)
    if not ideal:
        return []
    tring = action.target_ring
    degrees = sorted({h.degree() for h in ideal})
    d0, top = degrees[0], degrees[-1]
    lowest = [h for h in ideal if h.degree() == d0]
    # d0 = 0 only for the unit ideal: V(group ideal) is empty
    if d0 < 1 or any(not in_graph(_shift(action, h)).is_zero() for h in lowest):
        raise IncompleteGeneration(
            f"Hilbert ideal generators of degree {d0} are not positive-degree invariants; "
            "the action is not a valid linearly reductive group action"
        )
    monos = tring.monomial_basis(d0)
    rows, _ = rref([[h.coefficient(m) for m in monos] for h in lowest], tring.field)
    echelon = [tring.from_terms({monos[c].exponents: v for c, v in enumerate(row) if v})
               for row in rows]

    def generated(engine, d: int, kept) -> bool:
        engine.process_to(top)
        return all(engine.reduces_to_zero(h) for h in ideal)

    found, complete = degree_sweep(
        tring,
        degrees,
        lambda engine, d: echelon if d == d0 else reductive_invariant_basis(action, d),
        generated,
    )
    if complete:
        return found
    raise IncompleteGeneration(
        f"invariants through degree {top} do not generate the Hilbert ideal; "
        "the action is not a valid linearly reductive group action"
    )

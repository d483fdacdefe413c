"""Invariants of linearly reductive groups presented by equations.

The group is the vanishing locus of an ideal in Q[z_1..z_m] and acts on
Q[x_1..x_n] through an n x n matrix of polynomials in the z's: the variable
x_i is sent to the linear form given by row i.  Two routes to the invariants
are provided (Derksen, *Computation of invariants for reductive groups*,
Adv. Math. 1999).  Elimination of the group variables from the graph of the
action yields the Hilbert ideal I; a degree-by-degree linear solve modulo the
group ideal yields an invariant vector-space basis.  Minimal algebra
generators are swept only in the degrees of I's minimal generators (graded
Nakayama).  In the lowest of them, d0, I_d0 is the space of degree-d0
invariants, so it needs no solve, once the generators there pass the guard
that h(y) - h(x) lies in the graph ideal.  The solve builds each reduced
sigma(m) from the degree below (`groebner.SubstitutionRemainders`), never
expanding sigma(m) afresh.
"""

from __future__ import annotations

import math

from .errors import (
    DimensionMismatch,
    IncompleteGeneration,
    NonHomogeneousResult,
    NonZeroCharacteristic,
    RingMismatch,
)
from .groebner import (
    SubstitutionRemainders, buchberger, degree_sweep, elimination_ideal, reducer,
)
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
        self._expansion = None

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


def _embed(f: Polynomial, ring: PolynomialRing, offset: int) -> Polynomial:
    pad = ring.n - offset - f.ring.n
    acc = {
        (0,) * offset + exp + (0,) * pad: coeff for exp, coeff in f.terms
    }
    return ring.from_terms(acc)


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


def _expansion(action: LinearlyReductiveAction):
    """Ring Q[z, x] (grevlex), the image of each x_i under the generic group
    element, and the `SubstitutionRemainders` of those images modulo the
    group ideal's Groebner basis there; built once per action."""
    if action._expansion is None:
        gring, tring = action.group_ring, action.target_ring
        m = gring.n
        combined = polynomial_ring(
            tring.field, tuple(gring.names) + tuple(tring.names)
        )
        images = []
        for row in action.matrix:
            img = combined.zero()
            for j, entry in enumerate(row):
                if not entry.is_zero():
                    img = img + _embed(entry, combined, 0) * combined.variable(m + j)
            images.append(img)
        basis = buchberger([_embed(f, combined, 0) for f in action.group_ideal])
        action._expansion = (combined, images, SubstitutionRemainders(
            combined, basis.elements, images))
    return action._expansion


def _hilbert_ideal(action: LinearlyReductiveAction):
    """The minimal generators `hilbert_ideal` returns, and the reduced basis
    of B ∩ Q[x, y] (grevlex, x before y) they are projected from, where B is
    the group ideal plus the graph relations y_i - image_i."""
    gring, tring = action.group_ring, action.target_ring
    n = tring.n
    _, images, _ = _expansion(action)
    ynames = fresh_names(
        n, set(gring.names) | set(tring.names), ("y", "w", "v", "h")
    )
    combined = polynomial_ring(
        tring.field, tuple(gring.names) + tuple(tring.names) + ynames
    )
    relations = [_embed(f, combined, 0) for f in action.group_ideal]
    relations += [
        combined.variable(gring.n + n + i) - _embed(img, combined, 0)
        for i, img in enumerate(images)
    ]
    eliminated = elimination_ideal(relations, eliminate=gring.names)
    projected: list[Polynomial] = []
    for g in eliminated:
        h = tring.from_terms(
            {exp[:n]: coeff for exp, coeff in g.terms if not any(exp[n:])}
        )
        if h.is_zero():
            continue
        if not h.is_homogeneous():
            raise NonHomogeneousResult(
                "Hilbert ideal generator is not homogeneous; "
                "the action matrix does not preserve the grading"
            )
        projected.append(h)
    return _minimal_generators(projected), eliminated


def hilbert_ideal(action: LinearlyReductiveAction) -> list[Polynomial]:
    """Minimal homogeneous generators of the ideal of the target ring spanned
    by all positive-degree invariants.

    Eliminates the group variables from the graph relations y_i - image_i
    together with the group ideal, then sets every y to zero.  The
    generators need not be invariant themselves.
    """
    return _hilbert_ideal(action)[0]


def reductive_invariant_basis(action: LinearlyReductiveAction, degree: int) -> list[Polynomial]:
    """Reduced-echelon basis of the invariant polynomials of the given degree.

    Takes c_m (sigma(m) - m), c_m > 0, modulo the group ideal in Q[z, x] for
    every degree-`degree` monomial m, and solves the integer system saying
    that every surviving term vanishes.  The group basis has leads in z
    alone, so reduction keeps each term's x-part and the solution does not
    depend on the group ring's order.
    """
    tring = action.target_ring
    monos = tring.monomial_basis(degree)
    if not monos:
        return []
    columns = _expansion(action)[2](degree)
    width = len(monos)
    rows_map: dict = {}
    scales = []
    for col, mono in enumerate(monos):
        terms, scale = columns[mono.exponents]
        scales.append(scale)
        for h, v in terms.items():
            row = rows_map.get(h)
            if row is None:
                row = rows_map[h] = [0] * width
            row[col] = v
    # One row per surviving term, in the order met (the kernel does not depend
    # on it), made primitive with a positive first entry and without repeats.
    rows: dict = {}
    for row in rows_map.values():
        content = math.gcd(*row) * (1 if next(filter(None, row)) > 0 else -1)
        rows[tuple(row) if content == 1 else tuple([v // content for v in row])] = None
    basis = []
    # column j is scales[j] times the true one; scaling back keeps the echelon
    # shape, and dividing by the pivot makes it reduced again
    for vec in nullspace(list(rows), width, tring.field):
        vec = [v * c for v, c in zip(vec, scales)]
        pivot = next(v for v in vec if v)
        basis.append(tring.from_terms(
            {monos[col].exponents: v / pivot for col, v in enumerate(vec) if v}))
    return basis


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
    ideal, graph = _hilbert_ideal(action)
    if not ideal:
        return []
    tring = action.target_ring
    degrees = sorted({h.degree() for h in ideal})
    d0, top = degrees[0], degrees[-1]
    lowest = [h for h in ideal if h.degree() == d0]
    xy = graph[0].ring
    in_graph = reducer(xy, graph)
    # d0 = 0 only for the unit ideal: V(group ideal) is empty
    if d0 < 1 or any(not in_graph(_embed(h, xy, tring.n) - _embed(h, xy, 0)).is_zero()
                     for h in lowest):
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

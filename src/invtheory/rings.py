"""Container for a computed ring of invariants: dispatch over the three
action kinds, presentations by elimination, Hilbert series rewriting, and an
independent per-degree verification harness."""

from __future__ import annotations

from dataclasses import dataclass

from .diagonal import (
    DiagonalAction,
    diagonal_invariants,
    diagonal_invariants_literal,
    is_invariant_exponent,
)
from .fields import _integers
from .finite import (
    FiniteGroupAction,
    _king_sweep,
    _linear_sweep,
    _molien_numerator,
    invariant_space_basis,
)
from .groebner import elimination_ideal
from .linalg import rank
from .poly import (
    Polynomial,
    PolynomialRing,
    _generator_key,
    _packed_integral,
    _packed_product,
    _packing,
    fresh_names,
    polynomial_ring,
)
from .ratfunc import UniPoly
from .reductive import (
    LinearlyReductiveAction,
    reductive_invariant_basis,
    reductive_invariants,
)

KING = "king"
LINEAR_ALGEBRA = "linear_algebra"
DIAGONAL = "diagonal"
DIAGONAL_LITERAL = "diagonal_literal"
REDUCTIVE = "reductive"


@dataclass(frozen=True)
class DegreeCheck:
    degree: int
    expected: int
    actual: int
    passed: bool


class RingOfInvariants:
    """Computed generators of an invariant ring together with the action
    they came from and the algorithm that produced them.  ``complete`` is
    whether the generators are proven to generate.  A finite-group sweep
    proves it by King's stop or by reaching |G| when the characteristic
    does not divide |G|, and by Kemper's certificate (n invariants whose
    degrees multiply to |G|, forming a system of parameters) in every
    characteristic; a sweep cut by a degree cap first is not complete, and
    neither is a modular sweep without the certificate.  Diagonal and
    reductive rings always are."""

    def __init__(self, action, generators, method: str, literal_q: int | None = None,
                 complete: bool = True):
        self.action = action
        self.method = method
        self.literal_q = literal_q
        self.complete = complete
        self.generators = tuple(sorted(generators, key=_generator_key))
        self._defining: list[Polynomial] | None = None

    @property
    def ring(self) -> PolynomialRing:
        if isinstance(self.action, LinearlyReductiveAction):
            return self.action.target_ring
        return self.action.ring

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def __repr__(self) -> str:
        return (
            f"RingOfInvariants({len(self.generators)} generators, "
            f"method={self.method!r})"
        )


def invariant_ring(
    action,
    algorithm: str = KING,
    max_degree: int | None = None,
    literal_q: int | None = None,
) -> RingOfInvariants:
    """Compute invariant generators for any supported action kind.

    `algorithm` selects the finite-group method (king or linear_algebra) and
    `max_degree` caps its sweep; `literal_q` switches diagonal actions to
    literal invariance over F_q.  An option the action kind does not take
    raises ``ValueError``.
    """
    if not isinstance(action, (FiniteGroupAction, DiagonalAction,
                               LinearlyReductiveAction)):
        raise TypeError(f"unsupported action type {type(action).__name__}")
    if not isinstance(action, FiniteGroupAction):
        if max_degree is not None:
            raise ValueError("max_degree applies only to finite group actions")
        if algorithm != KING:
            raise ValueError(f"algorithm {algorithm!r} applies only to finite group actions")
    if literal_q is not None and not isinstance(action, DiagonalAction):
        raise ValueError("literal_q applies only to diagonal actions")
    if isinstance(action, FiniteGroupAction):
        if algorithm == KING:
            gens, complete = _king_sweep(action, max_degree)
        elif algorithm in (LINEAR_ALGEBRA, "linear"):
            gens, complete = _linear_sweep(action, max_degree)
            algorithm = LINEAR_ALGEBRA
        else:
            raise ValueError(f"unknown finite-group algorithm {algorithm!r}")
        return RingOfInvariants(action, gens, algorithm, complete=complete)
    if isinstance(action, DiagonalAction):
        if literal_q is not None:
            monos = diagonal_invariants_literal(action, literal_q)
            gens = [action.ring.monomial(m) for m in monos]
            return RingOfInvariants(action, gens, DIAGONAL_LITERAL, literal_q)
        monos = diagonal_invariants(action)
        gens = [action.ring.monomial(m) for m in monos]
        return RingOfInvariants(action, gens, DIAGONAL)
    return RingOfInvariants(action, reductive_invariants(action), REDUCTIVE)


def defining_ideal(inv: RingOfInvariants) -> list[Polynomial]:
    """Relations among the generators: the kernel of u_i -> f_i, presented in
    a fresh ring with one variable per generator."""
    if inv._defining is None:
        inv._defining = _defining_ideal(inv)
    return list(inv._defining)


def _relation_names(inv: RingOfInvariants) -> tuple[str, ...]:
    """The variable names u1, u2, ... of the presentation ring, one per
    generator, that avoid the names of the ring the generators live in."""
    return fresh_names(len(inv.generators), set(inv.ring.names))


def _defining_ideal(inv: RingOfInvariants) -> list[Polynomial]:
    gens = inv.generators
    ring = inv.ring
    if not gens:
        return []
    combined = polynomial_ring(ring.field, tuple(ring.names) + _relation_names(inv))
    pad = len(gens)
    relations = []
    for i, f in enumerate(gens):
        rel = combined.variable(ring.n + i)
        acc = {exp + (0,) * pad: coeff for exp, coeff in f.terms}
        relations.append(rel - combined.from_terms(acc))
    # u_i - f_i is homogeneous when u_i weighs deg f_i
    weights = (1,) * ring.n + tuple(max(f.degree(), 1) for f in gens)
    return elimination_ideal(relations, eliminate=ring.names, weights=weights)


def hilbert_series_rewrite(source, degrees) -> UniPoly:
    """Numerator of the Molien series against the product of (1 - T^d) for
    the supplied degrees; the division must be exact.  ``source`` is a
    ``FiniteGroupAction`` or a ``RingOfInvariants`` of one: only the action
    is read, so no generators need to be computed first."""
    action = source.action if isinstance(source, RingOfInvariants) else source
    if not isinstance(action, FiniteGroupAction):
        raise TypeError("hilbert series rewriting requires a finite group action")
    return _molien_numerator(action, _integers(degrees, "degrees", least=1))


def _expected_dimension(inv: RingOfInvariants, degree: int) -> int:
    action = inv.action
    if isinstance(action, FiniteGroupAction):
        return len(invariant_space_basis(action, degree))
    if isinstance(action, DiagonalAction):
        q = inv.literal_q if inv.method == DIAGONAL_LITERAL else None
        return sum(
            1
            for m in inv.ring.monomial_basis(degree)
            if is_invariant_exponent(action, m.exponents, q)
        )
    return len(reductive_invariant_basis(action, degree))


def _generator_products(inv: RingOfInvariants, max_degree: int):
    """For each degree 1..max_degree, every product of generators of that
    degree, as a packed exponent -> integer dict.  Each generator is packed
    and cleared of denominators once: that scales it by a positive constant,
    so no rank changes; over F_p its scalars already are ints, and every
    product is reduced mod p.  A product is one generator times a product of
    lower degree whose generators all come later in degree order, so each
    product is one multiplication and no degree starts again from 1."""
    pack = _packing(inv.ring.n, max_degree)[0]
    p = inv.ring.field.p
    gens = sorted((f for f in inv.generators if f.degree() <= max_degree),
                  key=lambda f: f.degree())
    degrees = [f.degree() for f in gens]
    gens = [_packed_integral(f.terms, pack)[0] for f in gens]
    # per degree: (index of the product's first generator, product); the empty
    # product may be extended by every generator
    levels = [[(len(gens), {0: 1})]]
    for degree in range(1, max_degree + 1):
        level = []
        for j, (g, d) in enumerate(zip(gens, degrees)):
            if d > degree:
                break
            for first, rest in levels[degree - d]:
                if first >= j:
                    product = _packed_product(g, rest.items())
                    if p:
                        product = {h: c % p for h, c in product.items()}
                    level.append((j, product))
        levels.append(level)
        yield [product for _, product in level]


def _spanned_dimension(inv: RingOfInvariants, products) -> int:
    """Rank of the products' coefficient rows, one column per monomial that
    occurs in them (the others are zero in every row)."""
    columns = {h: j for j, h in enumerate(sorted(set().union(*products)))}

    def row(product):
        out = [0] * len(columns)
        for h, c in product.items():
            out[columns[h]] = c
        return out

    return rank(map(row, products), inv.ring.field)


def verify_generators(inv: RingOfInvariants, max_degree: int) -> list[DegreeCheck]:
    """Per-degree comparison of the dimension spanned by generator products
    against an independently computed invariant-space dimension."""
    (max_degree,) = _integers((max_degree,), "max_degree", least=1)
    report = []
    for degree, products in enumerate(_generator_products(inv, max_degree), 1):
        expected = _expected_dimension(inv, degree)
        actual = _spanned_dimension(inv, products)
        report.append(DegreeCheck(degree, expected, actual, expected == actual))
    return report

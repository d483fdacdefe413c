"""Invariants of diagonal actions: an algebraic torus crossed with a finite
abelian product, acting on variables through an integer weight matrix.

Rows of the weight matrix correspond to group factors (first the torus rows,
then one row per cyclic factor), columns to ring variables.  A monomial
x^a is invariant iff W a vanishes on the torus rows and vanishes mod d_i on
the cyclic rows, so everything here is integer combinatorics on exponent
vectors; the invariant ring is generated by monomials and the minimal
generating set is unique.
"""

from __future__ import annotations

from .errors import DimensionMismatch, RingMismatch, RootOfUnityUnavailable
from .poly import Monomial, Polynomial, PolynomialRing


class DiagonalAction:
    """Torus rank r and cyclic orders (d_1..d_s) acting diagonally through
    an (r+s) x n integer weight matrix."""

    def __init__(self, ring: PolynomialRing, torus_rank: int, cyclic_orders, weights):
        self.ring = ring
        self.torus_rank = int(torus_rank)
        self.cyclic_orders = tuple(int(d) for d in cyclic_orders)
        rows = tuple(tuple(int(w) for w in row) for row in weights)
        if self.torus_rank < 0:
            raise ValueError("torus rank must be non-negative")
        if any(d < 2 for d in self.cyclic_orders):
            raise ValueError("cyclic orders must be at least 2")
        expected = self.torus_rank + len(self.cyclic_orders)
        if len(rows) != expected:
            raise DimensionMismatch(
                f"weight matrix has {len(rows)} rows, expected {expected}"
            )
        for row in rows:
            if len(row) != ring.n:
                raise DimensionMismatch(
                    f"weight row of length {len(row)}, expected {ring.n}"
                )
        self.weights = rows

    def torus_rows(self):
        return self.weights[: self.torus_rank]

    def cyclic_rows(self):
        return self.weights[self.torus_rank:]

    def __repr__(self) -> str:
        return (
            f"DiagonalAction({self.ring}, torus_rank={self.torus_rank}, "
            f"cyclic_orders={self.cyclic_orders})"
        )


def _row_moduli(action: DiagonalAction, literal_q: int | None = None) -> list[int]:
    """One modulus per weight row.  Torus rows get 0 (the weight must vanish)
    or, literally over F_q, q-1; cyclic rows keep their orders."""
    torus = 0 if literal_q is None else literal_q - 1
    return [torus] * action.torus_rank + list(action.cyclic_orders)


def is_invariant_exponent(action: DiagonalAction, exponents, literal_q: int | None = None) -> bool:
    """Whether x^exponents is invariant: torus weights zero, cyclic weights
    zero mod their orders.  With ``literal_q``, torus weights need only
    vanish mod q-1 (literal invariance over F_q)."""
    if isinstance(exponents, Monomial):
        exponents = exponents.exponents
    exponents = tuple(exponents)
    if len(exponents) != action.ring.n:
        raise DimensionMismatch("exponent vector has wrong length")
    for row, d in zip(action.weights, _row_moduli(action, literal_q)):
        weight = sum(w * a for w, a in zip(row, exponents))
        if (weight % d if d else weight) != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# finite abelian part: congruence sieve
# ---------------------------------------------------------------------------


def _congruence_generators(moduli, rows, n: int) -> list[tuple[int, ...]]:
    """Minimal generators of {a in N^n : rows[i].a = 0 mod moduli[i] for all i}.

    Degree-graded sieve over the staircase complement of the accepted
    generators: a level holds the vectors with no accepted divisor, so a
    weight-zero vector on a level is irreducible, and once a level empties no
    further irreducible vectors exist.
    """
    rows = [tuple(w % d for w in row) for row, d in zip(rows, moduli)]

    def weight_zero(vec: tuple[int, ...]) -> bool:
        for row, d in zip(rows, moduli):
            if sum(w * a for w, a in zip(row, vec)) % d != 0:
                return False
        return True

    accepted: list[tuple[int, ...]] = []
    level = [
        tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
    ]
    while level:
        survivors = []
        for vec in level:
            if weight_zero(vec):
                accepted.append(vec)
            else:
                survivors.append(vec)
        next_level = set()
        for vec in survivors:
            for i in range(n):
                grown = tuple(
                    a + 1 if j == i else a for j, a in enumerate(vec)
                )
                if any(
                    all(x <= y for x, y in zip(gen, grown)) for gen in accepted
                ):
                    continue
                next_level.add(grown)
        level = sorted(next_level)
    accepted.sort(key=lambda v: (sum(v), v))
    return accepted


def abelian_generators(cyclic_orders, cyclic_weights) -> list[Monomial]:
    """Minimal monomial generators for a finite abelian diagonal action given
    by congruence rows (one per cyclic factor)."""
    cyclic_orders = [int(d) for d in cyclic_orders]
    rows = [tuple(int(w) for w in row) for row in cyclic_weights]
    if len(rows) != len(cyclic_orders):
        raise DimensionMismatch("one weight row per cyclic order is required")
    if not rows:
        raise ValueError("need at least one cyclic factor")
    n = len(rows[0])
    if any(len(row) != n for row in rows):
        raise DimensionMismatch("cyclic weight rows differ in length")
    return [Monomial(v) for v in _congruence_generators(cyclic_orders, rows, n)]


# ---------------------------------------------------------------------------
# torus part: Hilbert basis by sequential hyperplane completion
# ---------------------------------------------------------------------------


def _single_equation_minimal_solutions(values: list[int]) -> list[tuple[int, ...]]:
    """Minimal nonzero a in N^m with sum a_i values_i = 0.

    Breadth-first completion: a vector only grows by a coordinate whose value
    sign opposes the current total, and anything dominating a found solution
    is discarded.  Every minimal solution admits such a sign-alternating
    build-up path, so the sweep is complete.
    """
    m = len(values)
    solutions: list[tuple[int, ...]] = []
    frontier: dict[tuple[int, ...], int] = {}
    fresh: list[tuple[int, ...]] = []
    for i in range(m):
        unit = tuple(1 if j == i else 0 for j in range(m))
        if values[i] == 0:
            fresh.append(unit)
        else:
            frontier[unit] = values[i]
    solutions.extend(sorted(fresh))
    while frontier:
        next_frontier: dict[tuple[int, ...], int] = {}
        fresh = []
        for vec, total in frontier.items():
            for i in range(m):
                if values[i] * total >= 0:
                    continue
                grown = tuple(a + 1 if j == i else a for j, a in enumerate(vec))
                if any(
                    all(x <= y for x, y in zip(sol, grown)) for sol in solutions
                ):
                    continue
                new_total = total + values[i]
                if new_total == 0:
                    fresh.append(grown)
                else:
                    next_frontier[grown] = new_total
        solutions.extend(sorted(set(fresh)))
        frontier = {
            vec: total
            for vec, total in next_frontier.items()
            if not any(
                all(x <= y for x, y in zip(sol, vec)) for sol in solutions
            )
        }
    solutions.sort(key=lambda v: (sum(v), v))
    return solutions


def _minimal_vectors(vectors) -> list[tuple[int, ...]]:
    """Componentwise-minimal elements of a set of vectors in N^k."""
    unique = sorted(set(vectors), key=lambda v: (sum(v), v))
    kept: list[tuple[int, ...]] = []
    for vec in unique:
        if any(all(x <= y for x, y in zip(item, vec)) for item in kept):
            continue
        kept.append(vec)
    return kept


def torus_hilbert_basis(weight_vectors) -> list[tuple[int, ...]]:
    """Hilbert basis of {c in N^k : sum c_j v_j = 0} for integer vectors v_j.

    Hyperplane rows are imposed one at a time: elements of the current monoid
    are rewritten in multiplicities over its generating set, the single
    equation for the next row is solved by sign-constrained completion, and
    the mapped solutions are pruned to componentwise-minimal vectors.
    """
    vectors = [tuple(int(w) for w in v) for v in weight_vectors]
    k = len(vectors)
    if k == 0:
        return []
    r = len(vectors[0])
    if any(len(v) != r for v in vectors):
        raise DimensionMismatch("weight vectors differ in length")
    generators = [tuple(1 if j == i else 0 for j in range(k)) for i in range(k)]
    for row in range(r):
        values = [
            sum(g[j] * vectors[j][row] for j in range(k)) for g in generators
        ]
        combos = _single_equation_minimal_solutions(values)
        mapped = []
        for combo in combos:
            total = [0] * k
            for i, mult in enumerate(combo):
                if mult:
                    for j in range(k):
                        total[j] += mult * generators[i][j]
            mapped.append(tuple(total))
        generators = _minimal_vectors(mapped)
        if not generators:
            break
    return generators


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def _monomial_set(exponent_vectors) -> list[Monomial]:
    minimal = _minimal_vectors(exponent_vectors)
    return [Monomial(v) for v in minimal]


def diagonal_invariants(action: DiagonalAction) -> list[Monomial]:
    """Minimal monomial generators of the invariant ring of the action.

    The finite abelian part is handled by the congruence sieve, the torus
    part by a Hilbert basis over the abelian generators, and the combined
    set gets a final irreducibility pass.
    """
    n = action.ring.n
    r = action.torus_rank
    if action.cyclic_orders:
        abelian = _congruence_generators(
            list(action.cyclic_orders), list(action.cyclic_rows()), n
        )
    else:
        abelian = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    if r == 0:
        return _monomial_set(abelian)
    torus = action.torus_rows()
    weight_vectors = [
        tuple(sum(w * a for w, a in zip(row, gen)) for row in torus)
        for gen in abelian
    ]
    combos = torus_hilbert_basis(weight_vectors)
    exponent_vectors = []
    for combo in combos:
        total = [0] * n
        for i, mult in enumerate(combo):
            if mult:
                for j in range(n):
                    total[j] += mult * abelian[i][j]
        exponent_vectors.append(tuple(total))
    return _monomial_set(exponent_vectors)


def _prime_power_base(q: int) -> int | None:
    if q < 2:
        return None
    d = 2
    value = q
    while d * d <= value:
        if value % d == 0:
            while value % d == 0:
                value //= d
            return d if value == 1 else None
        d += 1
    return q


def diagonal_invariants_literal(action: DiagonalAction, q: int) -> list[Monomial]:
    """Generators of the literal invariants over the field with q elements:
    torus rows become congruences mod q-1 (the multiplicative group order),
    cyclic rows keep their own moduli, which must divide q-1."""
    if _prime_power_base(q) is None:
        raise ValueError(f"q = {q} is not a prime power")
    for d in action.cyclic_orders:
        if (q - 1) % d != 0:
            raise RootOfUnityUnavailable(
                f"F_{q} has no root of unity of order {d} (d must divide q-1)"
            )
    moduli = _row_moduli(action, q)
    if not moduli:
        return _monomial_set(
            [tuple(1 if j == i else 0 for j in range(action.ring.n)) for i in range(action.ring.n)]
        )
    generators = _congruence_generators(moduli, list(action.weights), action.ring.n)
    return _monomial_set(generators)


def reynolds_diagonal(action: DiagonalAction, f: Polynomial) -> Polynomial:
    """Projection onto invariants: keep exactly the invariant terms."""
    if f.ring != action.ring:
        raise RingMismatch("polynomial is not in the action's ring")
    kept = {
        exp: coeff
        for exp, coeff in f.terms
        if is_invariant_exponent(action, exp)
    }
    return f.ring.from_terms(kept)

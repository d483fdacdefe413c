"""Invariants of diagonal actions: an algebraic torus crossed with a finite
abelian product, acting on variables through an integer weight matrix.

Rows of the weight matrix correspond to group factors (first the torus rows,
then one row per cyclic factor), columns to ring variables.  A monomial
x^a is invariant iff W a vanishes on the torus rows and vanishes mod d_i on
the cyclic rows, so everything here is integer combinatorics on exponent
vectors; the invariant ring is generated by monomials and the minimal
generating set is unique.

Two solvers compute it.  A degree-graded congruence sieve handles actions
with no torus, and literal GF(q) mode, where the torus rows become
congruences mod q-1.  Every other action is one Contejean-Devie completion
in which each cyclic row is an equation in a slack variable of its own.
"""

from __future__ import annotations

import math
import operator

from .errors import DimensionMismatch, RingMismatch, RootOfUnityUnavailable
from .poly import Monomial, Polynomial, PolynomialRing, support_mask


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
# shared pieces: unit vectors and the domination test
# ---------------------------------------------------------------------------


def _units(n: int) -> list[tuple[int, ...]]:
    return [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]


def _by_degree(vec: tuple[int, ...]):
    return (sum(vec), vec)


def _dominates(vec: tuple[int, ...], found) -> bool:
    """Whether vec lies componentwise above some vector of ``found``, a list
    of (support mask, vector) pairs.  A vector using a variable outside vec's
    support cannot lie below it, so the mask test rejects it before the
    exponents are compared."""
    outside = ~support_mask(vec)
    for mask, low in found:
        if not mask & outside and all(map(operator.le, low, vec)):
            return True
    return False


# ---------------------------------------------------------------------------
# finite abelian part: congruence sieve
# ---------------------------------------------------------------------------


def _congruence_generators(moduli, rows, n: int) -> list[tuple[int, ...]]:
    """Minimal generators of {a in N^n : rows[i].a = 0 mod moduli[i] for all i}.

    Degree-graded sieve over the staircase complement of the accepted
    generators: a level holds the vectors with no accepted divisor, so a
    weight-zero vector on a level is irreducible, and once a level empties no
    further irreducible vectors exist.  A vector grows only at coordinates
    from its last nonzero one on, so each vector has exactly one parent, and
    that parent is on the previous level: it has no accepted divisor either,
    and it is not weight-zero, since the vector would then lie above it.
    """
    rows = [tuple(w % d for w in row) for row, d in zip(rows, moduli)]
    accepted: list = []
    level = list(zip(_units(n), range(n)))  # (vector, its last nonzero index)
    while level:
        survivors = []
        for vec, last in level:
            if all(sum(map(operator.mul, row, vec)) % d == 0
                   for row, d in zip(rows, moduli)):
                accepted.append((support_mask(vec), vec))
            else:
                survivors.append((vec, last))
        level = []
        for vec, last in survivors:
            for i in range(last, n):
                grown = vec[:i] + (vec[i] + 1,) + vec[i + 1:]
                if not _dominates(grown, accepted):
                    level.append((grown, i))
    return sorted((vec for _, vec in accepted), key=_by_degree)


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
# torus part: Hilbert basis by Contejean-Devie completion
# ---------------------------------------------------------------------------


def torus_hilbert_basis(weight_vectors) -> list[tuple[int, ...]]:
    """Hilbert basis of {c in N^k : sum c_j v_j = 0} for integer vectors v_j.

    Coordinates that are 0 in every solution are set aside first: when a
    row's entries over the remaining columns all have one sign, the terms
    c_j v_j of that row share the sign too (c >= 0), so each must vanish and
    every column where the row is nonzero goes.  This repeats until no row
    removes a column; the remaining columns are solved by `_completion` and
    the zeros put back.
    """
    vectors = [tuple(int(w) for w in v) for v in weight_vectors]
    k = len(vectors)
    if k == 0:
        return []
    r = len(vectors[0])
    if any(len(v) != r for v in vectors):
        raise DimensionMismatch("weight vectors differ in length")
    if r == 0:
        return _units(k)  # every unit solves; kept in index order, not sorted
    live = list(range(k))
    pruned = True
    while pruned:
        pruned = False
        for row in range(r):
            entries = [vectors[j][row] for j in live]
            if min(entries, default=0) >= 0 or max(entries, default=0) <= 0:
                kept = [j for j in live if not vectors[j][row]]
                pruned = pruned or len(kept) < len(live)
                live = kept
    basis = []
    for solution in _completion([vectors[j] for j in live]):
        full = [0] * k
        for j, a in zip(live, solution):
            full[j] = a
        basis.append(tuple(full))
    return sorted(basis, key=_by_degree)


def _completion(vectors) -> list[tuple[int, ...]]:
    """Contejean-Devie completion over all rows at once (Inf. Comput. 1994):
    starting from the unit vectors, c grows by e_i only when the running
    total W c points against v_i, <W c, v_i> < 0; anything lying above an
    accepted solution is dropped, and a vector whose total is zero is
    accepted.  Below any minimal solution s, a partial c has
    <W c, W (s - c)> = -|W c|^2 < 0, so some such step stays below s and the
    sweep is complete; Contejean and Devie show that it terminates.
    """
    solutions: list = []
    frontier: dict[tuple[int, ...], tuple[int, ...]] = {}
    for unit, v in zip(_units(len(vectors)), vectors):
        if any(v):
            frontier[unit] = v
        else:
            solutions.append((support_mask(unit), unit))
    while frontier:
        grown_level: dict[tuple[int, ...], tuple[int, ...]] = {}
        fresh = set()
        for vec, total in frontier.items():
            for i, v in enumerate(vectors):
                if sum(map(operator.mul, total, v)) >= 0:
                    continue
                grown = vec[:i] + (vec[i] + 1,) + vec[i + 1:]
                if grown in grown_level or grown in fresh or _dominates(grown, solutions):
                    continue
                new_total = tuple(map(operator.add, total, v))
                if any(new_total):
                    grown_level[grown] = new_total
                else:
                    fresh.add(grown)
        solutions.extend((support_mask(vec), vec) for vec in fresh)
        frontier = grown_level
    return [vec for _, vec in solutions]


# ---------------------------------------------------------------------------
# full actions
# ---------------------------------------------------------------------------


def diagonal_invariants(action: DiagonalAction) -> list[Monomial]:
    """Minimal monomial generators of the invariant ring of the action.

    With no torus the congruence sieve answers directly.  Otherwise one
    Hilbert basis is taken over n + s columns: the torus rows padded with s
    zeros, and each cyclic row j of order d_j rewritten as the equation
    (w mod d_j) . a - d_j s_j = 0 in a slack s_j of its own (Sturmfels,
    Algorithms in Invariant Theory, 1.4).  For an invariant a each
    s_j = (w mod d_j) . a / d_j is a unique non-negative integer, so
    a -> (a, s) is a monoid isomorphism from the invariant exponents onto
    the solutions; it maps minimal generators exactly onto the Hilbert
    basis, and dropping the slack coordinates gives the answer.
    """
    n = action.ring.n
    orders = action.cyclic_orders
    if action.torus_rank == 0:
        generators = _congruence_generators(list(orders), list(action.cyclic_rows()), n)
        return [Monomial(v) for v in generators]
    s = len(orders)
    zeros = (0,) * s
    rows = [row + zeros for row in action.torus_rows()]
    rows += [
        tuple(w % d for w in row) + zeros[:j] + (-d,) + zeros[j + 1:]
        for j, (row, d) in enumerate(zip(action.cyclic_rows(), orders))
    ]
    basis = torus_hilbert_basis(list(zip(*rows)))
    return [Monomial(v) for v in sorted((c[:n] for c in basis), key=_by_degree)]


def is_prime_power(q: int) -> bool:
    """Whether q = p^k for a prime p and some k >= 1."""
    if q < 2:
        return False
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    while q % p == 0:
        q //= p
    return q == 1


def diagonal_invariants_literal(action: DiagonalAction, q: int) -> list[Monomial]:
    """Generators of the literal invariants over the field with q elements:
    torus rows become congruences mod q-1 (the multiplicative group order),
    cyclic rows keep their own moduli, which must divide q-1."""
    if not is_prime_power(q):
        raise ValueError(f"q = {q} is not a prime power")
    for d in action.cyclic_orders:
        if (q - 1) % d != 0:
            raise RootOfUnityUnavailable(
                f"F_{q} has no root of unity of order {d} (d must divide q-1)"
            )
    generators = _congruence_generators(
        _row_moduli(action, q), list(action.weights), action.ring.n
    )
    return [Monomial(v) for v in generators]


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

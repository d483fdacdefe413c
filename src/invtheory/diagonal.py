"""Invariants of diagonal actions: an algebraic torus crossed with a finite
abelian product, acting on variables through an integer weight matrix.

Rows of the weight matrix correspond to group factors (first the torus rows,
then one row per cyclic factor), columns to ring variables.  A monomial
x^a is invariant iff W a vanishes on the torus rows and vanishes mod d_i on
the cyclic rows, so everything here is integer combinatorics on exponent
vectors; the invariant ring is generated by monomials and the minimal
generating set is unique.

Actions with no torus, and literal GF(q) mode, where the torus rows become
congruences mod q-1, are finite: their invariant exponents form a lattice
L of finite index |H| in Z^n, and column j has a finite order o_j.  Every
generator but the o_j e_j lies in the box prod [0, o_j), which holds
prod o_j / |H| points of L, read off a Hermite basis of L (the primal
algorithm of Normaliz, Bruns and Ichim, J. Algebra 2010, on the orthant as
its one simplicial cone).  A degree-graded congruence sieve visits at least
|H| - 1 vectors instead, so it runs only where the box would hold more
than |H| points.  Every other action is one Contejean-Devie completion in
which each cyclic row is an equation in a slack variable of its own.  All
of them keep exponent vectors packed into ints and test a vector against
every accepted one at once with `poly.Staircase`, the Groebner engine's
divisibility test.
"""

from __future__ import annotations

import math
import operator

from .errors import DimensionMismatch, RingMismatch, RootOfUnityUnavailable
from .fields import _integers, _is_prime
from .poly import Monomial, Polynomial, PolynomialRing, Staircase, _packing


class DiagonalAction:
    """Torus rank r and cyclic orders (d_1..d_s) acting diagonally through
    an (r+s) x n integer weight matrix."""

    def __init__(self, ring: PolynomialRing, torus_rank: int, cyclic_orders, weights):
        self.ring = ring
        (self.torus_rank,) = _integers((torus_rank,), "torus rank", 0)
        self.cyclic_orders = _integers(cyclic_orders, "cyclic orders", 2)
        rows = tuple(_integers(row, "weights") for row in weights)
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


def _by_degree(vec: tuple[int, ...]):
    return (sum(vec), vec)


# ---------------------------------------------------------------------------
# finite abelian part: the lattice's box, or a congruence sieve
# ---------------------------------------------------------------------------


def _congruence_generators(moduli, rows, n: int) -> list[tuple[int, ...]]:
    """Minimal generators of {a in N^n : rows[i].a = 0 mod moduli[i] for all i}.

    They are the minimal nonzero points of N^n in the lattice L of solutions
    in Z^n.  Column j has an order o_j in the group H of residues, so o_j e_j
    is one of them, and any other, x, has every x_j < o_j: else x - o_j e_j
    would be a smaller one.  So the box prod [0, o_j) holds every generator
    but the o_j e_j, and L has prod o_j / |H| points in it.  The sieve visits
    every nonzero standard monomial of the ideal the generators span, at
    least |H| - 1 of them, since those monomials span K[x] over the
    invariants, of rank |H|.  So the box is searched exactly when
    prod o_j / |H| <= |H|, and the sieve runs otherwise.  The moduli must be
    positive.
    """
    orders, basis = _lattice(moduli, rows, n)
    if math.prod(orders) <= math.prod(b[j] for j, b in enumerate(basis)) ** 2:
        return _box_generators(orders, basis)
    return _sieve_generators(moduli, rows, n)


def _lattice(moduli, rows, n: int):
    """The orders o_j = lcm_i d_i / gcd(d_i, w_ij) and a triangular basis of
    the solution lattice L of `_congruence_generators`.

    The basis is the Hermite form of the vectors (residues of column j | e_j)
    and (d_i e_i | 0) in Z^(r + n), reduced column by column by integer row
    operations.  The r residue columns come first, so the rows with their
    pivots after them have residues 0 and span L.  Basis row j is zero before
    entry j and positive there, and these entries multiply to |H| =
    [Z^n : L].
    """
    r = len(moduli)
    orders = [math.lcm(*(d // math.gcd(d, row[j]) for row, d in zip(rows, moduli)))
              for j in range(n)]
    pending = [[row[j] % d for row, d in zip(rows, moduli)] + [int(k == j) for k in range(n)]
               for j in range(n)]
    pending += [[d * (k == i) for k in range(r)] + [0] * n for i, d in enumerate(moduli)]
    basis = []
    for col in range(r + n):
        live = [v for v in pending if v[col]]
        pending = [v for v in pending if not v[col]]
        while len(live) > 1:  # Euclid down the column
            pivot = min(live, key=lambda v: abs(v[col]))
            rest = []
            for v in live:
                if v is not pivot:
                    v = [a - v[col] // pivot[col] * b for a, b in zip(v, pivot)]
                    (rest if v[col] else pending).append(v)
            live = rest + [pivot]
        if live and col >= r:  # L has full rank, so every such column has one
            sign = 1 if live[0][col] > 0 else -1
            basis.append(tuple(sign * a for a in live[0][r:]))
    return orders, basis


def _box_points(orders, basis) -> list[tuple[int, ...]]:
    """The points of L in the box prod [0, o_j), 0 included.

    With h_j the basis' diagonal, they are the sums sum_j t_j b_j reduced mod
    o, 0 <= t_j < o_j / h_j: entry j of a sum is fixed by t_1..t_j, and h_j
    divides o_j (o_j e_j lies in L), so the choices of t_j give distinct
    residues mod o_j.  That makes prod o_j / |H| distinct points of L in the
    box, which are all of them.  The sums are packed ints, the b_j reduced
    mod o first, in fields that hold n (max o)^2 without a carry.
    """
    n = len(orders)
    top = max(orders, default=1)
    wide = (n * top * top).bit_length()
    shifts = range(0, wide * n, wide)
    sums = [0]
    for j, (row, o) in enumerate(zip(basis, orders)):
        step = sum(a % m << s for a, m, s in zip(row, orders, shifts))
        sums = [h + t * step for h in sums for t in range(o // row[j])]
    mask = (1 << wide) - 1
    return [tuple((h >> s & mask) % m for s, m in zip(shifts, orders)) for h in sums]


def _box_generators(orders, basis) -> list[tuple[int, ...]]:
    """The minimal vectors among {o_j e_j} and the nonzero box points, in
    `_by_degree` order: a candidate is kept when no kept one divides it."""
    n = len(orders)
    units = [tuple(o * (k == j) for k in range(n)) for j, o in enumerate(orders)]
    candidates = sorted([v for v in _box_points(orders, basis) if any(v)] + units,
                        key=_by_degree)
    width = max(orders, default=1).bit_length() + 1
    stairs = Staircase(n, width)
    kept = []
    for vec in candidates:
        h = sum(a << (width * j) for j, a in enumerate(vec))
        if not stairs.divisors(h):
            stairs.add(h)
            kept.append(vec)
    return kept


def _sieve_generators(moduli, rows, n: int) -> list[tuple[int, ...]]:
    """`_congruence_generators` by a degree-graded sieve over the staircase
    complement of the accepted generators: a level holds the vectors with no
    accepted divisor, so a weight-zero vector on a level is irreducible, and
    once a level empties no further irreducible vectors exist.  A vector
    grows only at coordinates from its last nonzero one on, so each vector
    has exactly one parent, and that parent is on the previous level: it has
    no accepted divisor either, and it is not weight-zero, since the vector
    would then lie above it.

    Vectors are packed ints in fields of (L + 1).bit_length() + 1 bits,
    L = lcm(moduli), and never reach a guard bit: o_j divides L, and o_j e_j
    is weight-zero and accepted on level o_j; a survivor's entry j thus stays
    below o_j, and a visited vector's entry j is at most o_j.  A vector's row
    weights are packed too, as sums below n L max(moduli) that are reduced
    mod each modulus only when the vector is tested.
    """
    top = math.lcm(*moduli)
    width = (top + 1).bit_length() + 1
    units = [1 << (width * j) for j in range(n)]
    span = (n * top * max(moduli, default=1)).bit_length()
    columns = [sum(row[j] % d << (span * r) for r, (row, d) in enumerate(zip(rows, moduli)))
               for j in range(n)]
    tests = [(span * r, d) for r, d in enumerate(moduli)]
    mask = (1 << span) - 1
    stairs = Staircase(n, width)  # the accepted vectors
    divisors = stairs.divisors
    level = list(zip(units, columns, range(n)))  # (vector, row weights, last nonzero index)
    while level:
        survivors = []
        for vec, weights, last in level:
            for shift, d in tests:
                if (weights >> shift & mask) % d:
                    survivors.append((vec, weights, last))
                    break
            else:
                stairs.add(vec)
        level = []
        for vec, weights, last in survivors:
            for j in range(last, n):
                grown = vec + units[j]
                if not divisors(grown):
                    level.append((grown, weights + columns[j], j))
    return sorted(map(_packing(n, (1 << width) - 1)[1], stairs.held), key=_by_degree)


def abelian_generators(cyclic_orders, cyclic_weights) -> list[Monomial]:
    """Minimal monomial generators for a finite abelian diagonal action given
    by congruence rows (one per cyclic factor)."""
    cyclic_orders = _integers(cyclic_orders, "cyclic orders", 2)
    rows = [_integers(row, "weights") for row in cyclic_weights]
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
    vectors = [_integers(v, "weights") for v in weight_vectors]
    k = len(vectors)
    if k == 0:
        return []
    r = len(vectors[0])
    if any(len(v) != r for v in vectors):
        raise DimensionMismatch("weight vectors differ in length")
    if r == 0:
        return [tuple(int(i == j) for j in range(k)) for i in range(k)]  # index order
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


def _completion(vectors, width: int = 16) -> list[tuple[int, ...]]:
    """Contejean-Devie completion over all rows at once (Inf. Comput. 1994):
    starting from the unit vectors, c grows by e_i only when the running
    total W c points against v_i, <W c, v_i> < 0; anything lying above an
    accepted solution is dropped, and a vector whose total is zero is
    accepted.  Below any minimal solution s, a partial c has
    <W c, W (s - c)> = -|W c|^2 < 0, so some such step stays below s and the
    sweep is complete; Contejean and Devie show that it terminates.

    c is a packed int in fields of ``width`` bits; a step that would set a
    guard bit restarts the completion with the fields doubled.  c carries
    its dot products <W c, v_j> with every column and |W c|^2, so both
    tests are O(1).  With the Gram matrix G_ij = <v_i, v_j>, growing c by
    e_i adds row i of G to the dot products and 2 <W c, v_i> + G_ii to the
    squared norm, and W c = 0 exactly when |W c|^2 = 0.
    """
    k = len(vectors)
    gram = [tuple(sum(map(operator.mul, v, u)) for u in vectors) for v in vectors]
    units = [1 << (width * j) for j in range(k)]
    stairs = Staircase(k, width)  # the solutions
    guard, divisors = stairs.guard, stairs.divisors
    frontier = {}  # packed c -> (its dot products, its squared norm)
    for unit, row, norm in zip(units, gram, map(operator.getitem, gram, range(k))):
        if norm:
            frontier[unit] = (row, norm)
        else:
            stairs.add(unit)
    while frontier:
        grown_level = {}
        fresh = set()
        for vec, (dots, norm) in frontier.items():
            for i, dot in enumerate(dots):
                if dot >= 0:
                    continue
                grown = vec + units[i]
                if grown & guard:
                    return _completion(vectors, 2 * width)
                if grown in grown_level or grown in fresh or divisors(grown):
                    continue
                row = gram[i]
                grown_norm = norm + 2 * dot + row[i]
                if grown_norm:
                    grown_level[grown] = (tuple(map(operator.add, dots, row)), grown_norm)
                else:
                    fresh.add(grown)
        for vec in fresh:
            stairs.add(vec)
        frontier = grown_level
    return list(map(_packing(k, (1 << width) - 1)[1], stairs.held))


# ---------------------------------------------------------------------------
# full actions
# ---------------------------------------------------------------------------


def diagonal_invariants(action: DiagonalAction) -> list[Monomial]:
    """Minimal monomial generators of the invariant ring of the action.

    With no torus `_congruence_generators` answers directly.  Otherwise one
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


def _integer_root(q: int, k: int) -> int:
    """The largest r with r^k <= q, for q >= 1, by Newton's method from
    above."""
    r = 1 << -(-q.bit_length() // k)
    while True:
        s = ((k - 1) * r + q // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def is_prime_power(q: int) -> bool:
    """Whether q = p^k for a prime p and some k >= 1: whether the exact
    integer k-th root of q with the largest k is prime.  Raises ValueError
    when `prime_field` would on that root."""
    if q < 2:
        return False
    for k in range(q.bit_length() - 1, 0, -1):
        r = _integer_root(q, k)
        if r ** k == q:  # at the latest for k = 1
            return _is_prime(r)


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

"""Tests for scalar fields, term orders, and exact linear algebra."""

import math
import random
import time
from fractions import Fraction

import pytest

from invtheory import QQ, DivisorNotInvertible, TermOrder, prime_field
from invtheory.diagonal import is_prime_power
from invtheory.fields import _is_prime
from invtheory.linalg import Echelon, nullspace, rank, rref

from test_finite import identity, mat_mul


def test_rationals_descriptor():
    assert QQ.characteristic() == 0
    assert QQ.is_rationals
    assert QQ.coerce(Fraction(3, 6)) == Fraction(1, 2)
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(-2, 7)) == Fraction(-7, 2)


def test_prime_field_arithmetic():
    F7 = prime_field(7)
    assert F7.characteristic() == 7
    assert not F7.is_rationals
    assert F7.coerce(10) == 3
    assert F7.coerce(-1) == 6
    assert F7.mul(3, 5) == 1
    assert F7.inv(3) == 5
    assert F7.from_pair(1, 2) == 4  # 1/2 = 4 mod 7


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(ValueError):
        prime_field(6)
    with pytest.raises(ValueError):
        prime_field(1)


def test_large_prime_field_returns_at_once():
    start = time.perf_counter()
    field = prime_field(2**61 - 1)
    assert time.perf_counter() - start < 0.1
    assert field.inv(2) * 2 % (2**61 - 1) == 1


def test_primality_matches_trial_division_and_rejects_carmichael_numbers():
    def trial(p):
        return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))

    assert [p for p in range(-2, 5000) if _is_prime(p)] == [p for p in range(-2, 5000) if trial(p)]
    # Carmichael numbers and strong pseudoprimes to the bases 2..37
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 3215031751,
              318665857834031151167461):
        assert not _is_prime(n)
        with pytest.raises(ValueError):
            prime_field(n)
    for p in (2**31 - 1, 2**61 - 1, 10**18 + 9, 3317044064679887385961813):
        assert _is_prime(p)


def test_primality_above_the_deterministic_bound_raises():
    with pytest.raises(ValueError, match="cannot decide"):
        prime_field(2**89 - 1)
    with pytest.raises(ValueError, match="cannot decide"):
        _is_prime(3317044064679887385961981)  # a strong pseudoprime to all 13 bases
    assert not _is_prime(2**100)  # a small factor still decides


def test_prime_powers_by_integer_roots():
    assert is_prime_power(3**40)
    assert is_prime_power((2**61 - 1) ** 3)
    assert is_prime_power(2)
    assert not is_prime_power(6**40)
    assert not is_prime_power(1)
    assert not is_prime_power(2**61 * 3)

    def trial(q):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        while q % p == 0:
            q //= p
        return q == 1

    assert all(is_prime_power(q) == trial(q) for q in range(2, 5000))


def test_prime_field_division_by_zero():
    F5 = prime_field(5)
    with pytest.raises(DivisorNotInvertible):
        F5.inv(0)
    with pytest.raises(DivisorNotInvertible):
        F5.from_pair(1, 5)


def test_lex_versus_grevlex_on_small_monomials():
    lex = TermOrder.lex()
    grevlex = TermOrder.grevlex()
    # x > y^2 under lex, x < y^2 under grevlex (degree first)
    assert lex.compare((1, 0), (0, 2)) == 1
    assert grevlex.compare((1, 0), (0, 2)) == -1
    # grevlex tie-break: y^2 > x*z (smaller trailing exponent wins)
    assert grevlex.compare((0, 2, 0), (1, 0, 1)) == 1


def test_elimination_order_block_dominance():
    # any monomial containing a block-1 variable beats any pure block-2 monomial
    order = TermOrder.elimination(1)
    assert order.compare((1, 0, 0), (0, 5, 5)) == 1
    assert order.compare((0, 3, 0), (1, 0, 0)) == -1
    # within block 2 the order is grevlex on the tail
    assert order.compare((0, 1, 0), (0, 0, 1)) == TermOrder.grevlex().compare((1, 0), (0, 1))


def test_term_order_axioms_on_random_triples():
    rng = random.Random(20260815)
    for order in (TermOrder.lex(), TermOrder.grevlex(), TermOrder.elimination(2)):
        for _ in range(200):
            a, b, c = (tuple(rng.randrange(4) for _ in range(4)) for _ in range(3))
            # total and antisymmetric
            assert order.compare(a, b) == -order.compare(b, a)
            if a == b:
                assert order.compare(a, b) == 0
            # multiplicative: a < b implies a+c < b+c
            if order.compare(a, b) == -1:
                ac = tuple(u + v for u, v in zip(a, c))
                bc = tuple(u + v for u, v in zip(b, c))
                assert order.compare(ac, bc) == -1
            # 1 is minimal
            zero = (0, 0, 0, 0)
            if a != zero:
                assert order.compare(a, zero) == 1


def test_rref_and_rank_known_matrix():
    rows = [[Fraction(1), Fraction(2), Fraction(3)],
            [Fraction(2), Fraction(4), Fraction(6)],
            [Fraction(1), Fraction(0), Fraction(1)]]
    reduced, pivots = rref(rows, QQ)
    assert pivots == [0, 1]
    assert rank(rows, QQ) == 2
    assert reduced[0] == [Fraction(1), Fraction(0), Fraction(1)]
    assert reduced[1] == [Fraction(0), Fraction(1), Fraction(1)]


def test_nullspace_known_matrix():
    rows = [[Fraction(1), Fraction(1), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(1)]]
    basis = nullspace(rows, 3, QQ)
    assert basis == [(Fraction(1), Fraction(-1), Fraction(0))]


def test_nullspace_of_zero_map_is_full():
    basis = nullspace([], 2, QQ)
    assert basis == [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]


def test_invertibility_by_rank():
    F5 = prime_field(5)
    m = [[1, 2], [3, 4]]
    assert rank(m, F5) == 2  # det -2 mod 5
    assert rank([[1, 2], [2, 4]], F5) == 1
    assert rank(identity(3, QQ), QQ) == 3


def test_matrix_multiplication_matches_rank_identities():
    rng = random.Random(11)
    for _ in range(25):
        a = [[Fraction(rng.randrange(-3, 4)) for _ in range(3)] for _ in range(3)]
        b = [[Fraction(rng.randrange(-3, 4)) for _ in range(3)] for _ in range(3)]
        ab = mat_mul(a, b, QQ)
        assert rank(ab, QQ) <= min(rank(a, QQ), rank(b, QQ))
        assert mat_mul(a, identity(3, QQ), QQ) == tuple(tuple(row) for row in a)


def test_nullspace_vectors_annihilate_random_matrices():
    rng = random.Random(7)
    F3 = prime_field(3)
    for field in (QQ, F3):
        for _ in range(30):
            n, m = rng.randrange(1, 5), rng.randrange(1, 5)
            rows = [[field.coerce(rng.randrange(-4, 5)) for _ in range(m)] for _ in range(n)]
            basis = nullspace(rows, m, field)
            assert rank(rows, field) + len(basis) == m
            for vec in basis:
                for row in rows:
                    acc = field.zero()
                    for c, v in zip(row, vec):
                        acc = field.add(acc, field.mul(c, v))
                    assert field.is_zero(acc)


# ---------------------------------------------------------------------------
# The fraction-free echelon against a plain Gauss-Jordan reference
# ---------------------------------------------------------------------------

FIELDS = [QQ, prime_field(2), prime_field(3), prime_field(7), prime_field(32003)]

SHAPES = [(0, 0), (0, 3), (1, 1), (1, 7), (4, 1), (3, 3), (6, 6),
          (8, 3), (12, 5), (3, 8), (5, 12)]


def reference_rref(rows, field):
    """Textbook Gauss-Jordan on field scalars (Fractions over Q): the first
    usable pivot row, scaled to 1, clears its column above and below."""
    mat = [list(row) for row in rows]
    pivots = []
    for col in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        found = [i for i in range(r, len(mat)) if not field.is_zero(mat[i][col])]
        if not found:
            continue
        mat[r], mat[found[0]] = mat[found[0]], mat[r]
        inv = field.inv(mat[r][col])
        mat[r] = [field.mul(inv, v) for v in mat[r]]
        for i in range(len(mat)):
            if i != r and not field.is_zero(mat[i][col]):
                factor = mat[i][col]
                mat[i] = [field.sub(v, field.mul(factor, w)) for v, w in zip(mat[i], mat[r])]
        pivots.append(col)
    return mat, pivots


def reference_nullspace(rows, ncols, field):
    reduced, pivots = reference_rref(rows, field)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [field.zero()] * ncols
        vec[free] = field.one()
        for r, col in enumerate(pivots):
            vec[col] = field.neg(reduced[r][free])
        basis.append(vec)
    return [tuple(row) for row in reference_rref(basis, field)[0]]


def random_matrix(rng, field, nrows, ncols):
    """Rows that are zero, duplicates, combinations of earlier rows (so the
    matrix is often rank-deficient) or sparse random; over Q the entries have
    denominators up to 6."""
    def scalar():
        if rng.random() < 0.4:
            return field.zero()
        if field.is_rationals:
            return Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
        return rng.randrange(field.p)

    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            row = [field.zero()] * ncols
        elif kind < 0.3 and rows:
            row = list(rng.choice(rows))
        elif kind < 0.55 and rows:
            a, b, c, d = rng.choice(rows), rng.choice(rows), scalar(), scalar()
            row = [field.add(field.mul(c, x), field.mul(d, y)) for x, y in zip(a, b)]
        else:
            row = [scalar() for _ in range(ncols)]
        rows.append(row)
    return rows


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_rref_rank_nullspace_match_gauss_jordan_reference(field):
    rng = random.Random(20261018 + field.characteristic())
    scalar_type = type(field.zero())
    for nrows, ncols in SHAPES:
        for _ in range(12):
            rows = random_matrix(rng, field, nrows, ncols)
            expected = reference_rref(rows, field)
            reduced, pivots = rref(rows, field)
            assert (reduced, pivots) == expected
            assert all(type(row) is list for row in reduced)
            assert all(type(v) is scalar_type for row in reduced for v in row)
            assert rank(rows, field) == len(expected[1])
            assert nullspace(rows, ncols, field) == reference_nullspace(rows, ncols, field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_echelon_add_row_reports_rank_growth(field):
    rng = random.Random(7 + field.characteristic())
    for nrows, ncols in SHAPES:
        rows = random_matrix(rng, field, nrows, ncols)
        echelon = Echelon(field)
        before = 0
        for i, row in enumerate(rows):
            after = len(reference_rref(rows[: i + 1], field)[1])
            assert echelon.add_row(row) == (after > before)
            before = after
            if i == nrows // 2:
                echelon.rref()  # back-substitutes in place; rows can still be added
        reduced, pivots = reference_rref(rows, field)
        assert echelon.rref() == (reduced[: len(pivots)], pivots)


def test_echelon_add_row_known_flags():
    echelon = Echelon(QQ)
    rows = [(0, 0, 0), (1, 2, 3), (2, 4, 6), (0, 1, Fraction(1, 2)),
            (1, 3, Fraction(7, 2)), (0, 0, 5), (1, 1, 1)]
    flags = [echelon.add_row([Fraction(v) for v in row]) for row in rows]
    assert flags == [False, True, False, True, False, True, False]
    assert echelon.pivots == [0, 1, 2]

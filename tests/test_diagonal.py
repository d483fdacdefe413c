"""Tests for diagonal torus and finite abelian actions on monomials."""

import contextlib
import itertools
import math
import random
import signal
import time
from fractions import Fraction

import pytest

from invtheory import (
    DiagonalAction,
    DimensionMismatch,
    QQ,
    RootOfUnityUnavailable,
    abelian_generators,
    diagonal_invariants,
    diagonal_invariants_literal,
    format_polynomial,
    is_invariant_exponent,
    polynomial_ring,
    reynolds_diagonal,
    torus_hilbert_basis,
)
from invtheory.diagonal import (
    _box_generators,
    _box_points,
    _completion,
    _lattice,
    _sieve_generators,
)
from test_acceptance import enumerate_invariant_vectors, minimal_vectors

R4 = polynomial_ring(QQ, ("x_1", "x_2", "x_3", "x_4"))
R2 = polynomial_ring(QQ, ("x_1", "x_2"))

# the running 3-torus example on 4 variables
W_TORUS = [[5, -3, -1, 4], [-3, 1, 1, 5], [0, -4, 2, 6]]
TORUS_ACTION = DiagonalAction(R4, 3, [], W_TORUS)


def vectors_of_degree_at_most(n, bound):
    for total in range(bound + 1):
        for cuts in itertools.combinations(range(total + n - 1), n - 1):
            prev = -1
            parts = []
            for c in cuts:
                parts.append(c - prev - 1)
                prev = c
            parts.append(total + n - 2 - prev)
            yield tuple(parts)


def brute_force_minimal_invariants(action, bound):
    invariant = [v for v in vectors_of_degree_at_most(action.ring.n, bound)
                 if any(v) and is_invariant_exponent(action, v)]
    minimal = []
    for v in sorted(invariant, key=lambda u: (sum(u), u)):
        if not any(all(a <= b for a, b in zip(u, v)) for u in minimal):
            minimal.append(v)
    return minimal


def test_construction_validation():
    with pytest.raises(DimensionMismatch):
        DiagonalAction(R2, 1, [2], [[1, 1]])  # needs 2 rows
    with pytest.raises(DimensionMismatch):
        DiagonalAction(R2, 1, [], [[1, 1, 1]])  # row length 3 on 2 variables
    with pytest.raises(ValueError):
        DiagonalAction(R2, -1, [], [])
    with pytest.raises(ValueError):
        DiagonalAction(R2, 0, [1], [[1, 1]])  # cyclic order below 2


def test_is_invariant_exponent_examples():
    assert is_invariant_exponent(TORUS_ACTION, (1, 1, 2, 0))
    assert not is_invariant_exponent(TORUS_ACTION, (1, 0, 0, 0))
    zero = DiagonalAction(R2, 1, [], [[0, 0]])
    for v in vectors_of_degree_at_most(2, 4):
        assert is_invariant_exponent(zero, v)


def test_is_invariant_exponent_dimension_check():
    with pytest.raises(DimensionMismatch):
        is_invariant_exponent(TORUS_ACTION, (1, 1))


def test_abelian_generators_examples():
    assert [m.exponents for m in abelian_generators([2], [[1, 1]])] == [(0, 2), (1, 1), (2, 0)]
    assert sorted(m.exponents for m in abelian_generators([3], [[1, 2]])) == [(0, 3), (1, 1), (3, 0)]
    assert [m.exponents for m in abelian_generators([2], [[0, 1]])] == [(1, 0), (0, 2)]


def test_non_integral_weights_and_orders_are_rejected():
    # an error, not a truncation: [[1.5, -1]] must not act as [[1, -1]]
    with pytest.raises(ValueError, match="integral"):
        DiagonalAction(R2, 1, [], [[1.5, -1]])
    with pytest.raises(ValueError, match="integral"):
        DiagonalAction(R2, 0, [2.5], [[1, 1]])
    with pytest.raises(ValueError, match="integral"):
        torus_hilbert_basis([(1.5,), (-1,)])
    with pytest.raises(ValueError, match="integral"):
        abelian_generators([3], [[Fraction(1, 2), 1]])
    with pytest.raises(ValueError, match="integral"):
        abelian_generators([3.5], [[1, 1]])
    # integral values of other numeric types still count
    assert torus_hilbert_basis([(2.0,), (Fraction(-1),)]) == [(1, 2)]
    action = DiagonalAction(R2, 1, [], [[2.0, -2]])
    assert [m.exponents for m in diagonal_invariants(action)] == [(1, 1)]


def test_abelian_generators_reject_orders_below_two():
    # the sieve's residue fields need positive moduli, and order 1 is trivial
    for d in (0, 1, -3):
        with pytest.raises(ValueError, match="at least 2"):
            abelian_generators([d], [[1, 1]])


def test_packed_fields_hold_large_entries():
    # the sieve sizes its fields from lcm(moduli); the completion starts at
    # 16-bit fields and widens when an entry reaches 2^15
    got = [m.exponents for m in abelian_generators([300], [[1, 299]])]
    assert got == plain_congruence_sieve([300], [[1, 299]], 2)
    assert torus_hilbert_basis([(1,), (-40000,)]) == [(40000, 1)]


def test_completion_that_widens_mid_run_matches_brute_force_oracle():
    # 3-bit fields hold entries up to 3, so the completion restarts with
    # wider fields partway through; the basis has entries up to 11
    torus = [[5, -3, 1, -2], [1, 0, -2, 1]]
    columns = list(zip(*torus))
    got = sorted(_completion(columns, width=3), key=lambda v: (sum(v), v))
    assert max(map(max, got)) > 3
    assert got == torus_hilbert_basis(columns)
    assert_matches_brute_force_oracle(mixed_action(torus, [], []), got)


def test_abelian_generators_against_brute_force():
    rng = random.Random(321)
    for _ in range(25):
        n = rng.randrange(1, 4)
        s = rng.randrange(1, 3)
        orders = [rng.randrange(2, 5) for _ in range(s)]
        weights = [[rng.randrange(0, d) for _ in range(n)] for d in orders]
        ring = polynomial_ring(QQ, tuple(f"x_{i+1}" for i in range(n)))
        action = DiagonalAction(ring, 0, orders, weights)
        bound = 1
        for d in orders:
            bound *= d
        expect = brute_force_minimal_invariants(action, bound)
        got = [m.exponents for m in abelian_generators(orders, weights)]
        assert sorted(got) == sorted(expect)


def test_torus_hilbert_basis_examples():
    assert torus_hilbert_basis([(1,), (-1,)]) == [(1, 1)]
    assert torus_hilbert_basis([(1,), (1,)]) == []
    assert torus_hilbert_basis([(2,), (-3,)]) == [(3, 2)]


def test_torus_hilbert_basis_properties():
    rng = random.Random(77)
    for _ in range(25):
        k = rng.randrange(1, 5)
        r = rng.randrange(1, 3)
        vectors = [tuple(rng.randrange(-3, 4) for _ in range(r)) for _ in range(k)]
        basis = torus_hilbert_basis(vectors)
        for c in basis:
            assert any(c)
            for i in range(r):
                assert sum(cj * vectors[j][i] for j, cj in enumerate(c)) == 0
        for a, b in itertools.combinations(basis, 2):
            assert not all(x <= y for x, y in zip(a, b))
            assert not all(y <= x for x, y in zip(a, b))
        # completeness: every solution of degree <= 6 is an N-combination of basis vectors
        solutions = [v for v in vectors_of_degree_at_most(k, 6)
                     if any(v) and all(sum(cj * vectors[j][i] for j, cj in enumerate(v)) == 0
                                       for i in range(r))]
        seen = {}

        def decomposable(v):
            if not any(v):
                return True
            if v in seen:
                return seen[v]
            seen[v] = False
            for b in basis:
                if all(x <= y for x, y in zip(b, v)):
                    rest = tuple(y - x for x, y in zip(b, v))
                    if decomposable(rest):
                        seen[v] = True
                        break
            return seen[v]

        for v in solutions:
            assert decomposable(v)


def test_diagonal_invariants_examples():
    assert [m.exponents for m in diagonal_invariants(TORUS_ACTION)] == [(1, 1, 2, 0)]
    zero = DiagonalAction(R2, 1, [], [[0, 0]])
    assert [m.exponents for m in diagonal_invariants(zero)] == [(0, 1), (1, 0)]
    pairing = DiagonalAction(R2, 1, [], [[1, -1]])
    assert [m.exponents for m in diagonal_invariants(pairing)] == [(1, 1)]


def test_diagonal_invariants_random_oracle():
    rng = random.Random(5150)
    for _ in range(20):
        n = rng.randrange(1, 4)
        r = rng.randrange(0, 3)
        s = rng.randrange(0, 2)
        if r + s == 0:
            r = 1
        orders = [rng.randrange(2, 4) for _ in range(s)]
        weights = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(r)]
        weights += [[rng.randrange(0, d) for _ in range(n)] for d in orders]
        ring = polynomial_ring(QQ, tuple(f"x_{i+1}" for i in range(n)))
        action = DiagonalAction(ring, r, orders, weights)
        bound = 4 * n * max((abs(w) for row in weights[:r] for w in row), default=1)
        bound = max(bound, 1)
        for d in orders:
            bound += d
        got = [m.exponents for m in diagonal_invariants(action)]
        expect = brute_force_minimal_invariants(action, bound)
        assert sorted(got) == sorted(expect)
        for v in got:
            assert sum(v) <= bound


def test_monomial_set_is_sorted_and_irreducible():
    sets = [
        diagonal_invariants(TORUS_ACTION),
        diagonal_invariants_literal(TORUS_ACTION, 9),
        abelian_generators([2, 3], [[1, 1, 0], [0, 1, 2]]),
    ]
    for monomials in sets:
        exps = [m.exponents for m in monomials]
        assert len(set(exps)) == len(exps)
        assert exps == sorted(exps, key=lambda v: (sum(v), v))
        for a, b in itertools.permutations(exps, 2):
            assert not all(x <= y for x, y in zip(a, b)) or a == b


def test_literal_paper_example_over_gf9():
    got = {m.exponents for m in diagonal_invariants_literal(TORUS_ACTION, 9)}
    assert got == {
        (1, 1, 2, 0), (0, 0, 0, 8), (0, 0, 8, 0), (0, 4, 4, 0), (0, 8, 0, 0),
        (2, 6, 0, 0), (4, 0, 4, 0), (4, 4, 0, 0), (6, 2, 0, 0), (8, 0, 0, 0),
    }


def test_literal_paper_torus_over_gf81():
    # the degree sieve visits every standard monomial, at least |H| - 1 =
    # 255,999 of them (1.4 s on a 2-core Xeon VM); the box holds 160 points
    with wall_budget(1):
        got = [m.exponents for m in diagonal_invariants_literal(TORUS_ACTION, 81)]
    assert got == [
        (1, 1, 2, 0), (0, 0, 0, 80), (0, 0, 80, 0), (0, 40, 40, 0), (0, 80, 0, 0),
        (20, 60, 0, 0), (40, 0, 40, 0), (40, 40, 0, 0), (60, 20, 0, 0), (80, 0, 0, 0)]


def test_box_visits_prod_orders_over_index_lattice_points():
    for q, size in ((25, 48), (81, 160)):
        orders, basis = _lattice([q - 1] * 3, W_TORUS, 4)
        assert all(row[:j] == (0,) * j and row[j] > 0 for j, row in enumerate(basis))
        points = _box_points(orders, basis)
        assert len(set(points)) == len(points) == size
        assert size * math.prod(row[j] for j, row in enumerate(basis)) == math.prod(orders)
        for p in points:
            assert all(a < o for a, o in zip(p, orders))
            assert is_invariant_exponent(TORUS_ACTION, p, q)
    cases = [
        # q = 2: every modulus is 1, so the box is {0} and the units are the answer
        ([1, 1, 1], W_TORUS, 4, [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)]),
        # the middle column is 0 mod 6, so its order is 1
        ([6], [[2, 6, 3]], 3, [(0, 1, 0), (0, 0, 2), (3, 0, 0)]),
        ([12], [[8]], 1, [(3,)]),
    ]
    for moduli, rows, n, expect in cases:
        orders, basis = _lattice(moduli, rows, n)
        assert _box_points(orders, basis) == [(0,) * n]
        assert _box_generators(orders, basis) == expect == plain_congruence_sieve(moduli, rows, n)


def test_literal_degenerate_and_small_fields():
    assert [m.exponents for m in diagonal_invariants_literal(TORUS_ACTION, 2)] == [
        (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)]
    one = polynomial_ring(QQ, ("x",))
    scale = DiagonalAction(one, 1, [], [[1]])
    assert [m.exponents for m in diagonal_invariants_literal(scale, 4)] == [(3,)]


def test_literal_requires_compatible_roots_of_unity():
    action = DiagonalAction(R2, 0, [5], [[1, 2]])
    with pytest.raises(RootOfUnityUnavailable):
        diagonal_invariants_literal(action, 9)
    with pytest.raises(ValueError):
        diagonal_invariants_literal(action, 12)  # not a prime power


def test_literal_approaches_torus_answer_for_large_q():
    # all torus invariant exponents here stay far below q-1, so the two agree
    pairing = DiagonalAction(R2, 1, [], [[1, -1]])
    exact = [m.exponents for m in diagonal_invariants(pairing)]
    literal = [m.exponents for m in diagonal_invariants_literal(pairing, 2 ** 13)]
    assert [v for v in literal if sum(v) <= 6] == exact
    # the extra literal generators are the Frobenius-order powers x_i^(q-1)
    assert set(literal) - set(exact) == {(2 ** 13 - 1, 0), (0, 2 ** 13 - 1)}


def test_reynolds_diagonal_examples():
    f = R4.parse("x_1 + x_1*x_2*x_3^2")
    assert format_polynomial(reynolds_diagonal(TORUS_ACTION, f)) == "x_1*x_2*x_3^2"
    inv = R4.parse("x_1*x_2*x_3^2")
    assert reynolds_diagonal(TORUS_ACTION, inv) == inv
    assert reynolds_diagonal(TORUS_ACTION, R4.parse("x_1 + x_2^3")).is_zero()


def test_reynolds_diagonal_properties():
    rng = random.Random(31)
    for _ in range(40):
        f = R4.zero()
        for _ in range(rng.randrange(5)):
            exps = [rng.randrange(4) for _ in range(4)]
            f = f + R4.monomial(exps, Fraction(rng.randrange(-5, 6), rng.randrange(1, 3)))
        g = reynolds_diagonal(TORUS_ACTION, f)
        assert reynolds_diagonal(TORUS_ACTION, g) == g
        for m in g.monomials():
            assert is_invariant_exponent(TORUS_ACTION, m.exponents)
        h = R4.parse("x_1*x_2*x_3^2")
        assert reynolds_diagonal(TORUS_ACTION, f + h) == g + h


# ---------------------------------------------------------------------------
# Hilbert-basis engine: edge cases, random tori, and a plain reference sieve
# ---------------------------------------------------------------------------


class OverBudget(Exception):
    """Raised by the alarm when a wall budget runs out."""


@contextlib.contextmanager
def wall_budget(seconds):
    """Turn a runaway computation into a failure instead of a hang, and check
    the elapsed wall time afterwards as the acceptance tests do."""
    def expire(signum, frame):
        raise OverBudget

    timed = hasattr(signal, "setitimer")
    if timed:
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.monotonic()
    try:
        yield
    except OverBudget:
        # a fresh exception: the interrupted frames can lack a line number
        raise AssertionError(f"over the {seconds} s wall budget") from None
    finally:
        if timed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start <= seconds


def test_torus_hilbert_basis_edge_cases():
    # no rows: every unit vector is a solution, listed in index order
    assert torus_hilbert_basis([(), ()]) == [(1, 0), (0, 1)]
    assert torus_hilbert_basis([]) == []
    # a zero column is a solution by itself
    assert torus_hilbert_basis([(0, 0), (1, -1), (-1, 1)]) == [(1, 0, 0), (0, 1, 1)]
    # all weights non-negative and some positive: only c = 0 solves
    assert torus_hilbert_basis([(1, 2), (3, 0), (0, 1)]) == []
    assert torus_hilbert_basis([(3,), (-2,), (0,)]) == [(0, 0, 1), (2, 3, 0)]
    with pytest.raises(DimensionMismatch):
        torus_hilbert_basis([(1,), (1, 2)])


def test_literal_over_gf2_keeps_every_variable():
    # q - 1 = 1, so every monomial is literally invariant over F_2
    ring = polynomial_ring(QQ, ("a", "b", "c"))
    units = [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    torus = DiagonalAction(ring, 1, [], [[1, -1, 2]])
    assert [m.exponents for m in diagonal_invariants_literal(torus, 2)] == units
    trivial = DiagonalAction(ring, 0, [], [])
    assert [m.exponents for m in diagonal_invariants_literal(trivial, 2)] == units
    assert [m.exponents for m in diagonal_invariants(trivial)] == units


def random_tori():
    """The 40 seeded two-row tori; draws 4, 8 and 32 blow up when the rows
    are imposed one at a time."""
    rng = random.Random(5)
    draws = []
    for _ in range(40):
        n = rng.randint(3, 6)
        r = rng.randint(1, 2)
        draws.append([[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)])
    return draws


def test_random_tori_finish_and_match_brute_force_oracle():
    draws = random_tori()
    assert draws[4] == [[-1, 4, -1, -2, -1], [2, 0, -4, 1, 2]]
    assert draws[32] == [[-2, 3, -4, -3, 3, -1], [0, -4, -2, 2, -4, 3]]
    with wall_budget(10):
        bases = [torus_hilbert_basis(list(zip(*rows))) for rows in draws]
    for rows, basis in zip(draws, bases):
        n = len(rows[0])
        ring = polynomial_ring(QQ, tuple(f"x_{i+1}" for i in range(n)))
        action = DiagonalAction(ring, len(rows), [], rows)
        bound = max((sum(c) for c in basis), default=1)
        expect = minimal_vectors(enumerate_invariant_vectors(action, bound))
        assert basis == expect


def test_torus_completion_grows_only_against_the_total():
    # many orthogonal columns: growing also where <W c, v_i> = 0 still gives
    # the right basis, but the frontier explodes (on a 2-core Xeon VM, over
    # 40 s instead of 0.05 s)
    columns = [(0, -1, 0, 0), (0, -1, 0, 0), (0, -1, 0, 1), (-1, 1, 0, -1),
               (-1, 0, 1, 1), (0, -1, 1, 0), (0, -1, 0, 1), (1, -1, -1, 1),
               (0, 1, -1, -1)]
    with wall_budget(5):
        assert torus_hilbert_basis(columns) == []


def plain_congruence_sieve(moduli, rows, n):
    """Reference sieve: every survivor grows at every coordinate, a set merges
    the duplicates, and domination is tested exactly against each accepted
    vector."""
    rows = [[w % d for w in row] for row, d in zip(rows, moduli)]
    accepted = []
    level = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    while level:
        survivors = []
        for vec in level:
            if all(sum(w * a for w, a in zip(row, vec)) % d == 0
                   for row, d in zip(rows, moduli)):
                accepted.append(vec)
            else:
                survivors.append(vec)
        grown = set()
        for vec in survivors:
            for i in range(n):
                up = tuple(a + (j == i) for j, a in enumerate(vec))
                if not any(all(x <= y for x, y in zip(low, up)) for low in accepted):
                    grown.add(up)
        level = sorted(grown)
    return sorted(accepted, key=lambda v: (sum(v), v))


def test_congruence_sieve_matches_plain_reference():
    rng = random.Random(2718)
    with wall_budget(30):
        compare_with_plain_sieve(rng)


def compare_with_plain_sieve(rng):
    sides = set()
    for q in (3, 4, 5, 7, 8, 9, 16, 25):
        for _ in range(6):
            n = rng.randint(1, 3 if q > 9 else 4)
            r = rng.randint(0, 2)
            divisors = [d for d in range(2, q) if (q - 1) % d == 0]
            orders = [rng.choice(divisors) for _ in range(rng.randint(0, 1))]
            if r + len(orders) == 0:
                r = 1
            weights = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
            weights += [[rng.randrange(d) for _ in range(n)] for d in orders]
            ring = polynomial_ring(QQ, tuple(f"x_{i+1}" for i in range(n)))
            action = DiagonalAction(ring, r, orders, weights)
            got = [m.exponents for m in diagonal_invariants_literal(action, q)]
            assert got == plain_congruence_sieve([q - 1] * r + orders, weights, n)
            if orders:
                got = [m.exponents for m in abelian_generators(orders, weights[r:])]
                assert got == plain_congruence_sieve(orders, weights[r:], n)
            sides.add(assert_both_paths([q - 1] * r + orders, weights, n))
    # three torus rows over larger fields, where the box is mostly the cheaper
    for q in (25, 49, 81):
        for _ in range(3):
            n = rng.randint(2, 3 if q == 25 else 2)
            weights = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(3)]
            sides.add(assert_both_paths([q - 1] * 3, weights, n))
    # one small cyclic factor on many variables, where the sieve is
    for d in (2, 3, 5):
        n = rng.randint(3, 5)
        sides.add(assert_both_paths([d], [[rng.randrange(1, d) for _ in range(n)]], n))
    assert sides == {"box", "sieve"}


def assert_both_paths(moduli, rows, n):
    """Both private paths agree with the plain sieve; which one the selection
    rule takes."""
    expect = plain_congruence_sieve(moduli, rows, n)
    orders, basis = _lattice(moduli, rows, n)
    assert _box_generators(orders, basis) == expect
    assert _sieve_generators(moduli, rows, n) == expect
    index = math.prod(row[j] for j, row in enumerate(basis))
    assert len(_box_points(orders, basis)) * index == math.prod(orders)
    return "box" if math.prod(orders) <= index ** 2 else "sieve"


def mixed_action(torus, orders, cyclic):
    n = len(torus[0])
    ring = polynomial_ring(QQ, tuple(f"x_{i+1}" for i in range(n)))
    return DiagonalAction(ring, len(torus), orders, torus + cyclic)


def assert_matches_brute_force_oracle(action, got):
    bound = max((sum(v) for v in got), default=1)
    assert got == minimal_vectors(enumerate_invariant_vectors(action, bound))


def test_mixed_action_with_many_abelian_generators():
    # Z4 alone has 15 generators here; a torus completion over them blows up
    # although the invariant ring is generated by one monomial
    action = mixed_action([[0, -3, 2], [-1, 1, 2]], [4], [[3, 3, 3]])
    with wall_budget(1):
        got = [m.exponents for m in diagonal_invariants(action)]
    assert got == [(32, 8, 12)]
    assert_matches_brute_force_oracle(action, got)


def test_mixed_actions_with_two_cyclic_factors():
    # on a 2-core Xeon VM these take about 1 s and 0.5 s; a torus completion
    # over the abelian generators does not finish either in 30 s
    draws = [
        ([[-1, -2, -2, 3], [1, 2, 0, -2]], [5, 3], [[1, 4, 4, 1], [1, 1, 0, 0]]),
        ([[-1, -1, 2, 0], [3, -2, 3, 3]], [6, 3], [[2, 3, 5, 4], [2, 2, 1, 0]]),
    ]
    actions = [mixed_action(*draw) for draw in draws]
    with wall_budget(20):
        results = [[m.exponents for m in diagonal_invariants(a)] for a in actions]
    assert results[1] == [(3, 27, 15, 0), (0, 36, 18, 6)]
    for action, got in zip(actions, results):
        assert_matches_brute_force_oracle(action, got)


def test_rows_of_one_sign_set_their_columns_aside():
    # a row whose entries over the remaining columns all have one sign makes
    # every column where it is nonzero 0 in each solution; the completion
    # over all columns takes 1.1-1.4 s on a 2-core Xeon VM for each of the
    # first three, whose answer is empty
    cases = [
        (([[4, 4, -3, -1], [0, 1, 1, 3]], [24], [[6, 3, 20, 0]]), []),
        (([[1, 1, 1]], [24], [[15, 5, 21]]), []),
        (([[-1, -1, -1]], [24], [[15, 5, 21]]), []),
        (([[1, -2, -1, 3], [0, 1, 0, 2]], [4], [[1, 0, 3, 1]]), [(1, 0, 1, 0)]),
    ]
    actions = [mixed_action(*draw) for draw, _ in cases]
    with wall_budget(1):
        results = [[m.exponents for m in diagonal_invariants(a)] for a in actions]
    for action, got, (_, expect) in zip(actions, results, cases):
        assert got == expect
        assert got == minimal_vectors(enumerate_invariant_vectors(action, 12))
    columns = [(1, 0), (-1, 1), (1, 0), (-1, 0)]
    assert torus_hilbert_basis(columns) == [(0, 0, 1, 1), (1, 0, 0, 1)]

"""Differential tests for the finite-group path on sparse rows and for the
integer polynomial product.

Group closures, Molien traces and orbit sums are checked against dense
references: the `mat_mul` breadth-first closure, traces of `mat_mul` powers
and the average over the closure.  `Polynomial.__mul__` and `substitute`
are checked against schoolbook expansions in the field's own arithmetic,
sorted by the term order's key.
"""

import math
import random
from fractions import Fraction

import pytest

from invtheory import (
    FiniteGroupAction,
    QQ,
    TermOrder,
    invariant_space_basis,
    molien_series,
    normal_form,
    polynomial_ring,
    prime_field,
    reynolds,
    substitute,
)
from invtheory.finite import (
    _Substitution,
    _dense_invariant_space_basis,
    _dense_reynolds,
    _row_product,
    _trace,
    act_on,
)
from invtheory.groebner import buchberger, reducer
from test_finite import mat_mul, reference_closure
from test_finite_orbits import MONOMIAL_GROUPS, ROTATION3, is_modular

F7 = prime_field(7)

# Monomial matrices whose scalars are not +-1.
SCALED = [
    FiniteGroupAction(polynomial_ring(QQ, ("x", "y")), [[[0, 2], [Fraction(1, 2), 0]]]),
    FiniteGroupAction(polynomial_ring(F7, ("x", "y")), [[[0, 3], [5, 0]]]),
    # x -> 2y, y -> 3z, z -> x/6, of order 3, and a sign change: together
    # the three sign changes and the 3-cycle, of order 8 * 3
    FiniteGroupAction(polynomial_ring(QQ, ("x", "y", "z")), [
        [[0, 2, 0], [0, 0, 3], [Fraction(1, 6), 0, 0]],
        [[-1, 0, 0], [0, 1, 0], [0, 0, 1]],
    ]),
]
# Rows with several entries take the general branch of the row product.
DENSE = [
    ROTATION3,
    FiniteGroupAction(polynomial_ring(F7, ("x", "y")), [[[1, 1], [0, 1]], [[0, 6], [1, 0]]]),
]
GROUPS = MONOMIAL_GROUPS + SCALED + DENSE


def fresh(action):
    return FiniteGroupAction(action.ring, action.generators)


@pytest.mark.parametrize("index", range(len(GROUPS)))
def test_sparse_closure_matches_the_mat_mul_closure(index):
    action = GROUPS[index]
    closure = fresh(action).group_closure()
    reference = reference_closure(action)
    assert list(closure) == reference
    assert [type(v) for g in closure for row in g for v in row] == [
        type(v) for g in reference for row in g for v in row]


def test_scaled_groups_have_the_expected_orders():
    assert [action.order() for action in SCALED] == [2, 2, 24]


def test_rows_cut_differently_are_different_elements():
    # a and its power b list the same (column, scalar) pairs row by row,
    # cut into rows of 2, 1 and 2 entries and of 3, 1 and 1
    a = ((1, 2, 0), (0, 0, 2), (0, 2, 2))
    b = ((1, 2, 2), (0, 2, 0), (0, 0, 2))
    action = FiniteGroupAction(polynomial_ring(prime_field(3), ("x", "y", "z")), [a])
    closure = action.group_closure()
    assert len(closure) == 8 and a in closure and b in closure
    assert list(closure) == reference_closure(action)


@pytest.mark.parametrize("index", range(len(GROUPS)))
def test_sparse_power_traces_match_mat_mul_powers(index):
    action = fresh(GROUPS[index])
    field = action.ring.field
    closure = action.group_closure()
    n = action.ring.n
    for dense, sparse in zip(closure, action._sparse_closure):
        power, sparse_power = dense, sparse
        for _ in range(n):
            assert _trace(sparse_power) == sum(power[i][i] for i in range(n))
            power = mat_mul(power, dense, field)
            sparse_power = _row_product(sparse_power, sparse, field.p)


@pytest.mark.parametrize("g", [[[1, 0], [1, 0]], [[0, 1], [0, 1]], [[0, 2], [3, 0]]])
def test_act_on_a_matrix_with_one_entry_per_row_matches_substitute(g):
    # [[1, 0], [1, 0]] sends x and y both to x: one entry per row, but not a
    # monomial matrix, so it must not take the exponent gather
    ring = polynomial_ring(QQ, ("x", "y"))
    x, y = ring.variables()
    images = [sum((c * v for c, v in zip(row, (x, y))), ring.zero()) for row in g]
    for f in (x, y, x**2 * y + 3 * y**3 - x + 1):
        assert act_on(g, f) == substitute(f, images)
    assert _Substitution(ring, g).is_monomial == (g == [[0, 2], [3, 0]])


def test_molien_series_counts_the_fixed_spaces_of_scaled_groups():
    for action in [a for a in SCALED + MONOMIAL_GROUPS[:6] + DENSE[:1]
                   if a.ring.field.is_rationals]:
        coefficients = molien_series(action).series_coefficients(6)
        assert coefficients == [
            len(_dense_invariant_space_basis(action, d)) for d in range(6)]


def random_polynomial(ring, rng, max_terms=6, max_degree=4, big=False):
    """Seeded random terms; with ``big``, one exponent above 2^8."""
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exps = [0] * ring.n
        for _ in range(rng.randrange(max_degree + 1)):
            exps[rng.randrange(ring.n)] += 1
        if big and rng.random() < 0.5:
            exps[rng.randrange(ring.n)] += rng.randrange(250, 400)
        if ring.field.is_rationals:
            terms[tuple(exps)] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        else:
            terms[tuple(exps)] = rng.randrange(ring.field.p)
    return ring.from_terms(terms)


@pytest.mark.parametrize("index", range(len(SCALED)))
def test_orbit_sums_match_the_closure_average_with_scalars(index):
    action = SCALED[index]
    rng = random.Random(index)
    for d in range(6):
        assert [str(f) for f in invariant_space_basis(action, d)] == [
            str(f) for f in _dense_invariant_space_basis(action, d)]
    if is_modular(action):
        return
    for _ in range(8):
        f = random_polynomial(action.ring, rng)
        assert reynolds(action, f) == _dense_reynolds(action, f)


RINGS = [
    polynomial_ring(field, ("x", "y", "z"), order)
    for field in (QQ, prime_field(5), prime_field(32003))
    for order in (TermOrder.grevlex(), TermOrder.lex(), TermOrder.elimination(1),
                  TermOrder.elimination(2))
]


def reference_terms(ring, acc):
    """Nonzero terms of an exponent -> coefficient dict, leading-first by the
    order's key."""
    items = [(e, c) for e, c in acc.items() if not ring.field.is_zero(c)]
    return tuple(sorted(items, key=lambda t: ring.order.key(t[0]), reverse=True))


def schoolbook_product(f, g):
    field = f.ring.field
    acc = {}
    for ea, ca in f.terms:
        for eb, cb in g.terms:
            exp = tuple(a + b for a, b in zip(ea, eb))
            acc[exp] = field.add(acc.get(exp, field.zero()), field.mul(ca, cb))
    return reference_terms(f.ring, acc)


@pytest.mark.parametrize("index", range(len(RINGS)))
def test_product_matches_schoolbook(index):
    ring = RINGS[index]
    rng = random.Random(100 + index)
    scalar_type = Fraction if ring.field.is_rationals else int
    polys = [ring.zero(), ring.one(), ring.constant(3), ring.constant(-2)]
    polys += [random_polynomial(ring, rng, big=k % 3 == 0) for k in range(12)]
    x = ring.variable(0)
    polys += [x ** 200, x ** 100]  # degrees below 2^8 whose product is not
    for f in polys:
        for g in polys:
            product = f * g
            assert product.terms == schoolbook_product(f, g), (f, g)
            assert all(type(c) is scalar_type for _, c in product.terms)
            if not ring.field.is_rationals:
                assert all(0 < c < ring.field.p for _, c in product.terms)


@pytest.mark.parametrize("index", range(len(RINGS)))
def test_substitute_matches_schoolbook(index):
    ring = RINGS[index]
    rng = random.Random(200 + index)
    target = polynomial_ring(ring.field, ("a", "b"), ring.order)
    field = ring.field
    for _ in range(10):
        f = random_polynomial(ring, rng, max_degree=5)
        images = [random_polynomial(target, rng, max_terms=3, max_degree=2) for _ in range(3)]
        acc = {}
        for exp, coeff in f.terms:
            term = {(0, 0): coeff}
            for img, e in zip(images, exp):
                for _ in range(e):
                    nxt = {}
                    for ea, ca in term.items():
                        for eb, cb in img.terms:
                            key = (ea[0] + eb[0], ea[1] + eb[1])
                            nxt[key] = field.add(nxt.get(key, field.zero()), field.mul(ca, cb))
                    term = nxt
            for e, c in term.items():
                acc[e] = field.add(acc.get(e, field.zero()), c)
        assert substitute(f, images).terms == reference_terms(target, acc)


@pytest.mark.parametrize("index", range(len(RINGS)))
def test_monomial_basis_is_sorted_by_the_order_key(index):
    ring = RINGS[index]
    for d in range(6):
        basis = ring.monomial_basis(d)
        exps = [m.exponents for m in basis]
        assert exps == sorted(exps, key=ring.order.key, reverse=True)
        assert len(set(exps)) == len(exps) == math.comb(d + 2, 2)
        assert all(sum(e) == d for e in exps)
        basis.pop()  # each call returns a list of its own
        assert len(ring.monomial_basis(d)) == len(exps)


def test_reducer_matches_normal_form():
    ring = polynomial_ring(QQ, ("z1", "z2", "x", "y"))
    basis = buchberger([ring.parse("z1*z2-1"), ring.parse("z1^2-x*z2")])
    rng = random.Random(7)
    remainder = reducer(ring, basis.elements)
    for k in range(20):
        f = random_polynomial(ring, rng, big=k % 2 == 1)  # big exponents widen the engine
        assert remainder(f) == normal_form(f, basis)

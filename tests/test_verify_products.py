"""verify_generators against a reference that ranks generator products the
plain way: each product a Polynomial, each row its coefficients over the
degree's monomial basis, ranked by linalg.rank over the field."""

import itertools
import random
from fractions import Fraction
from functools import reduce

import pytest
from test_reductive import SL2, torus

import invtheory.rings as rings
from invtheory import (
    QQ,
    DiagonalAction,
    FiniteGroupAction,
    RingOfInvariants,
    defining_ideal,
    invariant_ring,
    permutation_matrix,
    polynomial_ring,
    prime_field,
    verify_generators,
)
from invtheory.linalg import rank


def reference_report(inv, max_degree):
    """(degree, expected, spanned, passed) per degree, every product of
    generators built as one multiset of generator indices at a time."""
    ring = inv.ring
    gens = [f for f in inv.generators if 1 <= f.degree() <= max_degree]
    report = []
    for degree in range(1, max_degree + 1):
        products = [
            reduce(lambda a, b: a * b, (gens[i] for i in chosen))
            for count in range(1, degree + 1)
            for chosen in itertools.combinations_with_replacement(range(len(gens)), count)
            if sum(gens[i].degree() for i in chosen) == degree
        ]
        monos = ring.monomial_basis(degree)
        rows = [[f.coefficient(m) for m in monos] for f in products]
        spanned = rank(rows, ring.field) if rows else 0
        expected = rings._expected_dimension(inv, degree)
        report.append((degree, expected, spanned, expected == spanned))
    return report


def as_tuples(report):
    return [(c.degree, c.expected, c.actual, c.passed) for c in report]


def monomial_group(seed, n, p=None):
    """Two seeded monomial matrices: a permutation times random units
    (+-1 over Q).  Their group's order divides (p - 1)^n n!, prime to p."""
    rng = random.Random(seed)
    field = QQ if p is None else prime_field(p)
    units = [1, -1] if p is None else list(range(1, p))
    mats = []
    for _ in range(2):
        perm = list(range(n))
        rng.shuffle(perm)
        mats.append([[rng.choice(units) if perm[i] == j else 0 for j in range(n)]
                     for i in range(n)])
    ring = polynomial_ring(field, tuple(f"x{i + 1}" for i in range(n)))
    return FiniteGroupAction(ring, mats)


def conjugated_s3(seed):
    """S3 permuting three coordinates, from a seeded transposition and
    3-cycle, conjugated by [[1,1,0],[0,1,0],[0,0,2]]: the invariants have
    fractional coefficients."""
    rng = random.Random(seed)
    p = [[1, 1, 0], [0, 1, 0], [0, 0, 2]]
    p_inv = [[1, -1, 0], [0, 1, 0], [0, 0, Fraction(1, 2)]]

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]

    swap = rng.choice(["213", "321", "132"])
    cycle = rng.choice(["231", "312"])
    mats = [mul(mul(p, permutation_matrix(g)), p_inv) for g in (swap, cycle)]
    return FiniteGroupAction(polynomial_ring(QQ, ("x", "y", "z")), mats)


def seeded_diagonal(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 4)
    ring = polynomial_ring(QQ, tuple(f"x{i + 1}" for i in range(n)))
    return DiagonalAction(ring, 1, [3], [[rng.randint(-2, 2) for _ in range(n)],
                                         [rng.randint(0, 2) for _ in range(n)]])


MONOMIAL_Q = monomial_group(3, 3)
MONOMIAL_GF5 = monomial_group(7, 3, p=5)
CONJUGATED_S3 = conjugated_s3(10)

CASES = (
    [(monomial_group(seed, 3), 8) for seed in (1, 2, 3)]
    + [(monomial_group(seed, 4), 6) for seed in (4, 5)]
    + [(monomial_group(seed, 3, p=5), 12) for seed in (6, 7)]
    + [(monomial_group(seed, 3, p=7), 12) for seed in (8, 9)]
    + [(conjugated_s3(seed), 8) for seed in (10, 11)]
    + [(seeded_diagonal(seed), 8) for seed in (12, 13, 14)]
    + [(SL2, 6), (torus([1, -1, 2]), 5), (torus([2, -3, 1, -1]), 5)]
)
FAILING = [(MONOMIAL_Q, 8), (MONOMIAL_GF5, 12), (CONJUGATED_S3, 8), (SL2, 6)]


@pytest.mark.parametrize("action, top", CASES)
def test_verify_matches_the_reference(action, top):
    inv = invariant_ring(action)
    report = as_tuples(verify_generators(inv, top))
    assert report == reference_report(inv, top)
    assert all(passed for *_, passed in report)


def test_conjugated_s3_generators_have_fractional_coefficients():
    inv = invariant_ring(CONJUGATED_S3)
    assert any(c.denominator > 1 for f in inv.generators for _, c in f.terms)


@pytest.mark.parametrize("action, top", FAILING)
def test_a_missing_generator_fails_low(action, top):
    full = invariant_ring(action)
    dropped = max((f for f in full.generators if f.degree() <= top), key=lambda f: f.degree())
    pruned = RingOfInvariants(action, [f for f in full.generators if f is not dropped],
                              full.method)
    report = as_tuples(verify_generators(pruned, top))
    assert report == reference_report(pruned, top)
    degree, expected, spanned, passed = report[dropped.degree() - 1]
    assert not passed and spanned < expected


@pytest.mark.parametrize("action, top", FAILING)
def test_a_non_invariant_generator_fails_high(action, top):
    full = invariant_ring(action)
    extra = full.ring.variable(0)
    padded = RingOfInvariants(action, list(full.generators) + [extra], full.method)
    report = as_tuples(verify_generators(padded, top))
    assert report == reference_report(padded, top)
    degree, expected, spanned, passed = report[0]
    assert not passed and spanned > expected


@pytest.mark.parametrize("action, top", FAILING)
def test_a_multiple_of_a_generator_changes_no_dimension(action, top):
    # 2/3 f has other numerators than f wherever f's denominators differ
    full = invariant_ring(action)
    padded = RingOfInvariants(action, list(full.generators) + [
        f * Fraction(2, 3) for f in full.generators], full.method)
    report = as_tuples(verify_generators(padded, top))
    assert report == reference_report(padded, top)
    assert report == as_tuples(verify_generators(full, top))


@pytest.mark.parametrize("max_degree", [0, -1, -5])
def test_verify_rejects_a_degree_below_one(max_degree):
    inv = invariant_ring(MONOMIAL_Q)
    with pytest.raises(ValueError, match="max_degree must be at least 1"):
        verify_generators(inv, max_degree)


def test_defining_ideal_result_is_the_callers_to_mutate():
    ring = polynomial_ring(QQ, ("x", "y"))
    inv = invariant_ring(FiniteGroupAction(ring, [[[-1, 0], [0, -1]]]))
    first = defining_ideal(inv)
    assert len(first) == 1
    kept = list(first)
    first.clear()
    assert defining_ideal(inv) == kept
    defining_ideal(inv).append(ring.one())
    assert defining_ideal(inv) == kept

"""Tests for the substitution kernel and the monomial-group orbit path.

The orbit path (orbit sums for `invariant_space_basis` and `reynolds`) is
checked against the dense path it replaces for monomial groups: row
reduction on the fixed space of the generators, and the average over the
closure.  The dense path stays in the code for groups that are not monomial.
"""

import random
from fractions import Fraction

import pytest

from invtheory import (
    FiniteGroupAction,
    ModularCaseUnsupported,
    QQ,
    act_on,
    invariant_space_basis,
    invariants_king,
    invariants_linear_algebra,
    molien_series,
    permutation_matrix,
    polynomial_ring,
    prime_field,
    reynolds,
    substitute,
)
from invtheory.finite import _dense_invariant_space_basis, _dense_reynolds

R2 = polynomial_ring(QQ, ("x", "y"))
# x -> -y, y -> x - y: a rotation of order 3, not a monomial matrix
ROTATION3 = FiniteGroupAction(R2, [[[0, -1], [1, -1]]])


def random_monomial_matrix(rng, n, field, signs_only):
    """A random permutation matrix times random nonzero scalars."""
    perm = list(range(n))
    rng.shuffle(perm)
    if signs_only:
        scalars = [rng.choice((1, -1)) for _ in range(n)]
    else:
        p = field.characteristic()
        scalars = [rng.randrange(1, p) for _ in range(n)]
    return [[scalars[j] if k == perm[j] else 0 for k in range(n)] for j in range(n)]


def random_polynomial(ring, rng, max_terms=4, max_degree=4):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exps = [0] * ring.n
        for _ in range(rng.randrange(max_degree + 1)):
            exps[rng.randrange(ring.n)] += 1
        terms[tuple(exps)] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 3))
    return ring.from_terms(terms)


def monomial_groups():
    """Seeded random signed-permutation groups over Q and GF(3), GF(5),
    GF(7) (modular cases included), monomial groups over GF(5) and GF(7)
    with other scalars, and two fixed examples."""
    rng = random.Random(2013)
    cases = []
    for p in (None, 3, 5, 7):
        field = QQ if p is None else prime_field(p)
        for _ in range(6):
            n = rng.randrange(1, 5)
            ring = polynomial_ring(field, [f"x{i + 1}" for i in range(n)])
            gens = [random_monomial_matrix(rng, n, field, True)
                    for _ in range(rng.randrange(1, 4))]
            cases.append(FiniteGroupAction(ring, gens))
    for p in (5, 7):
        field = prime_field(p)
        for _ in range(3):
            n = rng.randrange(1, 4)
            ring = polynomial_ring(field, [f"x{i + 1}" for i in range(n)])
            gens = [random_monomial_matrix(rng, n, field, False)
                    for _ in range(rng.randrange(1, 4))]
            cases.append(FiniteGroupAction(ring, gens))
    gf7 = polynomial_ring(prime_field(7), ("x", "y"))
    cases.append(FiniteGroupAction(gf7, [[[0, 2], [4, 0]]]))
    cases.append(FiniteGroupAction(polynomial_ring(QQ, ("x",)), [[[-1]]]))
    return cases


MONOMIAL_GROUPS = monomial_groups()


def is_modular(action):
    p = action.ring.field.characteristic()
    return bool(p) and action.order() % p == 0


def test_generated_cases_cover_modular_and_general_scalars():
    assert all(action._is_monomial() for action in MONOMIAL_GROUPS)
    assert any(is_modular(action) for action in MONOMIAL_GROUPS)
    assert any(not is_modular(action) and action.ring.field.characteristic()
               for action in MONOMIAL_GROUPS)
    assert not ROTATION3._is_monomial()
    assert ROTATION3._monomial_orbit((1, 0)) is None


@pytest.mark.parametrize("index", range(len(MONOMIAL_GROUPS)))
def test_orbit_space_basis_matches_row_reduction(index):
    action = MONOMIAL_GROUPS[index]
    for d in range(5):
        orbit = [str(f) for f in invariant_space_basis(action, d)]
        dense = [str(f) for f in _dense_invariant_space_basis(action, d)]
        assert orbit == dense, (action.generators, d)


@pytest.mark.parametrize("index", range(len(MONOMIAL_GROUPS)))
def test_orbit_reynolds_matches_closure_average(index):
    action = MONOMIAL_GROUPS[index]
    rng = random.Random(index)
    fs = [random_polynomial(action.ring, rng) for _ in range(6)]
    if is_modular(action):
        with pytest.raises(ModularCaseUnsupported):
            reynolds(action, fs[0])
        return
    for f in fs:
        assert str(reynolds(action, f)) == str(_dense_reynolds(action, f))


def test_orbits_without_invariants():
    sign = MONOMIAL_GROUPS[-1]
    assert invariant_space_basis(sign, 1) == []
    assert [str(f) for f in invariant_space_basis(sign, 2)] == ["x^2"]
    gf7 = MONOMIAL_GROUPS[-2]
    # x -> 2y, y -> 4x over GF(7): x*y is fixed, x^2 -> 4y^2 and y^2 -> 2x^2
    assert [str(f) for f in invariant_space_basis(gf7, 2)] == ["x^2+4*y^2", "x*y"]


def test_king_and_linear_algebra_agree_on_monomial_groups():
    for action in MONOMIAL_GROUPS:
        lin = invariants_linear_algebra(action, max_degree=action.order())
        for f in lin:
            for g in action.generators:
                assert act_on(g, f) == f
        if is_modular(action):
            continue
        king = invariants_king(action)
        assert sorted(f.degree() for f in king) == sorted(f.degree() for f in lin)


def test_linear_algebra_needs_no_closure_with_explicit_bound():
    # diag(2, 1) generates an infinite group, so the closure cap is hit,
    # but the orbit walk uses only the generators
    scaling = FiniteGroupAction(R2, [[[2, 0], [0, 1]]], closure_cap=16)
    assert [str(f) for f in invariants_linear_algebra(scaling, max_degree=3)] == ["y"]


def test_act_on_matches_substitute():
    rng = random.Random(5)
    x, y = R2.variables()
    matrices = [[[0, -1], [1, -1]], [[2, Fraction(1, 3)], [-1, 0]], [[0, 3], [-2, 0]]]
    for mat in matrices:
        images = [x * mat[j][0] + y * mat[j][1] for j in range(2)]
        for _ in range(10):
            f = random_polynomial(R2, rng)
            assert act_on(mat, f) == substitute(f, images)


def test_non_monomial_group_uses_the_dense_path():
    assert ROTATION3.order() == 3
    rng = random.Random(3)
    for _ in range(10):
        f = random_polynomial(R2, rng)
        rf = reynolds(ROTATION3, f)
        assert reynolds(ROTATION3, rf) == rf
        assert act_on(ROTATION3.generators[0], rf) == rf
    coeffs = molien_series(ROTATION3).series_coefficients(7)
    for d in range(7):
        basis = invariant_space_basis(ROTATION3, d)
        assert coeffs[d] == len(basis)
        for f in basis:
            assert act_on(ROTATION3.generators[0], f) == f
    king = invariants_king(ROTATION3)
    lin = invariants_linear_algebra(ROTATION3)
    assert [f.degree() for f in king] == [f.degree() for f in lin] == [2, 3, 3]


def test_s4_in_root_coordinates_uses_the_dense_path():
    # the reflection representation of S4 on the simple roots of A3: no
    # generator is a monomial matrix, so Reynolds sums over the closure
    ring = polynomial_ring(QQ, ("x", "y", "z"))
    action = FiniteGroupAction(ring, [
        [[-1, 0, 0], [1, 1, 0], [0, 0, 1]],
        [[1, 1, 0], [0, -1, 0], [0, 1, 1]],
        [[1, 0, 0], [0, 1, 1], [0, 0, -1]],
    ])
    assert not action._is_monomial()
    assert action.order() == 24
    king = invariants_king(action)
    lin = invariants_linear_algebra(action)
    assert [f.degree() for f in king] == [f.degree() for f in lin] == [2, 3, 4]
    assert_invariant(action, king)
    assert_invariant(action, lin)


def test_dense_reynolds_builds_each_substitution_once(monkeypatch):
    import invtheory.finite as finite

    built = []
    real_init = finite._Substitution.__init__

    def counting_init(self, ring, g):
        built.append(g)
        real_init(self, ring, g)

    monkeypatch.setattr(finite._Substitution, "__init__", counting_init)
    ring = polynomial_ring(QQ, ("x", "y", "z"))
    action = FiniteGroupAction(ring, [
        [[-1, 0, 0], [1, 1, 0], [0, 0, 1]],
        [[1, 1, 0], [0, -1, 0], [0, 1, 1]],
        [[1, 0, 0], [0, 1, 1], [0, 0, -1]],
    ])
    rng = random.Random(11)
    for _ in range(5):
        f = random_polynomial(ring, rng)
        rf = reynolds(action, f)
        assert reynolds(action, rf) == rf
    assert len(built) <= action.order() + len(action.generators)


def signed_permutations_b4():
    ring = polynomial_ring(QQ, [f"x{i + 1}" for i in range(4)])
    sign = [[-1 if i == j == 0 else int(i == j) for j in range(4)] for i in range(4)]
    return FiniteGroupAction(
        ring, [permutation_matrix("2134"), permutation_matrix("2341"), sign])


def assert_invariant(action, gens):
    for f in gens:
        for g in action.generators:
            assert act_on(g, f) == f


def test_b4_generator_degrees():
    action = signed_permutations_b4()
    for algorithm in (invariants_king, invariants_linear_algebra):
        gens = algorithm(action)
        assert [f.degree() for f in gens] == [2, 4, 6, 8]
        assert_invariant(action, gens)


def test_s5_linear_algebra_generator_degrees():
    ring = polynomial_ring(QQ, [f"x{i + 1}" for i in range(5)])
    action = FiniteGroupAction(
        ring, [permutation_matrix("23451"), permutation_matrix("21345")])
    gens = invariants_linear_algebra(action)
    assert [f.degree() for f in gens] == [1, 2, 3, 4, 5]
    assert_invariant(action, gens)

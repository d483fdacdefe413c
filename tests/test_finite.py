"""Tests for finite matrix group actions, Reynolds averaging, and Molien series."""

import random
from fractions import Fraction

import pytest

from invtheory import (
    ClosureCapExceeded,
    FiniteGroupAction,
    MissingDegreeBound,
    ModularCaseUnsupported,
    NonZeroCharacteristic,
    NotAPermutation,
    QQ,
    RationalFunction,
    UniPoly,
    act_on,
    format_polynomial,
    invariant_space_basis,
    invariant_ring,
    invariants_king,
    invariants_linear_algebra,
    molien_series,
    permutation_matrix,
    polynomial_ring,
    prime_field,
    reynolds,
)

R4 = polynomial_ring(QQ, ("x1", "x2", "x3", "x4"))
R2 = polynomial_ring(QQ, ("x", "y"))

A4 = FiniteGroupAction(R4, [permutation_matrix("2314"), permutation_matrix("2143")])
PLUS_MINUS = FiniteGroupAction(R2, [[[-1, 0], [0, -1]]])
SWAP = FiniteGroupAction(R2, [permutation_matrix("21")])
TRIVIAL2 = FiniteGroupAction(R2, [permutation_matrix("12")])
CYCLE3 = FiniteGroupAction(polynomial_ring(QQ, ("x1", "x2", "x3")), [permutation_matrix("231")])


def identity(n, field):
    one, zero = field.one(), field.zero()
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_mul(a, b, field):
    """The dense matrix product a b in the field's own arithmetic: the
    reference the sparse group kernels are checked against."""
    m = len(b[0]) if b else 0
    out = []
    for row_a in a:
        row = [field.zero()] * m
        for x, row_b in zip(row_a, b):
            for j, y in enumerate(row_b):
                row[j] = field.add(row[j], field.mul(x, y))
        out.append(tuple(row))
    return tuple(out)


def random_polynomial(ring, rng, max_terms=5, max_degree=4):
    f = ring.zero()
    for _ in range(rng.randrange(max_terms + 1)):
        exps = [0] * ring.n
        for _ in range(rng.randrange(max_degree + 1)):
            exps[rng.randrange(ring.n)] += 1
        f = f + ring.monomial(exps, Fraction(rng.randrange(-6, 7), rng.randrange(1, 3)))
    return f


def test_permutation_matrix_examples():
    assert permutation_matrix("2314") == ((0, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1))
    assert permutation_matrix("123") == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert permutation_matrix("21") == ((0, 1), (1, 0))


def test_permutation_matrix_rejects_non_permutations():
    for bad in ("11", "13", "0", "1234567890"):
        with pytest.raises(NotAPermutation):
            permutation_matrix(bad)


def test_group_closure_sizes():
    assert A4.order() == 12
    assert TRIVIAL2.order() == 1
    assert PLUS_MINUS.order() == 2
    assert CYCLE3.order() == 3


def test_closure_is_a_group():
    elems = A4.group_closure()
    assert permutation_matrix("1234") in elems
    index = {g: i for i, g in enumerate(elems)}
    for g in elems:
        for h in elems:
            assert mat_mul(g, h, QQ) in index


@pytest.mark.parametrize("algorithm", ["king", "linear_algebra"])
def test_capped_sweep_reports_that_it_is_incomplete(algorithm):
    capped = invariant_ring(A4, algorithm=algorithm, max_degree=3)
    assert [f.degree() for f in capped] == [1, 2, 3]
    assert not capped.complete
    assert invariant_ring(A4, algorithm=algorithm).complete
    # every generator is found by degree 6, and the Molien numerator over
    # the hsop of degrees 1, 2, 3, 4 is 1 + T^6, which proves it there
    assert not invariant_ring(A4, algorithm=algorithm, max_degree=5).complete
    assert invariant_ring(A4, algorithm=algorithm, max_degree=6).complete
    assert invariant_ring(A4, algorithm=algorithm, max_degree=7).complete
    # a cap at |G| is as good as none
    assert invariant_ring(PLUS_MINUS, algorithm=algorithm, max_degree=2).complete
    assert invariant_ring(CYCLE3, algorithm=algorithm, max_degree=3).complete


def test_modular_sweep_is_never_certified():
    # Z/2 on three copies of its two-dimensional indecomposable over GF(2):
    # x_i y_j + x_j y_i is invariant and lies in the ideal of y_i and y_j,
    # but not in the algebra the sweep's generators span
    field = prime_field(2)
    ring = polynomial_ring(field, ("x1", "y1", "x2", "y2", "x3", "y3"))
    jordan = [[int(i == j or (i % 2 == 0 and j == i + 1)) for j in range(6)] for i in range(6)]
    inv = invariant_ring(FiniteGroupAction(ring, [jordan]), algorithm="linear_algebra")
    assert not inv.complete


def test_closure_cap_exceeded_for_infinite_group():
    scaling = FiniteGroupAction(polynomial_ring(QQ, ("x",)), [[[2]]], closure_cap=64)
    with pytest.raises(ClosureCapExceeded):
        scaling.group_closure()


def test_act_on_examples():
    f = R4.parse("x1+x2+x3+x4")
    assert act_on(permutation_matrix("2143"), f) == f
    one_var = polynomial_ring(QQ, ("x",))
    assert act_on([[2]], one_var.variable(0)) == one_var.parse("2*x")
    g = R2.parse("x-y")
    assert act_on(permutation_matrix("21"), g) == -g


def test_act_on_is_multiplicative_and_degree_preserving():
    rng = random.Random(8)
    g = permutation_matrix("2314")
    for _ in range(20):
        f1 = random_polynomial(R4, rng)
        f2 = random_polynomial(R4, rng)
        assert act_on(g, f1 * f2) == act_on(g, f1) * act_on(g, f2)
        assert act_on(g, f1 + f2) == act_on(g, f1) + act_on(g, f2)
        if not f1.is_zero():
            assert act_on(g, f1).degree() == f1.degree()


def test_reynolds_examples():
    one_var = polynomial_ring(QQ, ("x",))
    sign = FiniteGroupAction(one_var, [[[-1]]])
    assert reynolds(sign, one_var.variable(0)).is_zero()
    xy = R2.parse("x*y")
    assert reynolds(SWAP, xy) == xy
    assert reynolds(A4, R4.variable(0)) == R4.parse("1/4*x1+1/4*x2+1/4*x3+1/4*x4")


def test_reynolds_properties_on_random_polynomials():
    rng = random.Random(77)
    for action in (A4, SWAP, PLUS_MINUS, CYCLE3):
        for _ in range(25):
            f = random_polynomial(action.ring, rng)
            g = random_polynomial(action.ring, rng)
            rf = reynolds(action, f)
            assert reynolds(action, rf) == rf
            c = Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
            assert reynolds(action, f * c + g) == rf * c + reynolds(action, g)
            for mat in action.generators:
                assert act_on(mat, rf) == rf


def test_reynolds_modular_case_rejected():
    F2 = prime_field(2)
    swap2 = FiniteGroupAction(polynomial_ring(F2, ("x", "y")), [permutation_matrix("21")])
    with pytest.raises(ModularCaseUnsupported):
        reynolds(swap2, swap2.ring.variable(0))


def test_molien_trivial_group():
    ms = molien_series(TRIVIAL2)
    assert ms == RationalFunction(UniPoly.one(), UniPoly.one_minus_t_power(1) * UniPoly.one_minus_t_power(1))


def test_molien_plus_minus_identity():
    ms = molien_series(PLUS_MINUS)
    one_minus_t2 = UniPoly.one_minus_t_power(2)
    assert ms == RationalFunction(UniPoly((1, 0, 1)), one_minus_t2 * one_minus_t2)
    assert [int(c) for c in ms.series_coefficients(5)] == [1, 0, 3, 0, 5]


def test_molien_a4_closed_form():
    ms = molien_series(A4)
    den = UniPoly.one()
    for d in (1, 2, 3, 4):
        den = den * UniPoly.one_minus_t_power(d)
    assert ms == RationalFunction(UniPoly((1, 0, 0, 0, 0, 0, 1)), den)


def test_molien_requires_characteristic_zero():
    F3 = prime_field(3)
    action = FiniteGroupAction(polynomial_ring(F3, ("x", "y")), [permutation_matrix("21")])
    with pytest.raises(NonZeroCharacteristic):
        molien_series(action)


def test_molien_coefficients_match_fixed_space_dimensions():
    for action in (A4, SWAP, PLUS_MINUS, CYCLE3, TRIVIAL2):
        coeffs = molien_series(action).series_coefficients(9)
        for d in range(9):
            assert coeffs[d] == len(invariant_space_basis(action, d))


def test_molien_of_a_conjugated_non_monomial_group():
    # S3 conjugated by P: not monomial and with entries in (1/2)Z.  Its traces,
    # and so its Molien series, are those of the permutation action.
    P = [[1, 1, 0], [0, 1, 0], [0, 0, 2]]
    P_inv = [[1, -1, 0], [0, 1, 0], [0, 0, Fraction(1, 2)]]

    def mul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(3)) for j in range(3)] for i in range(3)]

    gens = [mul(mul(P, permutation_matrix(g)), P_inv) for g in ("231", "213")]
    action = FiniteGroupAction(polynomial_ring(QQ, ("x1", "x2", "x3")), gens)
    assert action.order() == 6 and not action._is_monomial()
    assert any(x.denominator == 2 for g in action.generators for row in g for x in row)
    den = UniPoly.one()
    for d in (1, 2, 3):
        den = den * UniPoly.one_minus_t_power(d)
    series = molien_series(action)
    assert series == RationalFunction(UniPoly.one(), den)
    coeffs = series.series_coefficients(9)
    assert coeffs == [len(invariant_space_basis(action, d)) for d in range(9)]


def test_invariant_space_basis_examples():
    assert [format_polynomial(f) for f in invariant_space_basis(A4, 1)] == ["x1+x2+x3+x4"]
    assert invariant_space_basis(PLUS_MINUS, 1) == []
    assert len(invariant_space_basis(TRIVIAL2, 2)) == 3


def test_invariant_space_basis_is_echelon_and_invariant():
    for action in (A4, CYCLE3, PLUS_MINUS):
        for d in (2, 3, 4):
            basis = invariant_space_basis(action, d)
            for f in basis:
                assert f.lead_coefficient() == 1
                for mat in action.generators:
                    assert act_on(mat, f) == f
            leads = [f.lead_exponents() for f in basis]
            assert len(set(leads)) == len(leads)


def test_invariants_king_a4():
    gens = invariants_king(A4)
    assert [f.degree() for f in gens] == [1, 2, 3, 4, 6]
    for f in gens:
        for mat in A4.generators:
            assert act_on(mat, f) == f


def test_invariants_king_trivial_and_swap():
    assert [format_polynomial(f) for f in invariants_king(TRIVIAL2)] == ["x", "y"]
    gens = invariants_king(SWAP)
    assert [f.degree() for f in gens] == [1, 2]
    # symmetric algebra dimension oracle: 1, 1, 2, 2, 3 in degrees 0..4
    series = molien_series(SWAP).series_coefficients(5)
    assert [int(c) for c in series] == [1, 1, 2, 2, 3]


def test_invariants_linear_algebra_matches_king():
    for action in (A4, SWAP, CYCLE3, TRIVIAL2, PLUS_MINUS):
        king = sorted(f.degree() for f in invariants_king(action))
        lin = sorted(f.degree() for f in invariants_linear_algebra(action))
        assert king == lin


def test_invariants_linear_algebra_examples():
    gens = invariants_linear_algebra(PLUS_MINUS, max_degree=2)
    assert [format_polynomial(f) for f in gens] == ["x^2", "x*y", "y^2"]
    assert [format_polynomial(f) for f in invariants_linear_algebra(TRIVIAL2)] == ["x", "y"]


def test_linear_algebra_needs_bound_when_closure_unavailable():
    scaling = FiniteGroupAction(polynomial_ring(QQ, ("x",)), [[[2]]], closure_cap=16)
    with pytest.raises((MissingDegreeBound, ClosureCapExceeded)):
        invariants_linear_algebra(scaling)


def test_king_monomial_skipping_preserves_algebra_and_degrees():
    # King tries only standard monomials; the fixed-space sweep tries every
    # invariant, so both must reach the same degrees and the same ideal
    from invtheory import buchberger
    king = invariants_king(A4)
    linear = invariants_linear_algebra(A4)
    assert [f.degree() for f in king] == [f.degree() for f in linear] == [1, 2, 3, 4, 6]
    assert buchberger(king).elements == buchberger(linear).elements


def test_king_modular_case_rejected():
    F2 = prime_field(2)
    swap2 = FiniteGroupAction(polynomial_ring(F2, ("x", "y")), [permutation_matrix("21")])
    with pytest.raises(ModularCaseUnsupported):
        invariants_king(swap2)


def test_linear_algebra_handles_modular_case():
    # no Reynolds operator needed, so char | |G| is fine with an explicit bound
    F2 = prime_field(2)
    swap2 = FiniteGroupAction(polynomial_ring(F2, ("x", "y")), [permutation_matrix("21")])
    gens = invariants_linear_algebra(swap2, max_degree=3)
    assert sorted(f.degree() for f in gens) == [1, 2]
    for f in gens:
        assert act_on(permutation_matrix("21"), f) == f


def test_generator_invariance_under_full_closure():
    for f in invariants_king(A4):
        for g in A4.group_closure():
            assert act_on(g, f) == f


# The dihedral group of order 12 permuting the vertices 1..6 of a hexagon:
# the rotation i -> i+1 and the reflection i -> 2-i (mod 6).
D6 = FiniteGroupAction(
    polynomial_ring(QQ, ("x1", "x2", "x3", "x4", "x5", "x6")),
    [permutation_matrix("234561"), permutation_matrix("165432")],
)


def test_d6_generators_are_pinned():
    # Both sweeps keep their own minimal set; King's reducible-monomial
    # filter is taken once per degree, and taking it while generators are
    # being accepted would change the degree-3 generators.
    assert [format_polynomial(f) for f in invariants_king(D6)] == [
        "x1+x2+x3+x4+x5+x6",
        "x1^2+x2^2+x3^2+x4^2+x5^2+x6^2",
        "x1*x2+x2*x3+x3*x4+x4*x5+x1*x6+x5*x6",
        "x1*x3+x2*x4+x1*x5+x3*x5+x2*x6+x4*x6",
        "x1^3+x2^3+x3^3+x4^3+x5^3+x6^3",
        "x1^2*x3+x1*x3^2+x2^2*x4+x2*x4^2+x1^2*x5+x3^2*x5+x1*x5^2+x3*x5^2"
        "+x2^2*x6+x4^2*x6+x2*x6^2+x4*x6^2",
        "x1*x2*x3+x2*x3*x4+x3*x4*x5+x1*x2*x6+x1*x5*x6+x4*x5*x6",
        "x1^3*x2+x1*x2^3+x2^3*x3+x2*x3^3+x3^3*x4+x3*x4^3+x4^3*x5+x4*x5^3"
        "+x1^3*x6+x5^3*x6+x1*x6^3+x5*x6^3",
        "x1*x2^2*x4+x1*x3^2*x4+x1^2*x2*x5+x2*x3^2*x5+x2*x4^2*x5+x1*x4*x5^2"
        "+x1^2*x3*x6+x2^2*x3*x6+x3*x4^2*x6+x3*x5^2*x6+x1*x4*x6^2+x2*x5*x6^2",
        "x1^2*x4^2+x2^2*x5^2+x3^2*x6^2",
        "x1^4*x4+x1*x4^4+x2^4*x5+x2*x5^4+x3^4*x6+x3*x6^4",
        "x1^5*x2+x1*x2^5+x2^5*x3+x2*x3^5+x3^5*x4+x3*x4^5+x4^5*x5+x4*x5^5"
        "+x1^5*x6+x5^5*x6+x1*x6^5+x5*x6^5",
    ]
    assert [format_polynomial(f) for f in invariants_linear_algebra(D6)] == [
        "x1+x2+x3+x4+x5+x6",
        "x1^2+x2^2+x3^2+x4^2+x5^2+x6^2",
        "x1*x2+x2*x3+x3*x4+x4*x5+x1*x6+x5*x6",
        "x1*x3+x2*x4+x1*x5+x3*x5+x2*x6+x4*x6",
        "x1^3+x2^3+x3^3+x4^3+x5^3+x6^3",
        "x1^2*x2+x1*x2^2+x2^2*x3+x2*x3^2+x3^2*x4+x3*x4^2+x4^2*x5+x4*x5^2"
        "+x1^2*x6+x5^2*x6+x1*x6^2+x5*x6^2",
        "x1^2*x3+x1*x3^2+x2^2*x4+x2*x4^2+x1^2*x5+x3^2*x5+x1*x5^2+x3*x5^2"
        "+x2^2*x6+x4^2*x6+x2*x6^2+x4*x6^2",
        "x1^4+x2^4+x3^4+x4^4+x5^4+x6^4",
        "x1^3*x2+x1*x2^3+x2^3*x3+x2*x3^3+x3^3*x4+x3*x4^3+x4^3*x5+x4*x5^3"
        "+x1^3*x6+x5^3*x6+x1*x6^3+x5*x6^3",
        "x1^2*x2^2+x2^2*x3^2+x3^2*x4^2+x4^2*x5^2+x1^2*x6^2+x5^2*x6^2",
        "x1^5+x2^5+x3^5+x4^5+x5^5+x6^5",
        "x1^6+x2^6+x3^6+x4^6+x5^6+x6^6",
    ]


def reference_closure(action):
    """Plain breadth-first closure, with the matrices themselves as the
    seen keys."""
    field = action.ring.field
    ordered = [identity(action.ring.n, field)]
    for g in action.generators:
        if g not in ordered:
            ordered.append(g)
    frontier = list(ordered)
    while frontier:
        next_frontier = []
        for x in frontier:
            for g in action.generators:
                y = mat_mul(x, g, field)
                if y not in ordered:
                    ordered.append(y)
                    next_frontier.append(y)
        frontier = next_frontier
    return ordered


def test_group_closure_matches_a_plain_breadth_first_search():
    F7 = prime_field(7)
    sl2_f7 = FiniteGroupAction(polynomial_ring(F7, ("x", "y")),
                               [[[1, 1], [0, 1]], [[0, 6], [1, 0]]])
    P = [[1, 1, 0], [0, 1, 0], [0, 0, 2]]
    P_inv = [[1, -1, 0], [0, 1, 0], [0, 0, Fraction(1, 2)]]

    def mul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(3)) for j in range(3)] for i in range(3)]

    halves = FiniteGroupAction(polynomial_ring(QQ, ("x1", "x2", "x3")),
                               [mul(mul(P, permutation_matrix(g)), P_inv) for g in ("231", "213")])
    for action, order in ((A4, 12), (sl2_f7, 336), (halves, 6)):
        closure = FiniteGroupAction(action.ring, action.generators).group_closure()
        assert len(closure) == order
        assert list(closure) == reference_closure(action)
        assert [type(v) for g in closure for row in g for v in row] == [
            type(v) for g in reference_closure(action) for row in g for v in row]


def test_singular_generators_are_rejected():
    from invtheory import DimensionMismatch

    F5 = prime_field(5)
    ring = polynomial_ring(F5, ("x", "y"))
    assert FiniteGroupAction(ring, [[[1, 2], [3, 4]]]).generators == (((1, 2), (3, 4)),)
    with pytest.raises(DimensionMismatch, match="generator matrix is singular"):
        FiniteGroupAction(ring, [[[1, 2], [2, 4]]])
    with pytest.raises(DimensionMismatch, match="generator matrix is singular"):
        FiniteGroupAction(R2, [[[1, 0], [0, 0]]])

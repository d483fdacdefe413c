"""Tests for the RingOfInvariants container: dispatch, presentations, series, verification."""

import pytest
from test_diagonal import wall_budget

from invtheory import (
    DiagonalAction,
    FiniteGroupAction,
    InexactDivision,
    LinearlyReductiveAction,
    QQ,
    RingOfInvariants,
    UniPoly,
    defining_ideal,
    format_polynomial,
    hilbert_series_rewrite,
    invariant_ring,
    invariants_king,
    invariants_linear_algebra,
    permutation_matrix,
    polynomial_ring,
    substitute,
    verify_generators,
)

R2 = polynomial_ring(QQ, ("x", "y"))
R4 = polynomial_ring(QQ, ("x1", "x2", "x3", "x4"))

A4 = FiniteGroupAction(R4, [permutation_matrix("2314"), permutation_matrix("2143")])
PLUS_MINUS = FiniteGroupAction(R2, [[[-1, 0], [0, -1]]])
SWAP = FiniteGroupAction(R2, [permutation_matrix("21")])

TORUS = DiagonalAction(
    polynomial_ring(QQ, ("x_1", "x_2", "x_3", "x_4")), 3, [],
    [[5, -3, -1, 4], [-3, 1, 1, 5], [0, -4, 2, 6]])

SL2 = LinearlyReductiveAction(
    polynomial_ring(QQ, ("z11", "z12", "z21", "z22")),
    ["z11*z22-z12*z21-1"],
    [["z11^2", "z11*z21", "z21^2"],
     ["2*z11*z12", "z11*z22+z12*z21", "2*z21*z22"],
     ["z12^2", "z12*z22", "z22^2"]],
    polynomial_ring(QQ, ("a", "b", "c")))


def test_dispatch_finite_default_king():
    inv = invariant_ring(A4)
    assert inv.method == "king"
    assert [f.degree() for f in inv.generators] == [1, 2, 3, 4, 6]


def test_dispatch_finite_linear_algebra():
    inv = invariant_ring(PLUS_MINUS, algorithm="linear", max_degree=2)
    assert inv.method == "linear_algebra"
    assert [format_polynomial(f) for f in inv.generators] == ["x^2", "x*y", "y^2"]


def test_dispatch_diagonal_and_literal():
    inv = invariant_ring(TORUS)
    assert inv.method == "diagonal"
    assert [format_polynomial(f) for f in inv.generators] == ["x_1*x_2*x_3^2"]
    lit = invariant_ring(TORUS, literal_q=9)
    assert lit.method == "diagonal_literal"
    assert len(lit.generators) == 10


def test_dispatch_reductive():
    inv = invariant_ring(SL2)
    assert inv.method == "reductive"
    assert [format_polynomial(f) for f in inv.generators] == ["b^2-4*a*c"]
    assert inv.ring is SL2.target_ring


def test_dispatch_rejects_unknown_inputs():
    with pytest.raises(ValueError):
        invariant_ring(A4, algorithm="magic")
    with pytest.raises(TypeError):
        invariant_ring("not an action")


def test_generators_sorted_by_degree():
    for inv in (invariant_ring(A4), invariant_ring(TORUS, literal_q=9)):
        degrees = [f.degree() for f in inv.generators]
        assert degrees == sorted(degrees)


def test_defining_ideal_plus_minus_conic():
    inv = invariant_ring(PLUS_MINUS, algorithm="linear", max_degree=2)
    rel = defining_ideal(inv)
    assert len(rel) == 1
    u_ring = rel[0].ring
    assert u_ring.names == ("u1", "u2", "u3")
    assert rel[0].monic() in (u_ring.parse("u2^2-u1*u3").monic(), u_ring.parse("u1*u3-u2^2").monic())


def test_defining_ideal_soundness_by_substitution():
    cube_roots = DiagonalAction(R2, 0, [3], [[1, 2]])
    for inv in (invariant_ring(PLUS_MINUS, algorithm="linear", max_degree=2),
                invariant_ring(cube_roots)):
        relations = defining_ideal(inv)
        assert relations
        for rel in relations:
            assert substitute(rel, list(inv.generators)).is_zero()


def test_defining_ideal_free_cases():
    assert defining_ideal(invariant_ring(SWAP)) == []
    assert defining_ideal(invariant_ring(SL2)) == []


def test_hilbert_series_rewrite_a4():
    num = hilbert_series_rewrite(invariant_ring(A4), [1, 2, 3, 4])
    assert num == UniPoly((1, 0, 0, 0, 0, 0, 1))  # 1 + T^6


def test_hilbert_series_rewrite_trivial_and_plus_minus():
    one = polynomial_ring(QQ, ("x",))
    trivial = invariant_ring(FiniteGroupAction(one, [[[1]]]))
    assert hilbert_series_rewrite(trivial, [1]) == UniPoly.one()
    pm = invariant_ring(PLUS_MINUS, algorithm="linear", max_degree=2)
    assert hilbert_series_rewrite(pm, [2, 2]) == UniPoly((1, 0, 1))


def test_hilbert_series_rewrite_error_cases():
    inv = invariant_ring(A4)
    with pytest.raises(InexactDivision):
        hilbert_series_rewrite(inv, [])
    with pytest.raises(InexactDivision):
        hilbert_series_rewrite(inv, [5, 5, 5, 5])
    with pytest.raises(ValueError):
        hilbert_series_rewrite(inv, [0])
    with pytest.raises(TypeError):
        hilbert_series_rewrite(invariant_ring(TORUS), [1])


def test_hilbert_series_rewrite_rejects_non_integral_degrees():
    # truncated to [1, 2, 3, 4] these would divide exactly and return 1 + T^6
    inv = invariant_ring(A4)
    for degrees in ([1.9, 2.2, 3, 4], [True, 2, 3, 4], [1, 2, 3, 4.5]):
        with pytest.raises(ValueError):
            hilbert_series_rewrite(inv, degrees)
    assert hilbert_series_rewrite(inv, [1.0, 2, 3, 4]) == UniPoly((1, 0, 0, 0, 0, 0, 1))


def test_hilbert_series_rewrite_names_the_bad_degree():
    # the integer-input rule of the diagonal inputs and max_degree
    with pytest.raises(ValueError, match=r"^degrees must be integral, got 2\.5$"):
        hilbert_series_rewrite(A4, [1, 2.5, 3, 4])
    with pytest.raises(ValueError, match=r"^degrees must be integral, got True$"):
        hilbert_series_rewrite(A4, [True, 2, 3, 4])
    with pytest.raises(ValueError, match=r"^degrees must be at least 1$"):
        hilbert_series_rewrite(A4, [1, 2, 3, 0])


def test_verify_generators_a4_all_pass():
    checks = verify_generators(invariant_ring(A4), 6)
    assert [c.degree for c in checks] == [1, 2, 3, 4, 5, 6]
    assert all(c.passed for c in checks)
    assert [c.expected for c in checks] == [1, 2, 3, 5, 6, 10]
    assert [c.actual for c in checks] == [1, 2, 3, 5, 6, 10]


def test_verify_generators_detects_missing_generator():
    full = invariant_ring(A4)
    pruned = RingOfInvariants(A4, [f for f in full.generators if f.degree() != 6], full.method)
    checks = verify_generators(pruned, 6)
    by_degree = {c.degree: c for c in checks}
    for d in range(1, 6):
        assert by_degree[d].passed
    assert not by_degree[6].passed
    assert by_degree[6].expected == 10
    assert by_degree[6].actual == 9


@pytest.mark.parametrize("bad, message", [
    (2.5, "max_degree must be integral, got 2.5"),
    ("3", "max_degree must be integral, got '3'"),
    (True, "max_degree must be integral, got True"),
    (0, "max_degree must be at least 1"),
])
def test_max_degree_is_an_integer_at_least_one(bad, message):
    inv = invariant_ring(A4)
    for call in (lambda: invariant_ring(A4, max_degree=bad),
                 lambda: invariant_ring(A4, algorithm="linear_algebra", max_degree=bad),
                 lambda: invariants_king(A4, max_degree=bad),
                 lambda: invariants_linear_algebra(A4, max_degree=bad),
                 lambda: verify_generators(inv, bad)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_integral_max_degree_of_another_type_is_taken_as_an_int():
    assert invariants_king(A4, max_degree=3.0) == invariants_king(A4, max_degree=3)
    assert [c.degree for c in verify_generators(invariant_ring(A4), 2.0)] == [1, 2]


def test_verify_generators_trivial_and_diagonal_and_reductive():
    one = polynomial_ring(QQ, ("x", "y"))
    trivial = invariant_ring(FiniteGroupAction(one, [permutation_matrix("12")]))
    assert all(c.passed for c in verify_generators(trivial, 5))
    assert all(c.passed for c in verify_generators(invariant_ring(TORUS), 6))
    assert all(c.passed for c in verify_generators(invariant_ring(TORUS, literal_q=9), 8))
    assert all(c.passed for c in verify_generators(invariant_ring(SL2), 4))


def test_verify_generators_c5_degree_7_within_budget():
    # degree 7 ranks 84 generator products over the 330 monomials of Q[x1..x5]
    ring = polynomial_ring(QQ, ("x1", "x2", "x3", "x4", "x5"))
    inv = invariant_ring(FiniteGroupAction(ring, [permutation_matrix("23451")]))
    with wall_budget(4):
        checks = verify_generators(inv, 7)
    assert [c.degree for c in checks] == list(range(1, 8))
    assert all(c.passed for c in checks)
    assert (checks[-1].expected, checks[-1].actual) == (66, 66)


def test_container_iteration_and_length():
    inv = invariant_ring(A4)
    assert len(inv) == 5
    assert list(inv) == list(inv.generators)


def test_z2_sign_action_presentation_is_fifty_quadrics():
    # Z2 acting by -1 on five variables: the 15 quadratic monomials generate,
    # and their relations are the 50 quadrics of the second Veronese of P^4.
    ring = polynomial_ring(QQ, ("a", "b", "c", "d", "e"))
    inv = invariant_ring(DiagonalAction(ring, 0, [2], [[1, 1, 1, 1, 1]]))
    assert len(inv.generators) == 15
    relations = defining_ideal(inv)
    assert len(relations) == 50
    for r in relations:
        assert r.is_homogeneous() and r.degree() == 2
        assert substitute(r, list(inv.generators)).is_zero()


@pytest.mark.parametrize("action, options, option", [
    (TORUS, {"max_degree": 1}, "max_degree"),
    (TORUS, {"max_degree": 0}, "max_degree"),
    (SL2, {"max_degree": 4}, "max_degree"),
    (TORUS, {"algorithm": "bogus"}, "algorithm"),
    (SL2, {"algorithm": "linear_algebra"}, "algorithm"),
    (A4, {"literal_q": 9}, "literal_q"),
    (SL2, {"literal_q": 9}, "literal_q"),
])
def test_dispatch_rejects_options_the_action_kind_does_not_take(action, options, option):
    with pytest.raises(ValueError, match=option):
        invariant_ring(action, **options)


def test_dispatch_accepts_the_default_algorithm_on_every_kind():
    assert invariant_ring(TORUS, algorithm="king").method == "diagonal"
    assert invariant_ring(SL2, algorithm="king").method == "reductive"


def test_hilbert_series_rewrite_takes_the_action_itself():
    expected = UniPoly((1, 0, 0, 0, 0, 0, 1))  # 1 + T^6
    assert hilbert_series_rewrite(A4, [1, 2, 3, 4]) == expected
    assert hilbert_series_rewrite(invariant_ring(A4), [1, 2, 3, 4]) == expected
    with pytest.raises(TypeError):
        hilbert_series_rewrite(TORUS, [1])
    with pytest.raises(TypeError):
        hilbert_series_rewrite(SL2, [1])

"""Tests for linearly reductive actions given by a group ideal and action matrix."""

import random
from fractions import Fraction

import pytest

from invtheory import (
    DiagonalAction,
    TermOrder,
    DimensionMismatch,
    IncompleteGeneration,
    LinearlyReductiveAction,
    NonZeroCharacteristic,
    QQ,
    buchberger,
    diagonal_invariants,
    format_polynomial,
    hilbert_ideal,
    is_invariant_exponent,
    normal_form,
    polynomial_ring,
    prime_field,
    reductive_invariant_basis,
    reductive_invariants,
    substitute,
)
import invtheory.reductive as reductive
from invtheory.linalg import nullspace

GROUP_RING = polynomial_ring(QQ, ("z11", "z12", "z21", "z22"))
QUADRIC_RING = polynomial_ring(QQ, ("a", "b", "c"))
# SL2 acting on coefficients of a*x^2 + b*x*y + c*y^2 by linear substitution
SL2_MATRIX = [
    ["z11^2", "z11*z21", "z21^2"],
    ["2*z11*z12", "z11*z22+z12*z21", "2*z21*z22"],
    ["z12^2", "z12*z22", "z22^2"],
]
SL2 = LinearlyReductiveAction(GROUP_RING, ["z11*z22-z12*z21-1"], SL2_MATRIX, QUADRIC_RING)

TRIVIAL = LinearlyReductiveAction(
    polynomial_ring(QQ, ("z",)), ["z-1"], [["1"]], polynomial_ring(QQ, ("x",)))

MULT = LinearlyReductiveAction(
    polynomial_ring(QQ, ("z", "w")), ["z*w-1"], [["z", "0"], ["0", "w"]],
    polynomial_ring(QQ, ("x", "y")))


def combined_action_residue(action, f):
    """f(M(z) x) - f(x) reduced modulo the group ideal, in Q[z, x]."""
    gnames = action.group_ring.names
    tnames = action.target_ring.names
    ring = polynomial_ring(QQ, gnames + tnames)
    m = len(gnames)
    xs = [ring.variable(m + i) for i in range(len(tnames))]
    images = list(ring.variables())[:m]
    for i in range(len(tnames)):
        image = ring.zero()
        for j, entry in enumerate(action.matrix[i]):
            image = image + ring.parse(format_polynomial(entry)) * xs[j]
        images.append(image)
    lifted = ring.parse(format_polynomial(f))
    diff = substitute(lifted, images) - lifted
    gb = buchberger([ring.parse(format_polynomial(g)) for g in action.group_ideal])
    return normal_form(diff, gb)


def test_hilbert_ideal_sl2_quadric():
    H = hilbert_ideal(SL2)
    assert len(H) == 1
    assert H[0].monic() == QUADRIC_RING.parse("b^2-4*a*c")


def test_hilbert_ideal_trivial_group():
    H = hilbert_ideal(TRIVIAL)
    assert [format_polynomial(h) for h in H] == ["x"]


def test_hilbert_ideal_multiplicative_group():
    H = hilbert_ideal(MULT)
    assert [format_polynomial(h) for h in H] == ["x*y"]


def test_hilbert_ideal_generators_are_homogeneous_and_minimal():
    for action in (SL2, TRIVIAL, MULT):
        H = hilbert_ideal(action)
        for i, h in enumerate(H):
            assert h.is_homogeneous()
            others = H[:i] + H[i + 1:]
            if others:
                assert not normal_form(h, buchberger(others)).is_zero()


def test_invariant_basis_sl2_degrees():
    assert reductive_invariant_basis(SL2, 1) == []
    basis2 = reductive_invariant_basis(SL2, 2)
    assert len(basis2) == 1
    assert basis2[0].monic() == QUADRIC_RING.parse("b^2-4*a*c")


def test_invariant_basis_trivial_group():
    one = TRIVIAL.target_ring
    assert reductive_invariant_basis(TRIVIAL, 1) == [one.variable(0)]


def test_invariant_basis_is_deterministic_echelon():
    first = reductive_invariant_basis(MULT, 4)
    second = reductive_invariant_basis(MULT, 4)
    assert first == second
    for f in first:
        assert f.lead_coefficient() == 1


def test_invariant_basis_elements_are_invariant():
    for action in (SL2, MULT, TRIVIAL):
        for d in (1, 2, 3, 4):
            for f in reductive_invariant_basis(action, d):
                assert combined_action_residue(action, f).is_zero()


def test_reductive_invariants_examples():
    assert [format_polynomial(f) for f in reductive_invariants(SL2)] == ["b^2-4*a*c"]
    assert [format_polynomial(f) for f in reductive_invariants(TRIVIAL)] == ["x"]
    assert [format_polynomial(f) for f in reductive_invariants(MULT)] == ["x*y"]


def test_reductive_invariants_are_invariant_and_generate_hilbert_ideal():
    for action in (SL2, MULT, TRIVIAL):
        gens = reductive_invariants(action)
        for f in gens:
            assert combined_action_residue(action, f).is_zero()
        gb_inv = buchberger(gens)
        gb_hil = buchberger(hilbert_ideal(action))
        for f in gb_inv.elements:
            assert normal_form(f, gb_hil).is_zero()
        for h in gb_hil.elements:
            assert normal_form(h, gb_inv).is_zero()


def test_dimensions_match_diagonal_encoding_of_multiplicative_group():
    # diag(z, 1/z) on x, y is the diagonal torus action with weights (1, -1)
    ring = polynomial_ring(QQ, ("x", "y"))
    diag = DiagonalAction(ring, 1, [], [[1, -1]])
    assert [m.exponents for m in diagonal_invariants(diag)] == [(1, 1)]
    for d in range(1, 7):
        count = sum(1 for a in range(d + 1)
                    if is_invariant_exponent(diag, (a, d - a)))
        assert len(reductive_invariant_basis(MULT, d)) == count


def test_rejects_positive_characteristic():
    F5 = prime_field(5)
    with pytest.raises(NonZeroCharacteristic):
        LinearlyReductiveAction(
            polynomial_ring(F5, ("z",)), ["z-1"], [["1"]], polynomial_ring(F5, ("x",)))


def test_rejects_bad_matrix_shape():
    with pytest.raises(DimensionMismatch):
        LinearlyReductiveAction(
            polynomial_ring(QQ, ("z",)), ["z-1"], [["1", "0"]], polynomial_ring(QQ, ("x",)))


def test_rejects_name_collisions_and_zero_ideal():
    with pytest.raises(ValueError):
        LinearlyReductiveAction(
            polynomial_ring(QQ, ("x",)), ["x-1"], [["1"]], polynomial_ring(QQ, ("x",)))
    with pytest.raises(ValueError):
        LinearlyReductiveAction(
            polynomial_ring(QQ, ("z",)), [], [["1"]], polynomial_ring(QQ, ("x",)))


def test_invalid_group_raises_incomplete_generation():
    # V(t^2-3t+2) = {1, 2} is not a group under multiplication, so its
    # "invariants" through the top Hilbert-ideal degree miss x^2.
    action = LinearlyReductiveAction(
        polynomial_ring(QQ, ("t",)), ["t^2-3*t+2"], [["t", "0"], ["0", "1"]],
        polynomial_ring(QQ, ("x", "y")))
    assert [format_polynomial(h) for h in hilbert_ideal(action)] == ["y", "x^2"]
    with pytest.raises(IncompleteGeneration):
        reductive_invariants(action)


# O(2) = {g : g g^T = 1} acting on Q[x, y] by its defining representation;
# three group relations whose grevlex basis has six elements
O2 = LinearlyReductiveAction(
    polynomial_ring(QQ, ("a", "b", "c", "d")),
    ["a^2+b^2-1", "c^2+d^2-1", "a*c+b*d"],
    [["a", "b"], ["c", "d"]],
    polynomial_ring(QQ, ("x", "y")))


def test_orthogonal_group_invariants():
    assert len(buchberger(list(O2.group_ideal))) == 6
    assert [format_polynomial(h) for h in hilbert_ideal(O2)] == ["x^2+y^2"]
    assert [format_polynomial(f) for f in reductive_invariants(O2)] == ["x^2+y^2"]
    bases = [[format_polynomial(f) for f in reductive_invariant_basis(O2, d)]
             for d in (1, 2, 3, 4)]
    assert bases == [[], ["x^2+y^2"], [], ["x^4+2*x^2*y^2+y^4"]]


def test_invariant_basis_does_not_depend_on_group_ring_order():
    lex_ring = polynomial_ring(QQ, ("z11", "z12", "z21", "z22"), TermOrder.lex())
    lex = LinearlyReductiveAction(
        lex_ring, ["z11*z22-z12*z21-1"], SL2_MATRIX, QUADRIC_RING)
    for d in (1, 2, 3, 4):
        assert reductive_invariant_basis(lex, d) == reductive_invariant_basis(SL2, d)


def test_binary_cubic_invariants_are_the_discriminant():
    # SL2 on a*x^3 + b*x^2*y + c*x*y^2 + d*y^3 by linear substitution
    cubic_ring = polynomial_ring(QQ, ("a", "b", "c", "d"))
    matrix = [
        ["z11^3", "z11^2*z21", "z11*z21^2", "z21^3"],
        ["3*z11^2*z12", "z11^2*z22+2*z11*z12*z21",
         "2*z11*z21*z22+z12*z21^2", "3*z21^2*z22"],
        ["3*z11*z12^2", "2*z11*z12*z22+z12^2*z21",
         "z11*z22^2+2*z12*z21*z22", "3*z21*z22^2"],
        ["z12^3", "z12^2*z22", "z12*z22^2", "z22^3"],
    ]
    action = LinearlyReductiveAction(
        GROUP_RING, ["z11*z22-z12*z21-1"], matrix, cubic_ring)
    gens = reductive_invariants(action)
    assert [f.monic() for f in gens] == [
        cubic_ring.parse("b^2*c^2-4*a*c^3-4*b^3*d-27*a^2*d^2+18*a*b*c*d").monic()
    ]


# ---------------------------------------------------------------------------
# differential test against the definition
# ---------------------------------------------------------------------------


def definition_basis(action, degree):
    """Reduced-echelon basis of the degree-`degree` invariants from the
    definition, over Fractions: the `nullspace` of one row per term that
    survives in `combined_action_residue` of some monomial."""
    tring = action.target_ring
    monos = tring.monomial_basis(degree)
    if not monos:
        return []
    rows = {}
    for col, mono in enumerate(monos):
        residue = combined_action_residue(action, tring.monomial(mono.exponents))
        for exp, coeff in residue.terms:
            rows.setdefault(exp, [Fraction(0)] * len(monos))[col] = coeff
    kernel = nullspace(list(rows.values()), len(monos), QQ)
    return [tring.from_terms({monos[c].exponents: v for c, v in enumerate(vec) if v})
            for vec in kernel]


CUBIC = LinearlyReductiveAction(
    GROUP_RING, ["z11*z22-z12*z21-1"],
    [["z11^3", "z11^2*z21", "z11*z21^2", "z21^3"],
     ["3*z11^2*z12", "z11^2*z22+2*z11*z12*z21", "2*z11*z21*z22+z12*z21^2", "3*z21^2*z22"],
     ["3*z11*z12^2", "2*z11*z12*z22+z12^2*z21", "z11*z22^2+2*z12*z21*z22", "3*z21*z22^2"],
     ["z12^3", "z12^2*z22", "z12*z22^2", "z22^3"]],
    polynomial_ring(QQ, ("a", "b", "c", "d")))

# a circle group with rational entries: x -> s x - t/2 y, y -> 2 t x + s y
ROTATION_RING = polynomial_ring(QQ, ("x", "y"))
ROTATION = LinearlyReductiveAction(
    polynomial_ring(QQ, ("s", "t")), ["s^2+t^2-1"], [["s", "-1/2*t"], ["2*t", "s"]],
    ROTATION_RING)


# the unit ideal: no group element, so every polynomial is invariant
EMPTY = LinearlyReductiveAction(
    polynomial_ring(QQ, ("z",)), ["z", "z-1"], [["z", "1"], ["0", "z"]], ROTATION_RING)


def relabelled(action, perm):
    """The same action with target variable i renamed to position perm[i]
    and the matrix conjugated to match."""
    names = action.target_ring.names
    target = [""] * len(names)
    matrix = [[None] * len(names) for _ in names]
    for i, row in enumerate(action.matrix):
        target[perm[i]] = names[i]
        for j, entry in enumerate(row):
            matrix[perm[i]][perm[j]] = entry
    return LinearlyReductiveAction(action.group_ring, action.group_ideal, matrix,
                                   polynomial_ring(QQ, target))


def torus(weights):
    """diag(t^a_1, ..., t^a_n) for t in the circle V(zw - 1), t^-1 = w."""
    n = len(weights)
    matrix = [["0"] * n for _ in range(n)]
    for i, a in enumerate(weights):
        matrix[i][i] = f"z^{a}" if a > 0 else f"w^{-a}" if a < 0 else "1"
    return LinearlyReductiveAction(
        polynomial_ring(QQ, ("z", "w")), ["z*w-1"], matrix,
        polynomial_ring(QQ, tuple(f"x{i + 1}" for i in range(n))))


def seeded_tori(count, seed=21):
    rng = random.Random(seed)
    return [torus([rng.randint(-3, 3) for _ in range(rng.randint(3, 5))])
            for _ in range(count)]


@pytest.mark.parametrize("action, top", [(SL2, 6), (CUBIC, 4), (ROTATION, 4), (MULT, 4),
                                         (O2, 4), (TRIVIAL, 3), (EMPTY, 3),
                                         (relabelled(CUBIC, (2, 0, 3, 1)), 4),
                                         (relabelled(CUBIC, (3, 2, 0, 1)), 4)]
                         + [(action, 4) for action in seeded_tori(10)])
def test_invariant_basis_matches_the_definition(action, top):
    for d in range(-1, top + 1):
        assert reductive_invariant_basis(action, d) == definition_basis(action, d)


def test_invariant_basis_of_a_rational_action():
    quadric = ROTATION_RING.parse("x^2+1/4*y^2")
    assert reductive_invariant_basis(ROTATION, 2) == [quadric]
    assert reductive_invariant_basis(ROTATION, 3) == []
    assert reductive_invariant_basis(ROTATION, 4) == [quadric * quadric]


def test_invariant_basis_of_a_trivial_group_is_every_monomial():
    ring = polynomial_ring(QQ, ("x", "y", "w"))
    action = LinearlyReductiveAction(
        polynomial_ring(QQ, ("z",)), ["z-1"], [["1", "0", "0"], ["0", "1", "0"],
                                               ["0", "0", "z"]], ring)
    for d in range(4):
        assert reductive_invariant_basis(action, d) == [
            ring.monomial(m) for m in ring.monomial_basis(d)]


def test_invariant_basis_in_degree_zero_and_below():
    for action in (SL2, ROTATION, TRIVIAL):
        assert reductive_invariant_basis(action, 0) == [action.target_ring.one()]
        assert reductive_invariant_basis(action, -1) == []


def fresh_quadric_action():
    return LinearlyReductiveAction(
        GROUP_RING, ["z11*z22-z12*z21-1"], SL2_MATRIX, QUADRIC_RING)


def test_invariant_basis_with_degrees_out_of_order():
    action = fresh_quadric_action()
    for d in (4, 2, 5, 5, 1, 3):
        assert reductive_invariant_basis(action, d) == definition_basis(SL2, d)


def test_invariant_basis_when_exponents_outgrow_the_cached_degrees():
    # Degrees 1 and 2 of the quadric keep every exponent below 8; degree 6
    # reaches z-degree 12 while they are still cached.
    action = fresh_quadric_action()
    assert reductive_invariant_basis(action, 1) == []
    assert len(reductive_invariant_basis(action, 2)) == 1
    assert reductive_invariant_basis(action, 6) == definition_basis(SL2, 6)
    assert reductive_invariant_basis(action, 2) == definition_basis(SL2, 2)


def test_kernel_rows_are_keyed_in_x_and_y(monkeypatch):
    # B ∩ Q[x, y] already holds every relation Q[z, x] spreads over
    # z-monomials, so each degree's system has few rows per column
    shapes = []

    def counting(rows, ncols, field):
        shapes.append((len(rows), ncols))
        return nullspace(rows, ncols, field)

    monkeypatch.setattr(reductive, "nullspace", counting)
    for action, top in ((fresh_quadric_action(), 6), (CUBIC, 4)):
        for d in range(1, top + 1):
            reductive_invariant_basis(action, d)
    assert len(shapes) == 10
    assert all(rows <= 2 * ncols for rows, ncols in shapes), shapes

"""Tests for multivariate polynomials, parsing, and formatting."""

import random
from fractions import Fraction

import pytest

from invtheory import (
    DivisorNotInvertible,
    MalformedExpression,
    Monomial,
    NegativeExponent,
    QQ,
    RingMismatch,
    TermOrder,
    UnknownVariable,
    format_polynomial,
    monomial_basis,
    parse_polynomial,
    polynomial_ring,
    prime_field,
    substitute,
)
from invtheory.poly import fresh_names

R2 = polynomial_ring(QQ, ("x", "y"))
R3 = polynomial_ring(QQ, ("x", "y", "z"))


def random_polynomial(ring, rng, max_terms=6, max_degree=4, max_coeff=9):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exps = [0] * ring.n
        for _ in range(rng.randrange(max_degree + 1)):
            exps[rng.randrange(ring.n)] += 1
        num = rng.randrange(-max_coeff, max_coeff + 1)
        den = rng.randrange(1, 4) if ring.field.is_rationals else 1
        terms[tuple(exps)] = Fraction(num, den) if ring.field.is_rationals else num
    f = ring.zero()
    for exps, c in terms.items():
        f = f + ring.monomial(exps, c)
    return f


def test_parse_examples():
    ring = polynomial_ring(QQ, ("x_1", "x_2"))
    f = ring.parse("x_1^2+2*x_1*x_2")
    assert f.coefficient((2, 0)) == 1
    assert f.coefficient((1, 1)) == 2
    assert len(f.monomials()) == 2

    assert R2.parse("x^2 - x^2").is_zero()

    g = polynomial_ring(QQ, ("a", "b")).parse("3/4*a^2 - b")
    assert g.coefficient((2, 0)) == Fraction(3, 4)
    assert g.coefficient((0, 1)) == -1


def test_parse_errors():
    with pytest.raises(UnknownVariable):
        R2.parse("x + q")
    with pytest.raises(NegativeExponent):
        R2.parse("x^-1")
    for bad in ("", "x^2y", "x++y", "x^", "*x", "(x+y)"):
        with pytest.raises(MalformedExpression):
            R2.parse(bad)
    S = polynomial_ring(prime_field(5), ("x",))
    with pytest.raises(DivisorNotInvertible):
        S.parse("1/5*x")


def test_parse_print_fixpoint_random():
    rng = random.Random(42)
    rings = [R2, R3, polynomial_ring(prime_field(7), ("a", "b", "c"))]
    for ring in rings:
        for _ in range(60):
            f = random_polynomial(ring, rng)
            text = format_polynomial(f)
            assert parse_polynomial(text, ring) == f
            assert parse_polynomial(format_polynomial(parse_polynomial(text, ring)), ring) == f


def test_arithmetic_examples():
    x, y = R2.variables()
    assert (x + (-x)).is_zero()
    assert (x + y) * (x - y) == R2.parse("x^2 - y^2")
    assert (x + y) ** 2 == R2.parse("x^2 + 2*x*y + y^2")


def test_ring_axioms_random():
    rng = random.Random(99)
    for ring in (R3, polynomial_ring(prime_field(3), ("x", "y"))):
        for _ in range(40):
            f = random_polynomial(ring, rng)
            g = random_polynomial(ring, rng)
            h = random_polynomial(ring, rng)
            assert f + g == g + f
            assert f * g == g * f
            assert (f + g) + h == f + (g + h)
            assert f * (g + h) == f * g + f * h
            assert f * ring.one() == f
            assert (f - f).is_zero()


def test_arithmetic_ring_mismatch():
    other = polynomial_ring(QQ, ("x", "w"))
    with pytest.raises(RingMismatch):
        R2.parse("x") + other.parse("x")
    with pytest.raises(RingMismatch):
        R2.parse("x") * other.parse("w")


def test_substitute_examples():
    x, y = R2.variables()
    assert substitute(x + y, [y, x]) == x + y
    assert substitute(x * x, [x + y, y]) == R2.parse("x^2 + 2*x*y + y^2")
    ring = polynomial_ring(QQ, ("a", "b", "c"))
    f = ring.parse("b^2 - 4*a*c")
    assert substitute(f, list(ring.variables())) == f


def test_substitute_is_ring_homomorphism():
    rng = random.Random(5)
    images = [R2.parse("x+y"), R2.parse("x*y - 2")]
    for _ in range(30):
        f = random_polynomial(R2, rng, max_degree=3)
        g = random_polynomial(R2, rng, max_degree=3)
        assert substitute(f + g, images) == substitute(f, images) + substitute(g, images)
        assert substitute(f * g, images) == substitute(f, images) * substitute(g, images)


def test_monomial_basis_examples():
    basis = monomial_basis(R2, 2)
    assert [format_polynomial(R2.monomial(m)) for m in basis] == ["x^2", "x*y", "y^2"]
    single = monomial_basis(polynomial_ring(QQ, ("x",)), 5)
    assert single == [Monomial((5,))]
    four = polynomial_ring(QQ, ("a", "b", "c", "d"))
    assert [m.exponents for m in monomial_basis(four, 1)] == [
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


def test_monomial_basis_count_and_order():
    from math import comb
    for n in range(1, 6):
        ring = polynomial_ring(QQ, tuple(f"x{i}" for i in range(1, n + 1)))
        for d in range(9):
            basis = monomial_basis(ring, d)
            assert len(basis) == comb(n + d - 1, d)
            for a, b in zip(basis, basis[1:]):
                assert ring.order.compare(a.exponents, b.exponents) == 1


def test_monomial_degree_and_divisibility():
    m = Monomial((2, 1))
    assert m.degree() == 3
    assert m.divides(Monomial((2, 2)))
    assert not m.divides(Monomial((1, 3)))


def test_homogeneous_components():
    f = R2.parse("x^3 + x*y + 2*y + 5")
    assert f.homogeneous_component(3) == R2.parse("x^3")
    assert f.homogeneous_component(2) == R2.parse("x*y")
    assert f.homogeneous_component(0) == R2.constant(5)
    assert not f.is_homogeneous()
    assert R2.parse("x^2 - y^2").is_homogeneous()


def test_lead_term_respects_order():
    lex_ring = polynomial_ring(QQ, ("x", "y"), order=TermOrder.lex())
    f = lex_ring.parse("x + y^2")
    assert f.lead_exponents() == (1, 0)
    g = R2.parse("x + y^2")
    assert g.lead_exponents() == (0, 2)


def test_ring_construction_validation():
    with pytest.raises(ValueError):
        polynomial_ring(QQ, ("x", "x"))
    with pytest.raises(ValueError):
        polynomial_ring(QQ, ("2bad",))


def test_prime_field_formatting_least_nonnegative():
    S = polynomial_ring(prime_field(7), ("a", "b"))
    assert format_polynomial(S.parse("10*a - 3/2*b")) == "3*a+2*b"


def test_fresh_names_avoid_collisions():
    names = fresh_names(3, {"x", "y"})
    assert len(names) == 3
    assert len(set(names)) == 3
    assert not set(names) & {"x", "y"}
    clash = fresh_names(2, {"u1", "u2"})
    assert not set(clash) & {"u1", "u2"}


def test_fresh_names_fall_back_to_numbered_blocks():
    taken = {f"{prefix}1" for prefix in "uvwst"}
    assert fresh_names(2, taken) == ("aux0_1", "aux0_2")
    assert fresh_names(2, taken | {"aux0_2"}) == ("aux1_1", "aux1_2")

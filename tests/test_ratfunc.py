"""Tests for univariate polynomials over Q and rational function sums."""

import random
from fractions import Fraction

import pytest

from invtheory import InexactDivision, RationalFunction, UniPoly, ZeroDenominator, rational_function_sum

ONE = UniPoly.one()
T = UniPoly.t_power(1)


def test_unipoly_basics():
    assert UniPoly(()).is_zero()
    assert UniPoly((1, 0, -2)).degree() == 2
    assert UniPoly((0, 1)) == T
    assert UniPoly.one_minus_t_power(3) == ONE - UniPoly.t_power(3)
    f = UniPoly((1, 2, 1))
    assert f == (ONE + T) * (ONE + T)
    assert f.coefficient(1) == 2
    assert f.coefficient(9) == 0


def test_unipoly_trailing_zeros_stripped():
    assert UniPoly((1, 0, 0)) == UniPoly((1,))
    assert UniPoly((0, 0)).is_zero()


def test_exact_division():
    f = UniPoly.one_minus_t_power(6)
    g = UniPoly.one_minus_t_power(2)
    q = f.exact_div(g)
    assert q * g == f
    with pytest.raises(InexactDivision):
        (ONE + T).exact_div(T)


def test_gcd_is_normalized():
    a = UniPoly.one_minus_t_power(2)
    assert (a * a).gcd(a) == UniPoly((-1, 0, 1))  # monic T^2 - 1
    assert a.gcd(UniPoly(())) == UniPoly((-1, 0, 1))


def test_sum_cancellation():
    f = rational_function_sum([(ONE, ONE - T), (UniPoly((-1,)), ONE - T)])
    assert f.is_zero()
    assert f.num == UniPoly(())
    assert f.den == ONE


def test_sum_cross_multiply_and_reduce():
    f = rational_function_sum([(ONE, ONE - T), (ONE, ONE + T)])
    assert f.num == UniPoly((2,))
    assert f.den == UniPoly((1, 0, -1))  # 1 - T^2


def test_sum_half_average_of_plus_minus_identity():
    half = UniPoly((Fraction(1, 2),))
    f = rational_function_sum([
        (half, (ONE - T) * (ONE - T)),
        (half, (ONE + T) * (ONE + T)),
    ])
    assert f.num == UniPoly((1, 0, 1))
    assert f.den == UniPoly((1, 0, -2, 0, 1))  # (1 - T^2)^2
    # series counts fixed-space dimensions of the +-identity action on 2 variables
    assert f.series_coefficients(5) == [1, 0, 3, 0, 5]


def test_denominator_constant_term_normalized_to_one():
    r = RationalFunction(UniPoly((0, 2)), UniPoly((2, 2)))
    assert r.num == UniPoly((0, 1))
    assert r.den == UniPoly((1, 1))


def test_reduction_leaves_coprime_fraction():
    rng = random.Random(3)
    for _ in range(40):
        num = UniPoly(tuple(Fraction(rng.randrange(-3, 4)) for _ in range(4)))
        den = UniPoly(tuple(Fraction(rng.randrange(-3, 4)) for _ in range(4)))
        if den.is_zero():
            continue
        r = RationalFunction(num, den)
        if r.is_zero():
            continue
        assert r.num.gcd(r.den).degree() == 0


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominator):
        RationalFunction(ONE, UniPoly(()))
    with pytest.raises(ZeroDenominator):
        rational_function_sum([(ONE, UniPoly(()))])


def test_geometric_series():
    r = RationalFunction(ONE, ONE - T)
    assert r.series_coefficients(6) == [1, 1, 1, 1, 1, 1]
    two_vars = RationalFunction(ONE, (ONE - T) * (ONE - T))
    assert two_vars.series_coefficients(5) == [1, 2, 3, 4, 5]


def test_sum_agrees_with_termwise_series():
    rng = random.Random(17)
    for _ in range(20):
        terms = []
        for _ in range(rng.randrange(1, 4)):
            num = UniPoly((Fraction(rng.randrange(-2, 3)), Fraction(rng.randrange(-2, 3))))
            den = ONE - UniPoly.t_power(rng.randrange(1, 4)) * Fraction(rng.randrange(1, 3))
            terms.append((num, den))
        total = rational_function_sum(terms)
        expect = [sum(col) for col in zip(*(RationalFunction(n, d).series_coefficients(8) for n, d in terms))]
        assert total.series_coefficients(8) == expect


def test_sum_equals_the_pairwise_sum():
    rng = random.Random(29)
    dens = [ONE - T, ONE + T, T, T * T - T, ONE - UniPoly.t_power(3), UniPoly((2, 0, -1)),
            UniPoly((3,))]  # T and T^2 - T vanish at 0
    for _ in range(40):
        terms = []
        for _ in range(rng.randrange(0, 7)):
            num = UniPoly(Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
                          for _ in range(rng.randrange(0, 4)))  # often zero
            den = rng.choice(dens) * Fraction(rng.choice((-2, 1, 3)))
            terms.append((num, den) if rng.random() < 0.5 else RationalFunction(num, den))
        pairwise = RationalFunction(UniPoly.zero(), ONE)
        for term in terms:
            pairwise = pairwise + (RationalFunction(*term) if isinstance(term, tuple) else term)
        total = rational_function_sum(iter(terms))
        assert (total.num, total.den) == (pairwise.num, pairwise.den)


def test_sum_rejects_a_zero_denominator_among_other_terms():
    with pytest.raises(ZeroDenominator):
        rational_function_sum([RationalFunction(ONE, ONE - T), (T, UniPoly.zero()), (ONE, T)])

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


# -- the integer division and gcd against Euclid over Fractions ---------------


def fraction_divmod(a, b):
    """Long division of ascending Fraction coefficient lists."""
    rem, quo = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(quo) - 1, -1, -1):
        factor = rem[shift + len(b) - 1] / b[-1]
        quo[shift] = factor
        for j, c in enumerate(b):
            rem[shift + j] -= factor * c
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


def fraction_gcd(a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, fraction_divmod(a, b)[1]
    return [c / a[-1] for c in a] if a else []


def seeded_unipoly(rng, top):
    """Often fractional and non-monic; zero when the degree drawn is -1."""
    return UniPoly(Fraction(rng.randrange(-9, 10), rng.choice((1, 1, 2, 3, 7)))
                   for _ in range(rng.randrange(0, top + 2)))


def test_gcd_and_exact_division_match_fraction_euclid():
    rng = random.Random(41)
    for _ in range(200):
        common = seeded_unipoly(rng, 3)
        a = common * seeded_unipoly(rng, 4)
        b = common * seeded_unipoly(rng, 4)
        for x, y in ((a, b), (b, a), (a, UniPoly.zero()), (UniPoly.zero(), b), (a, a)):
            g = x.gcd(y)
            assert list(g.coeffs) == fraction_gcd(x.coeffs, y.coeffs)
            if not g.is_zero():
                assert g.coeffs[-1] == 1
                quo = x.exact_div(g)
                assert list(quo.coeffs) == fraction_divmod(x.coeffs, g.coeffs)[0]
                assert quo * g == x
        if not common.is_zero():
            assert a.exact_div(common) * common == a


def test_division_matches_fraction_long_division_and_inexact_still_raises():
    rng = random.Random(43)
    raised = 0
    for _ in range(200):
        a, b = seeded_unipoly(rng, 5), seeded_unipoly(rng, 3)
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.exact_div(b)
            continue
        quo, rem = fraction_divmod(a.coeffs, b.coeffs)
        assert divmod(a, b) == (UniPoly(quo), UniPoly(rem))
        if rem:
            raised += 1
            with pytest.raises(InexactDivision):
                a.exact_div(b)
        else:
            assert list(a.exact_div(b).coeffs) == quo
    assert raised > 100
    with pytest.raises(InexactDivision):
        UniPoly((Fraction(1, 2), 0, 3)).exact_div(UniPoly((0, 2)))
    with pytest.raises(InexactDivision):
        UniPoly((1,)).exact_div(UniPoly((1, 1)))


def test_unipoly_powers_and_evaluation():
    f = ONE + T
    assert f ** 0 == ONE
    assert f ** 3 == UniPoly((1, 3, 3, 1))
    with pytest.raises(ValueError):
        f ** -1
    assert UniPoly((1, -2, 3))(Fraction(1, 2)) == Fraction(3, 4)
    assert UniPoly(())(5) == 0


def test_rational_function_negation_difference_and_text():
    r = RationalFunction(ONE, ONE - T)
    assert -r == RationalFunction(-ONE, ONE - T)
    assert r - r == RationalFunction(UniPoly(()))
    assert r - 1 == RationalFunction(T, ONE - T)
    assert str(r) == "(1)/(-T+1)"
    assert str(RationalFunction(UniPoly((1, 2)))) == "2*T+1"


def test_series_coefficients_at_a_pole():
    with pytest.raises(ZeroDenominator, match="pole"):
        RationalFunction(ONE, T).series_coefficients(3)


def test_t_powers_reject_negative_exponents():
    assert UniPoly.t_power(0) == ONE
    assert UniPoly.one_minus_t_power(0).is_zero()
    for k in (-1, -3):
        with pytest.raises(ValueError):
            UniPoly.t_power(k)
        with pytest.raises(ValueError):
            UniPoly.one_minus_t_power(k)

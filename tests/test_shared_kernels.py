"""Polynomial and UniPoly share one printer (`poly._signed_sum`), one power
routine (`poly._power`) and the integer product; RationalFunction adds
through `rational_function_sum`.  Each shared kernel is checked against a
plain reference written out here: the separate printers, the Fraction
double loop, square-and-multiply and the cross-multiplying sum."""

import random
from fractions import Fraction

import pytest

from invtheory import QQ, Polynomial, RationalFunction, UniPoly, polynomial_ring, prime_field
from invtheory.poly import _format_power

COEFFS = [0, 1, -1, 2, -3, 7, Fraction(1, 2), Fraction(-5, 3), Fraction(4, 9)]


def reference_format_polynomial(f):
    if not f.terms:
        return "0"
    names = f.ring.names
    pieces = []
    for exp, coeff in f.terms:
        powers = "*".join(_format_power(names[i], e) for i, e in enumerate(exp) if e)
        text = str(coeff)
        negative = text.startswith("-")
        if negative:
            text = text[1:]
        if powers:
            body = powers if text == "1" else f"{text}*{powers}"
        else:
            body = text
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"-{body}" if negative else f"+{body}")
    return "".join(pieces)


def reference_unipoly_str(f):
    if not f.coeffs:
        return "0"
    pieces = []
    for k in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[k]
        if c == 0:
            continue
        text = str(c)
        negative = text.startswith("-")
        if negative:
            text = text[1:]
        if k == 0:
            body = text
        else:
            power = "T" if k == 1 else f"T^{k}"
            body = power if text == "1" else f"{text}*{power}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"-{body}" if negative else f"+{body}")
    return "".join(pieces)


def reference_unipoly_mul(f, g):
    if f.is_zero() or g.is_zero():
        return UniPoly.zero()
    out = [Fraction(0)] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(g.coeffs):
            out[i + j] += a * b
    return UniPoly(out)


def reference_power(base, k, one):
    result = one
    while k:
        if k & 1:
            result = result * base
        base_needed = k > 1
        k >>= 1
        if base_needed and k:
            base = base * base
    return result


def reference_ratfunc_add(r, s):
    return RationalFunction(reference_unipoly_mul(r.num, s.den) + reference_unipoly_mul(s.num, r.den),
                            reference_unipoly_mul(r.den, s.den))


def random_polynomial(ring, rng):
    return ring.from_terms({tuple(rng.randint(0, 3) for _ in ring.names): rng.choice(COEFFS)
                            for _ in range(rng.randint(0, 4))})


def random_unipoly(rng, terms=5):
    return UniPoly(rng.choice(COEFFS) for _ in range(rng.randint(0, terms)))


@pytest.mark.parametrize("field", [QQ, prime_field(7)], ids=str)
def test_polynomials_print_and_power_as_the_reference(field):
    rng = random.Random(29)
    for names in (("x",), ("x", "y"), ("x", "y", "z")):
        ring = polynomial_ring(field, names)
        fixed = [ring.zero(), ring.one(), -ring.one(), ring.constant(Fraction(-2, 3)),
                 ring.variable(0) - 1]
        for f in fixed + [random_polynomial(ring, rng) for _ in range(40)]:
            assert str(f) == reference_format_polynomial(f)
            for k in range(5):
                power = f ** k
                assert power == reference_power(f, k, ring.one())
                assert str(power) == reference_format_polynomial(power)


def test_unipolys_print_multiply_and_power_as_the_reference():
    rng = random.Random(29)
    fixed = [UniPoly.zero(), UniPoly.one(), -UniPoly.one(), UniPoly((Fraction(-1, 2),)),
             UniPoly((0, -1)), UniPoly((1, 0, 0, -1))]
    for f in fixed + [random_unipoly(rng) for _ in range(100)]:
        assert str(f) == reference_unipoly_str(f)
        for g in (random_unipoly(rng), UniPoly.zero(), UniPoly.one()):
            assert (f * g).coeffs == reference_unipoly_mul(f, g).coeffs
        assert f * 3 == reference_unipoly_mul(f, UniPoly((3,)))
        assert Fraction(1, 3) * f == reference_unipoly_mul(f, UniPoly((Fraction(1, 3),)))
        for k in range(5):
            power = f ** k
            assert power.coeffs == reference_power(f, k, UniPoly.one()).coeffs
            assert str(power) == reference_unipoly_str(power)


def test_rational_functions_add_as_the_reference():
    rng = random.Random(29)
    for _ in range(100):
        num, den = random_unipoly(rng), random_unipoly(rng, 4)
        if den.is_zero():
            continue
        r = RationalFunction(num, den)
        s = RationalFunction(den, num) if not num.is_zero() else RationalFunction(1, den)
        for total, expected in ((r + s, reference_ratfunc_add(r, s)),
                                (r - s, reference_ratfunc_add(r, -s)),
                                (r + 1, reference_ratfunc_add(r, RationalFunction(1))),
                                (2 + r, reference_ratfunc_add(r, RationalFunction(2))),
                                (r - r, RationalFunction(0))):
            assert (total.num.coeffs, total.den.coeffs) == (expected.num.coeffs, expected.den.coeffs)
            assert str(total) == str(expected)


def test_negative_powers_raise():
    x = polynomial_ring(QQ, ("x",)).variable(0)
    with pytest.raises(ValueError, match="negative power"):
        x ** -1
    with pytest.raises(ValueError, match="negative power"):
        UniPoly((1, 1)) ** -2


def test_powers_multiply_as_often_as_square_and_multiply(monkeypatch):
    calls = []
    real_mul = Polynomial.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return real_mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    ring = polynomial_ring(QQ, ("x", "y"))
    f = ring.parse("x + 2*y - 1")
    for k in range(0, 17):
        calls.clear()
        f ** k
        shipped = len(calls)
        calls.clear()
        reference_power(f, k, ring.one())
        assert shipped == len(calls), k

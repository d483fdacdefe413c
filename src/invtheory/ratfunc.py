"""Univariate polynomials over Q and reduced rational functions in one
variable T.  Used for Molien series and Hilbert series arithmetic; everything
is exact.  Coefficients are Fractions; division, the gcd and
`rational_function_sum` clear their denominators once and run on integer
coefficient lists.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InexactDivision, ZeroDenominator
from .fields import integral


class UniPoly:
    """Dense univariate polynomial over Q; coefficients ascending in T."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly()

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly((1,))

    @staticmethod
    def constant(c) -> "UniPoly":
        return UniPoly((c,))

    @staticmethod
    def t_power(k: int) -> "UniPoly":
        return UniPoly((0,) * k + (1,))

    @staticmethod
    def one_minus_t_power(k: int) -> "UniPoly":
        """1 - T^k."""
        if k == 0:
            return UniPoly.zero()
        return UniPoly((1,) + (0,) * (k - 1) + (-1,))

    # -- inspection ---------------------------------------------------------

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __call__(self, value) -> Fraction:
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * value + c
        return total

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        other = _as_unipoly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            (self.coefficient(i) + other.coefficient(i)) for i in range(n)
        )

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly(-c for c in self.coeffs)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-_as_unipoly(other))

    def __rsub__(self, other) -> "UniPoly":
        return _as_unipoly(other) - self

    def __mul__(self, other) -> "UniPoly":
        other = _as_unipoly(other)
        if self.is_zero() or other.is_zero():
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """(quotient, remainder) over Q, by one pseudo-division over the
        integers: with self = a / den_a and other = (g / den_b) b for integer
        a and primitive b, s a = q b + r gives the quotient q den_b /
        (s den_a g) and the remainder r / (s den_a)."""
        other = _as_unipoly(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        a, den_a = integral(self.coeffs)
        b, den_b = integral(other.coeffs)
        g = _content(b)
        scale, quo, rem = _pseudo_divmod(a, [c // g for c in b])
        return (UniPoly(Fraction(q * den_b, scale * den_a * g) for q in quo),
                UniPoly(Fraction(r, scale * den_a) for r in rem))

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        """Quotient when the division is exact; InexactDivision otherwise."""
        quo, rem = divmod(self, other)
        if not rem.is_zero():
            raise InexactDivision(f"({self}) is not divisible by ({other})")
        return quo

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic greatest common divisor, by primitive pseudo-remainders on
        the integer coefficient lists (Brown, JACM 1971)."""
        a, b = self.coeffs, _as_unipoly(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        if not a:
            return UniPoly.zero()
        a = _integer_gcd(_primitive(integral(a)[0]), _primitive(integral(b)[0]))
        return UniPoly(Fraction(c, a[-1]) for c in a)

    def __pow__(self, k: int) -> "UniPoly":
        if k < 0:
            raise ValueError("negative power")
        result = UniPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == UniPoly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        pieces = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
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

    def __repr__(self) -> str:
        return f"UniPoly({self})"


def _content(coeffs: list[int]) -> int:
    """The gcd of the integer coefficients, signed like the leading one."""
    g = math.gcd(*coeffs)
    return -g if coeffs and coeffs[-1] < 0 else g


def _primitive(coeffs: list[int]) -> list[int]:
    """The integer coefficients over their content: a positive lead."""
    g = _content(coeffs)
    return coeffs if g in (0, 1) else [c // g for c in coeffs]


def _integer_gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd of primitive integer lists, a nonzero, with a
    positive lead."""
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[2])
    return a


def _integer_product(a: list[int], b: list[int]) -> list[int]:
    """The product of nonzero integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[int, list[int], list[int]]:
    """(s, q, r) with s a = q b + r over the integers, s > 0 and deg r < deg b,
    trailing zeros of r stripped; b's lead must be positive.  Each step
    scales by lead/gcd(top, lead) and subtracts top/gcd(top, lead) times the
    shifted b, so s = 1 whenever every quotient coefficient is integral."""
    d, lead, scale = len(b) - 1, b[-1], 1
    rem, quo = list(a), [0] * max(len(a) - d, 0)
    for shift in range(len(quo) - 1, -1, -1):
        top = rem.pop()
        if top:
            g = math.gcd(top, lead)
            if g != lead:
                step = lead // g
                rem, quo, scale = [step * c for c in rem], [step * c for c in quo], scale * step
            quo[shift] = top // g
            for j in range(d):
                rem[shift + j] -= quo[shift] * b[j]
    while rem and not rem[-1]:
        rem.pop()
    return scale, quo, rem


def _as_unipoly(value) -> UniPoly:
    if isinstance(value, UniPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return UniPoly.constant(value)
    raise TypeError(f"cannot treat {value!r} as a univariate polynomial")


class RationalFunction:
    """num/den over Q[T], reduced, with den(0) = 1 whenever den(0) != 0
    (otherwise den is monic).  Equal values have equal representations."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = _as_unipoly(num)
        den = _as_unipoly(den)
        if den.is_zero():
            raise ZeroDenominator("rational function with denominator 0")
        if num.is_zero():
            self.num, self.den = UniPoly.zero(), UniPoly.one()
            return
        g = num.gcd(den)
        if g.degree() > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        scale = den.coefficient(0)
        if scale == 0:
            scale = den.coeffs[-1]
        num = num * (1 / scale)
        den = den * (1 / scale)
        self.num, self.den = num, den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other) -> "RationalFunction":
        other = _as_ratfunc(other)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        return self + (-_as_ratfunc(other))

    def __mul__(self, other) -> "RationalFunction":
        other = _as_ratfunc(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RationalFunction, UniPoly, int, Fraction)):
            return NotImplemented
        other = _as_ratfunc(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def series_coefficients(self, count: int) -> list[Fraction]:
        """First `count` Taylor coefficients at T = 0."""
        if self.den.coefficient(0) == 0:
            raise ZeroDenominator("pole at T = 0")
        out: list[Fraction] = []
        for k in range(count):
            value = self.num.coefficient(k)
            for i in range(1, k + 1):
                value -= self.den.coefficient(i) * out[k - i]
            out.append(value)  # den(0) == 1 after normalization
        return out

    def __str__(self) -> str:
        if self.den == UniPoly.one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


def _as_ratfunc(value) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    return RationalFunction(_as_unipoly(value), UniPoly.one())


def rational_function_sum(terms) -> RationalFunction:
    """Exact sum of an iterable of (numerator, denominator) pairs or
    RationalFunction values, on integer coefficient lists.  Each distinct
    polynomial is cleared once to a rational scale times a primitive list,
    the lcm of the denominators is taken with the integer gcd, each
    cofactor comes from an exact integer division (s = 1 in
    `_pseudo_divmod`, by Gauss's lemma), and `Fraction`s are built once, for
    the sum, which is reduced once."""
    cleared: dict[UniPoly, tuple[tuple[int, ...], Fraction]] = {}
    parts = []  # (primitive denominator, scale, primitive numerator)
    for term in terms:
        if not isinstance(term, tuple):
            term = _as_ratfunc(term)
            term = term.num, term.den
        num, den = map(_as_unipoly, term)
        if den.is_zero():
            raise ZeroDenominator("rational function with denominator 0")
        if num.is_zero():
            continue
        for poly in (num, den):
            if poly not in cleared:
                ints, den_lcm = integral(poly.coeffs)
                g = _content(ints)
                cleared[poly] = tuple(c // g for c in ints), Fraction(g, den_lcm)
        (num, a), (den, b) = cleared[num], cleared[den]
        parts.append((den, a / b, num))
    common = [1]
    for den in dict.fromkeys(den for den, _, _ in parts):
        common = _integer_product(common, _pseudo_divmod(den, _integer_gcd(common, den))[1])
    scale = math.lcm(*(s.denominator for _, s, _ in parts))
    total = [0] * max((len(num) + len(common) - len(den) for den, _, num in parts), default=0)
    for den, s, num in parts:
        factor = s.numerator * (scale // s.denominator)
        for i, c in enumerate(_integer_product(num, _pseudo_divmod(common, den)[1])):
            total[i] += factor * c
    return RationalFunction(UniPoly(Fraction(c, scale) for c in total), UniPoly(common))

"""Coefficient fields: the rationals and prime fields F_p.

Scalars are ordinary Python values -- `Fraction` over Q, `int` in [0, p)
over F_p -- and a `Field` instance supplies the arithmetic on them.  Keeping
scalars as plain values makes polynomials hashable and cheap to copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisorNotInvertible


# Miller-Rabin to these prime bases decides primality below _MR_BOUND
# (Sorenson and Webster, *Strong pseudoprimes to twelve prime bases*, Math.
# Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Whether p is prime; raises ValueError when p has no prime factor
    among the bases and is too large for them to decide."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    if p >= _MR_BOUND:
        raise ValueError(f"cannot decide whether {p} is prime: it is above 3.3e24")
    odd, twos = p - 1, 0
    while not odd & 1:
        odd >>= 1
        twos += 1
    for b in _MR_BASES:
        x = pow(b, odd, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _integers(values, what: str, least: int | None = None) -> tuple[int, ...]:
    """``values`` as ints; a ValueError if one is a bool, is not integral or
    is below ``least``."""
    values = tuple(values)
    for v in values:
        if isinstance(v, bool) or int(v) != v:
            raise ValueError(f"{what} must be integral, got {v!r}")
        if least is not None and v < least:
            raise ValueError(f"{what} must be at least {least}")
    return tuple(map(int, values))


def integral(scalars) -> tuple[list[int], int]:
    """The scalars (a collection) times the lcm of their denominators, as
    ints, and that lcm; an F_p scalar is its own numerator over 1."""
    den = math.lcm(*(c.denominator for c in scalars))
    return [c.numerator * (den // c.denominator) for c in scalars], den


@dataclass(frozen=True)
class Field:
    """Q when ``p`` is None, otherwise F_p with least non-negative scalars."""

    p: int | None = None

    def __post_init__(self) -> None:
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    # -- classification ----------------------------------------------------

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

    # -- constants and coercion --------------------------------------------

    def zero(self):
        return Fraction(0) if self.p is None else 0

    def one(self):
        return Fraction(1) if self.p is None else 1

    def coerce(self, value):
        """Turn an int, Fraction, or 'a/b' string into a scalar of this field."""
        if isinstance(value, str):
            text = value.strip()
            if "/" in text:
                num_text, den_text = text.split("/", 1)
                return self.from_pair(int(num_text), int(den_text))
            return self.from_pair(int(text), 1)
        if isinstance(value, bool):
            raise TypeError("bool is not a field scalar")
        if isinstance(value, int):
            return self.from_pair(value, 1)
        if isinstance(value, Fraction):
            return self.from_pair(value.numerator, value.denominator)
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def from_pair(self, num: int, den: int):
        """The scalar num/den; raises DivisorNotInvertible when den has no inverse."""
        if self.p is None:
            if den == 0:
                raise DivisorNotInvertible("denominator 0 has no inverse in Q")
            return Fraction(num, den)
        den_mod = den % self.p
        if den_mod == 0:
            raise DivisorNotInvertible(f"denominator {den} is 0 mod {self.p}")
        return num * pow(den_mod, -1, self.p) % self.p

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.is_zero(a):
            raise DivisorNotInvertible("0 has no inverse")
        return 1 / a if self.p is None else pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == 0

    def __str__(self) -> str:
        return "QQ" if self.p is None else f"GF({self.p})"


QQ = Field()


def prime_field(p: int) -> Field:
    """The field with p elements, p prime."""
    return Field(p)

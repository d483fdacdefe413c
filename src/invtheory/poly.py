"""Sparse multivariate polynomials over an exact coefficient field.

A polynomial is a tuple of (exponent tuple, coefficient) terms kept sorted
leading-first under the ring's term order; equal rings (same field, names,
order) are interchangeable.  Everything is immutable and hashable.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import RingMismatch
from .fields import Field, QQ, integral
from .orders import TermOrder

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Monomial:
    """A power product, stored as its exponent vector."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(e < 0 for e in self.exponents):
            raise ValueError("monomial exponents must be non-negative")

    def degree(self) -> int:
        return sum(self.exponents)

    def divides(self, other: "Monomial") -> bool:
        return len(self.exponents) == len(other.exponents) and all(
            a <= b for a, b in zip(self.exponents, other.exponents)
        )

    def __mul__(self, other: "Monomial") -> "Monomial":
        if len(self.exponents) != len(other.exponents):
            raise ValueError("monomials of different rings")
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))


@dataclass(frozen=True)
class PolynomialRing:
    """K[names] with a fixed term order (graded reverse lex by default)."""

    field: Field
    names: tuple[str, ...]
    order: TermOrder = TermOrder.grevlex()

    def __post_init__(self) -> None:
        if isinstance(self.names, list):
            object.__setattr__(self, "names", tuple(self.names))
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be distinct")
        for name in self.names:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad variable name {name!r}")
        if self.order.kind == "elimination" and self.order.block > len(self.names):
            raise ValueError("elimination block larger than the ring")

    @property
    def n(self) -> int:
        return len(self.names)

    def with_order(self, order: TermOrder) -> "PolynomialRing":
        return PolynomialRing(self.field, self.names, order)

    # -- element constructors ------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, value) -> "Polynomial":
        c = self.field.coerce(value)
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, (((0,) * self.n, c),))

    def variable(self, index: int) -> "Polynomial":
        exp = tuple(1 if j == index else 0 for j in range(self.n))
        return Polynomial(self, ((exp, self.field.one()),))

    def variables(self) -> list["Polynomial"]:
        return [self.variable(i) for i in range(self.n)]

    def monomial(self, exponents, coefficient=1) -> "Polynomial":
        if isinstance(exponents, Monomial):
            exponents = exponents.exponents
        exponents = tuple(int(e) for e in exponents)
        if len(exponents) != self.n:
            raise ValueError("exponent vector has wrong length")
        if any(e < 0 for e in exponents):
            raise ValueError("exponents must be non-negative")
        c = self.field.coerce(coefficient)
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, ((exponents, c),))

    def from_terms(self, terms) -> "Polynomial":
        """Build from an iterable or mapping of exponent tuple -> coefficient."""
        if hasattr(terms, "items"):
            terms = terms.items()
        acc: dict[tuple[int, ...], object] = {}
        for exp, coeff in terms:
            if isinstance(exp, Monomial):
                exp = exp.exponents
            exp = tuple(int(e) for e in exp)
            c = self.field.coerce(coeff)
            if exp in acc:
                c = self.field.add(acc[exp], c)
            acc[exp] = c
        return _from_dict(self, acc)

    def parse(self, text: str) -> "Polynomial":
        from .parsing import parse_polynomial

        return parse_polynomial(text, self)

    # -- monomial enumeration --------------------------------------------------

    def monomial_basis(self, degree: int) -> list[Monomial]:
        """All monomials of the given total degree, leading-first.
        `_compositions` lists their exponents in descending lex order;
        reversed, with each tuple reversed, they run in descending grevlex."""
        if degree < 0:
            return []
        exps = _compositions(degree, self.n)
        if self.order.kind == "grevlex":
            exps = [e[::-1] for e in reversed(exps)]
        else:
            exps.sort(key=self.order.key, reverse=True)
        return list(map(Monomial, exps))

    def __str__(self) -> str:
        return f"{self.field}[{', '.join(self.names)}]"


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    if parts == 0:
        return [()] if total == 0 else []
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def support_mask(exp: tuple[int, ...]) -> int:
    """Bitmask of the variables that occur in an exponent vector (short
    exponent vectors, Bachmann & Schoenemann 1998): two monomials are
    coprime exactly when their masks are disjoint."""
    mask = 0
    for v, a in enumerate(exp):
        if a:
            mask |= 1 << v
    return mask


class Staircase:
    """Packed n-vectors held side by side in one int, so that one vector is
    tested against all of them at once (Bachmann & Schoenemann 1998).

    A vector packs into n fields of ``width`` bits, entry v in field v from
    the low end, each field's top bit a guard bit: every entry must stay
    below 2^(width - 1).  The vectors held sit in slots of n width + 1 bits.
    `divisors` copies h with its guard bits G set into every slot and
    subtracts the vectors held, so no field borrows and a guard bit survives
    where h's entry is at least the held one's; adding 2^(n width) - G per
    slot carries into the slot's top bit exactly when all of G survive.
    Bits of h above its n fields are ignored; ``held`` lists the vectors as
    added."""

    def __init__(self, n: int, width: int):
        self.slot = width * n + 1
        self.low = (1 << (width * n)) - 1
        self.guard = sum(1 << (width * v + width - 1) for v in range(n))
        self.rep = self.bulk = self.guards = self.tops = self.fill = 0
        self.held: list[int] = []

    def add(self, h: int) -> None:
        at = self.slot * len(self.held)
        self.held.append(h)
        self.rep += 1 << at
        self.bulk += (h & self.low) << at
        self.guards = self.guard * self.rep
        self.tops = self.rep << (self.slot - 1)
        self.fill = self.tops - self.guards

    def divisors(self, h: int) -> int:
        """The held vectors lying componentwise below h, the k-th added as
        bit (k + 1) slot - 1."""
        kept = ((h & self.low | self.guard) * self.rep - self.bulk) & self.guards
        return kept + self.fill & self.tops


def _packing(n: int, top: int):
    """(pack, unpack) between ints and n-exponent tuples with entries at most
    ``top``, exponent v in the v-th field of top.bit_length() bits from the
    low end, so that sums up to top carry nothing."""
    width = top.bit_length()
    shifts, mask = range(0, width * n, width), (1 << width) - 1
    return (lambda e: sum(map(operator.lshift, e, shifts)),
            lambda h: tuple(h >> s & mask for s in shifts))


def _packed_integral(terms, pack) -> tuple[list[tuple[int, int]], int]:
    """(packed exponent, integer coefficient) pairs cleared by `integral`,
    and the lcm of the denominators."""
    ints, den = integral([c for _, c in terms])
    return list(zip([pack(exp) for exp, _ in terms], ints)), den


def _packed_product(a, b) -> dict[int, int]:
    """The product of two lists of (packed exponent, integer coefficient)
    terms, as a packed exponent -> integer dict; cancelled terms stay as 0.
    The one multiplication kernel: `Polynomial.__mul__` runs it on cleared
    polynomials, `rings.verify_generators` on generator products."""
    acc: dict[int, int] = {}
    get = acc.get
    for ha, ca in a:
        for hb, cb in b:
            h = ha + hb
            acc[h] = get(h, 0) + ca * cb
    return acc


def _power(base, k: int, one):
    """base^k by repeated squaring, from ``one``; no square is taken past
    the last bit of k."""
    if k < 0:
        raise ValueError("negative power")
    result = one
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


def _ring_mismatch(a: PolynomialRing, b: PolynomialRing) -> RingMismatch:
    """The error for two rings that differ, naming their term orders when
    only those do."""
    if str(a) == str(b):
        return RingMismatch(f"{a} ({a.order}) vs {b} ({b.order})")
    return RingMismatch(f"{a} vs {b}")


def _accumulate(acc: dict, terms, field, scale=None) -> None:
    """acc += scale * terms, on exponent -> coefficient dicts."""
    for exp, coeff in terms:
        if scale is not None:
            coeff = field.mul(scale, coeff)
        acc[exp] = field.add(acc[exp], coeff) if exp in acc else coeff


def _from_dict(ring: PolynomialRing, acc: dict) -> "Polynomial":
    """The nonzero terms of an exponent -> coefficient dict, sorted
    leading-first.  Grevlex sorts ascending on the reversed exponents, then
    stably descending on the degree, and lex descending on the exponents;
    only elimination orders need the order's key."""
    is_zero = ring.field.is_zero
    items = [(e, c) for e, c in acc.items() if not is_zero(c)]
    if ring.order.kind == "grevlex":
        items.sort(key=lambda t: t[0][::-1])
        items.sort(key=lambda t: sum(t[0]), reverse=True)
    elif ring.order.kind == "lex":
        items.sort(key=operator.itemgetter(0), reverse=True)
    else:
        items.sort(key=lambda t: ring.order.key(t[0]), reverse=True)
    return Polynomial(ring, tuple(items))


class Polynomial:
    """Immutable sparse polynomial; terms run leading-first."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolynomialRing, terms: tuple):
        self.ring = ring
        self.terms = terms
        self._hash = None

    # -- inspection ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(exp) for exp, _ in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {sum(exp) for exp, _ in self.terms}
        return len(degs) == 1

    def lead_exponents(self) -> tuple[int, ...]:
        if not self.terms:
            raise ValueError("zero polynomial has no lead term")
        return self.terms[0][0]

    def lead_coefficient(self):
        if not self.terms:
            raise ValueError("zero polynomial has no lead term")
        return self.terms[0][1]

    def coefficient(self, monomial):
        if isinstance(monomial, Monomial):
            monomial = monomial.exponents
        monomial = tuple(monomial)
        for exp, coeff in self.terms:
            if exp == monomial:
                return coeff
        return self.ring.field.zero()

    def monomials(self) -> list[Monomial]:
        return [Monomial(exp) for exp, _ in self.terms]

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        c = self.terms[0][1]
        field = self.ring.field
        if c == field.one():
            return self
        inv = field.inv(c)
        return Polynomial(self.ring, tuple((e, field.mul(inv, k)) for e, k in self.terms))

    def homogeneous_component(self, degree: int) -> "Polynomial":
        return Polynomial(
            self.ring, tuple((e, c) for e, c in self.terms if sum(e) == degree)
        )

    # -- arithmetic --------------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise _ring_mismatch(self.ring, other.ring)

    def _coerce_operand(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            return other
        if isinstance(other, Monomial):
            return self.ring.monomial(other)
        try:
            return self.ring.constant(other)
        except TypeError:
            return NotImplemented

    def __add__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self.terms)
        _accumulate(acc, other.terms, self.ring.field)
        return _from_dict(self.ring, acc)

    __radd__ = __add__

    def __neg__(self):
        field = self.ring.field
        return Polynomial(self.ring, tuple((e, field.neg(c)) for e, c in self.terms))

    def __sub__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        ring = self.ring
        short, long = sorted((self.terms, other.terms), key=len)
        if len(short) < 2:  # a term times a polynomial keeps its order
            mul = ring.field.mul
            return Polynomial(ring, tuple((tuple(map(operator.add, e, m)), mul(k, c))
                                          for m, c in short for e, k in long))
        pack, unpack = _packing(ring.n, self.degree() + other.degree())
        a, den_a = _packed_integral(short, pack)
        b, den_b = _packed_integral(long, pack)
        acc = _packed_product(a, b)
        p, den = ring.field.p, den_a * den_b
        scalar = (lambda c: c % p) if p else (lambda c: Fraction(c, den))
        return _from_dict(ring, dict(zip(map(unpack, acc), map(scalar, acc.values()))))

    __rmul__ = __mul__

    def __pow__(self, power: int):
        return _power(self, power, self.ring.one())

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.ring == other.ring and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == self.ring.constant(other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.terms))
        return self._hash

    # -- conversion -----------------------------------------------------------

    def convert(self, ring: PolynomialRing) -> "Polynomial":
        """Re-sort into another ring with the same field and variable names."""
        if ring.field != self.ring.field or ring.names != self.ring.names:
            raise RingMismatch("convert only changes the term order")
        return _from_dict(ring, dict(self.terms))

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"<{self} in {self.ring}>"


def _generator_key(f: Polynomial) -> tuple:
    """The canonical order of generator lists: by degree, then leading-first
    by lead under the term order."""
    return f.degree(), tuple(-v for v in f.ring.order.key(f.lead_exponents()))


def substitute(f: Polynomial, images: list[Polynomial]) -> Polynomial:
    """Evaluate f at the given images of its variables.

    All images must share one ring; that ring is the ring of the result.
    """
    if len(images) != f.ring.n:
        raise ValueError(f"need {f.ring.n} images, got {len(images)}")
    if not images:
        raise ValueError("substitution into a ring with no variables")
    target = images[0].ring
    for g in images[1:]:
        if g.ring != target:
            raise RingMismatch("images live in different rings")
    if f.ring.field != target.field:
        raise RingMismatch("substitution across different fields")
    power_cache: list[dict[int, Polynomial]] = [
        {0: target.one(), 1: img} for img in images
    ]

    def image_power(i: int, e: int) -> Polynomial:
        cache = power_cache[i]
        if e not in cache:
            half = image_power(i, e // 2)
            sq = half * half
            cache[e] = sq if e % 2 == 0 else sq * images[i]
        return cache[e]

    acc: dict[tuple[int, ...], object] = {}
    for exp, coeff in f.terms:
        term = target.constant(coeff)
        for i, e in enumerate(exp):
            if e:
                term = term * image_power(i, e)
        _accumulate(acc, term.terms, target.field)
    return _from_dict(target, acc)


# -- printing ------------------------------------------------------------------


def _format_power(name: str, e: int) -> str:
    return name if e == 1 else f"{name}^{e}"


def _signed_sum(terms) -> str:
    """The sum of (coefficient, power product) pairs in the order given, a
    unit coefficient dropped before a power product; "0" for no terms."""
    pieces = []
    for coeff, powers in terms:
        text = str(coeff)
        negative = text.startswith("-")
        text = text.lstrip("-")
        body = text if not powers else powers if text == "1" else f"{text}*{powers}"
        pieces.append("-" + body if negative else "+" + body if pieces else body)
    return "".join(pieces) or "0"


def format_polynomial(f: Polynomial) -> str:
    """Canonical text form; `parse` returns the same polynomial back."""
    names = f.ring.names
    return _signed_sum(
        (coeff, "*".join(_format_power(names[i], e) for i, e in enumerate(exp) if e))
        for exp, coeff in f.terms)


def polynomial_ring(
    field: Field | None = None,
    names=("x",),
    order: TermOrder | None = None,
) -> PolynomialRing:
    """Convenience constructor; defaults to Q coefficients and grevlex."""
    return PolynomialRing(field or QQ, tuple(names), order or TermOrder.grevlex())


def monomial_basis(ring: PolynomialRing, degree: int) -> list[Monomial]:
    return ring.monomial_basis(degree)


def fresh_names(count: int, taken, prefixes=("u", "v", "w", "s", "t")) -> tuple[str, ...]:
    """A block of `count` identifier names avoiding everything in `taken`."""
    used = set(taken)
    for prefix in prefixes:
        names = tuple(f"{prefix}{i + 1}" for i in range(count))
        if used.isdisjoint(names):
            return names
    tag = 0
    while True:
        names = tuple(f"aux{tag}_{i + 1}" for i in range(count))
        if used.isdisjoint(names):
            return names
        tag += 1


__all__ = [
    "Monomial",
    "Polynomial",
    "PolynomialRing",
    "polynomial_ring",
    "monomial_basis",
    "substitute",
    "format_polynomial",
    "fresh_names",
]

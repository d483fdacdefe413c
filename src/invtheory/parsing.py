"""Text form of polynomials.

Grammar (whitespace ignored):

    poly    := ['-'] term (('+'|'-') term)*
    term    := coeff | coeff '*' powprod | powprod
    powprod := varpow ('*' varpow)*
    varpow  := ident ['^' uint]
    coeff   := int ['/' uint]

`format_polynomial` in poly.py prints into this grammar, and parsing the
result gives the original polynomial back.
"""

from __future__ import annotations

import re

from .errors import MalformedExpression, NegativeExponent, UnknownVariable
from .poly import Polynomial, PolynomialRing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise MalformedExpression(
                f"unexpected character {text[pos:].strip()[0]!r} at position {pos}"
            )
        if match.group("int") is not None:
            tokens.append(("int", match.group("int")))
        elif match.group("ident") is not None:
            tokens.append(("ident", match.group("ident")))
        else:
            tokens.append(("op", match.group("op")))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, ring: PolynomialRing, tokens: list[tuple[str, str]]):
        self.ring = ring
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise MalformedExpression("unexpected end of input")
        self.pos += 1
        return tok

    # poly := ['-'] term (('+'|'-') term)*
    def parse(self) -> Polynomial:
        if not self.tokens:
            raise MalformedExpression("empty input")
        terms = []
        sign = 1
        tok = self.peek()
        if tok == ("op", "-"):
            self.take()
            sign = -1
        terms.append(self.term(sign))
        while (tok := self.peek()) is not None:
            if tok == ("op", "+"):
                self.take()
                terms.append(self.term(1))
            elif tok == ("op", "-"):
                self.take()
                terms.append(self.term(-1))
            else:
                raise MalformedExpression(f"expected '+' or '-', found {tok[1]!r}")
        return self.ring.from_terms(terms)

    # term := coeff | coeff '*' powprod | powprod
    def term(self, sign: int):
        tok = self.peek()
        if tok is None:
            raise MalformedExpression("missing term")
        if tok[0] == "int" or tok == ("op", "-"):
            coeff = self.coeff()
            if sign < 0:
                coeff = self.ring.field.neg(coeff)
            if self.peek() == ("op", "*"):
                self.take()
                exp = self.powprod()
                return (exp, coeff)
            return ((0,) * self.ring.n, coeff)
        exp = self.powprod()
        one = self.ring.field.one()
        return (exp, one if sign > 0 else self.ring.field.neg(one))

    # coeff := int ['/' uint]
    def coeff(self):
        negate = False
        if self.peek() == ("op", "-"):
            self.take()
            negate = True
        tok = self.take()
        if tok[0] != "int":
            raise MalformedExpression(f"expected a number, found {tok[1]!r}")
        num = int(tok[1])
        den = 1
        if self.peek() == ("op", "/"):
            self.take()
            dtok = self.take()
            if dtok[0] != "int":
                raise MalformedExpression(
                    f"expected an unsigned denominator, found {dtok[1]!r}"
                )
            den = int(dtok[1])
        if negate:
            num = -num
        return self.ring.field.from_pair(num, den)

    # powprod := varpow ('*' varpow)*
    def powprod(self) -> tuple[int, ...]:
        exp = list(self.varpow())
        while self.peek() == ("op", "*"):
            self.take()
            for i, e in enumerate(self.varpow()):
                exp[i] += e
        return tuple(exp)

    # varpow := ident ['^' uint]
    def varpow(self) -> tuple[int, ...]:
        tok = self.take()
        if tok[0] != "ident":
            raise MalformedExpression(f"expected a variable, found {tok[1]!r}")
        name = tok[1]
        try:
            index = self.ring.names.index(name)
        except ValueError:
            raise UnknownVariable(
                f"{name!r} is not a variable of {self.ring}"
            ) from None
        power = 1
        if self.peek() == ("op", "^"):
            self.take()
            ptok = self.take()
            if ptok == ("op", "-"):
                raise NegativeExponent(f"negative exponent on {name!r}")
            if ptok[0] != "int":
                raise MalformedExpression(f"expected an exponent, found {ptok[1]!r}")
            power = int(ptok[1])
        return tuple(power if j == index else 0 for j in range(self.ring.n))


def parse_polynomial(text: str, ring: PolynomialRing) -> Polynomial:
    """Parse grammar text into a polynomial of the given ring."""
    return _Parser(ring, _tokenize(text)).parse()

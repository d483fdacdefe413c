"""Tests for the packed monomials inside the Groebner engine: packed keys
order like `TermOrder.key`, the fields widen when exponents outgrow them,
and the reducer queues each term once."""

import heapq
import random

import pytest

from invtheory import QQ, TermOrder, buchberger, normal_form, polynomial_ring, prime_field
from invtheory.groebner import _IncrementalGroebner

from test_groebner import reference_buchberger, reference_remainder, strings

PACKING_ORDERS = [
    TermOrder.lex(),
    TermOrder.grevlex(),
    TermOrder.elimination(1),
    TermOrder.elimination(2),
]


def random_exponent(rng):
    # small exponents, and exponents around and past 2^16
    bits = rng.choice([2, 4, 15, 16, 17])
    return rng.randrange(1 << bits)


@pytest.mark.parametrize("order", PACKING_ORDERS, ids=str)
def test_packed_keys_order_like_term_order_keys(order):
    rng = random.Random(17)
    ring = polynomial_ring(QQ, ("a", "b", "c", "d"), order=order)
    widths = set()
    for _ in range(2000):
        a = tuple(random_exponent(rng) for _ in range(4))
        b = list(a)
        # a near neighbour of a half the time, so keys tie in early components
        if rng.random() < 0.5:
            b[rng.randrange(4)] += rng.choice([-1, 1])
            b[rng.randrange(4)] += rng.choice([-1, 0, 1])
            b = tuple(max(0, v) for v in b)
        else:
            b = tuple(random_exponent(rng) for _ in range(4))
        engine = _IncrementalGroebner(ring)  # fields as narrow as a and b allow
        engine._fit((a, b))
        widths.add(engine.width)
        packed_a, packed_b = engine._pack(a), engine._pack(b)
        assert not (packed_a | packed_b) & engine.guard  # every exponent fits
        key_a, key_b = order.key(a), order.key(b)
        assert (packed_a < packed_b) == (key_a < key_b)
        assert (packed_a == packed_b) == (a == b)
        assert engine._unpack(packed_a) == a
    assert widths == {4, 8, 16, 32}


def test_normal_form_with_exponents_past_the_starting_width():
    ring = polynomial_ring(QQ, ("x", "y", "z"), order=TermOrder.lex())
    f = ring.parse("x*y^70000 + 3*y^2")
    divisors = [ring.parse("x - z")]
    assert normal_form(f, divisors) == reference_remainder(f, divisors)
    assert str(normal_form(f, divisors)) == str(ring.parse("y^70000*z + 3*y^2"))


def test_reduction_widens_the_fields_and_starts_over():
    ring = polynomial_ring(QQ, ("x", "y", "z"), order=TermOrder.lex())
    engine = _IncrementalGroebner(ring)
    engine.add_generator(ring.parse("x - 2*y^30000"))
    assert engine.width == 16
    # x^3 -> 2 x^2 y^30000 -> 4 x y^60000: the second step overflows
    remainder = engine.reduce(engine._to_internal(ring.parse("x^3")))
    assert engine.width == 32
    up, down = engine.last_scale
    assert {e: v * down // up for e, v in remainder.items()} == {(0, 90000, 0): 8}


@pytest.mark.parametrize("p", [None, 7])
def test_s_polynomials_widen_the_fields(p):
    field = QQ if p is None else prime_field(p)
    ring = polynomial_ring(field, ("x", "y", "z"), order=TermOrder.lex())
    polys = [ring.parse("x*y^20000 - y^30000"), ring.parse("y^25000 - z")]
    engine = _IncrementalGroebner(ring)
    for f in polys:
        engine.add_generator(f)
    assert engine.width == 16
    # the S-polynomial has the term y^5000 * y^30000
    _, _, i, j, lcm = engine.heap[0]
    assert not any(h & engine.guard for h in engine._spoly(i, j, lcm))
    assert engine.width == 32
    engine.process_to(None)
    assert strings(engine.reduced_elements()) == strings(reference_buchberger(polys))
    assert strings(buchberger(polys).elements) == strings(reference_buchberger(polys))


def test_buchberger_with_large_exponents_matches_reference():
    ring = polynomial_ring(QQ, ("x", "y", "z"), order=TermOrder.grevlex())
    polys = [ring.parse("x^40000*y - z^40001"), ring.parse("x*y^3 - z^4"),
             ring.parse("y^2*z - x^3")]
    assert strings(buchberger(polys).elements) == strings(reference_buchberger(polys))


def test_reduction_queues_each_term_once(monkeypatch):
    ring = polynomial_ring(QQ, ("x", "y", "z"), order=TermOrder.lex())
    engine = _IncrementalGroebner(ring)
    for text in ("x*y - y^2", "x*z + y^2 - y*z", "y^3 - z^3", "y^2*z - z^2"):
        engine._load(engine._integral(ring.parse(text))[0])
    pushed = []
    real_push = heapq.heappush

    def counting_push(heap, item):
        pushed.append(item)
        real_push(heap, item)

    monkeypatch.setattr(heapq, "heappush", counting_push)
    # reducing x*y cancels the queued y^2, and reducing x*z brings it back
    f = ring.parse("x*y + x*z - y^2 + x*y^2 + x*z^2")
    remainder = engine.reduce(engine._to_internal(f))
    assert remainder
    assert pushed
    assert len(pushed) == len(set(pushed))

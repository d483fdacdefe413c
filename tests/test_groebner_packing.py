"""Tests for the packed monomials inside the Groebner engine: packed keys
order like `TermOrder.key`, the fields widen when exponents outgrow them,
the reducer queues each term once, and the S-pair sequence stays pinned."""

import heapq
import random

import pytest

from invtheory import QQ, TermOrder, buchberger, normal_form, polynomial_ring, prime_field
from invtheory.groebner import _IncrementalGroebner

from test_groebner import random_polynomial, reference_buchberger, reference_remainder, strings

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
    assert {engine._unpack(h): v * down // up for h, v in remainder.items()} == {
        (0, 90000, 0): 8}


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
    _, lcm, i, j = engine.heap[0]
    assert engine._unpack(lcm) == (1, 25000, 0)
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
        engine._load(engine._to_internal(ring.parse(text)))
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


def held_exponents(engine):
    """Everything the engine holds packed, unpacked in its current fields."""
    unpack = engine._unpack
    return ([{unpack(h): c for h, c in tail.items()} for tail in engine.elements],
            list(engine.leads), [unpack(h) for h in engine._lead_h],
            [(s, unpack(lcm), i, j) for s, lcm, i, j in engine.heap])


@pytest.mark.parametrize("p", [None, 7])
@pytest.mark.parametrize("order", PACKING_ORDERS, ids=str)
def test_widening_repacks_from_the_old_fields(order, p, monkeypatch):
    returned = []
    for name in ("reduce", "_spoly"):
        real = getattr(_IncrementalGroebner, name)

        def checked(self, *args, real=real):
            out = real(self, *args)
            returned.append(not any(h & self.guard for h in out))
            return out

        monkeypatch.setattr(_IncrementalGroebner, name, checked)
    field = QQ if p is None else prime_field(p)
    ring = polynomial_ring(field, ("x", "y", "z"), order=order)
    polys = [ring.parse("x*y^5 - z^6 + y"), ring.parse("x^2*z - y^3")]
    engine = _IncrementalGroebner(ring)
    for f in polys:
        engine.add_generator(f)
    assert engine.heap
    before = held_exponents(engine)
    assert before[2] == [lead for lead, _ in engine.leads]
    engine._set_width(2 * engine.width)
    assert held_exponents(engine) == before
    engine.process_to(None)
    # exponents near the guard bits: reduction steps overflow and start over
    width = engine.width
    for text in ("x^120*y^120*z^120", "x^126*y^3 + z^126", "x^127*z^127 - y"):
        assert engine.reduce(engine._to_internal(ring.parse(text)))
    assert engine.width > width
    assert returned and all(returned)
    assert engine.reduced_elements() == list(buchberger(polys).elements)


# ---------------------------------------------------------------------------
# the S-pair sequence: the pairs that reach `_spoly`, in order
# ---------------------------------------------------------------------------

GF32003 = prime_field(32003)


def homogeneous_polynomial(ring, rng, degree, terms):
    f = ring.zero()
    for _ in range(terms):
        exps = [0] * ring.n
        for _ in range(degree):
            exps[rng.randrange(ring.n)] += 1
        f = f + ring.monomial(exps, rng.randrange(-4, 5) or 1)
    return f


def complete(ring, polys, weights=None):
    engine = _IncrementalGroebner(ring, weights)
    for f in polys:
        engine.add_generator(f)
    engine.process_to(None)
    return engine


def q_grevlex():
    ring = polynomial_ring(QQ, ("x", "y", "z", "w"), order=TermOrder.grevlex())
    rng = random.Random(11)
    return complete(ring, [random_polynomial(ring, rng) for _ in range(4)])


def gf_lex():
    ring = polynomial_ring(GF32003, ("x", "y", "z"), order=TermOrder.lex())
    rng = random.Random(12)
    return complete(ring, [random_polynomial(ring, rng) for _ in range(3)])


def q_elimination():
    # the graph ideal of the degree-2 invariants of -1 on x, y, z
    ring = polynomial_ring(QQ, ("x", "y", "z", "u1", "u2", "u3", "u4", "u5", "u6"),
                           order=TermOrder.elimination(3))
    return complete(ring, [ring.parse(text) for text in (
        "u1-x^2", "u2-x*y", "u3-x*z", "u4-y^2", "u5-y*z", "u6-z^2")])


def q_elimination_weighted():
    # the same graph ideal with each u_i weighing 2: homogeneous in the
    # weights, so a pair's sugar is its weighted lcm degree
    ring = polynomial_ring(QQ, ("x", "y", "z", "u1", "u2", "u3", "u4", "u5", "u6"),
                           order=TermOrder.elimination(3))
    return complete(ring, [ring.parse(text) for text in (
        "u1-x^2", "u2-x*y", "u3-x*z", "u4-y^2", "u5-y*z", "u6-z^2")], (1, 1, 1) + (2,) * 6)


def gf_elimination():
    ring = polynomial_ring(GF32003, ("x", "y", "z", "w"), order=TermOrder.elimination(1))
    rng = random.Random(13)
    return complete(ring, [random_polynomial(ring, rng) for _ in range(4)])


def widening():
    # exponents pass 8 and then 128 while pairs are queued
    ring = polynomial_ring(QQ, ("x", "y", "z"), order=TermOrder.grevlex())
    rng = random.Random(6)
    polys = [random_polynomial(ring, rng, 3, 3) for _ in range(3)] + [ring.parse(text) for text in (
        "x*y - z^2", "x*z - y^2", "y^3*z^9 - x^13", "x^2*y^140 - z^142")]
    engine = _IncrementalGroebner(ring)
    seen = []  # (width, queued pairs) before each input
    for f in polys:
        seen.append((engine.width, len(engine.heap)))
        engine.add_generator(f)
    assert seen == [(4, 0), (4, 0), (4, 1), (4, 3), (4, 6), (4, 10), (8, 13)]
    assert engine.width == 16
    engine.process_to(None)
    return engine


def king_style():
    # generators added between process_to(d) calls, as degree_sweep does
    ring = polynomial_ring(GF32003, ("x", "y", "z", "w"), order=TermOrder.grevlex())
    rng = random.Random(14)
    engine = _IncrementalGroebner(ring)
    for d in range(2, 5):
        engine.process_to(d)
        for _ in range(2):
            engine.add_generator(homogeneous_polynomial(ring, rng, d, 2))
    engine.process_to(6)
    return engine


# recorded before the pair keys and the chain criterion moved to packed ints,
# and q_elimination_weighted when weighted sugar came in; its reduced basis is
# q_elimination's (test_weighted_sugar.py)
S_PAIR_SEQUENCES = {
    q_grevlex: (11, [(0, 1), (2, 4), (3, 5), (2, 5), (3, 6), (4, 6), (4, 7), (2, 7), (8, 9),
                     (3, 9), (6, 9), (3, 10), (5, 10)]),
    gf_lex: (7, [(0, 2), (2, 3), (1, 2), (0, 1), (2, 4), (0, 5), (1, 5), (3, 4)]),
    q_elimination: (27, [
        (4, 5), (2, 5), (3, 4), (1, 2), (1, 4), (0, 2), (1, 3), (0, 1), (6, 8), (6, 9),
        (8, 9), (7, 10), (7, 12), (7, 11), (7, 13), (10, 12), (10, 11), (10, 13), (11, 12),
        (12, 13), (11, 13), (4, 6), (4, 8), (4, 9), (2, 7), (2, 10), (2, 12), (2, 11),
        (2, 13), (3, 6), (3, 8), (3, 9), (1, 6), (1, 7), (1, 8), (1, 10), (1, 12), (1, 9),
        (1, 11), (1, 13), (0, 7), (0, 10), (0, 12), (0, 11), (0, 13), (21, 22), (22, 23),
        (22, 24), (22, 25), (23, 24), (23, 25), (24, 25), (25, 26), (14, 21), (15, 22),
        (16, 23), (17, 24), (18, 25), (19, 26), (14, 15), (15, 16), (15, 17), (15, 18),
        (16, 17), (16, 18), (17, 18), (18, 19), (8, 21), (8, 22), (9, 23), (9, 24), (9, 25),
        (20, 26), (10, 21), (10, 22), (11, 23), (11, 24), (11, 25), (13, 26)]),
    q_elimination_weighted: (20, [
        (4, 5), (2, 5), (3, 4), (1, 2), (1, 4), (0, 2), (1, 3), (0, 1), (4, 6), (4, 8), (4, 9),
        (2, 7), (2, 10), (2, 12), (2, 11), (2, 13), (3, 6), (3, 8), (3, 9), (1, 6), (1, 7),
        (1, 8), (1, 10), (1, 12), (1, 9), (1, 11), (1, 13), (0, 7), (0, 10), (0, 12), (0, 11),
        (0, 13), (6, 8), (6, 9), (8, 14), (8, 9), (8, 15), (9, 16), (9, 17), (9, 18), (7, 10),
        (7, 12), (7, 11), (7, 13), (10, 14), (10, 12), (10, 11), (10, 15), (10, 13), (11, 12),
        (11, 16), (12, 13), (11, 17), (11, 13), (11, 18), (13, 19), (14, 15), (15, 16),
        (15, 17), (15, 18), (16, 17), (16, 18), (17, 18), (18, 19)]),
    gf_elimination: (9, [(2, 3), (0, 2), (1, 3), (1, 2), (0, 4), (3, 5), (2, 5), (1, 6),
                         (3, 7), (5, 8)]),
    widening: (17, [(0, 4), (1, 3), (2, 3), (2, 4), (8, 9), (7, 8), (0, 9), (1, 7), (1, 9),
                    (7, 10)]),
    king_style: (10, [(1, 2), (1, 3), (0, 2), (0, 3), (1, 4), (1, 8), (0, 4), (0, 8), (5, 8),
                      (1, 5), (0, 5), (1, 6), (1, 7), (2, 6), (6, 7), (0, 7), (3, 7), (1, 9),
                      (4, 9), (8, 9)]),
}


@pytest.mark.parametrize("run", S_PAIR_SEQUENCES, ids=lambda run: run.__name__)
def test_s_pair_sequence_is_pinned(run, monkeypatch):
    # the pair order and the pairs the criteria drop decide every
    # S-polynomial and so the engine's work counters
    reached = []
    real_spoly = _IncrementalGroebner._spoly

    def spoly(self, i, j, lcm):
        reached.append((i, j))
        return real_spoly(self, i, j, lcm)

    monkeypatch.setattr(_IncrementalGroebner, "_spoly", spoly)
    size, pairs = S_PAIR_SEQUENCES[run]
    engine = run()
    assert reached == pairs
    assert len(engine.elements) == size

"""The reduced basis comes out of the engine that computed the Groebner
basis: minimal leads are read off its staircase and tails are reduced by
its own elements, so no second engine is built."""

import pytest

from invtheory import QQ, TermOrder, buchberger, elimination_ideal, polynomial_ring, prime_field
from invtheory.groebner import _IncrementalGroebner


@pytest.fixture
def engines(monkeypatch):
    built = []
    real_init = _IncrementalGroebner.__init__

    def init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(_IncrementalGroebner, "__init__", init)
    return built


@pytest.mark.parametrize("field", [QQ, prime_field(7)], ids=str)
def test_buchberger_builds_one_engine(engines, field):
    ring = polynomial_ring(field, ("x", "y", "z"))
    polys = [ring.parse(s) for s in ("x^2 - y*z", "x*y - z^2", "y^3 - x*z")]
    basis = buchberger(polys)
    assert len(engines) == 1
    assert basis.reduced and len(basis) > len(polys)


def test_elimination_ideal_builds_one_engine(engines):
    ring = polynomial_ring(QQ, ("t", "x", "y"))
    ideal = elimination_ideal([ring.parse("x - t^2"), ring.parse("y - t^3")], ["t"])
    assert len(engines) == 1
    assert [str(g) for g in ideal] == ["x^3-y^2"]


def test_a_tail_reduction_that_widens_the_fields():
    ring = polynomial_ring(QQ, ("z", "x", "y"), order=TermOrder.lex())
    polys = [ring.parse("x - y^7"), ring.parse("z - x*y")]
    engine = _IncrementalGroebner(ring)
    for f in polys:
        engine._load(engine._to_internal(f))
    assert engine.width == 4
    reduced = engine.reduced_elements()
    assert reduced == [ring.parse("x - y^7"), ring.parse("z - y^8")]
    assert reduced == list(buchberger(polys))
    assert engine.width == 8


def test_integral_float_weights_are_integer_weights():
    ring = polynomial_ring(QQ, ("x", "y", "u"), order=TermOrder.elimination(2))
    polys = [ring.parse("u - x*y"), ring.parse("x^2 - y"), ring.parse("y^2 - u*x")]
    assert buchberger(polys, weights=(1, 2.0, 1)) == buchberger(polys, weights=(1, 2, 1))

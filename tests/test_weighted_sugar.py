"""Tests for weighted sugar: weights change which S-pairs the engine reduces,
never the reduced basis or the relations a presentation returns."""

import random

import pytest

from invtheory import (
    DiagonalAction,
    QQ,
    TermOrder,
    buchberger,
    defining_ideal,
    elimination_ideal,
    invariant_ring,
    polynomial_ring,
    prime_field,
)
from invtheory.groebner import _IncrementalGroebner

from test_groebner import strings
from test_groebner_packing import q_elimination, q_elimination_weighted

GF32003 = prime_field(32003)

# the four presentations of the benchmark: (torus rank, cyclic orders,
# weights, field), with their relation counts
PRESENTATIONS = [
    (0, [2], [[1, 1, 1, 1, 1]], QQ, 50),
    (1, [], [[1, 2, 3, -3, -3]], GF32003, 14),
    (0, [3], [[1, 1, 1]], QQ, 27),
    (0, [5], [[1, 2, 3]], QQ, 18),
]


def graph_ideal(field, generators, n):
    """u_i - f_i in a ring on x1..xn, u1..uk, and the x names."""
    xs = tuple(f"x{i + 1}" for i in range(n))
    ring = polynomial_ring(field, xs + tuple(f"u{i + 1}" for i in range(len(generators))))
    pad = (0,) * len(generators)
    rels = [ring.variable(n + i) - ring.from_terms({e + pad: c for e, c in f.terms})
            for i, f in enumerate(generators)]
    return rels, xs


def random_generator(ring, rng):
    f = ring.zero()
    while f.is_zero():
        for _ in range(rng.randrange(1, 4)):
            exps = [0] * ring.n
            for _ in range(rng.randrange(1, 4)):
                exps[rng.randrange(ring.n)] += 1
            f = f + ring.monomial(exps, rng.randrange(-3, 4) or 1)
    return f


@pytest.mark.parametrize("field", [QQ, GF32003], ids=str)
def test_weights_leave_random_eliminations_unchanged(field):
    # three or four generators in two variables: at least one relation
    rng = random.Random(23)
    for _ in range(16):
        n = 2
        ring = polynomial_ring(field, ("x1", "x2"))
        gens = [random_generator(ring, rng) for _ in range(rng.randrange(3, 5))]
        rels, xs = graph_ideal(field, gens, n)
        plain = strings(elimination_ideal(rels, xs))
        graded = (1,) * n + tuple(f.degree() for f in gens)
        assert strings(elimination_ideal(rels, xs, weights=graded)) == plain
        arbitrary = [rng.randrange(1, 4) for _ in range(len(rels[0].ring.names))]
        assert strings(elimination_ideal(rels, xs, weights=arbitrary)) == plain


@pytest.mark.parametrize("torus_rank, cyclic, weights, field, count", PRESENTATIONS)
def test_weights_leave_the_benchmark_presentations_unchanged(torus_rank, cyclic, weights,
                                                             field, count):
    n = len(weights[0])
    ring = polynomial_ring(field, tuple(f"x{i + 1}" for i in range(n)))
    gens = list(invariant_ring(DiagonalAction(ring, torus_rank, cyclic, weights)))
    rels, xs = graph_ideal(field, gens, n)
    plain = strings(elimination_ideal(rels, xs))
    assert len(plain) == count
    graded = (1,) * n + tuple(f.degree() for f in gens)
    assert strings(elimination_ideal(rels, xs, weights=graded)) == plain


def test_weighted_pin_has_the_unweighted_reduced_basis():
    weighted, plain = q_elimination_weighted(), q_elimination()
    assert len(weighted.elements) < len(plain.elements)
    assert strings(weighted.reduced_elements()) == strings(plain.reduced_elements())


def test_z2_presentation_reduces_fewer_s_polynomials(monkeypatch):
    calls = []
    real_spoly = _IncrementalGroebner._spoly

    def spoly(self, i, j, lcm):
        calls.append((i, j))
        return real_spoly(self, i, j, lcm)

    monkeypatch.setattr(_IncrementalGroebner, "_spoly", spoly)
    ring = polynomial_ring(QQ, ("a", "b", "c", "d", "e"))
    inv = invariant_ring(DiagonalAction(ring, 0, [2], [[1, 1, 1, 1, 1]]))
    assert len(defining_ideal(inv)) == 50
    assert len(calls) <= 896  # 1,325 with standard-degree sugar


@pytest.mark.parametrize("weights", [(1, 1), (1, 1, 1, 1), (1, 0, 1), (2, -1, 1),
                                     (1, 1.5, 1), (1, True, 1)], ids=str)
def test_bad_weights_raise(weights):
    ring = polynomial_ring(QQ, ("x", "y", "u"), order=TermOrder.elimination(2))
    polys = [ring.parse("u - x*y")]
    with pytest.raises(ValueError):
        buchberger(polys, weights=weights)
    with pytest.raises(ValueError):
        elimination_ideal(polys, ["x", "y"], weights=weights)
    with pytest.raises(ValueError):
        _IncrementalGroebner(ring, weights)


def test_weights_cannot_truncate():
    ring = polynomial_ring(QQ, ("x", "y"))
    with pytest.raises(ValueError):
        buchberger([ring.parse("x^2 - y^2")], truncation_degree=2, weights=(1, 2))

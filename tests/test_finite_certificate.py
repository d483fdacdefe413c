"""Tests for the finite-group sweep's standard-monomial walk and its two
stops: King's (no standard monomial left in the next degree) and Kemper's
certificate (n invariants whose degrees multiply to |G| and that form a
homogeneous system of parameters), which holds in every characteristic.
"""

import random

import pytest

from invtheory import (
    FiniteGroupAction,
    QQ,
    TermOrder,
    act_on,
    invariant_ring,
    permutation_matrix,
    polynomial_ring,
    prime_field,
)
from invtheory.finite import _standard_monomials
from invtheory.groebner import _IncrementalGroebner


def random_exponent(rng, n, degree):
    exps = [0] * n
    for _ in range(degree):
        exps[rng.randrange(n)] += 1
    return tuple(exps)


def walk_matches_filter(ring, top, leads_by_degree):
    """Walk degrees 0..top, adding ``leads_by_degree[d]`` as monomial
    generators after degree d's list is built (the lead ideal only grows),
    and compare each list with the filtered monomial basis."""
    engine = _IncrementalGroebner(ring)
    below = [(0,) * ring.n]
    for d in range(1, top + 1):
        below = _standard_monomials(engine, below, ring.order.key)
        expected = [m.exponents for m in ring.monomial_basis(d)
                    if not engine.lead_divides(m.exponents)]
        assert below == expected, (ring, d)
        for exps in leads_by_degree.get(d, ()):
            engine.add_generator(ring.monomial(exps))


@pytest.mark.parametrize("n", range(1, 7))
def test_standard_walk_equals_filtered_basis(n):
    rng = random.Random(n)
    for trial in range(4):
        order = TermOrder.lex() if trial == 3 else TermOrder.grevlex()
        ring = polynomial_ring(QQ, tuple(f"x{i}" for i in range(n)), order)
        top = 9 if n <= 4 else 7
        leads = {}
        for _ in range(rng.randrange(1, 2 * n + 2)):
            d = rng.randrange(1, top)
            leads.setdefault(d, []).append(random_exponent(rng, n, d + 1))
        walk_matches_filter(ring, top, leads)


def test_standard_walk_survives_widened_fields():
    # exponents of 8 and more no longer fit the engine's first 4-bit fields
    ring = polynomial_ring(QQ, ("a", "b", "c"))
    leads = {1: [(2, 1, 0)], 3: [(0, 9, 0), (1, 0, 3)], 10: [(0, 0, 12)]}
    walk_matches_filter(ring, 13, leads)


S4 = [permutation_matrix("2341"), permutation_matrix("2134")]
B3 = [permutation_matrix("213"), permutation_matrix("231"),
      [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]]


@pytest.mark.parametrize("algorithm", ["king", "linear_algebra"])
@pytest.mark.parametrize("gens, n, top", [(S4, 4, 4), (B3, 3, 6)])
def test_certificate_at_the_top_degree_cap(algorithm, gens, n, top):
    action = FiniteGroupAction(polynomial_ring(QQ, tuple(f"x{i}" for i in range(n))), gens)
    capped = invariant_ring(action, algorithm=algorithm, max_degree=top)
    assert capped.complete
    assert [f.degree() for f in capped] == [f.degree() for f in invariant_ring(action)]
    assert not invariant_ring(action, algorithm=algorithm, max_degree=top - 1).complete


def test_modular_symmetric_group_is_certified():
    # 3 divides |S3| = 6, so only the certificate can prove this
    ring = polynomial_ring(prime_field(3), ("x", "y", "z"))
    action = FiniteGroupAction(ring, [permutation_matrix("231"), permutation_matrix("213")])
    for max_degree in (None, 3):
        inv = invariant_ring(action, algorithm="linear_algebra", max_degree=max_degree)
        assert [f.degree() for f in inv] == [1, 2, 3]
        assert inv.complete


def test_modular_sweep_without_certificate_is_unchanged():
    # Z/2 on three copies of its two-dimensional indecomposable over GF(2):
    # six generators of degrees 1, 1, 1, 2, 2, 2 multiply to 8, not |G| = 2
    ring = polynomial_ring(prime_field(2), ("x1", "y1", "x2", "y2", "x3", "y3"))
    jordan = [[int(i == j or (i % 2 == 0 and j == i + 1)) for j in range(6)] for i in range(6)]
    inv = invariant_ring(FiniteGroupAction(ring, [jordan]), algorithm="linear_algebra")
    assert [f.degree() for f in inv] == [1, 1, 1, 2, 2, 2]
    assert not inv.complete


@pytest.mark.parametrize("algorithm", ["king", "linear_algebra"])
def test_count_and_product_without_parameters_do_not_certify(algorithm):
    # Z/2 x Z/4 over GF(5), -1 on (x, y) and 2 (of order 4) on z: after
    # degree 2 the sweep holds x^2, xy, y^2, three invariants whose degrees
    # multiply to |G| = 8, but no pure power of z lies among the leads
    ring = polynomial_ring(prime_field(5), ("x", "y", "z"))
    action = FiniteGroupAction(ring, [[[4, 0, 0], [0, 4, 0], [0, 0, 1]],
                                      [[1, 0, 0], [0, 1, 0], [0, 0, 2]]])
    inv = invariant_ring(action, algorithm=algorithm)
    assert [f.degree() for f in inv] == [2, 2, 2, 4]
    assert inv.complete


def weyl_group(cartan):
    """The Weyl group in simple-root coordinates, generated by the simple
    reflections s_i(alpha_j) = alpha_j - a_ij alpha_i."""
    n = len(cartan)
    ring = polynomial_ring(QQ, tuple(f"a{i + 1}" for i in range(n)))
    reflections = [[[int(k == j) - (cartan[i][j] if k == i else 0) for j in range(n)]
                    for k in range(n)] for i in range(n)]
    return FiniteGroupAction(ring, reflections)


W_B3 = weyl_group([[2, -1, 0], [-1, 2, -2], [0, -1, 2]])
W_D4 = weyl_group([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]])


@pytest.mark.parametrize("action, order, degrees", [
    (W_B3, 48, [2, 4, 6]),
    (W_D4, 192, [2, 4, 4, 6]),
])
def test_weyl_groups_by_linear_algebra(action, order, degrees):
    assert not action._is_monomial()
    assert action.order() == order
    inv = invariant_ring(action, algorithm="linear_algebra")
    assert [f.degree() for f in inv] == degrees
    assert inv.complete
    for f in inv:
        for g in action.generators:
            assert act_on(g, f) == f


def test_weyl_d4_certificate_needs_pairs_at_the_cap():
    # the leads of the four generators are not pure powers: the pairs up to
    # degree (2 - 1) + (4 - 1) + (4 - 1) + (6 - 1) + 1 = 13 supply them
    assert invariant_ring(W_D4, algorithm="linear_algebra", max_degree=6).complete
    assert not invariant_ring(W_D4, algorithm="linear_algebra", max_degree=5).complete


def test_weyl_b3_by_king_matches():
    inv = invariant_ring(W_B3)
    assert [f.degree() for f in inv] == [2, 4, 6]
    assert inv.complete

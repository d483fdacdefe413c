"""`reductive_invariants` sweeps only the Hilbert ideal's generator degrees
and takes its lowest degree from the ideal itself.  Checked against the loop
that solves every degree from 1 to the top generator degree."""

import random

import pytest

import invtheory.reductive as reductive
from invtheory import (
    QQ,
    IncompleteGeneration,
    LinearlyReductiveAction,
    format_polynomial,
    hilbert_ideal,
    polynomial_ring,
    reductive_invariant_basis,
    reductive_invariants,
)
from invtheory.groebner import degree_sweep

from test_reductive import CUBIC, MULT, O2, SL2, TRIVIAL


def every_degree_invariants(action):
    """The sweep over every degree 1..top, each solved for its invariants."""
    ideal = hilbert_ideal(action)
    if not ideal:
        return []
    top = max(h.degree() for h in ideal)

    def generated(engine, d, kept):
        engine.process_to(top)
        return all(engine.reduces_to_zero(h) for h in ideal)

    found, complete = degree_sweep(
        action.target_ring, range(1, top + 1),
        lambda engine, d: reductive_invariant_basis(action, d), generated)
    if complete:
        return found
    raise IncompleteGeneration(f"no generation through degree {top}")


def relabelled(action, seed):
    """The same action with the target variables renamed by a seeded
    permutation and the matrix conjugated to match."""
    names = action.target_ring.names
    sigma = list(range(len(names)))
    random.Random(seed).shuffle(sigma)
    target = [""] * len(names)
    for i, name in enumerate(names):
        target[sigma[i]] = name
    matrix = [[None] * len(names) for _ in names]
    for i, row in enumerate(action.matrix):
        for j, entry in enumerate(row):
            matrix[sigma[i]][sigma[j]] = entry
    return LinearlyReductiveAction(action.group_ring, action.group_ideal, matrix,
                                   polynomial_ring(QQ, target))


TORUS_GROUP = polynomial_ring(QQ, ("z", "w"))


def torus(weights):
    """diag(t^a_1, ..., t^a_n) for t in the circle V(zw - 1), t^-1 = w."""
    n = len(weights)
    matrix = [["0"] * n for _ in range(n)]
    for i, a in enumerate(weights):
        matrix[i][i] = f"z^{a}" if a > 0 else f"w^{-a}" if a < 0 else "1"
    return LinearlyReductiveAction(
        TORUS_GROUP, ["z*w-1"], matrix,
        polynomial_ring(QQ, tuple(f"x{i + 1}" for i in range(n))))


def seeded_weights(count, seed=20):
    rng = random.Random(seed)
    return [tuple(rng.randint(-2, 2) for _ in range(rng.randint(2, 4)))
            for _ in range(count)]


TORUS_WEIGHTS = [(1, 1, -1, -1), (1, -1, 2, -2)] + seeded_weights(18)

CASES = ([(f"sl2-{name}-seed{seed}", relabelled(action, seed))
          for name, action in (("quadric", SL2), ("cubic", CUBIC)) for seed in (1, 2, 3)]
         + [("mult", MULT), ("trivial", TRIVIAL), ("o2", O2)]
         + [(f"torus{w}", torus(w)) for w in TORUS_WEIGHTS])


@pytest.mark.parametrize("action", [case for _, case in CASES],
                         ids=[name for name, _ in CASES])
def test_matches_the_every_degree_loop(action):
    expected = [repr(f.terms) for f in every_degree_invariants(action)]
    assert [repr(f.terms) for f in reductive_invariants(action)] == expected


def test_torus_cases_cover_both_shapes():
    lowest = reductive_invariants(torus((1, 1, -1, -1)))
    assert sorted(format_polynomial(f) for f in lowest) == [
        "x1*x3", "x1*x4", "x2*x3", "x2*x4"]
    two_degrees = reductive_invariants(torus((1, -1, 2, -2)))
    assert sorted(f.degree() for f in two_degrees) == [2, 2, 3, 3]


@pytest.fixture
def solved_degrees(monkeypatch):
    degrees = []

    def counting(action, degree):
        degrees.append(degree)
        return reductive_invariant_basis(action, degree)

    monkeypatch.setattr(reductive, "reductive_invariant_basis", counting)
    return degrees


def test_binary_cubic_solves_no_degree(solved_degrees):
    assert len(reductive_invariants(CUBIC)) == 1
    assert solved_degrees == []


def test_torus_solves_only_its_higher_generator_degree(solved_degrees):
    assert len(reductive_invariants(torus((1, -1, 2, -2)))) == 4
    assert solved_degrees == [3]


def test_non_invariant_lowest_generator_raises():
    # V(t^2 - 3t + 2) = {1, 2} is not a group; elimination gives (x^2), and
    # x^2 is not fixed by x -> 2x.
    action = LinearlyReductiveAction(
        polynomial_ring(QQ, ("t",)), ["t^2-3*t+2"], [["t"]], polynomial_ring(QQ, ("x",)))
    assert [format_polynomial(h) for h in hilbert_ideal(action)] == ["x^2"]
    with pytest.raises(IncompleteGeneration):
        reductive_invariants(action)
    with pytest.raises(IncompleteGeneration):
        every_degree_invariants(action)


def test_unit_group_ideal_still_raises():
    # no group element at all: elimination gives the unit ideal, whose one
    # generator has degree 0 and is no positive-degree invariant
    action = LinearlyReductiveAction(
        polynomial_ring(QQ, ("z",)), ["z", "z-1"], [["z"]], polynomial_ring(QQ, ("x",)))
    assert [format_polynomial(h) for h in hilbert_ideal(action)] == ["1"]
    for solve in (reductive_invariants, every_degree_invariants):
        with pytest.raises(IncompleteGeneration):
            solve(action)


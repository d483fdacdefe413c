"""King's candidates for a monomial group are the orbit sums that the
fixed-space basis builds too (King 2013, section 5).

The oracle is the earlier candidate list: one `reynolds` image per orbit of
the standard monomials, run through the same `finite._sweep`.  A Reynolds
image is the orbit sum times a scalar, or zero, and the sweep keeps normal
forms up to scalars, so both must give the same generators and the same
`complete`.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

from invtheory import (
    ClosureCapExceeded,
    FiniteGroupAction,
    QQ,
    invariants_king,
    permutation_matrix,
    polynomial_ring,
    prime_field,
)
from invtheory import finite

_spec = importlib.util.spec_from_file_location(
    "benchmark_jobs", Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py")
jobs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(jobs)


def reynolds_candidates(action, monomials):
    """One `reynolds` image per orbit that the monomials meet."""
    tried = set()
    for m in monomials:
        if m in tried:
            continue
        orbit = action._monomial_orbit(m)
        if orbit is not None:
            tried.update(orbit.coefficients)
        yield finite.reynolds(action, action.ring.monomial(m))


def oracle_sweep(action):
    bound = finite._degree_bound(action, None)
    return finite._sweep(action, bound,
                         lambda engine, d, standard: reynolds_candidates(action, standard()))


def benchmark_actions():
    """The monomial groups of the benchmark's generator jobs, at seeds 1-3."""
    out = []
    for part in ("king", "linear-verify"):
        for job in jobs.PARTS[part]:
            match = re.fullmatch(r"(?:king|linear_algebra)-(\w+?)(?:-gf(\d+))?", job.name)
            if match is None:
                continue
            group, p = match.group(1), match.group(2) and int(match.group(2))
            for seed in (1, 2, 3):
                out.append(pytest.param(jobs.finite_action(seed, job.name, group, p),
                                        id=f"{job.name}-seed{seed}"))
    return out


GF7 = prime_field(7)
FIXED = [
    # x -> 2y, y -> x/2: orbit coefficients other than 1
    pytest.param(FiniteGroupAction(polynomial_ring(QQ, ("x", "y")),
                                   [[[0, 2], ["1/2", 0]]]), id="scaled-swap-QQ"),
    # 2 has order 3 mod 7, so the stabilizers of x^2 y and x y^2 act by a
    # nontrivial character: those orbits carry no invariant
    pytest.param(FiniteGroupAction(polynomial_ring(GF7, ("x", "y")),
                                   [[[2, 0], [0, 4]], [[0, 1], [1, 0]]]), id="order3-GF7"),
    pytest.param(FiniteGroupAction(polynomial_ring(GF7, ("x", "y", "z")),
                                   [[[2, 0, 0], [0, 4, 0], [0, 0, 1]], permutation_matrix("231")]),
                 id="order3-cycle-GF7"),
]


def sweep_terms(result):
    generators, complete = result
    return [repr(f.terms) for f in generators], complete


@pytest.mark.parametrize("action", benchmark_actions() + FIXED)
def test_king_matches_one_reynolds_image_per_orbit(action):
    assert action._is_monomial()
    assert sweep_terms(finite._king_sweep(action, None)) == sweep_terms(oracle_sweep(action))


def test_character_orbits_are_skipped():
    action = FIXED[1].values[0]
    assert not action._monomial_orbit((2, 1)).invariant
    assert [str(f) for f in invariants_king(action)] == ["x*y", "x^3+y^3"]


def test_king_needs_no_reynolds_call(monkeypatch):
    def fail(action, f):
        raise AssertionError("reynolds called")

    monkeypatch.setattr(finite, "reynolds", fail)
    ring = polynomial_ring(QQ, ("x", "y", "z"))
    action = FiniteGroupAction(ring, [permutation_matrix("231"), permutation_matrix("213")])
    assert [f.degree() for f in invariants_king(action)] == [1, 2, 3]


def test_orbits_are_not_cached_on_the_action():
    action = FIXED[0].values[0]
    assert action._monomial_orbit((1, 0)) is not action._monomial_orbit((1, 0))
    assert not hasattr(action, "_last_orbit")


def test_king_with_a_cap_still_needs_the_closure():
    # x -> 2x has infinite order: the Reynolds operator needs the closure
    # even when the sweep's bound is given
    action = FiniteGroupAction(polynomial_ring(QQ, ("x",)), [[[2]]], closure_cap=16)
    with pytest.raises(ClosureCapExceeded):
        invariants_king(action, max_degree=3)

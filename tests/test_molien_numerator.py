"""The Molien series on integers, and the sweeps' Hironaka certificate.

The oracle for `molien_series` is the earlier one in `Fraction`s: traces of
the dense closure's powers, Newton's identities over Q, and every term
reduced on its own before a sum over the lcm of the reduced denominators
in `UniPoly` arithmetic.  Once the kept generators are a homogeneous system
of parameters, a sweep in characteristic 0 hands no candidates to a degree
where the numerator N(T) = M(T) prod (1 - T^(deg f_i)) is zero and stops,
certified, after deg N: on A4 that is 1 + T^6 and on A5 1 + T^10.
"""

import importlib.util
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from invtheory import (
    FiniteGroupAction,
    QQ,
    RationalFunction,
    UniPoly,
    hilbert_series_rewrite,
    invariant_ring,
    molien_series,
    permutation_matrix,
    polynomial_ring,
    rational_function_sum,
    verify_generators,
)
from invtheory import finite
from test_finite import mat_mul
from test_finite_certificate import W_B3
from test_integer_kernels import SCALED

_spec = importlib.util.spec_from_file_location(
    "benchmark_jobs", Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py")
jobs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(jobs)

ONE, T = UniPoly.one(), UniPoly.t_power(1)


def fraction_sum(terms):
    numerators = {}
    for num, den in terms:
        term = RationalFunction(num, den)
        numerators[term.den] = numerators.get(term.den, UniPoly.zero()) + term.num
    common = UniPoly.one()
    for den in numerators:
        common = common * den.exact_div(common.gcd(den))
    total = sum((num * common.exact_div(den) for den, num in numerators.items()), UniPoly.zero())
    return RationalFunction(total, common)


def fraction_molien(action):
    closure = action.group_closure()
    n = action.ring.n
    counts = Counter()
    for g in closure:
        power, traces = g, []
        for _ in range(n):
            traces.append(sum((power[i][i] for i in range(n)), Fraction(0)))
            power = mat_mul(power, g, QQ)
        counts[tuple(traces)] += 1
    terms = []
    for traces, count in counts.items():
        e = [Fraction(1)]
        for k in range(1, n + 1):
            total = sum((-1) ** (i - 1) * e[k - i] * traces[i - 1] for i in range(1, k + 1))
            e.append(total / k)
        terms.append((UniPoly.constant(count), UniPoly((-1) ** k * e_k for k, e_k in enumerate(e))))
    return fraction_sum(terms) * Fraction(1, len(closure))


def oracle_actions():
    out = [jobs.finite_action(seed, "molien-oracle", group, None)
           for seed in (1, 2, 3) for group in jobs.GROUPS]
    return out + [a for a in SCALED if a.ring.field.is_rationals] + [W_B3]


@pytest.mark.parametrize("action", oracle_actions())
def test_molien_series_matches_the_fraction_oracle(action):
    series = molien_series(FiniteGroupAction(action.ring, action.generators))
    expected = fraction_molien(action)
    assert (series.num, series.den) == (expected.num, expected.den)


def random_coefficient(rng, integral):
    return Fraction(rng.randrange(-6, 7), 1 if integral else rng.randrange(1, 6))


FACTORS = [ONE - T, ONE + T, T, ONE - UniPoly.t_power(2), UniPoly((1, 1, 1)),
           UniPoly((2, -1)), UniPoly((1, 0, 0, -1))]


@pytest.mark.parametrize("integral", [True, False])
def test_sum_equals_a_left_fold_of_add(integral):
    rng = random.Random(61 if integral else 67)
    for _ in range(60):
        terms = []
        for _ in range(rng.randrange(0, 8)):
            num = UniPoly(random_coefficient(rng, integral) for _ in range(rng.randrange(0, 4)))
            den = UniPoly.constant(random_coefficient(rng, integral) or 1)
            for _ in range(rng.randrange(0, 4)):
                den = den * rng.choice(FACTORS)
            terms.append((num, den) if rng.random() < 0.7 else RationalFunction(num, den))
        fold = RationalFunction(UniPoly.zero())
        for term in terms:
            fold = fold + (RationalFunction(*term) if isinstance(term, tuple) else term)
        total = rational_function_sum(terms)
        assert (total.num, total.den) == (fold.num, fold.den)


def alternating(n):
    ring = polynomial_ring(QQ, tuple(f"x{i + 1}" for i in range(n)))
    cycles = {4: ("2314", "2143"), 5: ("23451", "23145")}[n]
    return FiniteGroupAction(ring, [permutation_matrix(c) for c in cycles])


# (n, the Molien numerator over the hsop of degrees 1..n, a cap one short of it)
HIRONAKA = [(4, UniPoly.t_power(6) + ONE, 5), (5, UniPoly.t_power(10) + ONE, 9)]
ALGORITHMS = ["king", "linear_algebra"]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("n, numerator, short", HIRONAKA)
def test_certified_generators_verify_past_the_numerator(n, numerator, short, algorithm):
    action = alternating(n)
    inv = invariant_ring(action, algorithm=algorithm)
    assert inv.complete
    assert [f.degree() for f in inv] == list(range(1, n + 1)) + [numerator.degree()]
    assert hilbert_series_rewrite(action, range(1, n + 1)) == numerator
    assert all(check.passed for check in verify_generators(inv, numerator.degree() + 2))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("n, numerator, short", HIRONAKA)
def test_a_cap_at_the_numerator_degree_is_proven(n, numerator, short, algorithm):
    full = invariant_ring(alternating(n), algorithm=algorithm)
    for cap, complete in ((short, False), (short + 1, True)):
        capped = invariant_ring(alternating(n), algorithm=algorithm, max_degree=cap)
        assert capped.complete is complete
        assert [f.terms for f in capped] == [f.terms for f in full if f.degree() <= cap]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("n, numerator, short", HIRONAKA)
def test_degrees_the_numerator_leaves_empty_get_no_candidates(n, numerator, short, algorithm,
                                                              monkeypatch):
    asked = []
    if algorithm == "king":
        original = finite._king_candidates

        def recording(action, monomials):
            monomials = list(monomials)
            asked.append(sum(monomials[0]))
            return original(action, monomials)

        monkeypatch.setattr(finite, "_king_candidates", recording)
    else:
        original = finite.invariant_space_basis

        def recording(action, degree):
            asked.append(degree)
            return original(action, degree)

        monkeypatch.setattr(finite, "invariant_space_basis", recording)
    invariant_ring(alternating(n), algorithm=algorithm)
    assert asked == list(range(1, n + 1)) + [numerator.degree()]


def test_a_king_run_reaches_the_traced_closure_and_molien_series(monkeypatch):
    # perfbench/tracer.py times these two by name
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(FiniteGroupAction, "group_closure",
                        counting("group_closure", FiniteGroupAction.group_closure))
    monkeypatch.setattr(finite, "molien_series", counting("molien_series", finite.molien_series))
    assert invariant_ring(alternating(4)).complete
    assert calls["group_closure"] >= 1
    assert calls["molien_series"] == 1


def test_the_rewrite_reuses_the_series_the_sweep_computed(monkeypatch):
    calls = []

    def counting(terms):
        calls.append(1)
        return rational_function_sum(terms)

    monkeypatch.setattr(finite, "rational_function_sum", counting)
    numerator = hilbert_series_rewrite(invariant_ring(alternating(4)), [1, 2, 3, 4])
    assert numerator == UniPoly((1, 0, 0, 0, 0, 0, 1))
    assert len(calls) == 1

"""Tests for Buchberger's algorithm, normal forms, and elimination ideals."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from invtheory import (
    InhomogeneousTruncation,
    OrderMismatch,
    QQ,
    RingMismatch,
    TermOrder,
    buchberger,
    elimination_ideal,
    format_polynomial,
    normal_form,
    polynomial_ring,
    prime_field,
    substitute,
)

LEX3 = polynomial_ring(QQ, ("x", "y", "z"), order=TermOrder.lex())


def strings(polys):
    return sorted(format_polynomial(f) for f in polys)


def random_polynomial(ring, rng, max_terms=4, max_degree=3):
    f = ring.zero()
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = [0] * ring.n
        for _ in range(rng.randrange(max_degree + 1)):
            exps[rng.randrange(ring.n)] += 1
        f = f + ring.monomial(exps, rng.randrange(-4, 5) or 1)
    return f


def test_normal_form_examples():
    ring = polynomial_ring(QQ, ("x", "y"), order=TermOrder.lex())
    x, y = ring.variables()
    assert normal_form(x * x, buchberger([x])).is_zero()
    assert normal_form(x, []) == x
    assert normal_form(x * y, buchberger([x + y])) == -y * y


def test_normal_form_is_deterministic_and_irreducible():
    gb = buchberger([LEX3.parse("x^2-y"), LEX3.parse("x^3-z")])
    leads = [g.lead_exponents() for g in gb.elements]
    rng = random.Random(1)
    for _ in range(30):
        f = random_polynomial(LEX3, rng)
        r = normal_form(f, gb)
        assert normal_form(r, gb) == r
        for m in r.monomials():
            assert not any(all(a <= b for a, b in zip(lead, m.exponents)) for lead in leads)


def test_buchberger_examples():
    ring = polynomial_ring(QQ, ("x", "y"), order=TermOrder.lex())
    x, y = ring.variables()
    assert strings(buchberger([x]).elements) == ["x"]
    assert strings(buchberger([x + y, y]).elements) == ["x", "y"]
    gb = buchberger([LEX3.parse("x^2-y"), LEX3.parse("x^3-z")])
    assert strings(gb.elements) == sorted(["x^2-y", "x*y-z", "x*z-y^2", "y^3-z^2"])
    assert gb.reduced


def test_groebner_membership_and_s_pairs():
    gb = buchberger([LEX3.parse("x^2-y"), LEX3.parse("x^3-z")])
    rng = random.Random(2)
    for _ in range(25):
        combo = LEX3.zero()
        for g in gb.elements:
            combo = combo + random_polynomial(LEX3, rng, max_terms=2, max_degree=2) * g
        assert normal_form(combo, gb).is_zero()
    # an element outside the ideal keeps a nonzero remainder
    assert not normal_form(LEX3.parse("x"), gb).is_zero()


def test_reduced_basis_unique_under_input_permutation():
    rng = random.Random(2026)
    for _ in range(20):
        ring = polynomial_ring(QQ, ("x", "y", "z"), order=rng.choice([TermOrder.lex(), TermOrder.grevlex()]))
        polys = [random_polynomial(ring, rng) for _ in range(rng.randrange(2, 4))]
        polys = [f for f in polys if not f.is_zero()]
        if not polys:
            continue
        reference = buchberger(polys).elements
        for _ in range(3):
            shuffled = polys[:]
            rng.shuffle(shuffled)
            assert buchberger(shuffled).elements == reference


def test_lead_coefficients_are_one_in_reduced_basis():
    gb = buchberger([LEX3.parse("2*x^2-2*y"), LEX3.parse("3*x^3-3*z")])
    for g in gb.elements:
        assert g.lead_coefficient() == 1


def test_truncated_basis_consistency():
    ring = polynomial_ring(QQ, ("x", "y", "z"))
    polys = [ring.parse("x^2+y^2+z^2"), ring.parse("x*y+y*z"), ring.parse("x^3-z^3")]
    full6 = buchberger(polys, truncation_degree=6)
    for cutoff in (3, 4, 5):
        partial = buchberger(polys, truncation_degree=cutoff)
        expect = [g for g in full6.elements if g.degree() <= cutoff]
        assert strings(partial.elements) == strings(expect)


def test_truncation_requires_homogeneous_input():
    ring = polynomial_ring(QQ, ("x", "y"))
    with pytest.raises(InhomogeneousTruncation):
        buchberger([ring.parse("x^2+y")], truncation_degree=3)


def test_order_mismatch_rejected():
    gb = buchberger([LEX3.parse("x^2-y")])
    grevlex_ring = polynomial_ring(QQ, ("x", "y", "z"))
    with pytest.raises(OrderMismatch):
        normal_form(grevlex_ring.parse("x^2"), gb)


def test_elimination_examples():
    ring = polynomial_ring(QQ, ("x", "y"))
    x, y = ring.variables()
    assert elimination_ideal([x], ["x"]) == []
    kept = elimination_ideal([x + y, y], [])
    assert strings(kept) == ["x", "y"]


def test_elimination_cusp_curve():
    x, y, z = LEX3.variables()
    result = elimination_ideal([y - x * x, z - x * x * x], ["x"])
    assert len(result) == 1
    assert format_polynomial(result[0].monic()) in ("y^3-z^2", "-y^3+z^2")
    # soundness: substituting the parametrization y=t^2, z=t^3 kills every generator
    t_ring = polynomial_ring(QQ, ("t",))
    t = t_ring.variable(0)
    for g in result:
        assert substitute(g, [t * t, t * t * t]).is_zero()


def test_elimination_dimension_counts_match_parametrization():
    # kernels of evaluating degree <= d polynomials in y, z on y=t^2, z=t^3
    # must coincide in dimension with the degree <= d multiples of y^3-z^2;
    # together with membership of each kernel vector this pins the ideal as principal
    from math import comb

    from invtheory.linalg import nullspace

    ring_yz = polynomial_ring(QQ, ("y", "z"))
    gb = buchberger([ring_yz.parse("y^3-z^2")])
    t_ring = polynomial_ring(QQ, ("t",))
    t = t_ring.variable(0)
    for d in range(7):
        monomials = [m for k in range(d + 1) for m in ring_yz.monomial_basis(k)]
        width = 3 * d + 1
        rows = []
        for m in monomials:
            image = substitute(ring_yz.monomial(m), [t * t, t * t * t])
            rows.append([QQ.coerce(image.coefficient((k,))) for k in range(width)])
        # rows currently index monomials; kernel vectors combine monomials to zero functions
        transposed = [[rows[j][i] for j in range(len(monomials))] for i in range(width)]
        kernel = nullspace(transposed, len(monomials), QQ)
        assert len(kernel) == (comb(d - 1, 2) if d >= 3 else 0)
        for vec in kernel:
            f = ring_yz.zero()
            for c, m in zip(vec, monomials):
                if c:
                    f = f + ring_yz.monomial(m, c)
            assert normal_form(f, gb).is_zero()


# ---------------------------------------------------------------------------
# criteria: differential tests against a criterion-free Buchberger
# ---------------------------------------------------------------------------


def reference_remainder(f, divisors):
    """Remainder of f by plain division, lead term first."""
    ring = f.ring
    field = ring.field
    remainder = ring.zero()
    while not f.is_zero():
        lead, c = f.lead_exponents(), f.lead_coefficient()
        for g in divisors:
            shift = [a - b for a, b in zip(lead, g.lead_exponents())]
            if min(shift) >= 0:
                f = f - ring.monomial(shift, field.div(c, g.lead_coefficient())) * g
                break
        else:
            term = ring.monomial(lead, c)
            remainder, f = remainder + term, f - term
    return remainder


def reference_buchberger(polys):
    """Reduced Groebner basis from Buchberger's algorithm with no criteria:
    every S-polynomial of every pair is reduced."""
    ring = polys[0].ring
    basis = [f.monic() for f in polys if not f.is_zero()]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop()
        f, g = basis[i], basis[j]
        lcm = tuple(map(max, f.lead_exponents(), g.lead_exponents()))
        s = (ring.monomial([a - b for a, b in zip(lcm, f.lead_exponents())]) * f
             - ring.monomial([a - b for a, b in zip(lcm, g.lead_exponents())]) * g)
        r = reference_remainder(s, basis)
        if not r.is_zero():
            basis.append(r.monic())
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    minimal = []
    for f in sorted(basis, key=lambda f: ring.order.key(f.lead_exponents())):
        if not any(all(a <= b for a, b in zip(g.lead_exponents(), f.lead_exponents()))
                   for g in minimal):
            minimal.append(f)
    return [reference_remainder(f, [g for g in minimal if g is not f]).monic()
            for f in minimal]


CRITERIA_ORDERS = [TermOrder.grevlex(), TermOrder.lex(), TermOrder.elimination(1)]


def random_ideal(ring, rng):
    """Two or three random polynomials; every other draw is homogeneous,
    which keeps 1 out of the ideal."""
    count = rng.randrange(2, 4)
    if rng.random() < 0.5:
        polys = [random_polynomial(ring, rng, max_terms=3, max_degree=3) for _ in range(count)]
    else:
        polys = []
        for _ in range(count):
            monos = ring.monomial_basis(rng.randrange(1, 4))
            polys.append(ring.from_terms(
                {m.exponents: rng.randrange(-4, 5) or 1
                 for m in rng.sample(monos, min(3, len(monos)))}))
    return [f for f in polys if not f.is_zero()]


@pytest.mark.parametrize("p", [None, 7, 101])
@pytest.mark.parametrize("order", CRITERIA_ORDERS, ids=str)
def test_buchberger_matches_criterion_free_reference(order, p):
    field = QQ if p is None else prime_field(p)
    rng = random.Random(f"criteria/{order}/{p}")
    ring = polynomial_ring(field, ("x", "y", "z"), order=order)
    for _ in range(12):
        polys = random_ideal(ring, rng)
        assert strings(buchberger(polys).elements) == strings(reference_buchberger(polys))


def test_chain_criterion_waits_for_untreated_pairs():
    # The leads x*y, x*z, y*z share every pairwise lcm x*y*z, so each lead
    # divides the lcm of the other two pairs.  The chain criterion may drop a
    # pair only once both of its pairs with the third lead are treated;
    # dropping all three pairs leaves the input, which is not a basis.
    ring = polynomial_ring(QQ, ("x", "y", "z"))
    polys = [ring.parse("x*y+z^2"), ring.parse("x*z+z^2"), ring.parse("y*z+z^2")]
    expected = reference_buchberger(polys)
    assert len(expected) > 3
    assert strings(buchberger(polys).elements) == strings(expected)


def test_coprime_pairs_are_never_queued():
    from invtheory.groebner import _IncrementalGroebner

    ring = polynomial_ring(QQ, ("x", "y", "z", "w"))
    engine = _IncrementalGroebner(ring)
    for text in ("x^2-y*w", "y*z-w^2", "z^2-w^2"):
        engine.add_generator(ring.parse(text))
    assert engine.support == [0b0001, 0b0110, 0b0100]
    assert [entry[2:4] for entry in engine.heap] == [(1, 2)]
    bit = engine._bit  # each element's own bit and those of its queued partners
    assert engine._open == [bit(0), bit(1) | bit(2), bit(2) | bit(1)]


def test_pairs_are_queued_by_sugar():
    from invtheory.groebner import _IncrementalGroebner

    # homogeneous input: a pair's sugar is its lcm degree, before and after
    # the pairs up to degree 4 are handled
    ring = polynomial_ring(QQ, ("x", "y", "z", "w"))
    engine = _IncrementalGroebner(ring)
    for text in ("x^2-y*w", "x*y-z^2", "y^2*z-w^3", "x*z*w-y^3"):
        engine.add_generator(ring.parse(text))
    assert [entry[0] for entry in engine.heap] == [
        sum(engine._unpack(entry[1])) for entry in engine.heap]
    engine.process_to(4)
    assert engine.heap
    assert [entry[0] for entry in engine.heap] == [
        sum(engine._unpack(entry[1])) for entry in engine.heap]

    # inhomogeneous input: the pair (i, j) has sugar
    # max(sugar_i + deg lcm - deg lead_i, sugar_j + deg lcm - deg lead_j)
    lex = polynomial_ring(QQ, ("x", "y", "z"), order=TermOrder.lex())
    engine = _IncrementalGroebner(lex)
    engine.add_generator(lex.parse("x*y-z^5"))  # sugar 5, lead x*y
    engine.add_generator(lex.parse("x*z-y"))  # sugar 2, lead x*z
    # lcm x*y*z: max(5 + 3 - 2, 2 + 3 - 2) = 6, where the lcm degree is 3
    assert [(s, i, j, engine._unpack(lcm)) for s, lcm, i, j in engine.heap] == [
        (6, 0, 1, (1, 1, 1))]
    engine.process_to(6)
    # the S-polynomial y^2 - z^6 keeps its pair's sugar 6, though its lead
    # has degree 2, so its pair with x*y - z^5 (lcm x*y^2) gets
    # max(5 + 3 - 2, 6 + 3 - 2) = 7
    assert engine.leads[2] == ((0, 2, 0), 1)
    assert [(s, i, j, engine._unpack(lcm)) for s, lcm, i, j in engine.heap] == [
        (7, 0, 2, (1, 2, 0))]


def test_engine_normal_forms_have_no_divisible_term():
    from invtheory.groebner import _IncrementalGroebner

    rng = random.Random(5)
    for order in CRITERIA_ORDERS:
        ring = polynomial_ring(QQ, ("x", "y", "z"), order=order)
        engine = _IncrementalGroebner(ring)
        for _ in range(3):
            engine.add_generator(random_polynomial(ring, rng))
        engine.process_to(None)
        leads = [lead for lead, _ in engine.leads]
        for _ in range(10):
            remainder = engine.reduce(engine._to_internal(random_polynomial(ring, rng)))
            for exp in map(engine._unpack, remainder):
                assert not any(all(a <= b for a, b in zip(lead, exp)) for lead in leads)


# ---------------------------------------------------------------------------
# normal forms: differential tests against plain division in field arithmetic
# ---------------------------------------------------------------------------

NORMAL_FORM_ORDERS = [
    TermOrder.lex(),
    TermOrder.grevlex(),
    TermOrder.elimination(1),
    TermOrder.elimination(2),
]


def fractional_polynomial(ring, rng, max_terms, max_degree):
    """Random polynomial with fractional coefficients, coerced into the ring's field."""
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = [0] * ring.n
        for _ in range(rng.randrange(max_degree + 1)):
            exps[rng.randrange(ring.n)] += 1
        terms[tuple(exps)] = Fraction(rng.randrange(-9, 10) or 1, rng.randrange(1, 7))
    return ring.from_terms(terms)


def linear_form(ring, rng, first):
    """Random linear form in the variables from index ``first`` on; its lead
    is that variable in every order here."""
    return ring.from_terms(
        {
            tuple(int(i == v) for i in range(ring.n)):
                Fraction(rng.randrange(1, 10), rng.randrange(1, 7)) * rng.choice((1, -1))
            for v in range(first, ring.n)
        }
    )


@pytest.mark.parametrize("p", [None, 7])
@pytest.mark.parametrize("order", NORMAL_FORM_ORDERS, ids=str)
def test_normal_form_matches_plain_division(order, p):
    field = QQ if p is None else prime_field(p)
    rng = random.Random(f"normal-form/{order}/{p}")
    ring = polynomial_ring(field, ("x", "y", "z"), order=order)
    for _ in range(20):
        # Non-monic divisors in list order; most lists are not Groebner bases.
        drawn = [fractional_polynomial(ring, rng, 3, 2) for _ in range(rng.randrange(1, 4))]
        divisors = [g for g in drawn if not g.is_zero()]
        f = fractional_polynomial(ring, rng, 4, 3) * fractional_polynomial(ring, rng, 4, 3)
        assert normal_form(f, drawn) == reference_remainder(f, divisors)
        if divisors:
            basis = buchberger(divisors)
            assert normal_form(f, basis) == reference_remainder(f, list(basis.elements))
    for _ in range(2):
        # Long divisions: over Q the reducer rescales the remainder by lead
        # coefficients, and the content 11 is divided out every 64 steps.
        divisors = [
            fractional_polynomial(ring, rng, 3, 2),
            linear_form(ring, rng, 0),
            linear_form(ring, rng, 1),
        ]
        f = 11 * (linear_form(ring, rng, 0) ** 12 + fractional_polynomial(ring, rng, 3, 3))
        assert normal_form(f, divisors) == reference_remainder(f, divisors)


def test_reduced_basis_tails_are_exact():
    # The first tail takes 78 division steps by the second element, long
    # enough for the reducer's periodic content division to act on it.
    ring = polynomial_ring(QQ, ("x", "y", "z", "w"), order=TermOrder.lex())
    lead = ring.parse("x^5")
    tail = 11 * ring.parse("y+2/3*z+1/5*w") ** 12
    g = ring.parse("3*y-1/2*z+3/7*w")
    expected = (g.monic(), lead + reference_remainder(tail, [g]))
    assert buchberger([lead + tail, g]).elements == expected


def test_engine_internals_stay_in_the_groebner_module():
    # The reducer and the degree sweep live behind groebner.py: other
    # modules go through normal_form and degree_sweep.
    package = Path(__file__).resolve().parent.parent / "src" / "invtheory"
    offenders = [
        f"{path.name}: {name}"
        for path in sorted(package.glob("*.py"))
        if path.name != "groebner.py"
        for name in ("_IncrementalGroebner", "_to_internal", "_reduce_exact")
        if name in path.read_text()
    ]
    assert offenders == []


# ---------------------------------------------------------------------------
# cross-check against sympy (optional test dependency)
# ---------------------------------------------------------------------------


def sympy_groebner(polys, ring, order):
    """sympy's reduced Groebner basis of polys, as monic polynomials of ring."""
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols(ring.names)
    p = ring.field.p
    exprs = []
    for f in polys:
        expr = sympy.Integer(0)
        for exp, c in f.terms:
            term = sympy.Rational(c.numerator, c.denominator) if p is None else sympy.Integer(c)
            for s, e in zip(symbols, exp):
                term = term * s**e
            expr += term
        exprs.append(expr)
    if not exprs:
        return []
    options = {"domain": "QQ"} if p is None else {"modulus": p}
    basis = sympy.groebner(exprs, *symbols, order=order, **options)
    out = []
    for g in basis.exprs:
        terms = sympy.Poly(g, *symbols, **options).terms()
        if p is None:
            terms = [(e, Fraction(int(c.p), int(c.q))) for e, c in terms]
        else:
            terms = [(e, int(c) % p) for e, c in terms]
        out.append(ring.from_terms(terms).monic())
    return out


@pytest.mark.parametrize("p", [None, 7])
@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_buchberger_matches_sympy(order, p):
    pytest.importorskip("sympy")
    field = QQ if p is None else prime_field(p)
    ring = polynomial_ring(field, ("x", "y", "z"), order=getattr(TermOrder, order)())
    rng = random.Random(f"sympy/{order}/{p}")
    for _ in range(8):
        polys = random_ideal(ring, rng)
        expected = sympy_groebner(polys, ring, order)
        assert strings(buchberger(polys).elements) == strings(expected)


@pytest.mark.parametrize("p", [None, 7])
def test_elimination_ideal_matches_sympy(p):
    pytest.importorskip("sympy")
    field = QQ if p is None else prime_field(p)
    ring = polynomial_ring(field, ("x", "y", "z"), order=TermOrder.lex())
    tail = polynomial_ring(field, ("y", "z"))
    rng = random.Random(f"sympy/elimination/{p}")
    for _ in range(8):
        polys = [random_polynomial(ring, rng, max_terms=3, max_degree=3) for _ in range(2)]
        polys = [f for f in polys if not f.is_zero()]
        if not polys:
            continue
        lex_basis = sympy_groebner(polys, ring, "lex")
        free = [tail.from_terms({e[1:]: c for e, c in g.terms})
                for g in lex_basis if all(e[0] == 0 for e, _ in g.terms)]
        expected = sympy_groebner(free, tail, "grevlex")
        got = elimination_ideal(polys, ["x"])
        assert strings(f.monic() for f in got) == strings(expected)


def random_graph_ideal(field, rng, params, count):
    """The graph ideal of ``count`` random inhomogeneous polynomials f_i of
    degree at most 2 in ``params``: u_i - f_i in a ring with the parameters
    first, under the elimination order for them."""
    source = polynomial_ring(field, params)
    ring = polynomial_ring(field, params + tuple(f"u{i}" for i in range(count)),
                           order=TermOrder.elimination(len(params)))
    polys = []
    for i in range(count):
        f = source.zero()
        while f.is_homogeneous():
            f = random_polynomial(source, rng, max_terms=3, max_degree=2)
        image = ring.from_terms({e + (0,) * count: c for e, c in f.terms})
        polys.append(ring.variable(len(params) + i) - image)
    return polys


def parameter_free(basis, params, field):
    """The elements of ``basis`` free of the parameters, in the u-ring."""
    k = len(params)
    tail = polynomial_ring(field, basis[0].ring.names[k:])
    return [tail.from_terms({e[k:]: c for e, c in g.terms})
            for g in basis if all(not any(e[:k]) for e, _ in g.terms)]


@pytest.mark.parametrize("p", [None, 7])
def test_elimination_of_graph_ideals_matches_criterion_free_reference(p):
    # one parameter keeps the criterion-free reference fast; with two it
    # takes over a minute on some draws
    field = QQ if p is None else prime_field(p)
    rng = random.Random(f"graph/reference/{p}")
    for _ in range(8):
        polys = random_graph_ideal(field, rng, ("t",), rng.randrange(2, 4))
        expected = parameter_free(reference_buchberger(polys), ("t",), field)
        assert expected
        assert strings(elimination_ideal(polys, ["t"])) == strings(expected)


@pytest.mark.parametrize("p", [None, 7])
def test_elimination_of_graph_ideals_matches_sympy(p):
    pytest.importorskip("sympy")
    field = QQ if p is None else prime_field(p)
    params = ("s", "t")
    rng = random.Random(f"graph/sympy/{p}")
    for _ in range(8):
        polys = random_graph_ideal(field, rng, params, 3)
        lex = polys[0].ring.with_order(TermOrder.lex())
        free = parameter_free(sympy_groebner([f.convert(lex) for f in polys], lex, "lex"),
                              params, field)
        expected = sympy_groebner(free, free[0].ring, "grevlex")
        assert strings(elimination_ideal(polys, params)) == strings(expected)


def test_buchberger_in_another_order_converts_its_input():
    grevlex = polynomial_ring(QQ, ("x", "y", "z"))
    polys = [grevlex.parse("x^2-y*z"), grevlex.parse("x*y-z^2"), grevlex.parse("y^3-x*z")]
    converted = buchberger(polys, order=TermOrder.lex())
    assert converted.ring == LEX3
    assert converted == buchberger([f.convert(LEX3) for f in polys])


def test_normal_form_rejects_a_basis_it_cannot_use():
    grevlex = polynomial_ring(QQ, ("x", "y"))
    basis = buchberger([grevlex.parse("x^2-y^2"), grevlex.parse("x*y")], truncation_degree=3)
    assert normal_form(grevlex.parse("x^2+x*y"), basis) == grevlex.parse("y^2")
    with pytest.raises(ValueError, match="exceeds the basis truncation 3"):
        normal_form(grevlex.parse("x^4"), basis)
    other = polynomial_ring(QQ, ("u", "v"))
    with pytest.raises(RingMismatch):
        normal_form(other.parse("u^2"), basis)
    with pytest.raises(RingMismatch):
        normal_form(other.parse("u^2"), [grevlex.parse("x")])


def test_elimination_ideal_of_nothing_and_of_unknown_names():
    assert elimination_ideal([], eliminate=["x"]) == []
    assert elimination_ideal([LEX3.zero()], eliminate=["x"]) == []
    with pytest.raises(ValueError, match="not ring variables"):
        elimination_ideal([LEX3.parse("x-y")], eliminate=["x", "w"])


def test_ring_mismatch_in_order_only_names_the_orders():
    grevlex = polynomial_ring(QQ, ("x", "y", "z"))
    with pytest.raises(RingMismatch) as info:
        buchberger([grevlex.parse("x-y"), LEX3.parse("y-z")])
    assert str(info.value) == "QQ[x, y, z] (lex) vs QQ[x, y, z] (grevlex)"
    with pytest.raises(RingMismatch) as info:
        buchberger([grevlex.parse("x"), polynomial_ring(prime_field(5), ("x",)).parse("x")])
    assert str(info.value) == "GF(5)[x] vs QQ[x, y, z]"


def test_elimination_rejects_polynomials_of_other_rings():
    # read in the first ring, a*b - c would be y*z - x and give [y^3 - z]
    xyz = polynomial_ring(QQ, ("x", "y", "z"))
    abc = polynomial_ring(QQ, ("a", "b", "c"))
    xy = polynomial_ring(QQ, ("x", "y"))
    for polys in ([xyz.parse("x - y^2"), abc.parse("a*b - c")],
                  [xy.parse("x - y^2"), xyz.parse("x*y - z")]):
        with pytest.raises(RingMismatch):
            buchberger(polys)
        with pytest.raises(RingMismatch):
            elimination_ideal(polys, ["x"])

"""Invariants of finite matrix groups.

A `FiniteGroupAction` holds a polynomial ring and a generating set of
invertible matrices acting by linear substitution x_j -> sum_k g[j][k] x_k.
The group itself is the multiplicative closure of the generators, computed
lazily and cached.  Both generator-building algorithms are here: the
King-style Reynolds/normal-form sweep and the fixed-space linear algebra
sweep; both return minimal generating sets of the invariant ring.  Every
matrix acts through one `_Substitution`; when the generators are monomial
matrices, Reynolds images and fixed spaces are orbit sums (`_Orbit`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

from . import linalg
from .errors import (
    ClosureCapExceeded,
    DimensionMismatch,
    MissingDegreeBound,
    ModularCaseUnsupported,
    NonZeroCharacteristic,
    NotAPermutation,
)
from .fields import _integers
from .groebner import degree_sweep
from .poly import (Polynomial, PolynomialRing, _accumulate, _from_dict, _generator_key,
                   _ring_mismatch, substitute)
from .ratfunc import RationalFunction, UniPoly, rational_function_sum

DEFAULT_CLOSURE_CAP = 50000

def _row_product(x, g, p: int | None):
    """x g on sparse rows (see `_Substitution`): row i is the sum over
    (t, a) in x[i] of a times row t of g.  A row with one entry scales one
    row of g, so a product of monomial matrices costs O(n)."""
    out = []
    for row in x:
        if len(row) == 1:
            ((t, a),) = row
            out.append(g[t] if a == 1 else tuple((k, a * b % p if p else a * b) for k, b in g[t]))
            continue
        acc: dict[int, object] = {}
        for t, a in row:
            for k, b in g[t]:
                acc[k] = acc.get(k, 0) + a * b
        out.append(tuple(sorted(
            (k, c) for k, c in ((k, c % p if p else c) for k, c in acc.items()) if c)))
    return tuple(out)


def permutation_matrix(one_line: str):
    """Matrix of the permutation given in one-line notation, e.g. '2314'.

    Column j carries a single 1 in row sigma(j): the matrix maps basis
    vector e_j to e_sigma(j).
    """
    if not one_line.isdigit() or not one_line:
        raise NotAPermutation(f"{one_line!r} is not one-line permutation text")
    n = len(one_line)
    images = [int(ch) for ch in one_line]
    if sorted(images) != list(range(1, n + 1)):
        raise NotAPermutation(f"{one_line!r} is not a permutation of 1..{n}")
    return tuple(
        tuple(1 if images[j] == i + 1 else 0 for j in range(n)) for i in range(n)
    )


class FiniteGroupAction:
    """A finite matrix group acting on a polynomial ring."""

    def __init__(self, ring: PolynomialRing, generators, closure_cap: int = DEFAULT_CLOSURE_CAP):
        self.ring = ring
        self.closure_cap = closure_cap
        field = ring.field
        mats = []
        for g in generators:
            rows = tuple(tuple(field.coerce(v) for v in row) for row in g)
            if len(rows) != ring.n or any(len(row) != ring.n for row in rows):
                raise DimensionMismatch(
                    f"generator is not a {ring.n}x{ring.n} matrix"
                )
            if linalg.rank(rows, field) != ring.n:
                raise DimensionMismatch("generator matrix is singular")
            mats.append(rows)
        self.generators = tuple(mats)
        self._closure: tuple | None = None
        self._sparse_closure: tuple | None = None
        # Built on first use, like the closure.
        self._generator_subs: tuple[_Substitution, ...] | None = None
        self._closure_subs: tuple[_Substitution, ...] | None = None
        self._molien: RationalFunction | None = None

    # -- the group ------------------------------------------------------------

    def group_closure(self) -> tuple:
        """All group elements, breadth-first from the identity; cached.  The
        walk multiplies sparse rows, kept for `molien_series`, with an
        integral scalar over Q as an int (ints hash and multiply fast), and
        tells elements apart by their rows; the public elements are made
        dense once, at the end: each distinct row once, with one field scalar
        per distinct value."""
        if self._closure is None:
            field = self.ring.field
            n = self.ring.n
            generators = [tuple(tuple((k, c.numerator if c.denominator == 1 else c) for k, c in row)
                                for row in sub.images) for sub in self._generator_substitutions()]
            identity = tuple(((i, 1),) for i in range(n))
            ordered = list(dict.fromkeys([identity, *generators]))
            seen = set(ordered)
            frontier = list(ordered)
            while frontier:
                next_frontier = []
                for x in frontier:
                    for g in generators:
                        y = _row_product(x, g, field.p)
                        if y not in seen:
                            seen.add(y)
                            ordered.append(y)
                            next_frontier.append(y)
                            if len(ordered) > self.closure_cap:
                                raise ClosureCapExceeded(
                                    f"group closure exceeded {self.closure_cap} elements"
                                )
                frontier = next_frontier
            self._sparse_closure = tuple(ordered)
            rows = set(chain.from_iterable(ordered))
            scalars = {c: field.coerce(c) for c in {c for row in rows for _, c in row}}
            zeros = dict.fromkeys(range(n), field.zero())
            dense = {row: tuple({**zeros, **{k: scalars[c] for k, c in row}}.values())
                     for row in rows}
            self._closure = tuple(tuple(map(dense.__getitem__, x)) for x in ordered)
        return self._closure

    def order(self) -> int:
        return len(self.group_closure())

    # -- substitutions and monomial orbits ---------------------------------------

    def _generator_substitutions(self) -> tuple["_Substitution", ...]:
        if self._generator_subs is None:
            self._generator_subs = tuple(_Substitution(self.ring, g) for g in self.generators)
        return self._generator_subs

    def _closure_substitutions(self) -> tuple["_Substitution", ...]:
        """One substitution per closure element, for `_dense_reynolds`."""
        if self._closure_subs is None:
            self._closure_subs = tuple(_Substitution(self.ring, g) for g in self.group_closure())
        return self._closure_subs

    def _is_monomial(self) -> bool:
        """Whether every generator is a permutation matrix times scalars."""
        return all(s.is_monomial for s in self._generator_substitutions())

    def _monomial_orbit(self, exponents: tuple[int, ...]) -> "_Orbit | None":
        """The orbit of x^exponents under a monomial group (None for any
        other group), walked under the generators only, so it needs no
        closure."""
        if not self._is_monomial():
            return None
        return _Orbit(self._generator_substitutions(), exponents, self.ring.field)

    def __repr__(self) -> str:
        return (
            f"FiniteGroupAction({self.ring}, {len(self.generators)} generators)"
        )


class _Substitution:
    """The substitution x_j -> sum_k g[j][k] x_k of one matrix g.

    The image of x_j is held as (k, g[j][k]) pairs over the nonzero entries
    (g's sparse rows), with the scalars coerced once.  When every row has one
    entry and no two share a column (a monomial matrix) each monomial maps to
    a scalar times a monomial; otherwise the images are expanded into
    polynomials for `substitute`.
    """

    def __init__(self, ring: PolynomialRing, g):
        if len(g) != ring.n or any(len(row) != ring.n for row in g):
            raise DimensionMismatch(f"matrix is not {ring.n}x{ring.n}")
        field = ring.field
        self.ring = ring
        self._one = field.one()
        images = []
        for row in g:
            pairs = ((k, field.coerce(v)) for k, v in enumerate(row))
            images.append(tuple((k, c) for k, c in pairs if not field.is_zero(c)))
        self.images = tuple(images)
        self.is_monomial = (all(len(pairs) == 1 for pairs in self.images)
                            and len({pairs[0][0] for pairs in self.images}) == ring.n)
        self.polynomials = None
        if self.is_monomial:
            # x^e(g.x) = c x^f with f_k = e_source[k], and c the product of
            # the entries in `scaled` (those that are not 1) to their powers
            self._source = [0] * ring.n
            for j, ((k, _),) in enumerate(self.images):
                self._source[k] = j
            self.scaled = [(j, c) for j, ((_, c),) in enumerate(self.images) if c != 1]
        else:
            unit = [tuple(1 if i == k else 0 for i in range(ring.n)) for k in range(ring.n)]
            self.polynomials = [
                _from_dict(ring, {unit[k]: c for k, c in pairs}) for pairs in self.images
            ]

    def monomial_image(self, exponents: tuple[int, ...]):
        """(c, e) with x^exponents(g.x) = c x^e; monomial matrices only."""
        p = self.ring.field.p
        scalar = self._one
        for j, c in self.scaled:
            e = exponents[j]
            if e:
                scalar = scalar * pow(c, e, p)
        return scalar % p if p else scalar, tuple(map(exponents.__getitem__, self._source))

    def apply(self, f: Polynomial) -> Polynomial:
        """f(g.x)."""
        if not self.is_monomial:
            return substitute(f, self.polynomials)
        field = self.ring.field
        acc: dict[tuple[int, ...], object] = {}
        for exp, coeff in f.terms:
            scalar, image = self.monomial_image(exp)
            _accumulate(acc, ((image, field.mul(coeff, scalar)),), field)
        return _from_dict(self.ring, acc)


class _Orbit:
    """The orbit of a monomial m under a monomial group, walked breadth-first
    under the generators' substitutions.

    ``coefficients`` maps each member m' to the coefficient c(m') that
    invariance forces on a polynomial supported on the orbit, with
    c(m) = 1 and c(s.m') = c(m') c_s(m') for each substitution s, where
    m'(s.x) = c_s(m') s.m'.  When two paths force different coefficients
    (the stabilizer of m acts on it by a nontrivial character), no nonzero
    invariant lives on the orbit and ``invariant`` is False.  Otherwise the
    orbit sum sum c(m') m' spans the invariants supported on it (King 2013,
    section 5).
    """

    __slots__ = ("coefficients", "invariant")

    def __init__(self, substitutions, exponents: tuple[int, ...], field):
        coefficients = {exponents: field.one()}
        invariant = True
        frontier = [exponents]
        while frontier:
            next_frontier = []
            for m in frontier:
                cm = coefficients[m]
                for s in substitutions:
                    scalar, image = s.monomial_image(m)
                    c = field.mul(cm, scalar) if s.scaled else cm
                    known = coefficients.get(image)
                    if known is None:
                        coefficients[image] = c
                        next_frontier.append(image)
                    elif known != c:
                        invariant = False
            frontier = next_frontier
        self.coefficients = coefficients
        self.invariant = invariant


def act_on(g, f: Polynomial) -> Polynomial:
    """f(g.x): substitute x_j -> sum_k g[j][k] x_k."""
    return _Substitution(f.ring, g).apply(f)


def _check_nonmodular(action: FiniteGroupAction) -> None:
    """Raise ModularCaseUnsupported if the characteristic divides |G| (no Reynolds
    operator); the closure comes first, so one over its cap raises ClosureCapExceeded."""
    order = action.order()
    p = action.ring.field.characteristic()
    if p and order % p == 0:
        raise ModularCaseUnsupported(f"|G| = {order} is divisible by the characteristic {p}")


def reynolds(action: FiniteGroupAction, f: Polynomial) -> Polynomial:
    """Group average (1/|G|) sum_g f(g.x); the projection onto invariants.

    For a monomial group the average of a term a m is
    a / (c(m) |orbit|) sum c(m') m' over its orbit, or zero when the orbit
    carries no invariant (see `_Orbit`).
    """
    _check_nonmodular(action)
    ring = action.ring
    field = ring.field
    if f.ring != ring:
        raise _ring_mismatch(f.ring, ring)
    if not action._is_monomial():
        return _dense_reynolds(action, f)
    acc: dict[tuple[int, ...], object] = {}
    orbits: dict[tuple[int, ...], _Orbit] = {}
    for exp, coeff in f.terms:
        orbit = orbits.get(exp)
        if orbit is None:
            orbit = action._monomial_orbit(exp)
            orbits.update(dict.fromkeys(orbit.coefficients, orbit))
        if orbit.invariant:
            size = field.from_pair(len(orbit.coefficients), 1)
            scale = field.div(coeff, field.mul(orbit.coefficients[exp], size))
            _accumulate(acc, orbit.coefficients.items(), field, scale)
    return _from_dict(ring, acc)


def _dense_reynolds(action: FiniteGroupAction, f: Polynomial) -> Polynomial:
    """(1/|G|) sum_g f(g.x) summed over the closure: the path for groups that
    are not monomial, and the reference the orbit path is tested against."""
    field = action.ring.field
    acc: dict[tuple[int, ...], object] = {}
    for sub in action._closure_substitutions():
        _accumulate(acc, sub.apply(f).terms, field)
    return _from_dict(action.ring, acc) * field.from_pair(1, action.order())


def _orbit_sums(action: FiniteGroupAction, monomials):
    """The orbit sums sum c(m') m' (`_Orbit`) of a monomial group, one for
    each invariant orbit that the exponent tuples ``monomials`` meet, each
    walked from the first of its members met (coefficient 1)."""
    seen: set[tuple[int, ...]] = set()
    for m in monomials:
        if m not in seen:
            orbit = action._monomial_orbit(m)
            seen.update(orbit.coefficients)
            if orbit.invariant:
                yield _from_dict(action.ring, orbit.coefficients)


def molien_series(action: FiniteGroupAction) -> RationalFunction:
    """Molien series (1/|G|) sum_g 1/det(1 - T g), reduced.

    det(1 - T g) = sum_k (-1)^k e_k T^k, where e_k are the elementary
    symmetric functions of g's eigenvalues.  Newton's identities
    k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i give them from the power
    sums p_i = tr(g^i).  The eigenvalues are roots of unity, so p_i and e_k
    are rational algebraic integers, that is ints, and k divides the sum
    exactly.  Elements are counted by their trace tuple (p_1, ..., p_n),
    which holds the same information as the determinant, and each distinct
    determinant is summed once, weighted by its share of the group.  Cached
    on the action."""
    field = action.ring.field
    if not field.is_rationals:
        raise NonZeroCharacteristic("Molien series needs characteristic 0")
    if action._molien is not None:
        return action._molien
    order = action.order()
    n = action.ring.n
    counts: dict[tuple, int] = {}
    for g in action._sparse_closure:
        power = g
        traces = [_trace(g)]
        for _ in range(n - 1):
            power = _row_product(power, g, None)
            traces.append(_trace(power))
        key = tuple(traces)
        counts[key] = counts.get(key, 0) + 1
    terms = []
    for traces, count in counts.items():
        e = [1]
        for k in range(1, n + 1):
            e.append(sum((-1) ** (i - 1) * e[k - i] * traces[i - 1] for i in range(1, k + 1)) // k)
        det = UniPoly((-1) ** k * e_k for k, e_k in enumerate(e))
        terms.append((UniPoly.constant(Fraction(count, order)), det))
    action._molien = rational_function_sum(terms)
    return action._molien


def _molien_numerator(action: FiniteGroupAction, degrees) -> UniPoly:
    """M(T) prod (1 - T^d) over ``degrees``; the division must be exact."""
    series = molien_series(action)
    numerator = series.num
    for d in degrees:
        numerator = numerator * UniPoly.one_minus_t_power(d)
    return numerator.exact_div(series.den)


def _trace(rows):
    return sum(c for i, row in enumerate(rows) for k, c in row if k == i)


def invariant_space_basis(action: FiniteGroupAction, degree: int) -> list[Polynomial]:
    """Basis of the degree-d invariants in reduced echelon form over the
    degree-d monomial basis, so the list is canonical.

    For a monomial group these are the orbit sums, each walked from its
    lead monomial (coefficient 1) in monomial-basis order: their supports
    are disjoint, which makes them the reduced echelon form already.
    """
    if not action._is_monomial():
        return _dense_invariant_space_basis(action, degree)
    return list(_orbit_sums(action, (m.exponents for m in action.ring.monomial_basis(degree))))


def _dense_invariant_space_basis(action: FiniteGroupAction, degree: int) -> list[Polynomial]:
    """The joint fixed space of the generators on the degree-d monomial
    basis, by row reduction: the path for groups that are not monomial, and
    the reference the orbit path is tested against."""
    ring = action.ring
    field = ring.field
    basis = ring.monomial_basis(degree)
    if not basis:
        return []
    zero = field.zero()
    rows = []
    for sub in action._generator_substitutions():
        columns = [dict(sub.apply(ring.monomial(m)).terms) for m in basis]
        for j, m in enumerate(basis):
            row = [column.get(m.exponents, zero) for column in columns]
            row[j] = field.sub(row[j], field.one())
            rows.append(row)
    exps = [m.exponents for m in basis]
    return [ring.from_terms(zip(exps, vec)) for vec in linalg.nullspace(rows, len(basis), field)]


def _degree_bound(action: FiniteGroupAction, max_degree: int | None) -> int:
    """The sweep's top degree: max_degree, an integer >= 1, or else |G|."""
    if max_degree is None:
        return action.order()
    return _integers((max_degree,), "max_degree", least=1)[0]


def _standard_monomials(engine, below, key) -> list[tuple[int, ...]]:
    """The degree d + 1 exponents that no lead of ``engine`` divides,
    leading-first, from ``below``: the degree-d ones no lead divided when
    that list was built.  A child m x_v with v at or after m's last variable
    has one parent; the lead ideal only grows, so the parent of a child
    that is standard now, the child over its last variable, was standard
    then."""
    n = engine.n
    children = []
    for m in below:
        last = n - 1
        while last and not m[last]:
            last -= 1
        for v in range(last, n):
            child = m[:v] + (m[v] + 1,) + m[v + 1:]
            if not engine.lead_divides(child):
                children.append(child)
    children.sort(key=key, reverse=True)
    return children


def _sweep(action: FiniteGroupAction, bound: int, candidates) -> tuple[list[Polynomial], bool]:
    """Degrees 1..bound of `degree_sweep`, with ``candidates(engine, d,
    standard)``, where ``standard()`` lists the degree-d exponents outside
    the lead ideal.  Generators come out monic, by degree then descending
    lead, with whether they are proven complete.

    After a degree the sweep stops on one of two proofs.  King's stop: no
    monomial of the next degree (at most the bound) is standard, so the
    Hilbert ideal is generated; with a Reynolds operator that proves the
    invariants are (`_proven`).  Or the degree reaches deg N, where N(T) is
    the numerator below, set once n generators f are kept and the current
    leads hold a pure power of every variable (these lie in the ideal, so
    K[x]/(f) is finite and f is a homogeneous system of parameters).

    Kemper's certificate (Kemper 1996, Prop. 16; Derksen-Kemper section
    3.7) is the case N = 1, sound in every characteristic: deg f_1 ...
    deg f_n = |G|, and the pairs are handled to degree sum(deg f_i - 1) + 1,
    where every monomial lies in (f) if f is an hsop.  Then K[x] is free of
    rank prod deg f_i over the polynomial ring K[f], so [K(x):K(f)] = |G| =
    [K(x):K(x)^G] (the action is faithful), and K(f) = K(x)^G.  K[x]^G lies
    in that field and is integral over K[f], which is integrally closed, so
    K[f] = K[x]^G.

    In characteristic 0, K[x]^G is free over the hsop K[f] on secondary
    invariants eta_j (Hironaka decomposition; Sturmfels, Algorithms in
    Invariant Theory, ch. 2) with sum_j T^(deg eta_j) = N(T) = M(T) prod
    (1 - T^(deg f_i)); there are N(1) = prod deg f_i / |G| of them, so |G|
    must divide the product, which is checked first.  A degree-e invariant
    is sum_j eta_j q_j(f); when no eta_j has degree e, every term is a
    product of invariants of lower degree, which the generators kept below e
    generate, so every degree-e candidate reduces to zero: the degree gets
    none, and no degree past deg N has a secondary."""
    ring = action.ring
    n = ring.n
    p = ring.field.characteristic()
    standard_by_degree = [[(0,) * n]]
    order: list = []  # |G| once looked up, None when the closure is unavailable
    numerator = None  # N(T), once the kept generators are an hsop

    def group_order():
        if not order:
            try:
                order.append(action.order())
            except ClosureCapExceeded:
                order.append(None)
        return order[0]

    def standard(engine, d: int) -> list[tuple[int, ...]]:
        while len(standard_by_degree) <= d:
            standard_by_degree.append(
                _standard_monomials(engine, standard_by_degree[-1], ring.order.key))
        return standard_by_degree[d]

    def pure_powers(engine) -> bool:
        pure = set(engine.support)
        return all(1 << v in pure for v in range(n))

    def degree_candidates(engine, d: int):
        if numerator is not None and not numerator.coefficient(d):
            return ()
        return candidates(engine, d, lambda: standard(engine, d))

    def complete(engine, d: int, kept) -> bool:
        nonlocal numerator
        if numerator is None and len(kept) == n and group_order():
            degrees = [f.degree() for f in kept]
            product = math.prod(degrees)
            kemper = product == group_order()
            if kemper:
                engine.process_to(sum(degrees) - n + 1)
            if (kemper or not p and product % group_order() == 0) and pure_powers(engine):
                numerator = UniPoly.one() if kemper else _molien_numerator(action, degrees)
                if any(c < 0 or c.denominator != 1 for c in numerator.coeffs):
                    raise AssertionError(f"Molien numerator {numerator} over an hsop")
        if numerator is not None and d >= numerator.degree():
            return True
        if d == bound:
            return False  # the sweep ends here; checking d + 1 costs S-pairs
        engine.process_to(d + 1)
        return not standard(engine, d + 1)

    found, stopped = degree_sweep(ring, range(1, bound + 1), degree_candidates, complete)

    proven = stopped and numerator is not None or _proven(p, group_order, bound, stopped)
    return sorted((f.monic() for f in found), key=_generator_key), proven


def _proven(p: int, group_order, bound: int, stopped: bool) -> bool:
    """Whether a sweep to ``bound`` without Kemper's certificate found every
    generator: King's stop fired, or the bound reached |G| (Noether's
    bound).  Both rest on the Reynolds operator, so neither proves anything
    when the characteristic divides |G|, or when it is positive and
    ``group_order()`` is None (the closure is unavailable)."""
    if stopped and not p:
        return True
    order = group_order()
    return order is not None and not (p and order % p == 0) and (stopped or bound >= order)


def _king_candidates(action: FiniteGroupAction, monomials):
    """Reynolds images of the monomials (exponent tuples), up to the scalars the
    sweep drops: for a monomial group, the orbit sums (King 2013, section 5)."""
    if action._is_monomial():
        return _orbit_sums(action, monomials)
    return (_dense_reynolds(action, action.ring.monomial(m)) for m in monomials)


def invariants_king(
    action: FiniteGroupAction, max_degree: int | None = None
) -> list[Polynomial]:
    """Minimal invariant generators by Reynolds images of monomials.

    Degree by degree up to the bound (|G| by default), a truncated Groebner
    basis of the ideal of found generators is maintained; a monomial whose
    Reynolds image has nonzero normal form contributes a new generator.
    Only the standard monomials, those outside the lead ideal at the start
    of the degree, are tried.  For a monomial group each orbit is tried once
    per degree.  The sweep stops early on King's stop or Kemper's
    certificate (`_sweep`).
    """
    return _king_sweep(action, max_degree)[0]


def _king_sweep(action: FiniteGroupAction,
                max_degree: int | None) -> tuple[list[Polynomial], bool]:
    """`invariants_king` and whether its generators are complete."""
    bound = _degree_bound(action, max_degree)
    _check_nonmodular(action)
    return _sweep(action, bound, lambda engine, d, standard: _king_candidates(action, standard()))


def invariants_linear_algebra(
    action: FiniteGroupAction, max_degree: int | None = None
) -> list[Polynomial]:
    """Minimal invariant generators from per-degree fixed-space bases.

    Needs no Reynolds operator, so it runs when the characteristic divides
    |G| too, but there a fixed-space vector is kept when it is new modulo
    the ideal of the earlier generators, not the algebra, so it can miss
    generators; only Kemper's certificate (`_sweep`) proves a modular
    result.  Without an explicit bound the default is |G|, which requires
    the closure; if the closure cannot be computed a bound is mandatory.
    """
    return _linear_sweep(action, max_degree)[0]


def _linear_sweep(action: FiniteGroupAction,
                  max_degree: int | None) -> tuple[list[Polynomial], bool]:
    """`invariants_linear_algebra` and whether its generators are complete."""
    try:
        bound = _degree_bound(action, max_degree)
    except ClosureCapExceeded as exc:
        raise MissingDegreeBound(
            "no max_degree given and the group closure is unavailable"
        ) from exc
    return _sweep(
        action, bound, lambda engine, d, standard: invariant_space_basis(action, d)
    )

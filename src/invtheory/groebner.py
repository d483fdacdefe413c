"""Buchberger's algorithm with optional degree truncation, normal forms,
elimination ideals, and the degree sweep that invariant generators are
built with.

Pair selection follows the sugar strategy (Giovini, Mora, Niesi, Robbiano
and Traverso, ISSAC 1991): each element carries a sugar, the degree it would
have if the input were homogenized, and the pair of least sugar goes first,
ties broken by term order then input index.  Degrees are weighted: variable
v counts w_v >= 1, all ones unless the caller gives weights.  For input
homogeneous in the weights the sugar of a pair is its lcm degree, so this
is the normal strategy there; a graph ideal u_i - f_i is homogeneous once
u_i weighs deg f_i, which is how `rings.defining_ideal` runs it.  On other
inhomogeneous input the sugar avoids many S-pairs the normal strategy
reduces to zero.  The weights choose only the pair order, never the term
order, so the reduced basis does not depend on them.  Buchberger's
coprime-lead and chain criteria drop pairs.  Each lead carries a support
bitmask, so a pair with coprime leads is never queued, and each element
keeps its own bit and its queued partners' as one int, so the chain test
(Gebauer and Moeller, JSC 1988) is one big-int expression over the leads
dividing the pair's lcm.

Inside the engine a monomial is one packed int (Bachmann and Schoenemann,
*Monomial representations for Groebner bases computations*, ISSAC 1998):
the exponents sit in bit fields of one width, each field's top bit a guard
bit that stays clear, and above them the term order's key is packed the
same way.  Every order here has a key linear in the exponents, so a product
of monomials is one integer addition, packed monomials compare as their
keys do, and a pair's lcm is H(a) + H(b) - H(gcd(a, b)), the gcd nonzero
only on the leads' shared support.  A lead divides a monomial when
subtracting it from the monomial with every guard bit set clears none of
them; the leads sit side by side in one integer, so one subtraction tests
them all (`poly.Staircase`, which the diagonal solvers share).  The engine
holds each element once: its lead as an exponent tuple and coefficient, the
rest keyed by packed monomials.  The fields start narrow.  A product of a
shift and a held term sets a field's guard bit exactly when that field
overflows, since both are below 2^(w - 1) there and nothing carries into the
next field; an S-polynomial or reduction step that makes such a term makes
the engine double the width, repack what it holds from the old fields and
redo the call, so exponents are unbounded.  Polynomials keep exponent
tuples; the engine converts on entry (`_to_internal`) and exit (`reducer`,
`reduced_elements`).

One reducer serves both fields with one integer pseudo-reduction loop.
Each step scales the work by lead/gcd(coeff, lead) and subtracts
coeff/gcd(coeff, lead) times the shifted divisor.  Over F_p every element
is monic, so that gcd is 1 and the step is the plain subtraction of coeff
times the divisor: no rescaling happens, and each new coefficient is only
reduced mod p.  Over Q the loop strips the content every 64 steps, and
`normal_form` divides the scale it reports back out.
Bases are converted back to monic polynomials at the end, so the published
bases are the unique reduced ones.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from itertools import chain

from .errors import InhomogeneousTruncation, OrderMismatch
from .fields import _integers, integral
from .poly import (Polynomial, PolynomialRing, Staircase, _from_dict, _ring_mismatch,
                   support_mask)
from .orders import TermOrder


@dataclass(frozen=True)
class GroebnerBasis:
    """A (possibly degree-truncated) Groebner basis.

    When ``truncation_degree`` is d, membership tests are only valid for
    polynomials of degree at most d; ``reduced`` marks the unique monic
    inter-reduced form.
    """

    ring: PolynomialRing
    elements: tuple[Polynomial, ...]
    truncation_degree: int | None = None
    reduced: bool = False

    @property
    def order(self) -> TermOrder:
        return self.ring.order

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of f on division by the basis (no term divisible by any
    lead); divisors are tried in the order given, leftmost reducible term
    first.  Raises OrderMismatch if f's ring order differs from the basis."""
    if isinstance(basis, GroebnerBasis):
        if f.ring.order != basis.ring.order:
            raise OrderMismatch(
                f"polynomial order {f.ring.order} vs basis order {basis.ring.order}"
            )
        if f.ring != basis.ring:
            raise _ring_mismatch(f.ring, basis.ring)
        if (
            basis.truncation_degree is not None
            and f.degree() > basis.truncation_degree
        ):
            raise ValueError(
                f"degree {f.degree()} exceeds the basis truncation "
                f"{basis.truncation_degree}"
            )
        divisors = list(basis.elements)
    else:
        divisors = [g for g in basis if not g.is_zero()]
        for g in divisors:
            if g.ring != f.ring:
                raise _ring_mismatch(f.ring, g.ring)
    return reducer(f.ring, divisors)(f)


def reducer(ring: PolynomialRing, divisors):
    """`normal_form` modulo the nonzero ``divisors``, as one function of f
    in ``ring`` whose engine is loaded once for every call."""
    engine = _IncrementalGroebner(ring)
    for g in divisors:
        engine._load(engine._to_internal(g))

    def remainder(f: Polynomial) -> Polynomial:
        work, denominator = engine._integral(f)
        reduced = engine.reduce(work)
        up, down = engine.last_scale
        scalar, unpack = ring.field.from_pair, engine._unpack
        return _from_dict(
            ring, {unpack(h): scalar(v * down, denominator * up) for h, v in reduced.items()})

    return remainder


# ---------------------------------------------------------------------------
# internal engine
# ---------------------------------------------------------------------------


def _check_weights(weights, n: int) -> tuple[int, ...]:
    """The weights as a tuple of n ints >= 1 (`fields._integers`), all ones
    when absent; raises ValueError on any other weights."""
    if weights is None:
        return (1,) * n
    weights = _integers(weights, "weights", least=1)
    if len(weights) != n:
        raise ValueError(f"{len(weights)} weights for {n} variables")
    return weights


class _IncrementalGroebner:
    """Buchberger engine that supports adding generators and raising the
    processed-degree watermark, as King-style algorithms need.

    Each element is held once: ``leads[i]`` is its lead as (exponent tuple,
    coefficient) and ``elements[i]`` the rest of it, keyed by packed
    monomials.  Over Q the coefficients are primitive integers with a
    positive lead; over F_p the element is monic mod p.  Degrees and sugars
    are taken in ``weights``, one per variable (see `_check_weights`).
    """

    def __init__(self, ring: PolynomialRing, weights=None):
        self.ring = ring
        self.p = ring.field.characteristic() or None
        self.n = ring.n
        self.weights = _check_weights(weights, ring.n)
        self.elements: list[dict] = []  # each element without its lead, packed
        self.leads: list[tuple[tuple[int, ...], int]] = []  # (exp, coeff)
        self.support: list[int] = []  # bit v set when the lead's exponent v > 0
        self.degrees: list[int] = []  # the lead's weighted degree
        # sugar minus the lead's degree; 0 for homogeneous input
        self.excess: list[int] = []
        self.heap: list = []   # (sugar, packed lcm, i, j), every queued pair once
        self._set_width(4)  # exponents below 8 until something larger comes

    # -- packed monomials --------------------------------------------------------

    def _set_width(self, width: int) -> None:
        """Pack monomials in ``width``-bit fields; repack everything held.

        H(e) = K(e) 2^(n width) + sum_v e_v 2^(width v), each e_v below its
        field's guard bit 2^(width - 1).  K(e) packs the order key in fields
        of width + n.bit_length() bits, room for the difference of any two
        components (a degree is below n 2^(width - 1)), so packed monomials
        compare as their keys do; H(e) = sum_v e_v H(unit_v)."""
        n = self.n
        # unpacked while self.width still names the fields they were packed in
        tails = [[(self._unpack(h), c) for h, c in tail.items()] for tail in self.elements]
        self.width = width
        key_width = width + n.bit_length()
        self._units = []
        for v in range(n):
            key = 0
            for part in self.ring.order.key(tuple(int(u == v) for u in range(n))):
                key = (key << key_width) + part
            self._units.append((key << (width * n)) + (1 << (width * v)))
        self._stairs = Staircase(n, width)  # the exponent parts of the leads
        self.guard = self._stairs.guard
        self._lead_h = self._stairs.held  # the packed leads
        pack, leads = self._pack, self.leads
        for lead, _ in leads:
            self._stairs.add(pack(lead))
        self.elements = [{pack(e): c for e, c in tail} for tail in tails]
        self.heap = [(s, pack(tuple(map(max, leads[i][0], leads[j][0]))), i, j)
                     for s, _, i, j in self.heap]
        # element i and its queued partners k, as bit (k + 1) slot - 1 like `divisors`
        self._open = [self._bit(k) for k in range(len(self.elements))]
        for _, _, i, j in self.heap:
            self._open[i] |= self._bit(j)
            self._open[j] |= self._bit(i)

    def _bit(self, k: int) -> int:
        return 1 << ((k + 1) * self._stairs.slot - 1)

    def _fit(self, exps) -> None:
        """Widen the fields until every exponent in ``exps`` fits."""
        top = max(chain.from_iterable(exps), default=0)
        width = self.width
        while top >> (width - 1):
            width *= 2
        if width != self.width:
            self._set_width(width)

    def _pack(self, exp: tuple[int, ...]) -> int:
        return sum(map(operator.mul, exp, self._units))

    def _unpack(self, h: int) -> tuple[int, ...]:
        width = self.width
        mask = (1 << width) - 1
        return tuple(h >> (width * v) & mask for v in range(self.n))

    def _degree(self, exp: tuple[int, ...]) -> int:
        return sum(map(operator.mul, exp, self.weights))

    def _pack_terms(self, work: dict) -> dict:
        self._fit(work)
        pack = self._pack
        return {pack(e): c for e, c in work.items()}

    # -- conversions ----------------------------------------------------------

    def _integral(self, f: Polynomial) -> tuple[dict, int]:
        """f's terms cleared by `integral`, packed, and the lcm of the
        denominators."""
        ints, denominator = integral([c for _, c in f.terms])
        return self._pack_terms(dict(zip([e for e, _ in f.terms], ints))), denominator

    def _to_internal(self, f: Polynomial) -> dict:
        """f's normalized integer terms, packed: the input of `reduce`."""
        work = self._integral(f)[0]
        return self._normalize(work, work[max(work)]) if work else work

    def _normalize(self, work: dict, lead_coeff: int) -> dict:
        """Over Q, divide out the content with the lead's sign; over F_p,
        make the lead 1."""
        if self.p is None:
            content = math.gcd(*work.values())
            if lead_coeff < 0:
                content = -content
            if content != 1:
                work = {e: v // content for e, v in work.items()}
        else:
            inv = pow(lead_coeff, -1, self.p)
            if inv != 1:
                work = {e: v * inv % self.p for e, v in work.items()}
        return work

    # -- reduction -----------------------------------------------------------

    def reduce(self, work: dict) -> dict:
        """Full normal form of packed terms (`_to_internal`'s output) in
        internal arithmetic, packed: up/down times the exact remainder, with
        ``self.last_scale = (up, down)`` positive.  When a product would set
        a guard bit, the fields are widened and the reduction starts over."""
        while (result := self._remainder(work)) is None:
            exps = {self._unpack(h): c for h, c in work.items()}
            self._set_width(2 * self.width)
            work = self._pack_terms(exps)
        return result

    def _remainder(self, work: dict):
        """`reduce` on packed terms, leaving ``work`` as it is; None when a
        product overflows the fields.

        One loop serves both fields.  Divisors have positive leads, so the
        scale lead/gcd(coeff, lead) is positive; over F_p the leads are 1,
        so the scale is 1 and up = down = 1.  A term enters the heap once:
        ``work`` keeps a term that cancels, at 0, until it is popped."""
        p = self.p
        guard, slot, divisors = self.guard, self._stairs.slot, self._stairs.divisors
        leads, tails = self.leads, self.elements
        push, pop = heapq.heappush, heapq.heappop
        work = dict(work)
        heap = [-h for h in work]
        heapq.heapify(heap)
        result: dict = {}
        steps = 0
        up = down = 1
        while heap:
            h = -pop(heap)
            coeff = work.pop(h)
            if not coeff:
                continue
            found = divisors(h)
            if not found:
                result[h] = coeff
                continue
            idx = (found & -found).bit_length() // slot - 1  # the first divisor
            shift = h - self._lead_h[idx]
            lead_coeff = leads[idx][1]
            lam = math.gcd(coeff, lead_coeff)
            scale = lead_coeff // lam
            mult = coeff // lam
            if scale != 1:
                for e in work:
                    work[e] *= scale
                for e in result:
                    result[e] *= scale
                up *= scale
            for g, g_coeff in tails[idx].items():
                target = shift + g
                if target & guard:
                    return None
                value = work.get(target)
                if value is None:
                    push(heap, -target)
                    value = 0
                value -= mult * g_coeff
                work[target] = value % p if p is not None else value
            steps += 1
            if p is None and steps % 64 == 0:
                merged_gcd = math.gcd(*work.values(), *result.values())
                if merged_gcd > 1:
                    for e in work:
                        work[e] //= merged_gcd
                    for e in result:
                        result[e] //= merged_gcd
                    down *= merged_gcd
        self.last_scale = (up, down)
        return result

    # -- basis growth -----------------------------------------------------------

    def lead_divides(self, exp: tuple[int, ...]) -> bool:
        if max(exp, default=0) >> (self.width - 1):
            self._fit((exp,))
        return bool(self._stairs.divisors(self._pack(exp)))

    def _push_pairs(self, new_index: int) -> None:
        """Queue the pairs (i, new_index).  The sugar of a pair is
        max(sugar_i + deg lcm - deg lead_i, sugar_j + deg lcm - deg lead_j),
        that is deg lcm plus the larger excess.  Keys and degrees are
        linear, so H(lcm) = H(a) + H(b) - H(gcd) and deg lcm = deg a +
        deg b - sum_v w_v min(a_v, b_v), and the gcd lives on the leads'
        shared support."""
        leads, lead_h, degrees, excess = self.leads, self._lead_h, self.degrees, self.excess
        weights = self.weights
        lead_new, h_new, base_new = leads[new_index][0], lead_h[new_index], degrees[new_index]
        mask_new, excess_new = self.support[new_index], excess[new_index]
        units, open_, slot = self._units, self._open, self._stairs.slot
        bit_new, partners = self._bit(new_index), 0
        for i, mask in enumerate(self.support[:new_index]):
            shared = mask & mask_new
            if not shared:
                continue  # coprime leads: the S-polynomial reduces to zero
            lead_i = leads[i][0]
            lcm, degree = lead_h[i] + h_new, degrees[i] + base_new
            while shared:
                v = (shared & -shared).bit_length() - 1
                shared &= shared - 1
                low = min(lead_i[v], lead_new[v])
                lcm -= low * units[v]
                degree -= low * weights[v]
            heapq.heappush(self.heap, (degree + max(excess[i], excess_new), lcm, i, new_index))
            open_[i] |= bit_new
            partners |= 1 << ((i + 1) * slot - 1)
        open_[new_index] |= partners

    def _load(self, work: dict, sugar: int | None = None) -> None:
        """Append a nonzero element, packed, as a divisor, queuing no pairs.
        Without a sugar, the lead's degree stands in for it."""
        lead_h = max(work)
        work = self._normalize(work, work[lead_h])
        lead = self._unpack(lead_h)
        self.elements.append({h: c for h, c in work.items() if h != lead_h})
        self.leads.append((lead, work[lead_h]))
        self.support.append(support_mask(lead))
        self.degrees.append(self._degree(lead))
        self.excess.append(0 if sugar is None else sugar - self.degrees[-1])
        self._open.append(self._bit(len(self.elements) - 1))
        self._stairs.add(lead_h)

    def _append(self, work: dict, sugar: int) -> None:
        self._load(work, sugar)
        self._push_pairs(len(self.elements) - 1)

    def add_generator(self, f: Polynomial) -> bool:
        """Add f's normal form to the basis; whether the basis grew."""
        if f.ring != self.ring:
            raise _ring_mismatch(f.ring, self.ring)
        if f.is_zero():
            return False
        reduced = self.reduce(self._to_internal(f))
        if reduced:
            self._append(reduced, max(self._degree(e) for e, _ in f.terms))
        return bool(reduced)

    def reduces_to_zero(self, f: Polynomial) -> bool:
        return not self.reduce(self._to_internal(f))

    def _spoly(self, i: int, j: int, lcm: int) -> dict:
        """The S-polynomial of elements i and j with packed lcm ``lcm``,
        packed; built again in wider fields while a term sets a guard bit."""
        c_i, c_j = self.leads[i][1], self.leads[j][1]
        lam = math.gcd(c_i, c_j)  # leads are 1 over F_p, so the multipliers are too
        mult_i, mult_j = c_j // lam, c_i // lam
        while True:
            # the leads cancel
            shift_i, shift_j = lcm - self._lead_h[i], lcm - self._lead_h[j]
            out = {shift_i + h: mult_i * c for h, c in self.elements[i].items()}
            for h, c in self.elements[j].items():
                target = shift_j + h
                out[target] = out.get(target, 0) - mult_j * c
            if not any(h & self.guard for h in out):
                break
            exp = self._unpack(lcm)
            self._set_width(2 * self.width)
            lcm = self._pack(exp)
        if self.p is not None:
            out = {h: c % self.p for h, c in out.items()}
        return {h: c for h, c in out.items() if c}

    def process_to(self, bound: int | None) -> None:
        """Handle all queued S-pairs with sugar <= bound (all of them when
        bound is None); a reduced S-polynomial keeps its pair's sugar.  The
        chain criterion drops the pair (i, j) when another lead k divides its
        lcm and neither (i, k) nor (j, k) is still queued."""
        while self.heap:
            sugar, lcm, i, j = self.heap[0]
            if bound is not None and sugar > bound:
                break
            heapq.heappop(self.heap)
            open_, stairs = self._open, self._stairs  # both reset by widening
            open_[i] ^= 1 << ((j + 1) * stairs.slot - 1)
            open_[j] ^= 1 << ((i + 1) * stairs.slot - 1)
            spared = open_[i] | open_[j]
            if (stairs.divisors(lcm) | spared) != spared:  # another divisor's pairs are treated
                continue
            reduced = self.reduce(self._spoly(i, j, lcm))
            if reduced:
                self._append(reduced, sugar)

    # -- extraction ----------------------------------------------------------------

    def reduced_elements(self, block: int = 0) -> list[Polynomial]:
        """Monic inter-reduced basis, sorted ascending by lead term; with
        ``block`` k, only its elements free of the first k variables.

        An element is kept when no other lead divides its lead, and its tail
        is reduced by the engine's own basis: that basis is a Groebner basis
        up to the processed degree, so the remainder is the tail's unique
        normal form whichever elements act.  Under an order eliminating the
        first k variables, only leads free of them divide a term free of
        them, so the block's elements never act on a kept tail."""
        order = sorted((i for i, (lead, _) in enumerate(self.leads) if not any(lead[:block])),
                       key=self._lead_h.__getitem__)
        field = self.ring.field
        final = []
        for idx in order:
            # `reduce` may widen the fields, which repacks the leads and bits
            if self._stairs.divisors(self._lead_h[idx]) != self._bit(idx):
                continue
            lead, coeff = self.leads[idx]
            reduced = self.reduce(self.elements[idx])
            up, down = self.last_scale
            work = {self._unpack(h): field.from_pair(v * down, coeff * up)
                    for h, v in reduced.items()}
            work[lead] = field.one()
            final.append(_from_dict(self.ring, work))
        return final


# ---------------------------------------------------------------------------
# degree sweep
# ---------------------------------------------------------------------------


def degree_sweep(ring: PolynomialRing, degrees, candidates, complete):
    """Keep, degree by degree, the homogeneous candidates that are new modulo
    the ideal of those kept before them.

    For each d in ``degrees``, S-pairs up to degree d are handled (on
    homogeneous candidates a pair's sugar is its lcm degree), and each of
    ``candidates(engine, d)`` is kept when its normal form is nonzero.  A
    kept candidate adds only pairs above degree d, since no earlier lead
    divides its lead.  Once something is kept, ``complete(engine, d, kept)``
    says after each degree whether nothing new exists above d, which stops
    the sweep.  Returns the kept candidates, unchanged and in order, and
    whether ``complete`` held.
    """
    engine = _IncrementalGroebner(ring)
    kept: list[Polynomial] = []
    for d in degrees:
        engine.process_to(d)
        for f in candidates(engine, d):
            if engine.add_generator(f):
                kept.append(f)
        if kept and complete(engine, d, kept):
            return kept, True
    return kept, False


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def buchberger(
    polys,
    order: TermOrder | None = None,
    truncation_degree: int | None = None,
    weights=None,
) -> GroebnerBasis:
    """Groebner basis of the given polynomials.

    With ``truncation_degree`` d (homogeneous input only), S-pairs above
    degree d are dropped; the result decides ideal membership up to degree d.
    ``weights``, one int >= 1 per variable, set the degree the sugar
    strategy orders pairs by; they change the work, not the basis, and
    cannot be combined with a truncation.
    """
    polys = [f for f in polys if not f.is_zero()]
    if not polys:
        raise ValueError("need at least one nonzero polynomial")
    ring = polys[0].ring
    weights = _check_weights(weights, ring.n)
    if truncation_degree is not None and any(w != 1 for w in weights):
        raise ValueError("a truncation degree needs unweighted sugar")
    for f in polys[1:]:
        if f.ring != ring:
            raise _ring_mismatch(f.ring, ring)
    if order is not None and order != ring.order:
        ring = ring.with_order(order)
        polys = [f.convert(ring) for f in polys]
    if truncation_degree is not None:
        for f in polys:
            if not f.is_homogeneous():
                raise InhomogeneousTruncation(
                    f"cannot truncate: {f} is not homogeneous"
                )
    engine = _IncrementalGroebner(ring, weights)
    for f in polys:
        engine.add_generator(f)
    engine.process_to(truncation_degree)
    elements = engine.reduced_elements()
    return GroebnerBasis(
        ring=ring,
        elements=tuple(elements),
        truncation_degree=truncation_degree,
        reduced=True,
    )


def elimination_ideal(polys, eliminate, weights=None) -> list[Polynomial]:
    """Generators of ideal(polys) intersected with the subring on the
    variables not named in ``eliminate``.

    The variables are reordered internally so the eliminated block leads an
    elimination order; results live in a ring on the remaining variables.
    Only the basis elements free of that block are inter-reduced.
    ``weights`` are `buchberger`'s, one per variable of the polys' ring.
    """
    polys = [f for f in polys if not f.is_zero()]
    if not polys:
        return []
    ring = polys[0].ring
    weights = _check_weights(weights, ring.n)
    eliminate = set(eliminate)
    unknown = eliminate - set(ring.names)
    if unknown:
        raise ValueError(f"not ring variables: {sorted(unknown)}")
    head = [name for name in ring.names if name in eliminate]
    tail = [name for name in ring.names if name not in eliminate]
    k = len(head)
    work_ring = PolynomialRing(
        ring.field, tuple(head + tail), TermOrder.elimination(k)
    )
    position = {name: i for i, name in enumerate(ring.names)}
    perm = [position[name] for name in head + tail]

    engine = _IncrementalGroebner(work_ring, [weights[i] for i in perm])
    for f in polys:
        engine.add_generator(work_ring.from_terms({tuple(e[i] for i in perm): c
                                                   for e, c in f.terms}))
    engine.process_to(None)
    target_ring = PolynomialRing(ring.field, tuple(tail), TermOrder.grevlex())
    return [target_ring.from_terms({e[k:]: c for e, c in g.terms})
            for g in engine.reduced_elements(k)]

"""Pure-Python kernels on packed monomials.

These functions are the hot loops of the Groebner engine: complete
reduction of a polynomial against a basis, and the S-polynomials and
monomial arithmetic of the pair loop.  They encode a monomial as one int
with a fixed-width field per ring slot, slot 0 in the lowest field, so a
monomial product is one int addition.  A "terms" value is a dict mapping
packed monomials to nonzero coefficients.  A field is field_bits(bound)
wide, the narrowest of 8, 16, 32 and 64 bits that holds bound, and
exponent_reader unpacks a monomial with int.to_bytes and memoryview.cast
(Monagan & Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007).

The kernel (normal_form, s_polynomial, mono_lcm) works in a
Packing: a field width, a slot count and one of the two orders the engine
uses, grevlex with slot 0 the highest-ranked variable, or grevlex after the
eliminated slot 0, whose exponent decides first.  The order is one additive
int key: the fields of (packed * ones) & mask are the partial exponent sums
of slots 0, 0..1, 0..2 and so on, which order exactly as grevlex does; the
elimination key puts slot 0's exponent above the grevlex key of the other
slots.  The packed monomial itself sits below the key, so a key determines
its monomial (key & low), and heaps push bare ints: the descending key is
-key.

A Packing keeps every exponent and every partial sum below half its field,
the headroom.  Divisibility is then (a - b) & guards == 0, with one guard
bit at the top of each field, and an lcm is a field-wise max by the same
borrow-free subtraction.  Taking a key checks the monomial with one AND
against the headroom mask, and every monomial is keyed before anything
multiplies it again: normal_form keys its input and each monomial a
reduction creates, the engine keys each lcm.  Each is a product or lcm of
two that fit, so no field can carry past the bit that the check reads.
One that does not fit raises HeadroomExceeded, and the caller runs the
computation again at twice the width.

normal_form takes each generator's lead coefficient from the generator
itself, and its coefficient contract has two cases.  Against generators
whose lead coefficient is 1, such as the monic Fraction bases the engine
stores, any exact coefficients reduce as in the textbook division.  Against
int generators, such as the primitive bases Buchberger builds, p must have
int coefficients too, and a step by a generator whose lead coefficient a is
not 1 first scales the whole remainder by a/gcd(lc, a).  So no Fraction
arises and the result is a nonzero int multiple of the normal form
(Becker & Weispfenning, "Groebner Bases", 1993); the caller divides out
its content (primitive).  Quotients are recorded only against generators
of lead coefficient 1: a rescaled remainder would no longer satisfy
p = sum(q_i * g_i) + r, so normal_form refuses any other.

normal_form keeps the terms still to be reduced in a dict plus a binary
heap of negated keys, so each step pops the largest remaining monomial
instead of scanning for it, skips heap entries whose monomial has
cancelled, and pushes only the monomials a reduction newly creates.  Given
a list of quotient dicts, it also records the cofactor of every step, so
the same loop is the textbook division algorithm (Cox, Little & O'Shea,
"Ideals, Varieties, and Algorithms", section 2.3).  Its result comes in
descending order, lead first, and so does primitive's of it: the engine
takes each lead as the first term, with no scan.

mul_terms, mono_div and mono_cmp have no caller in the package; they stay
because the benchmark harness binds them.
"""

import sys
from bisect import bisect_right
from heapq import heapify, heappop, heappush
from itertools import repeat
from math import gcd, lcm
from operator import add, mul

# memoryview.cast formats of the packed field widths
_FIELD_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}


class HeadroomExceeded(ArithmeticError):
    """A monomial outgrew the headroom of its packing's fields."""


class Packing:
    """Packed monomials of `slots` fields of `bits` each, and their order key:
    grevlex, or with eliminate grevlex after slot 0.

    key(m) is (grade << slots*bits) | m, where grade holds the partial sums
    of the grevlex slots, the largest in the top field, and with eliminate
    slot 0's exponent above them.  It raises HeadroomExceeded when a guarded
    field of the grade reaches half its width."""

    __slots__ = ("bits", "field", "guards", "ones", "low", "top", "key")

    def __init__(self, bits: int, slots: int, eliminate: bool):
        n = max(slots, 1)  # the ring with no variable has one empty slot
        width = n * bits
        half = 1 << (bits - 1)
        self.bits = bits
        self.field = (1 << bits) - 1
        self.ones = sum(1 << (i * bits) for i in range(n))
        self.guards = self.ones * half
        self.low = (1 << width) - 1
        self.top = (n - 1) * bits
        guard = half << (width + self.top)  # of the top field of the grade
        if not eliminate:
            mult = (self.ones << width) | 1
            mask = (self.low << width) | self.low

            def key(m):
                k = m * mult & mask
                if k & guard:
                    raise HeadroomExceeded
                return k

        else:
            field = self.field
            rest = width - bits  # the grevlex slots 1..n-1
            mult = (self.ones >> bits) << width
            mask = ((1 << rest) - 1) << width
            shift = width + rest
            # slot 0's field and the top grevlex field below it
            headroom = guard | (guard >> bits if n > 1 else 0)

            def key(m):
                k = ((m >> bits) * mult & mask) | (m & field) << shift | m
                if k & headroom:
                    raise HeadroomExceeded
                return k

        self.key = key


def mono_div(a, b, packing):
    """a / b as a packed monomial, or None when b does not divide a."""
    q = a - b
    return None if q & packing.guards else q


def mono_lcm(a, b, packing):
    # a guard bit survives in each field where a's exponent is at least b's
    ge = ((a | packing.guards) - b) & packing.guards
    take_a = (ge >> (packing.bits - 1)) * packing.field
    return b ^ ((a ^ b) & take_a)


def mono_deg(a, packing):
    return (a * packing.ones >> packing.top) & packing.field


def mono_cmp(a, b, packing):
    ka = packing.key(a)
    kb = packing.key(b)
    return (ka > kb) - (ka < kb)


def mul_terms(a, b, mask, cap):
    """a * b on packed monomials, keeping only the products whose t field
    (monomial & mask) is at most cap.  b is sorted by its t field, so each
    term of a pairs with the prefix of b that fits under the cap: a dropped
    product is never formed."""
    monos = sorted(b, key=mask.__and__)
    coeffs = [b[m] for m in monos]
    ts = [m & mask for m in monos]
    out = {}
    get = out.get
    for ma, ca in a.items():
        n = bisect_right(ts, cap - (ma & mask))
        for m, c in zip(map(add, repeat(ma, n), monos), map(mul, repeat(ca, n), coeffs)):
            out[m] = get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def field_bits(bound):
    """Width of one packed field: the narrowest of 8, 16, 32 and 64 bits
    that holds every exponent from 0 to bound."""
    for bits in (8, 16, 32, 64):
        if bound >> bits == 0:
            return bits
    raise OverflowError(f"exponent bound {bound} does not fit a 64-bit field")


def exponent_reader(bits, slots):
    """Function from a packed monomial of `slots` fields of `bits` each to
    the sequence of its exponents, slot 0 first, read by int.to_bytes and
    memoryview.cast without a per-slot loop."""
    nbytes = bits // 8 * slots
    fmt = _FIELD_FORMATS[bits]
    if sys.byteorder == "little":
        return lambda mono: memoryview(mono.to_bytes(nbytes, "little")).cast(fmt)
    # big-endian fields come out last slot first
    return lambda mono: memoryview(mono.to_bytes(nbytes, "big")).cast(fmt)[::-1]


def primitive(terms):
    """terms as a primitive int polynomial: scaled by the one rational that
    clears every denominator, leaves coprime coefficients and makes the
    first term positive.  On a normal form, whose terms come in descending
    order, the first term is the lead term."""
    coeffs = terms.values()
    den = lcm(*[c.denominator for c in coeffs])
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    content = gcd(*nums)
    if nums[0] < 0:
        content = -content
    return dict(zip(terms, [n // content for n in nums]))


def s_polynomial(qa, a, lca, qb, b, lcb):
    """The S-polynomial of the int polynomials a and b, whose lead
    coefficients are lca and lcb, with x^qa*lead(a) = x^qb*lead(b):
    lcb/d*x^qa*a - lca/d*x^qb*b for d = gcd(lca, lcb), whose lead terms
    cancel and which has no denominator."""
    d = gcd(lca, lcb)
    ka, kb = lcb // d, lca // d
    out = {qa + m: ka * c for m, c in a.items()}
    for m, c in b.items():
        m += qb
        v = out.get(m)
        if v is None:
            out[m] = -kb * c
        else:
            v -= kb * c
            if v:
                out[m] = v
            else:
                del out[m]
    return out


def normal_form(p, gens, leads, packing, quotients=None):
    """Complete reduction of p modulo the list gens.

    leads are the generators' precomputed lead monomials.  Each step takes
    the largest remaining monomial off a heap and reduces it by the first
    generator whose lead divides it, or moves it to the tail.  Every term of
    the result is divisible by no lead monomial, so for a Groebner basis
    this is the unique normal form up to a nonzero scalar, and exactly it
    when every lead coefficient is 1; its terms come in descending order.
    A generator whose lead coefficient is not 1 must have int coefficients,
    and so must p: the step by it scales the remainder and the tail by
    a/gcd(lc, a) first (see the module docstring).

    quotients, when given, is a list of dicts parallel to gens, whose lead
    coefficients must then all be 1 (ValueError otherwise).  A step that
    reduces the term lc*x^lm by gens[i] stores lc at x^(lm - leads[i]) in
    quotients[i], so that p = sum(quotients[i] * gens[i]) + result.
    """
    key, guards, low = packing.key, packing.guards, packing.low
    if quotients is None:
        cofactors = repeat(None)
    elif any(g[lead] != 1 for g, lead in zip(gens, leads)):
        raise ValueError("division with quotients needs lead coefficients 1")
    else:
        cofactors = quotients
    work = dict(p)
    heap = [-key(m) for m in work]
    heapify(heap)
    tail = {}
    while heap:
        lm = -heappop(heap) & low
        lc = work.get(lm)
        if lc is None:  # cancelled since it was pushed
            continue
        for lead, g, cofactor in zip(leads, gens, cofactors):
            q = lm - lead
            if not q & guards:
                if cofactor is not None:
                    # lm falls from step to step, so q is new to cofactor
                    cofactor[q] = lc
                a = g[lead]
                if a != 1:
                    # scale so that a divides lc, then subtract (lc/a)*x^q*g
                    d = gcd(lc, a)
                    scale = a // d
                    if scale != 1:
                        for m in work:
                            work[m] *= scale
                        for m in tail:
                            tail[m] *= scale
                    lc //= d
                # the lead term cancels lm itself; the rest are smaller
                for mg, cg in g.items():
                    m = q + mg
                    v = work.get(m)
                    if v is None:
                        work[m] = -lc * cg
                        heappush(heap, -key(m))
                    else:
                        v = v - lc * cg
                        if v:
                            work[m] = v
                        else:
                            del work[m]
                break
        else:
            tail[lm] = lc
            del work[lm]
    return tail

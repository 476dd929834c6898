"""Pure-Python kernels on packed monomials.

These functions are the hot loops of the whole package: truncated series
products, and complete reduction of a polynomial against a basis.  Both
encode a monomial as one int with a fixed-width field per ring slot, slot 0
in the lowest field, so a monomial product is one int addition.  A "terms"
value is a dict mapping packed monomials to nonzero coefficients.  A field
is field_bits(bound) wide, the narrowest of 8, 16, 32 and 64 bits that
holds bound, and exponent_reader unpacks a monomial with int.to_bytes and
memoryview.cast (Monagan & Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007).

The series product mul_terms keeps the power of t in the lowest field and
takes its width from an exponent no field of any product can exceed, so no
field ever carries; its coefficients may be ints.

The Groebner kernel (normal_form, s_polynomial, mono_lcm) works in a
Packing: a field width, a slot count and one of the two orders the engine
uses, grevlex with slot 0 the highest-ranked variable, or grevlex after the
eliminated slot 0, whose exponent decides first.  The order is one additive
int key: the fields of (packed * ones) & mask are the partial exponent sums
of slots 0, 0..1, 0..2 and so on, which order exactly as grevlex does; the
elimination key puts slot 0's exponent above the grevlex key of the other
slots.  The packed monomial itself sits below the key, so a key determines
its monomial (key & low), and heaps push bare ints: the descending key is
-key.  mono_cmp is the 3-way comparison of two keys.

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

normal_form reduces against monic generators.  It keeps the terms still to
be reduced in a dict plus a binary heap of negated keys, so each step pops
the largest remaining monomial instead of scanning for it, skips heap
entries whose monomial has cancelled, and pushes only the monomials a
reduction newly creates.  Given a list of quotient dicts, it also records
the cofactor of every step, so the same loop is the textbook division
algorithm (Cox, Little & O'Shea, "Ideals, Varieties, and Algorithms",
section 2.3).
"""

import sys
from bisect import bisect_right
from heapq import heapify, heappop, heappush
from itertools import repeat
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


def lead_term(terms, packing):
    """(monomial, coefficient) of the order-largest term, (None, None) if empty."""
    best = None
    coeff = None
    for m, c in terms.items():
        if best is None or mono_cmp(m, best, packing) > 0:
            best = m
            coeff = c
    return best, coeff


def add_scaled(a, b, c):
    """a + c*b in canonical form (no zero coefficients).  c must be nonzero."""
    out = dict(a)
    for m, cb in b.items():
        v = out.get(m)
        if v is None:
            out[m] = c * cb
        else:
            v = v + c * cb
            if v:
                out[m] = v
            else:
                del out[m]
    return out


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


def s_polynomial(qa, a, qb, b):
    """x^qa*a - x^qb*b for monic a and b: both shifted, then subtracted,
    with no coefficient product."""
    out = {qa + m: c for m, c in a.items()}
    for mb, cb in b.items():
        m = qb + mb
        v = out.get(m)
        if v is None:
            out[m] = -cb
        else:
            v = v - cb
            if v:
                out[m] = v
            else:
                del out[m]
    return out


def normal_form(p, gens, leads, packing, quotients=None):
    """Complete reduction of p modulo the list gens.

    gens must be monic; leads are their precomputed lead monomials.  Each
    step takes the largest remaining monomial off a heap and reduces it by
    the first generator whose lead divides it, or moves it to the tail.
    Every term of the result is divisible by no lead monomial, so for a
    Groebner basis this is the unique normal form; its terms come in
    descending order.

    quotients, when given, is a list of dicts parallel to gens.  A step that
    reduces the term lc*x^lm by gens[i] stores lc at x^(lm - leads[i]) in
    quotients[i], so that p = sum(quotients[i] * gens[i]) + result.
    """
    key, guards, low = packing.key, packing.guards, packing.low
    cofactors = repeat(None) if quotients is None else quotients
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

"""Pure-Python dense-term kernels.

These functions are the hot loops of the whole package: truncated series
products and complete reduction of a polynomial against a basis.  A "terms"
value is a dict mapping dense exponent tuples (one slot per ring variable,
the variable list is fixed by the caller) to nonzero Fraction coefficients.
Slot 0 holds the highest-ranked variable.  The monomial loops run through
C-level builtins (map with operator.add/sub/ge, max), and a yes/no
divisibility test is all(map(ge, a, b)), which builds no quotient.

The series product mul_terms works on packed monomials instead: one int
per monomial with a fixed-width field per ring slot, the power of t in the
lowest field, so a monomial product is one int addition, and its
coefficients may be ints.  A field is field_bits(bound) wide, the narrowest
of 8, 16, 32 and 64 bits that holds bound, where bound is an exponent no
field of any product can exceed; the series expansion uses max(m, deg f *
the largest exponent in a series coefficient).  No field then carries into
the next, and exponent_reader unpacks a monomial with int.to_bytes and
memoryview.cast.

Callers reach these functions through ``jetfibers.kernel.impl``.  The one
order implementation lives here: mono_cmp is the reference comparison, and
dense_order_key (ascending) and descending_order_key build sort keys that
order exponent tuples exactly as it does; the tests check that.

normal_form reduces against monic generators.  It keeps the terms still to
be reduced in a dict plus a binary heap on the descending key, so each step
pops the largest remaining monomial instead of scanning for it, skips heap
entries whose monomial has cancelled, and pushes only the monomials a
reduction newly creates (heap division, after Monagan & Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007).  Given a list of quotient dicts, it also records the
cofactor of every step, so the same loop is the textbook division algorithm
(Cox, Little & O'Shea, "Ideals, Varieties, and Algorithms", section 2.3).

Monomial orders are encoded as (kind, split):

* kind 0: graded reverse lexicographic,
* kind 1: lexicographic,
* kind 2: block elimination order, grevlex on slots [0, split) then
  grevlex on slots [split, n).
"""

import sys
from bisect import bisect_right
from heapq import heapify, heappop, heappush
from itertools import repeat
from operator import add, ge, mul, neg, sub

GREVLEX = 0
LEX = 1
BLOCK = 2

# memoryview.cast formats of the packed field widths
_FIELD_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_div(a, b):
    """a / b as an exponent tuple, or None when b does not divide a."""
    if all(map(ge, a, b)):
        return tuple(map(sub, a, b))
    return None


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_deg(a):
    return sum(a)


def _grevlex_cmp(a, b, lo, hi):
    da = 0
    db = 0
    for i in range(lo, hi):
        da += a[i]
        db += b[i]
    if da != db:
        return 1 if da > db else -1
    # ties: the rightmost slot where they differ, smaller exponent wins
    for i in range(hi - 1, lo - 1, -1):
        if a[i] != b[i]:
            return 1 if a[i] < b[i] else -1
    return 0


def mono_cmp(a, b, kind, split):
    if kind == LEX:
        for i in range(len(a)):
            if a[i] != b[i]:
                return 1 if a[i] > b[i] else -1
        return 0
    if kind == GREVLEX:
        return _grevlex_cmp(a, b, 0, len(a))
    c = _grevlex_cmp(a, b, 0, split)
    if c:
        return c
    return _grevlex_cmp(a, b, split, len(a))


def dense_order_key(kind, split):
    """Key function on dense exponent tuples that sorts exactly as
    mono_cmp(a, b, kind, split): a ranks above b iff key(a) > key(b)."""
    if kind == LEX:
        return _lex_key
    if kind == GREVLEX:
        return _grevlex_key

    def block_key(a):
        return _grevlex_key(a[:split]) + _grevlex_key(a[split:])

    return block_key


def descending_order_key(kind, split):
    """Key function on dense exponent tuples that sorts opposite to
    mono_cmp(a, b, kind, split): a ranks above b iff key(a) < key(b), so a
    min-heap on it pops the largest monomial first."""
    if kind == LEX:
        return _lex_descending_key
    if kind == GREVLEX:
        return _grevlex_descending_key

    def block_key(a):
        return _grevlex_descending_key(a[:split]) + _grevlex_descending_key(a[split:])

    return block_key


def _lex_key(a):
    return a


def _grevlex_key(a):
    # higher degree first; on a tie the rightmost differing slot decides,
    # the smaller exponent ranking higher
    return (sum(a), tuple(map(neg, reversed(a))))


def _lex_descending_key(a):
    return tuple(map(neg, a))


def _grevlex_descending_key(a):
    # the negation of _grevlex_key
    return (-sum(a), a[::-1])


def lead_term(terms, kind, split):
    """(monomial, coefficient) of the order-largest term, (None, None) if empty."""
    best = None
    coeff = None
    for m, c in terms.items():
        if best is None or mono_cmp(m, best, kind, split) > 0:
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
    out = {tuple(map(add, qa, m)): c for m, c in a.items()}
    for mb, cb in b.items():
        m = tuple(map(add, qb, mb))
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


def normal_form(p, gens, leads, kind, split, quotients=None):
    """Complete reduction of p modulo the list gens.

    gens must be monic; leads are their precomputed lead monomials under
    (kind, split).  Each step takes the largest remaining monomial off a
    heap and reduces it by the first generator whose lead divides it, or
    moves it to the tail.  Every term of the result is divisible by no lead
    monomial, so for a Groebner basis this is the unique normal form; its
    terms come in descending order.

    quotients, when given, is a list of dicts parallel to gens.  A step that
    reduces the term lc*x^lm by gens[i] stores lc at x^(lm - leads[i]) in
    quotients[i], so that p = sum(quotients[i] * gens[i]) + result.
    """
    key = descending_order_key(kind, split)
    cofactors = repeat(None) if quotients is None else quotients
    work = dict(p)
    heap = [(key(m), m) for m in work]
    heapify(heap)
    tail = {}
    while heap:
        lm = heappop(heap)[1]
        lc = work.get(lm)
        if lc is None:  # cancelled since it was pushed
            continue
        for lead, g, cofactor in zip(leads, gens, cofactors):
            if all(map(ge, lm, lead)):
                q = tuple(map(sub, lm, lead))
                if cofactor is not None:
                    # lm falls from step to step, so q is new to cofactor
                    cofactor[q] = lc
                # the lead term cancels lm itself; the rest are smaller
                for mg, cg in g.items():
                    m = tuple(map(add, q, mg))
                    v = work.get(m)
                    if v is None:
                        work[m] = -lc * cg
                        heappush(heap, (key(m), m))
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

"""Pure-Python dense-term kernels.

These functions are the hot loops of the whole package: truncated series
products and complete reduction of a polynomial against a basis.  A "terms"
value is a dict mapping dense exponent tuples (one slot per ring variable,
the variable list is fixed by the caller) to nonzero Fraction coefficients.
Slot 0 holds the highest-ranked variable.

Callers reach these functions through ``jetfibers.kernel.impl``.  mono_cmp is
the reference comparison: ``groebner.dense_order_key`` builds sort keys that
must order exponent tuples exactly as it does, and the tests check that.

Monomial orders are encoded as (kind, split):

* kind 0: graded reverse lexicographic,
* kind 1: lexicographic,
* kind 2: block elimination order, grevlex on slots [0, split) then
  grevlex on slots [split, n).
"""

GREVLEX = 0
LEX = 1
BLOCK = 2


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a, b):
    """a / b as an exponent tuple, or None when b does not divide a."""
    out = []
    for x, y in zip(a, b):
        d = x - y
        if d < 0:
            return None
        out.append(d)
    return tuple(out)


def mono_lcm(a, b):
    return tuple(x if x >= y else y for x, y in zip(a, b))


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


def mul_terms(a, b, cap_index=-1, cap=0):
    """a * b.  With cap_index >= 0, product monomials whose exponent in that
    slot exceeds cap are dropped before they are ever built (eager series
    truncation)."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            if cap_index >= 0 and ma[cap_index] + mb[cap_index] > cap:
                continue
            m = tuple(x + y for x, y in zip(ma, mb))
            v = out.get(m)
            if v is None:
                out[m] = ca * cb
            else:
                v = v + ca * cb
                if v:
                    out[m] = v
                else:
                    del out[m]
    return out


def term_mul(coeff, mono, g):
    """coeff * x^mono * g for nonzero coeff; g stays canonical."""
    out = {}
    for m, c in g.items():
        out[mono_mul(mono, m)] = coeff * c
    return out


def normal_form(p, gens, leads, lcs, kind, split):
    """Complete reduction of p modulo the list gens.

    leads/lcs are the precomputed lead monomials and lead coefficients of
    gens under (kind, split).  Every term of the result is divisible by no
    lead monomial, so for a Groebner basis this is the unique normal form.
    """
    work = dict(p)
    tail = {}
    ngens = len(gens)
    while work:
        lm, lc = lead_term(work, kind, split)
        reduced = False
        for i in range(ngens):
            q = mono_div(lm, leads[i])
            if q is not None:
                s = lc / lcs[i]
                for mg, cg in gens[i].items():
                    key = mono_mul(q, mg)
                    v = work.get(key)
                    if v is None:
                        nv = -s * cg
                        if nv:
                            work[key] = nv
                    else:
                        nv = v - s * cg
                        if nv:
                            work[key] = nv
                        else:
                            del work[key]
                reduced = True
                break
        if not reduced:
            tail[lm] = lc
            del work[lm]
    return tail

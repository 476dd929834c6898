import math
import random
import threading
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import example, given, reject, strategies as st

from jetfibers.groebner import (
    BUDGET_EXHAUSTED,
    Budget,
    BudgetExhausted,
    GREVLEX_ORDER,
    Ideal,
    VERIFIED,
    _Ring,
    _codes,
    _make_ring,
    buchberger,
    elimination_order,
    ideal_intersect_elim,
    krull_dim,
    linear_presolve,
    member,
    merge_reports,
    radical_member,
    restrict_to_residual,
    saturate,
    session,
)
from jetfibers import groebner as engine
from jetfibers.cli import main
from jetfibers.kernel import impl as _K
from jetfibers.poly import Polynomial, mono_from_pairs, parse_polynomial, var_code
from references import monomial_ideal_intersect, plain_presolve

W0 = var_code("w", 0)


def P(text: str) -> Polynomial:
    return parse_polynomial(text)


def ideal(*texts, **kw) -> Ideal:
    return Ideal([P(t) for t in texts], **kw)


# ---------------------------------------------------------------------------
# monomial orders: the reference on exponent tuples
#
# An exponent tuple has slot 0 for the highest-ranked variable.  split 0 is
# grevlex; split 1 is the elimination order of slot 0, grevlex on slot 0 and
# then grevlex on the rest.  The kernel's packed key must order exactly so.


def _grevlex_cmp(a, b, lo, hi):
    da = sum(a[lo:hi])
    db = sum(b[lo:hi])
    if da != db:
        return 1 if da > db else -1
    # ties: the rightmost slot where they differ, smaller exponent wins
    for i in range(hi - 1, lo - 1, -1):
        if a[i] != b[i]:
            return 1 if a[i] < b[i] else -1
    return 0


def _reference_cmp(a, b, split):
    return _grevlex_cmp(a, b, 0, split) or _grevlex_cmp(a, b, split, len(a))


def _grevlex_key(a):
    # higher degree first; on a tie the rightmost differing slot decides,
    # the smaller exponent ranking higher
    return (sum(a), tuple(-e for e in reversed(a)))


def dense_order_key(split):
    """Key on exponent tuples that sorts exactly as _reference_cmp."""
    return lambda a: _grevlex_key(a[:split]) + _grevlex_key(a[split:])


def _pack(exps, bits=8) -> int:
    return sum(e << (i * bits) for i, e in enumerate(exps))


def _fits(exps, split, bits=8) -> bool:
    """Whether the tuple keeps the headroom: every guarded sum of its key
    (the total degree; with split 1 the first exponent and the rest's
    degree) stays below half a field."""
    half = 1 << (bits - 1)
    return sum(exps[:split]) < half and sum(exps[split:]) < half


def _cmp(order, a, b) -> int:
    """Compare sparse monomials the way the engine does: pack them in the
    ring of their variables, then compare the packed keys."""
    polys = [Polynomial({m: Fraction(1)}) for m in (a, b)]
    ring = _make_ring(polys, order)
    (pa,), (pb,) = (ring.pack(p) for p in polys)
    return _K.mono_cmp(pa, pb, ring.packing)


def _lead_mono(p: Polynomial):
    """The grevlex lead monomial of p by the tuple reference."""
    codes = sorted(p.variables(), reverse=True)
    return max(
        (mono for mono, _ in p.items()),
        key=lambda mono: dense_order_key(0)(tuple(dict(mono).get(c, 0) for c in codes)),
    )


def test_grevlex_degree_first():
    a = mono_from_pairs([(var_code("x", 0), 1)])
    b = mono_from_pairs([(var_code("z", 0), 2)])
    assert _cmp(GREVLEX_ORDER, b, a) > 0
    # equal degree: the higher-ranked variable wins
    assert _cmp(GREVLEX_ORDER, a, mono_from_pairs([(var_code("z", 0), 1)])) > 0


def test_block_order_eliminates_first():
    order = elimination_order(W0)
    carrying = mono_from_pairs([(W0, 1)])
    heavy = mono_from_pairs([(var_code("x", 0), 9), (var_code("y", 3), 9)])
    # any monomial containing the eliminated variable outranks any without
    assert _cmp(order, carrying, heavy) > 0
    assert _cmp(order, heavy, carrying) < 0
    assert _cmp(order, carrying, carrying) == 0


def test_only_a_top_auxiliary_slot_is_eliminated():
    with pytest.raises(ValueError):
        elimination_order(var_code("x", 0))
    # w0 ranks below w1, so it cannot sit in slot 0 of a ring holding both
    with pytest.raises(ValueError):
        _Ring({W0, var_code("w", 1)}, elimination_order(W0), 8)


_SAMPLE_MONOS = [
    mono_from_pairs(pairs)
    for pairs in (
        [],
        [(var_code("x", 1), 1)],
        [(var_code("y", 0), 2)],
        [(var_code("x", 0), 1), (var_code("z", 2), 1)],
        [(var_code("w", 1), 1), (var_code("z", 0), 3)],
    )
]
_SAMPLE_ORDERS = (GREVLEX_ORDER, elimination_order(var_code("w", 1)))


def test_order_antisymmetry_on_samples():
    for order in _SAMPLE_ORDERS:
        for a in _SAMPLE_MONOS:
            for b in _SAMPLE_MONOS:
                assert _cmp(order, a, b) == -_cmp(order, b, a)


def test_order_ignores_unused_ring_variables():
    # the reference monomial_ideal_intersect packs over the union of all
    # variables; slots that are zero in both monomials must not change a
    # comparison
    codes = {c for m in _SAMPLE_MONOS for c, _ in m}
    for order in _SAMPLE_ORDERS:
        ring = _Ring(codes, order, 8)
        key = {m: ring.packing.key(*ring.pack(Polynomial({m: Fraction(1)}))) for m in _SAMPLE_MONOS}
        for a in _SAMPLE_MONOS:
            for b in _SAMPLE_MONOS:
                wide = (key[a] > key[b]) - (key[a] < key[b])
                assert wide == _cmp(order, a, b)


@st.composite
def _monos_and_split(draw):
    width = draw(st.integers(1, 5))
    split = draw(st.integers(0, 1))
    mono = st.tuples(*[st.integers(0, 2)] * width)
    monos = draw(st.lists(mono, max_size=12))
    # repeat a prefix so equal monomials always occur
    return monos + monos[: draw(st.integers(0, len(monos)))], split


@given(_monos_and_split())
def test_dense_order_key_sorts_as_mono_cmp(case):
    # the tuple reference against the kernel's comparison of packed keys
    monos, split = case
    width = len(monos[0]) if monos else 1
    packing = _K.Packing(8, width, bool(split))
    by_cmp = sorted(
        monos, key=cmp_to_key(lambda a, b: _K.mono_cmp(_pack(a), _pack(b), packing))
    )
    assert sorted(monos, key=dense_order_key(split)) == by_cmp
    assert sorted(monos, key=cmp_to_key(lambda a, b: _reference_cmp(a, b, split))) == by_cmp
    # the heap key of normal_form, -key, pops the largest monomial first
    assert sorted(monos, key=lambda a: -packing.key(_pack(a))) == by_cmp[::-1]


@st.composite
def _exponents_to_the_limit(draw, bits, width, split):
    """An exponent tuple whose guarded sums each take any value up to the
    last one that keeps the headroom."""
    half = 1 << (bits - 1)
    out = []
    for size in (split, width - split):
        if size:
            total = draw(st.integers(0, half - 1))
            cuts = sorted(draw(st.lists(st.integers(0, total), min_size=size - 1, max_size=size - 1)))
            out += [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return tuple(out)


@st.composite
def _packed_pair(draw):
    bits = draw(st.sampled_from([8, 16]))
    width = draw(st.integers(1, 5))
    split = draw(st.integers(0, 1))
    exps = _exponents_to_the_limit(bits, width, split)
    return bits, split, draw(exps), draw(exps)


@given(_packed_pair())
@example((8, 0, (127, 0), (0, 0)))  # at the limit
@example((8, 0, (64, 0), (0, 64)))  # a product one past it
@example((8, 1, (127, 127, 0), (0, 0, 0)))
@example((8, 1, (0, 100, 0), (0, 0, 28)))
@example((8, 1, (64, 0), (64, 0)))
@example((16, 0, (32767,), (1,)))
def test_packed_key_is_additive_within_the_headroom(case):
    bits, split, a, b = case
    packing = _K.Packing(bits, len(a), bool(split))
    key = packing.key
    pa, pb = _pack(a, bits), _pack(b, bits)
    assert (key(pa) > key(pb)) - (key(pa) < key(pb)) == _reference_cmp(a, b, split)
    assert key(pa) & packing.low == pa
    # divisibility, lcm and degree against the tuple reference
    divides = all(x >= y for x, y in zip(a, b))
    assert _K.mono_div(pa, pb, packing) == (pa - pb if divides else None)
    assert _K.mono_lcm(pa, pb, packing) == _pack(map(max, a, b), bits)
    assert _K.mono_deg(pa, packing) == sum(a)
    product = tuple(map(sum, zip(a, b)))
    assert pa + pb == _pack(product, bits)
    if _fits(product, split, bits):
        assert key(pa + pb) == key(pa) + key(pb)
    else:
        with pytest.raises(_K.HeadroomExceeded):
            key(pa + pb)


def _lead_term(terms, packing):
    """(monomial, coefficient) of the term with the largest packed key."""
    lm = max(terms, key=packing.key)
    return lm, terms[lm]


def _add_scaled(a, b, c):
    """a + c*b on packed terms, dropping what cancels."""
    out = dict(a)
    for m, cb in b.items():
        v = out.get(m, 0) + c * cb
        if v:
            out[m] = v
        else:
            del out[m]
    return out


def _linear_scan_normal_form(p, gens, leads, lcs, packing):
    """Reference reduction, the kernel's before its heap: rescan for the lead
    term at every step and divide by the generator's lead coefficient."""
    work = dict(p)
    tail = {}
    ngens = len(gens)
    while work:
        lm, lc = _lead_term(work, packing)
        reduced = False
        for i in range(ngens):
            q = _K.mono_div(lm, leads[i], packing)
            if q is not None:
                s = lc / lcs[i]
                for mg, cg in gens[i].items():
                    key = q + mg
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


def _small_ring(width: int, eliminate: bool) -> _Ring:
    """A ring of width variables at 8-bit fields; with eliminate, slot 0
    holds w0 under its elimination order."""
    codes = [var_code("x", k) for k in range(width - eliminate)] + [W0] * eliminate
    return _Ring(codes, elimination_order(W0) if eliminate else GREVLEX_ORDER, 8)


@st.composite
def _reduction_case(draw):
    width = draw(st.integers(1, 4))
    ring = _small_ring(width, draw(st.booleans()))
    packing = ring.packing
    mono = st.tuples(*[st.integers(0, 3)] * width).map(_pack)
    coeff = st.integers(-3, 3).filter(bool).map(Fraction)

    def terms(max_size):
        return draw(st.dictionaries(mono, coeff, min_size=1, max_size=max_size))

    gens, leads = [], []
    for _ in range(draw(st.integers(0, 3))):
        g = terms(4)
        lm, lc = _lead_term(g, packing)
        gens.append({m: c / lc for m, c in g.items()})  # monic
        leads.append(lm)
    return terms(8), gens, leads, ring


# x^2 -> x*y - y^2 cancels the y^2 of p; then x*y -> y - y^2 creates y^2
# again after its heap entry went stale
_X2, _XY, _Y2, _Y, _ONE_MONO = map(_pack, [(2, 0), (1, 1), (0, 2), (0, 1), (0, 0)])
_RECREATED = (
    {_X2: Fraction(1), _Y2: Fraction(1), _ONE_MONO: Fraction(5)},
    [
        {_X2: Fraction(1), _XY: Fraction(-1), _Y2: Fraction(1)},
        {_XY: Fraction(1), _Y2: Fraction(1), _Y: Fraction(-1)},
    ],
    [_X2, _XY],
)


@given(_reduction_case())
@example(_RECREATED + (_small_ring(2, False),))
@example(_RECREATED + (_small_ring(2, True),))
def test_heap_normal_form_matches_linear_scan(case):
    p, gens, leads, ring = case
    packing = ring.packing
    tail = _K.normal_form(p, gens, leads, packing)
    expected = _linear_scan_normal_form(p, gens, leads, [Fraction(1)] * len(gens), packing)
    assert tail == expected
    by_cmp = cmp_to_key(lambda a, b: _K.mono_cmp(a, b, packing))
    assert list(tail) == list(expected) == sorted(tail, key=by_cmp, reverse=True)


def _term_mul(coeff, mono, g):
    """coeff * x^mono * g on packed terms."""
    return {mono + m: coeff * c for m, c in g.items()}


def _reference_division(p, gens, leads, packing):
    """Reference division with cofactors, the engine's before the kernel kept
    them: rescan for the lead term and rebuild the work dict at every step."""
    work = dict(p)
    tail: dict = {}
    quotients: list[dict] = [dict() for _ in gens]
    while work:
        lm, lc = _lead_term(work, packing)
        for i, lead in enumerate(leads):
            q = _K.mono_div(lm, lead, packing)
            if q is not None:
                quotients[i] = _add_scaled(quotients[i], {q: lc}, Fraction(1))
                work = _add_scaled(work, _term_mul(lc, q, gens[i]), Fraction(-1))
                break
        else:
            tail[lm] = lc
            work = dict(work)
            del work[lm]
    return quotients, tail


def _packed_groebner(gens, ring):
    """The reduced basis of the ideal of gens in the ring's order, as monic
    packed terms over the same slots, with its leads.  Inputs whose basis
    takes more than a few S-pairs are skipped, to keep the test fast."""
    try:
        with session(Budget(max_spairs=40)):
            basis = buchberger(Ideal([ring.unpack(g) for g in gens]), ring.order)
    except BudgetExhausted:
        reject()
    packed = [ring.pack(g) for g in basis.polys]
    return packed, [_lead_term(g, ring.packing)[0] for g in packed]


@given(_reduction_case(), st.booleans())
@example(_RECREATED + (_small_ring(2, False),), False)
def test_kernel_division_matches_reference(case, groebner):
    p, gens, leads, ring = case
    packing = ring.packing
    if groebner and gens:
        gens, leads = _packed_groebner(gens, ring)
    quotients = [{} for _ in gens]
    tail = _K.normal_form(p, gens, leads, packing, quotients)
    assert (quotients, tail) == _reference_division(p, gens, leads, packing)
    assert tail == _K.normal_form(p, gens, leads, packing)
    # p = sum q_i g_i + r, exactly
    total = dict(tail)
    for q, g in zip(quotients, gens):
        for mono, c in q.items():
            total = _add_scaled(total, _term_mul(c, mono, g), Fraction(1))
    assert total == p


def test_division_with_quotients_refuses_a_lead_coefficient_other_than_one():
    packing = _small_ring(2, False).packing
    p = {_XY: 3, _ONE_MONO: 1}
    gens, leads = [{_X2: Fraction(1)}, {_XY: 2, _Y: 1}], [_X2, _XY]
    with pytest.raises(ValueError):
        _K.normal_form(p, gens, leads, packing, [{}, {}])
    # without quotients the step scales the remainder: 2*(3xy + 1 - 3/2*(2xy + y))
    assert _K.normal_form(p, gens, leads, packing) == {_Y: -3, _ONE_MONO: 2}


@pytest.mark.parametrize("quotients", [None, [{}]])
@pytest.mark.parametrize(
    "g", [{_Y: Fraction(1), _Y2: Fraction(-1)}, {_Y: Fraction(1), _X2: Fraction(1)}],
    ids=["y-y^2", "y+x^2"],
)
def test_a_lead_that_is_not_the_largest_term_raises(g, quotients):
    # y declared the lead of y - y^2 would rewrite y to y^2, y^2 to y^3 and
    # so on; each step must lower the monomial it reduces, so the first
    # step that raises it stops the call
    packing = _small_ring(2, False).packing
    with pytest.raises(ValueError, match="not its largest term"):
        _K.normal_form({_Y: Fraction(1)}, [g], [_Y], packing, quotients)


def _descending(terms, packing) -> dict:
    """terms in descending order, lead first."""
    return dict(sorted(terms.items(), key=lambda t: packing.key(t[0]), reverse=True))


def _is_primitive(terms) -> bool:
    coeffs = list(terms.values())
    return all(type(c) is int for c in coeffs) and math.gcd(*coeffs) == 1 and coeffs[0] > 0


@st.composite
def _rational_case(draw):
    """A small ideal and a polynomial over a ring of _small_ring, with
    coefficients n/d for d up to 4, at least one of them not an integer."""
    width = draw(st.integers(1, 3))
    ring = _small_ring(width, draw(st.booleans()))
    mono = st.tuples(*[st.integers(0, 3)] * width).map(_pack)
    coeff = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 4))
    gens = draw(st.lists(st.dictionaries(mono, coeff, min_size=1, max_size=4), min_size=1, max_size=3))
    if all(c.denominator == 1 for g in gens for c in g.values()):
        reject()
    return gens, draw(st.dictionaries(mono, coeff, min_size=1, max_size=8)), ring


def _assert_primitive_reduction_is_a_multiple(p, monic, packing):
    """normal_form of p against the primitive forms of the monic list, made
    primitive, is a nonzero multiple of its normal form against the list."""
    leads = [next(iter(g)) for g in monic]
    primitive = [_K.primitive(g) for g in monic]
    assert all(_is_primitive(g) and list(g) == list(m) for g, m in zip(primitive, monic))
    expected = _K.normal_form(p, monic, leads, packing)
    tail = _K.normal_form(_K.primitive(p), primitive, leads, packing)
    assert list(tail) == list(expected)
    if tail:
        tail = _K.primitive(tail)
        assert _is_primitive(tail)
        ratios = {expected[m] / c for m, c in tail.items()}
        assert len(ratios) == 1 and 0 not in ratios


@given(_rational_case())
def test_primitive_int_reduction_is_a_multiple_of_the_monic_one(case):
    gens, p, ring = case
    packing = ring.packing
    # the engine's reduced basis: monic, with exact Fraction coefficients
    try:
        with session(Budget(max_spairs=40)):
            gb = buchberger(Ideal([ring.unpack(g) for g in gens]), ring.order)
    except BudgetExhausted:
        reject()
    assert all(type(c) is Fraction for g in gb._basis for c in g.values())
    assert all(g[lead] == 1 for g, lead in zip(gb._basis, gb._leads))
    # each stored lead is its element's first term and its largest by the key
    key = gb._ring.packing.key
    assert all(
        lead == next(iter(g)) == max(g, key=key) for g, lead in zip(gb._basis, gb._leads)
    )
    basis = [_descending(ring.pack(g), packing) for g in gb.polys]
    # leads other than 1 take the scaling path, on the basis and on the
    # drawn generators alike
    monic = [_descending(g, packing) for g in gens]
    monic = [{m: c / next(iter(g.values())) for m, c in g.items()} for g in monic]
    _assert_primitive_reduction_is_a_multiple(p, basis, packing)
    _assert_primitive_reduction_is_a_multiple(p, monic, packing)
    # scaling each generator to lead coefficient 1 changes neither the basis
    # nor the pairs it took
    again = buchberger(Ideal([ring.unpack(g) for g in monic]), ring.order)
    assert (again.polys, again.spairs_processed) == (gb.polys, gb.spairs_processed)


def test_reduce_with_quotients_in_a_wider_ring():
    gb = buchberger(ideal("x0^2 + y0", "x0*y0 + 1"))
    p = P("x0^3*z0 + x0*y0 + z0^2 + 5")  # z0 is not a variable of the basis
    quotients = []
    r = gb.reduce(p, quotients)
    assert r == gb.reduce(p) and r
    assert sum((q * g for q, g in zip(quotients, gb.polys)), r) == p


def _recording_widths(monkeypatch) -> list:
    """The field widths that a computation outgrows, as it outgrows them."""
    widths = []
    wider = _Ring.wider

    def recorded(ring):
        widths.append(ring.bits)
        return wider(ring)

    monkeypatch.setattr(_Ring, "wider", recorded)
    return widths


def test_outgrowing_the_field_width_repacks_with_the_same_answer(monkeypatch):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.orderings import ProductOrder, grevlex

    # inputs of degree 65 get 8-bit fields, whose headroom ends at degree
    # 127; the basis holds (x0^64 + z0)*y0^64, of degree 128
    gens = [P("w0*x0^64 + w0*z0"), P("y0^64 - w0*y0^64")]
    order = elimination_order(W0)
    widths = _recording_widths(monkeypatch)
    gb = buchberger(Ideal(gens), order)
    assert widths == [8]
    # the same pairs as a run that starts at the wider width
    wide = _basis_at_width(monkeypatch, 16, gens, order)
    assert (gb.polys, gb.spairs_processed) == (wide.polys, wide.spairs_processed)

    symbols = sympy.symbols("w0 x0 y0 z0")
    theirs = sympy.groebner(
        [sympy.sympify(str(g).replace("^", "**")) for g in gens],
        *symbols,
        order=ProductOrder((grevlex, lambda m: m[:1]), (grevlex, lambda m: m[1:])),
        domain=sympy.QQ,
    )
    ours = [
        sympy.Poly(sympy.sympify(str(g).replace("^", "**")), *symbols, domain=sympy.QQ)
        for g in gb.polys
    ]
    assert ours == list(theirs.polys)


def _basis_at_width(monkeypatch, bits, gens, order):
    """The basis of a run that starts at the given field width."""
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_make_ring", lambda polys, order: _Ring(_codes(polys), order, bits))
        return buchberger(Ideal(gens), order)


def test_a_run_begun_again_wider_is_charged_once(monkeypatch):
    # the 8-bit run pops 29 pairs before a basis element outgrows its
    # fields; the session is charged only the 66 of the 16-bit run
    gens = [P("w0^22*x0^13*y0^13*z0^18 - z0"), P("w0^13*x0^23*y0^14*z0^16 - y0*z0")]
    widths = _recording_widths(monkeypatch)
    with session(Budget(max_spairs=66)):
        assert Ideal(gens).groebner().spairs_processed == 66
        with pytest.raises(BudgetExhausted) as exc:
            ideal("x0", "y0").groebner()  # its one pair is over the bound
    assert widths == [8]
    assert exc.value.spairs == 1


def test_reduce_and_monomial_meet_repack_past_the_headroom(monkeypatch):
    gens = ideal("x0^2 + y0", "x0*y0 + 1").generators
    wide = _basis_at_width(monkeypatch, 16, gens, GREVLEX_ORDER)
    widths = _recording_widths(monkeypatch)
    gb = buchberger(Ideal(gens))  # 8-bit fields
    quotients = []
    p = P("x0^130*y0 + z0^200")
    r = gb.reduce(p, quotients)
    assert sum((q * g for q, g in zip(quotients, gb.polys)), r) == p
    assert r == wide.reduce(p) == P("-1 + z0^200")
    meet = monomial_ideal_intersect([ideal("x0^64"), ideal("y0^64")])
    assert [str(g) for g in meet.generators] == ["x0^64*y0^64"]
    assert widths == [8, 8]


# ---------------------------------------------------------------------------
# buchberger


def test_basis_already_reduced():
    gb = buchberger(ideal("x0", "y0"))
    assert [str(g) for g in gb.polys] == ["x0", "y0"]


def test_basis_one_reduction():
    gb = buchberger(ideal("x0*y0 - z0^2", "x0"))
    assert {str(g) for g in gb.polys} == {"x0", "z0^2"}


def test_basis_linear_chain():
    gb = buchberger(ideal("x0 - y0", "y0 - z0"))
    assert {str(g) for g in gb.polys} == {"x0 - z0", "y0 - z0"}


def test_unit_ideal():
    gb = buchberger(ideal("x0", "x0 - 1"))
    assert gb.is_unit


def _spoly(f, g):
    # independent textbook S-polynomial for the post-hoc check
    lf, lg = _lead_mono(f), _lead_mono(g)
    ef, eg = dict(lf), dict(lg)
    lcm = {c: max(ef.get(c, 0), eg.get(c, 0)) for c in set(ef) | set(eg)}
    cf = dict(f.items())[lf]
    cg = dict(g.items())[lg]
    mf = Polynomial.from_terms([([(c, e - ef.get(c, 0)) for c, e in lcm.items()], 1)])
    mg = Polynomial.from_terms([([(c, e - eg.get(c, 0)) for c, e in lcm.items()], 1)])
    return mf * f * (Fraction(1) / cf) - mg * g * (Fraction(1) / cg)


FIXTURES = [
    ("x0*y0 - z0^2", "x0"),
    ("x0 - y0", "y0 - z0"),
    ("x0^2 + y0", "x0*y0 + 1", "y0^2 - z0"),
    ("x1*y1 - z1^3", "x1^2 - z2"),
]


@pytest.mark.parametrize("gens", FIXTURES)
def test_spolynomials_reduce_to_zero(gens):
    gb = buchberger(Ideal([P(t) for t in gens]))
    for a in gb.polys:
        for b in gb.polys:
            if a is not b:
                assert not gb.reduce(_spoly(a, b))


@pytest.mark.parametrize("gens", FIXTURES)
def test_reduced_basis_invariants(gens):
    gb = buchberger(Ideal([P(t) for t in gens]))
    leads = [_lead_mono(g) for g in gb.polys]
    for i, g in enumerate(gb.polys):
        assert dict(g.items())[leads[i]] == 1  # monic
        for j, lead in enumerate(leads):
            if i == j:
                continue
            for mono, _ in g.items():
                lead_exps = dict(lead)
                assert not all(
                    dict(mono).get(c, 0) >= e for c, e in lead_exps.items()
                ), "a foreign lead divides a stored term"


def test_determinism_byte_identical():
    runs = []
    for _ in range(2):
        gb = buchberger(ideal("x0^2 + y0", "x0*y0 + 1", "y0^2 - z0"))
        runs.append([str(g) for g in gb.polys])
    assert runs[0] == runs[1]


_QUADRICS = ("x0^2 + y0", "x0*y0 + 1", "y0^2 - z0")
_CUBICS = ("x0^3 - y0*z0", "y0^2 - x0*z0", "z0^2 - x0^2*y0")
# the elimination inputs of _QUADRICS : z0^inf and of _QUADRICS ^ _CUBICS
_SATURATING = _QUADRICS + ("1 - w0*z0",)
_MEETING = tuple(str(P("w0") * P(q)) for q in _QUADRICS) + tuple(
    str(P("1 - w0") * P(c)) for c in _CUBICS
)
_PINNED_SELECTION = [
    (_QUADRICS, GREVLEX_ORDER, 4, 21),
    (_CUBICS, GREVLEX_ORDER, 3, 3),
    (_SATURATING, elimination_order(W0), 5, 45),
    (_MEETING, elimination_order(W0), 6, 465),
]


@pytest.mark.parametrize("gens, order, size, spairs", _PINNED_SELECTION)
def test_pair_selection_pinned(gens, order, size, spairs):
    # spairs_processed counts every popped pair, pruned ones too, so it moves
    # whenever the selection order or a criterion changes
    gb = buchberger(Ideal([P(t) for t in gens]), order)
    assert (len(gb), gb.spairs_processed) == (size, spairs)


def test_budget_exhaustion_raises():
    with session(Budget(max_spairs=1, max_seconds=300)):
        with pytest.raises(BudgetExhausted):
            buchberger(ideal("x0^2 + y0", "x0*y0 + 1", "y0^2 - z0"))


def test_budget_surfaces_in_reports():
    with session(Budget(max_spairs=1, max_seconds=300)):
        rep = member(P("z0"), ideal("x0^2 + y0", "x0*y0 + 1", "y0^2 - z0"))
    assert rep.outcome == BUDGET_EXHAUSTED


def _counting_normal_form(monkeypatch) -> list:
    calls = []
    original = _K.normal_form

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(_K, "normal_form", counted)
    return calls


# "shared bases": the bases an engine session shares between its queries


def test_shared_bases_serves_repeats_without_reducing(monkeypatch):
    calls = _counting_normal_form(monkeypatch)
    with session():
        first = ideal(*_QUADRICS).groebner()
        computed = len(calls)
        again = ideal(*_QUADRICS).groebner()  # a fresh Ideal, equal generators
        assert again is first
        assert len(calls) == computed > 0
        other = ideal(*_QUADRICS).groebner(elimination_order(W0))  # the order is in the key
        assert other is not first and len(calls) > computed


def test_shared_bases_memo_gone_after_block(monkeypatch):
    with session():
        inside = ideal(*_QUADRICS).groebner()
    calls = _counting_normal_form(monkeypatch)
    after = ideal(*_QUADRICS).groebner()
    assert after is not inside and after.polys == inside.polys
    assert calls
    # outside a session nothing is kept, not even on the Ideal itself
    cached = ideal(*_QUADRICS)
    assert cached.groebner() is not cached.groebner()


def test_shared_bases_nested_scopes_share_one_memo(monkeypatch):
    with session():
        with session():
            inner = ideal(*_QUADRICS).groebner()
        # leaving the inner block keeps the outer memo
        calls = _counting_normal_form(monkeypatch)
        assert ideal(*_QUADRICS).groebner() is inner
        with session():
            assert ideal(*_QUADRICS).groebner() is inner
        assert not calls


def test_shared_bases_memo_is_not_seen_by_other_threads():
    seen = []
    with session():
        mine = ideal(*_QUADRICS).groebner()
        worker = threading.Thread(target=lambda: seen.append(ideal(*_QUADRICS).groebner()))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
    assert len(seen) == 1 and seen[0] is not mine and seen[0].polys == mine.polys


def test_shared_bases_never_stores_exhausted_runs(monkeypatch):
    calls = _counting_normal_form(monkeypatch)
    with session(Budget(max_spairs=3)):
        for _ in range(2):
            calls.clear()
            with pytest.raises(BudgetExhausted):
                ideal(*_QUADRICS).groebner()
            assert calls  # computed again, not served


def test_nested_session_cannot_set_a_budget():
    for outer in (None, Budget(max_spairs=5)):
        with session(outer):
            with pytest.raises(ValueError):
                with session(Budget(max_spairs=5)):
                    pass
            with session():  # joining without a budget is fine
                pass


def test_session_budget_bounds_every_basis():
    order = elimination_order(W0)
    assert buchberger(ideal(*_SATURATING), order).spairs_processed == 45
    with session(Budget(max_spairs=44)):
        with pytest.raises(BudgetExhausted) as exc:
            ideal(*_SATURATING).groebner(order)
    assert exc.value.spairs == 45
    with session(Budget(max_spairs=45)):
        assert ideal(*_SATURATING).groebner(order).spairs_processed == 45


def test_session_budget_bounds_the_bases_together():
    # _QUADRICS pops 21 pairs and _CUBICS 3: each fits 23, both do not, and
    # a basis served again from the memo pops nothing
    with session(Budget(max_spairs=24)):
        first = ideal(*_QUADRICS).groebner()
        assert ideal(*_QUADRICS).groebner() is first
        assert ideal(*_CUBICS).groebner().spairs_processed == 3
    with session(Budget(max_spairs=23)):
        assert ideal(*_QUADRICS).groebner().spairs_processed == 21
        with pytest.raises(BudgetExhausted) as exc:
            ideal(*_CUBICS).groebner()
        assert exc.value.spairs == 3
        # the exhausted run was charged its 3 pairs: the next one stops at
        # its first pop
        with pytest.raises(BudgetExhausted) as exc:
            ideal(*_CUBICS).groebner()
        assert exc.value.spairs == 1
    with session(Budget(max_spairs=23)):
        assert ideal(*_CUBICS).groebner().spairs_processed == 3


# ---------------------------------------------------------------------------
# normal forms and membership


def test_normal_form_of_member_is_zero():
    gb = buchberger(ideal("x0 - y0", "y0 - z0"))
    assert not gb.reduce(P("x0 - y0"))


def test_normal_form_idempotent():
    gb = buchberger(ideal("x0^2 + y0", "x0*y0 + 1"))
    r = gb.reduce(P("x0^3 + x0*y0 + y0^2 + 5"))
    assert gb.reduce(r) == r


def test_normal_form_of_one_vs_monomial_ideal():
    gb = buchberger(ideal("x0^2", "y0*z0"))
    assert gb.reduce(Polynomial.one()) == Polynomial.one()


def test_member_verified_and_refuted():
    assert member(P("x0"), ideal("y0")).outcome == "refuted"
    i0 = ideal("x0", "y0", "z0")
    assert member(P("x0^2 - y0^2*z0 + z0^3"), i0).verified


def test_member_cofactor_certificate():
    # the presolve leaves x0^2 - y0*z0 in the residual, so p is decided by a
    # division, whose quotients the certificate lists
    p, i = P("x0^3 - x0*y0*z0"), ideal("x0^2 - y0*z0")
    rep = member(p, i)
    assert rep.verified and _plain_member(p, i)
    assert rep.certificate["cofactors"] == {"x0^2 - y0*z0": "x0"}


_MEMBERS = (P("x0^2 - y0*z0"), P("x0^3 - x0*y0*z0"), P("y0^4"))


def _grouped_indices(cert) -> list[int]:
    """Every generator index a grouped containment certificate lists."""
    return (
        cert["restricts_to_zero"]
        + [k for k, _ in cert["generator"]]
        + [k for k, _ in cert["decided"]]
        + [k for k, *_ in cert.get("failed", ())]
    )


def test_generators_in_groups_each_generator_by_how_it_was_decided():
    # z1 is a coordinate of B, so x1*z1 restricts to zero on its presolve
    gens = (P("y0^3"), P("x0^2 - y0*z0"), P("x0^3 - x0*y0*z0"), P("x1*z1"))
    i = ideal("x0^2 - y0*z0", "y0^3", "z1", label="B")
    rep = engine.generators_in("A subset B", gens, i)
    assert (rep.claim, rep.outcome) == ("A subset B", VERIFIED)
    # only the decided generator builds a basis, and its S-pairs are the sum's
    assert rep.spairs_processed == sum(member(g, i).spairs_processed for g in gens) > 0
    cert = rep.certificate
    assert cert["kind"] == "generators" and "failed" not in cert
    assert cert["restricts_to_zero"] == [3]
    assert cert["generator"] == [[0, 1], [1, 0]]
    assert [k for k, _ in cert["decided"]] == [2]
    assert cert["decided"][0][1]["kind"] == "normal-form"
    assert sorted(_grouped_indices(cert)) == list(range(len(gens)))


@pytest.mark.parametrize("k", range(len(_MEMBERS)))
def test_generators_in_refutes_only_the_swapped_generator(k):
    gens = list(_MEMBERS)
    gens[k] = P("z0")  # not in the ideal, nor in its radical
    rep = engine.generators_in("A subset B", gens, ideal("x0^2 - y0*z0", "y0^3", label="B"))
    assert (rep.claim, rep.outcome) == ("A subset B", engine.REFUTED)
    cert = rep.certificate
    (failed,) = cert["failed"]
    assert failed[:2] == [k, engine.REFUTED]
    assert failed[2]["kind"] == "normal-form" and failed[2]["remainder"] == "z0"
    # every other generator is still decided, once, in its own group
    assert sorted(_grouped_indices(cert)) == list(range(len(gens)))


def test_generators_in_wording_under_radical():
    i = ideal("x0^2 - y0*z0", "y0^3", label="B")
    rep = engine.generators_in("A subset sqrt B", (P("x0"), P("y0")), i, radical=True)
    assert (rep.claim, rep.outcome) == ("A subset sqrt B", VERIFIED)
    assert [k for k, _ in rep.certificate["decided"]] == [0, 1]
    # y0 lies in the radical but not in the ideal
    rep = engine.generators_in("A subset I", (P("y0"),), i)
    assert (rep.claim, rep.outcome) == ("A subset I", engine.REFUTED)
    assert [k for k, *_ in rep.certificate["failed"]] == [0]


def test_generators_in_budget_exhausted_names_the_generator():
    # generator #0 is the ideal's own and generator #1 restricts to zero,
    # so neither needs a basis; generator #2 does, and the budget allows no
    # S-pair, so the claim is undecided, not refuted
    i = ideal("x0^2 - y0*z0", "x0*y0 - z0^2", "x1", label="B")
    gens = (P("x0^2 - y0*z0"), P("x1"), P("x0^3 - x0*y0*z0"))
    with session(Budget(max_spairs=0)):
        rep = engine.generators_in("A subset B", gens, i)
    assert (rep.claim, rep.outcome) == ("A subset B", BUDGET_EXHAUSTED)
    cert = rep.certificate
    assert cert["generator"] == [[0, 0]] and cert["restricts_to_zero"] == [1]
    (failed,) = cert["failed"]
    assert failed[:2] == [2, BUDGET_EXHAUSTED] and failed[2]["kind"] == "budget"


def test_radical_member_examples():
    assert radical_member(P("x2"), ideal("x2^2")).verified
    assert radical_member(P("x0"), ideal("y0")).outcome == "refuted"


def test_member_implies_radical_member():
    fixtures = [
        (P("x0 - z0"), ideal("x0 - y0", "y0 - z0")),
        (P("x0*y0"), ideal("x0")),
        (P("z1^2"), ideal("z1^2", "x0")),
    ]
    for p, i in fixtures:
        if member(p, i).verified:
            assert radical_member(p, i).verified


def test_refutation_carries_witness():
    rep = member(P("x0"), ideal("y0"))
    assert rep.certificate["remainder"] == "x0"


# ---------------------------------------------------------------------------
# the radical split on monomial generators

_TRIVIAL = {"kind": "radical-trick", "trivial": True}


def _plain_member(p: Polynomial, i: Ideal) -> bool:
    """p in i by the normal form against a basis of i alone, with no presolve."""
    return not i.groebner().reduce(p)


def _plain_trick(p: Polynomial, i: Ideal) -> bool:
    """p in sqrt(i) by the radical trick alone, with no presolve or split."""
    w = Polynomial.variable(W0)
    return Ideal(i.generators + (Polynomial.one() - w * p,)).groebner().is_unit


def _outcome(ok: bool) -> str:
    return VERIFIED if ok else engine.REFUTED


def _sympy_trick(p: Polynomial, i: Ideal) -> bool:
    """The same test by sympy's groebner, an independent implementation."""
    sympy = pytest.importorskip("sympy")
    codes = sorted(_codes(i.generators + (p, Polynomial.variable(W0))), reverse=True)
    symbols = {c: sympy.Symbol(f"v{c}") for c in codes}

    def expr(q: Polynomial):
        return sum(
            (
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(symbols[v] ** e for v, e in mono))
                for mono, c in q.items()
            ),
            sympy.Integer(0),
        )

    trick = 1 - symbols[W0] * expr(p)
    basis = sympy.groebner(
        [expr(g) for g in i.generators] + [trick],
        *symbols.values(), order="grevlex", domain=sympy.QQ,
    )
    return list(basis.exprs) == [1]


_SPLIT_CODES = [var_code("x", 0), var_code("y", 0), var_code("z", 0), var_code("x", 1)]
_monomials = st.builds(
    lambda c, pairs: Polynomial.from_terms([(pairs, c)]),
    st.sampled_from([-3, -1, 1, 2]),
    st.lists(st.tuples(st.sampled_from(_SPLIT_CODES), st.integers(1, 3)), min_size=1, max_size=3),
)
_split_polys = st.lists(
    st.tuples(
        st.lists(st.tuples(st.sampled_from(_SPLIT_CODES), st.integers(1, 2)), max_size=2),
        st.integers(-2, 2),
    ),
    min_size=1,
    max_size=3,
).map(Polynomial.from_terms)


@given(
    st.lists(_monomials, min_size=1, max_size=2),
    st.lists(_split_polys, max_size=2),
    st.one_of(_monomials, _split_polys),
    st.data(),
)
@example([P("x0*y0")], [], P("x0"), None)  # refuted on the branch y0 = 0 only
@example([P("-2*z0^3")], [P("x0^2 - z0*y0")], P("x0"), None)
def test_split_agrees_with_the_plain_trick_and_sympy(monomials, others, p, data):
    gens = monomials + others
    if data is not None:
        gens = data.draw(st.permutations(gens))
    i = Ideal(gens)
    plain = _plain_trick(p, i)
    assert _sympy_trick(p, i) == plain
    rep = radical_member(p, i)
    assert rep.outcome == _outcome(plain)
    if not plain:
        # a refutation ends at its last branch, a radical-trick leaf that
        # carries its witness
        cert = rep.certificate
        while cert["kind"] == "split":
            cert = list(cert["branches"].values())[-1]
        assert cert["witness"] == "normal form of 1 is 1"


def test_split_reduces_a_power_to_its_variable():
    # sqrt(I + (c*x^e)) = sqrt(I + (x)): one branch, and x0 restricts to zero
    i = ideal("-3*x0^4", "y0^2 - x0*z0")
    rep = radical_member(P("x0"), i)
    assert rep.verified and rep.spairs_processed == 0
    assert rep.certificate == {"kind": "split", "branches": {"x0": _TRIVIAL}}
    # on x0 = 0 the second generator becomes the monomial y0^2: a second split
    rep = radical_member(P("y0"), i)
    assert rep.verified and rep.spairs_processed == 0
    assert rep.certificate == {
        "kind": "split",
        "branches": {"x0": {"kind": "split", "branches": {"y0": _TRIVIAL}}},
    }
    # z0 is free on the leaf, whose residual is empty: the trick refutes it
    rep = radical_member(P("z0"), i)
    assert rep.outcome == engine.REFUTED
    assert rep.certificate["branches"]["x0"]["branches"]["y0"] == {
        "kind": "radical-trick", "aux": "w0", "witness": "normal form of 1 is 1",
        "basis_size": 1,
    }


def test_split_on_a_constant_generator_is_the_unit_ideal(monkeypatch):
    calls = []
    monkeypatch.setattr(engine, "buchberger", lambda *args, **kwargs: calls.append(args))
    # a literal constant, and one the presolve makes: x0 = 1 turns
    # x0*y0 - y0 + 2 into 2
    for i in (Ideal([Polynomial.constant(3), P("x0*y0 + z0")]), ideal("x0 - 1", "x0*y0 - y0 + 2")):
        rep = radical_member(P("z0"), i)
        assert rep.verified and rep.spairs_processed == 0
        assert rep.certificate == {"kind": "split", "branches": {}}
    assert calls == []


def _counting_presolve(monkeypatch) -> list:
    calls = []
    monkeypatch.setattr(
        engine, "linear_presolve", lambda i: calls.append(i.generators) or linear_presolve(i)
    )
    return calls


def test_split_refuted_in_one_branch_returns_at_once(monkeypatch):
    # (x0*y0): x0 restricts to zero on x0 = 0 and is free on y0 = 0
    rep = radical_member(P("x0"), ideal("x0*y0"))
    assert rep.outcome == engine.REFUTED
    assert rep.certificate["branches"]["x0"] == _TRIVIAL
    assert rep.certificate["branches"]["y0"]["witness"] == "normal form of 1 is 1"
    # a refuted first branch ends the query: the later branches are never
    # presolved
    presolves = _counting_presolve(monkeypatch)
    i = ideal("x0*y0*z0")
    rep = radical_member(P("y0*z0 + x0^2"), i)
    assert rep.outcome == engine.REFUTED
    assert list(rep.certificate["branches"]) == ["x0"]
    assert len(presolves) == 2  # the ideal's own presolve and its first branch's


_SPLIT_GENS = ("x1 - z0", "x1*z0 - y0^2", "x0^2*y0")


def test_split_branches_are_presolved_once_per_session(monkeypatch):
    # the residual of the presolve splits on its first monomial generator,
    # one branch per variable; every query builds the branches afresh, and
    # a second query that walks them, on a fresh Ideal with the same
    # generators, is served every presolve from the session memo
    residual = ideal(*_SPLIT_GENS).presolved().residual
    branches = residual.split()
    ((mono, _),) = P("x0^2*y0").items()
    assert [code for code, _ in branches] == [code for code, _ in mono]
    assert [b.generators[-1] for _, b in branches] == [P("x0"), P("y0")]
    assert ideal("x0*y0 + z0").split() is None
    calls = _counting_presolve(monkeypatch)
    with session():
        first = radical_member(P("x0*z0"), ideal(*_SPLIT_GENS))
        # the ideal, its two branches and the y0 branch's own z0 branch
        assert len(calls) == len(set(calls)) == 4
        again = radical_member(P("x0*z0"), ideal(*_SPLIT_GENS))
        assert len(calls) == 4
        assert again.verified and again.certificate == first.certificate
        for q in ("x0*y0", "x0", "z0"):  # subtrees of the same branches
            radical_member(P(q), ideal(*_SPLIT_GENS))
        assert len(calls) == 4


def test_presolve_memo_lives_as_long_as_the_outermost_session(monkeypatch):
    calls = _counting_presolve(monkeypatch)
    for _ in range(2):
        with session():
            with session():
                radical_member(P("x0*z0"), ideal(*_SPLIT_GENS))
            # leaving the inner block keeps the memo
            radical_member(P("x0*z0"), ideal(*_SPLIT_GENS))
    # the second outermost session presolves everything again
    assert len(calls) == 8 and calls[:4] == calls[4:]
    # outside a session nothing is kept
    radical_member(P("x0*z0"), ideal(*_SPLIT_GENS))
    radical_member(P("x0*z0"), ideal(*_SPLIT_GENS))
    assert len(calls) == 16


def test_merge_reports_worst_outcome():
    good = member(P("x0"), ideal("x0"))
    bad = member(P("x0"), ideal("y0"))
    merged = merge_reports("both", [good, bad])
    assert merged.outcome == "refuted"
    assert len(merged.certificate["subchecks"]) == 2


# ---------------------------------------------------------------------------
# intersections


def test_monomial_intersection_basic():
    meet = monomial_ideal_intersect([ideal("x0"), ideal("y0")])
    assert [str(g) for g in meet.generators] == ["x0*y0"]


def _ladder_ideal(p, q, r):
    from jetfibers.an import Ladder

    return Ladder(p, q, r).ideal()


def test_monomial_intersection_of_ladders():
    meet = monomial_ideal_intersect([_ladder_ideal(2, 4, 2), _ladder_ideal(3, 3, 2)])
    got = {str(g) for g in meet.generators}
    assert got == {"x0", "x1", "y0", "y1", "y2", "z0", "z1", "x2*y3"}


def test_monomial_intersection_idempotent():
    i = ideal("x0*y0", "z1^2")
    meet = monomial_ideal_intersect([i, i])
    assert {str(g) for g in meet.generators} == {"x0*y0", "z1^2"}


def test_monomial_intersection_rejects_polynomials():
    with pytest.raises(ValueError):
        monomial_ideal_intersect([ideal("x0 + y0")])


def _random_monomial_ideal(rng, codes):
    gens = []
    for _ in range(rng.randint(1, 3)):
        pairs = [
            (code, rng.randint(1, 2))
            for code in rng.sample(codes, rng.randint(1, 2))
        ]
        gens.append(Polynomial.from_terms([(pairs, 1)]))
    return Ideal(gens)


def test_elimination_intersection_matches_monomial_path():
    rng = random.Random(7)
    codes = [var_code("x", 0), var_code("y", 0), var_code("z", 1)]
    for _ in range(40):
        a = _random_monomial_ideal(rng, codes)
        b = _random_monomial_ideal(rng, codes)
        gb_mono = buchberger(monomial_ideal_intersect([a, b]))
        gb_elim = buchberger(ideal_intersect_elim(a, b))
        assert gb_mono.polys == gb_elim.polys


def test_monomial_intersection_generator_order_pinned():
    # generators come out minimal and in descending grevlex order
    meet = monomial_ideal_intersect([_ladder_ideal(2, 4, 2), _ladder_ideal(3, 3, 2)])
    assert [str(g) for g in meet.generators] == [
        "x2*y3", "x1", "x0", "y2", "y1", "y0", "z1", "z0"
    ]
    meet = monomial_ideal_intersect(
        [
            ideal("x0^2", "y0*z1", "z0^3"),
            ideal("x0*y0", "z1^2", "y0^2"),
            ideal("x0", "z0*z1"),
        ]
    )
    assert [str(g) for g in meet.generators] == [
        "x0*y0*z0^3",
        "z0^3*z1^2",
        "x0^2*z1^2",
        "y0^2*z0*z1",
        "y0*z0*z1^2",
        "x0^2*y0",
        "x0*y0*z1",
    ]


def test_elimination_intersection_with_unit():
    i = ideal("x0*y0 - z0^2", "x1")
    meet = ideal_intersect_elim(i, Ideal([Polynomial.one()]))
    assert [str(g) for g in buchberger(meet).polys] == [
        str(g) for g in buchberger(i).polys
    ]


def test_elimination_intersection_principal():
    meet = ideal_intersect_elim(ideal("x0"), ideal("x0 + y0"))
    assert [str(g) for g in buchberger(meet).polys] == ["x0^2 + x0*y0"]


# ---------------------------------------------------------------------------
# saturation


def test_saturate_factors_out_variable():
    sat = saturate(ideal("x0*y1"), P("y1"))
    assert [str(g) for g in sat.generators] == ["x0"]


def test_saturate_to_unit():
    sat = saturate(ideal("y1"), P("y1"))
    assert [str(g) for g in sat.generators] == ["1"]


def test_saturate_keeps_transverse_part():
    sat = saturate(ideal("x0", "y0^2*y1"), P("y1"))
    gb = buchberger(sat)
    assert {str(g) for g in gb.polys} == {"x0", "y0^2"}


# ---------------------------------------------------------------------------
# presolve


def test_presolve_eliminates_ladder():
    presolved = linear_presolve(ideal("x0", "y0", "z0", "x1*y1 - z0"))
    assert [str(g) for g in presolved.residual.generators] == ["x1*y1"]
    assert len(presolved.eliminated) == 3


def test_presolve_solves_a_general_linear_generator():
    # the pivot is the highest variable code, x0, and its image is y0
    presolved = linear_presolve(ideal("x0 - y0", "x0*z0 + y0^2"))
    assert presolved.eliminated == {var_code("x", 0): P("y0")}
    assert [str(g) for g in presolved.residual.generators] == ["y0^2 + y0*z0"]


def test_presolve_back_substitutes_later_pivots():
    # y1 -> z1 first; y1 + z1 then becomes 2*z1, so z1 -> 0, and y1's image
    # must follow it to 0, or restricting y1 would leave z1 behind
    presolved = linear_presolve(ideal("y1 - z1", "y1 + z1", "x2*y1 + z1^2 + x3^2"))
    assert presolved.eliminated == {var_code("y", 1): P("0"), var_code("z", 1): P("0")}
    assert [str(g) for g in presolved.residual.generators] == ["x3^2"]
    assert presolved.restrict(P("y1 + x2*z1 + x3")) == P("x3")


def test_presolve_images_mention_no_pivot():
    presolved = linear_presolve(ideal("x0 - y0 - z0", "y0 - 2*z1", "z1 - z0", "x1^2 - x0*y0"))
    pivots = set(presolved.eliminated)
    assert pivots == {var_code("x", 0), var_code("y", 0), var_code("z", 1)}
    for image in presolved.eliminated.values():
        assert not image.variables() & pivots
    assert presolved.restrict(P("x0")) == P("3*z0")
    assert [str(g) for g in presolved.residual.generators] == ["x1^2 - 6*z0^2"]


def test_presolve_cascades():
    # dropping one variable exposes the next
    presolved = linear_presolve(ideal("x0", "y0 + x0*z0"))
    assert len(presolved.eliminated) == 2
    assert presolved.residual.generators == ()


def _pivots(presolved) -> tuple:
    """What a presolve decides, in order: the residual's generators and the
    pivots with their images, as taken."""
    return presolved.residual.generators, list(presolved.eliminated.items())


# z0 (position 1) goes first; x0 (position 0) is a variable only then, and
# precedes y1 (position 2), a variable from the start; then x1
_LATE_VARIABLE = ("x0 + y0*z0", "z0", "y1", "x1 + y1*x0", "x1^2 + z1^2")


def test_presolve_takes_the_first_generator_that_is_now_a_variable():
    presolved = linear_presolve(ideal(*_LATE_VARIABLE))
    order = [("z", 0), ("x", 0), ("y", 1), ("x", 1)]
    assert list(presolved.eliminated) == [var_code(f, k) for f, k in order]
    assert [str(g) for g in presolved.residual.generators] == ["z1^2"]
    assert _pivots(presolved) == _pivots(plain_presolve(ideal(*_LATE_VARIABLE)))


def test_zero_variables_keeps_an_untouched_generator():
    # the last generator holds no zeroed code and is passed on as the same
    # object, so its cached hash is kept
    gens = [P("x0 + y0*z0"), P("z0"), P("y1"), P("x2^2 + z1^2"), P("y1*z1 - 3*x1")]
    zeros, left = engine._zero_variables(gens)
    order = [("z", 0), ("x", 0), ("y", 1), ("x", 1)]
    assert zeros == [var_code(f, k) for f, k in order]
    assert left == [P("x2^2 + z1^2")] and left[0] is gens[3]
    assert engine._zero_variables(left) == ([], left)


_PRESOLVE_CODES = [var_code(f, i) for f in "xyz" for i in range(2)]
_presolve_gens = st.lists(
    st.one_of(
        st.sampled_from(_PRESOLVE_CODES).map(Polynomial.variable),
        st.lists(
            st.tuples(
                st.lists(
                    st.tuples(st.sampled_from(_PRESOLVE_CODES), st.integers(1, 2)), max_size=2
                ),
                st.integers(-2, 2),
            ),
            min_size=1,
            max_size=3,
        ).map(Polynomial.from_terms),
        st.tuples(
            st.sampled_from(_PRESOLVE_CODES),
            st.sampled_from(_PRESOLVE_CODES),
            st.sampled_from([-2, -1, 1, 2]),
        ).map(lambda row: Polynomial.variable(row[0]) + row[2] * Polynomial.variable(row[1])),
    ),
    max_size=8,
)


@given(_presolve_gens)
@example([P(t) for t in _LATE_VARIABLE])
@example([P("x1 + y0*z1"), P("y0 - z1"), P("z1"), P("y0 + x0")])
def test_presolve_matches_the_one_pivot_at_a_time_scan(gens):
    i = Ideal(gens)
    assert _pivots(linear_presolve(i)) == _pivots(plain_presolve(i))


@pytest.mark.parametrize(
    "argv", [["an", "verify", "--n", "4", "--m", "9"], ["d4", "verify", "--m", "6"]]
)
def test_presolves_of_the_commands_match_the_scan(monkeypatch, capsys, argv):
    # every ideal the command presolves, presolved again by the scan: the
    # pivots must come in the same order, which case d of an verify prints
    seen = []
    presolve = engine.linear_presolve
    monkeypatch.setattr(engine, "linear_presolve", lambda i: seen.append(i) or presolve(i))
    assert main(argv + ["--format", "json"]) == 0
    capsys.readouterr()
    assert max(len(linear_presolve(i).eliminated) for i in seen) > 2
    for i in seen:
        assert _pivots(linear_presolve(i)) == _pivots(plain_presolve(i))


def test_presolve_soundness_random():
    rng = random.Random(11)
    codes = [var_code(f, i) for f in "xyz" for i in range(2)]

    def rand_poly():
        terms = []
        for _ in range(rng.randint(1, 3)):
            pairs = [
                (code, rng.randint(1, 2))
                for code in rng.sample(codes, rng.randint(1, 2))
            ]
            terms.append((tuple(pairs), Fraction(rng.randint(-3, 3))))
        return Polynomial.from_terms(terms)

    for _ in range(12):
        gens = [Polynomial.variable(rng.choice(codes))] + [
            rand_poly() for _ in range(2)
        ]
        i = Ideal([g for g in gens if g])
        p = rand_poly()
        assert member(p, i).outcome == _outcome(_plain_member(p, i))
        assert radical_member(p, i).outcome == _outcome(_plain_trick(p, i))


# three variables and two or three linear rows, so that a later row often
# eliminates the variable an earlier pivot's image names
_LINEAR_CODES = [var_code("y", 1), var_code("z", 1), var_code("z", 2)]
_chained_linear = st.lists(
    st.tuples(
        st.sampled_from(_LINEAR_CODES),
        st.sampled_from(_LINEAR_CODES),
        st.sampled_from([-2, -1, 1, 2]),
    ),
    min_size=2,
    max_size=3,
).map(
    lambda rows: [
        Polynomial.variable(a) + c * Polynomial.variable(b) for a, b, c in rows if a != b
    ]
)
_small_polys = st.lists(
    st.tuples(
        st.lists(st.tuples(st.sampled_from(_LINEAR_CODES), st.integers(1, 2)), max_size=2),
        st.integers(-2, 2),
    ),
    min_size=1,
    max_size=3,
).map(Polynomial.from_terms)


@given(
    _chained_linear,
    st.lists(_small_polys, max_size=2),
    st.lists(_small_polys, max_size=4),
    st.one_of(st.just(Polynomial.zero()), _small_polys),
)
# the y1 -> z1, then z1 -> 0 chain of the D4 chart sums
@example([P("y1 - z1"), P("y1 + z1")], [P("z2^2 + y1^2")], [], P("y1"))
@example([P("y1 - z2"), P("z2 + z1")], [P("y1^2 - z1*z2")], [P("z1")], P("0"))
def test_linear_presolve_keeps_member_and_radical_outcomes(linear, others, multipliers, tail):
    # p is a combination of the generators, so a member, unless the tail
    # spoils it
    gens = linear + others
    p = sum((q * g for q, g in zip(multipliers, gens)), tail)
    i = Ideal(gens)
    assert member(p, i).outcome == _outcome(_plain_member(p, i))
    assert radical_member(p, i).outcome == _outcome(_plain_trick(p, i))


def test_member_answers_a_literal_generator_without_a_basis(monkeypatch):
    calls = []
    compute = engine.buchberger

    def counted(*args, **kwargs):
        calls.append(args)
        return compute(*args, **kwargs)

    monkeypatch.setattr(engine, "buchberger", counted)
    i = ideal("x0^2 - y0*z0", "y0^3 + z0")
    for query in (member, radical_member):
        rep = query(P("y0^3 + z0"), i)
        assert rep.verified
        assert rep.spairs_processed == 0
        assert rep.certificate == {"kind": "generator", "index": 1}
    assert calls == []
    # a p that is not literally a generator is decided by a basis
    assert member(P("x0^2*y0 - y0^2*z0"), i).verified
    assert len(calls) == 1
    assert radical_member(P("x0^2*y0 - y0^2*z0"), i).verified
    assert len(calls) == 2


@given(
    st.one_of(st.just([]), _chained_linear),
    st.lists(_small_polys, min_size=1, max_size=3),
    _small_polys,
    st.data(),
)
def test_certificate_first_rule(linear, others, other, data):
    i = Ideal(linear + others)
    if not i.generators:
        reject()
    # a generator is verified by the trivial or the generator certificate,
    # and the generator certificate names where it stands
    g = data.draw(st.sampled_from(i.generators))
    for query in (member, radical_member):
        rep = query(g, i)
        assert rep.verified and rep.spairs_processed == 0
        if rep.certificate["kind"] == "generator":
            assert i.generators[rep.certificate["index"]] == g
    assert not i.groebner().reduce(g)
    # any other p is decided as the references with no presolve decide it
    if other not in i.generators:
        assert member(other, i).outcome == _outcome(_plain_member(other, i))
        assert radical_member(other, i).outcome == _outcome(_plain_trick(other, i))


def test_ideal_keeps_each_generator_once_at_its_first_position():
    i = ideal("x0^2 - y0", "z0", "x0^2 - y0", "y0*z0")
    assert i.generators == (P("x0^2 - y0"), P("z0"), P("y0*z0"))
    assert (i + i).generators == i.generators


def test_restrict_to_residual():
    p = P("x0*y1 + z0^2 + y1^2")
    assert restrict_to_residual(p, [var_code("x", 0), var_code("z", 0)]) == P("y1^2")


def _restrict_per_code(p, eliminated):
    """Reference restriction: one pass over the terms per eliminated code."""
    for code in eliminated:
        p = Polynomial({mono: c for mono, c in p.items() if all(v != code for v, _ in mono)})
    return p


_CODES = [var_code(f, i) for f in "xyz" for i in range(2)]
_sparse_polys = st.lists(
    st.tuples(
        st.lists(st.tuples(st.sampled_from(_CODES), st.integers(1, 2)), max_size=3),
        st.integers(-3, 3),
    ),
    max_size=6,
).map(Polynomial.from_terms)


@given(_sparse_polys, st.lists(st.sampled_from(_CODES), max_size=4))
def test_restrict_to_residual_matches_per_code_loop(p, eliminated):
    assert restrict_to_residual(p, eliminated) == _restrict_per_code(p, eliminated)


def test_engine_operations_leave_ideals_unlabelled():
    # callers name the ideals they print; the engine makes up no names
    a = ideal("x0", "y0*z0", label="A")
    b = ideal("y0", "x1*z0", label="B")
    results = [
        linear_presolve(a).residual,
        saturate(a, P("z0")),
        saturate(a, P("x0")),
        ideal_intersect_elim(a, b),
        monomial_ideal_intersect([a, b]),
        a + b,
    ]
    assert [r.label for r in results] == [None] * len(results)


# ---------------------------------------------------------------------------
# dimension


def test_krull_dim_hypersurface():
    assert krull_dim(Ideal([P("x0*y0")]), [var_code("x", 0), var_code("y", 0)]) == 1


def test_krull_dim_point_and_unit():
    two_vars = [var_code("x", 0), var_code("y", 0)]
    assert krull_dim(Ideal([P("x0"), P("y0")]), two_vars) == 0
    assert krull_dim(Ideal([Polynomial.one()]), two_vars) == -1


def test_krull_dim_counts_free_variables():
    ambient = [var_code("x", 0), var_code("y", 0), var_code("z", 0), var_code("z", 1)]
    assert krull_dim(Ideal([P("x0^2")]), ambient) == 3


def test_krull_dim_reads_each_lead_support():
    # leads x0^2 and y0*z0 need two hitting variables, not one
    ambient = [var_code("x", 0), var_code("y", 0), var_code("z", 0), var_code("z", 1)]
    assert krull_dim(Ideal([P("x0^2"), P("y0*z0")]), ambient) == 2
    assert krull_dim(Ideal([P("x0^2 - y0*z1"), P("y0*z0")]), ambient) == 2


def test_krull_dim_rejects_an_ambient_ring_missing_a_variable():
    with pytest.raises(ValueError, match="ambient ring"):
        krull_dim(Ideal([P("x0*y0")]), [var_code("x", 0)])

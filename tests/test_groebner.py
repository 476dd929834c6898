import random
import threading
from fractions import Fraction
from functools import cmp_to_key
from operator import add

import pytest
from hypothesis import example, given, reject, strategies as st

from jetfibers.groebner import (
    BUDGET_EXHAUSTED,
    Budget,
    BudgetExhausted,
    GREVLEX_ORDER,
    Ideal,
    LEX_ORDER,
    VERIFIED,
    _Ring,
    _make_ring,
    block_order,
    buchberger,
    ideal_intersect_elim,
    krull_dim,
    linear_presolve,
    member,
    merge_reports,
    monomial_ideal_intersect,
    radical_member,
    restrict_to_residual,
    saturate,
    session,
)
from jetfibers.kernel import BLOCK, GREVLEX, LEX, impl as _K
from jetfibers._kernel_py import dense_order_key, descending_order_key
from jetfibers.poly import Polynomial, mono_from_pairs, parse_polynomial, var_code


def P(text: str) -> Polynomial:
    return parse_polynomial(text)


def ideal(*texts, **kw) -> Ideal:
    return Ideal([P(t) for t in texts], **kw)


# ---------------------------------------------------------------------------
# monomial orders


def _cmp(order, a, b) -> int:
    """Compare sparse monomials the way the engine does: densify over their
    variables with _make_ring, then compare dense_order_key values."""
    ring = _make_ring({c for c, _ in a + b}, order)
    key = dense_order_key(ring.kind, ring.split)
    (da,), (db,) = (ring.densify(Polynomial({m: Fraction(1)})) for m in (a, b))
    return (key(da) > key(db)) - (key(da) < key(db))


def _lead_mono(p: Polynomial, order=GREVLEX_ORDER):
    ring = _make_ring(p.variables(), order)
    top = max(ring.densify(p), key=dense_order_key(ring.kind, ring.split))
    return mono_from_pairs(zip(ring.codes, top))


def test_grevlex_degree_first():
    a = mono_from_pairs([(var_code("x", 0), 1)])
    b = mono_from_pairs([(var_code("z", 0), 2)])
    assert _cmp(GREVLEX_ORDER, b, a) > 0
    assert _cmp(LEX_ORDER, a, b) > 0


def test_block_order_eliminates_first():
    w = var_code("w", 0)
    order = block_order([w])
    carrying = mono_from_pairs([(w, 1)])
    heavy = mono_from_pairs([(var_code("x", 0), 9), (var_code("y", 3), 9)])
    # any monomial containing the eliminated variable outranks any without
    assert _cmp(order, carrying, heavy) > 0
    assert _cmp(order, heavy, carrying) < 0
    assert _cmp(order, carrying, carrying) == 0


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
_SAMPLE_ORDERS = (GREVLEX_ORDER, LEX_ORDER, block_order([var_code("w", 1)]))


def test_order_antisymmetry_on_samples():
    for order in _SAMPLE_ORDERS:
        for a in _SAMPLE_MONOS:
            for b in _SAMPLE_MONOS:
                assert _cmp(order, a, b) == -_cmp(order, b, a)


def test_order_ignores_unused_ring_variables():
    # monomial_ideal_intersect densifies over the union of all variables;
    # slots that are zero in both monomials must not change a comparison
    codes = {c for m in _SAMPLE_MONOS for c, _ in m}
    for order in _SAMPLE_ORDERS:
        ring = _make_ring(codes, order)
        key = dense_order_key(ring.kind, ring.split)
        dense = {
            m: next(iter(ring.densify(Polynomial({m: Fraction(1)}))))
            for m in _SAMPLE_MONOS
        }
        for a in _SAMPLE_MONOS:
            for b in _SAMPLE_MONOS:
                wide = (key(dense[a]) > key(dense[b])) - (key(dense[a]) < key(dense[b]))
                assert wide == _cmp(order, a, b)


@st.composite
def _dense_monos_and_order(draw):
    width = draw(st.integers(1, 5))
    kind = draw(st.sampled_from([GREVLEX, LEX, BLOCK]))
    split = draw(st.integers(0, width)) if kind == BLOCK else 0
    mono = st.tuples(*[st.integers(0, 2)] * width)
    monos = draw(st.lists(mono, max_size=12))
    # repeat a prefix so equal monomials always occur
    return monos + monos[: draw(st.integers(0, len(monos)))], kind, split


@given(_dense_monos_and_order())
def test_dense_order_key_sorts_as_mono_cmp(case):
    monos, kind, split = case
    by_cmp = sorted(monos, key=cmp_to_key(lambda a, b: _K.mono_cmp(a, b, kind, split)))
    assert sorted(monos, key=dense_order_key(kind, split)) == by_cmp
    # the heap key of normal_form: largest monomial first
    assert sorted(monos, key=descending_order_key(kind, split)) == by_cmp[::-1]


def _linear_scan_normal_form(p, gens, leads, lcs, kind, split):
    """Reference reduction, the kernel's before its heap: rescan for the lead
    term at every step and divide by the generator's lead coefficient."""
    work = dict(p)
    tail = {}
    ngens = len(gens)
    while work:
        lm, lc = _K.lead_term(work, kind, split)
        reduced = False
        for i in range(ngens):
            q = _K.mono_div(lm, leads[i])
            if q is not None:
                s = lc / lcs[i]
                for mg, cg in gens[i].items():
                    key = _K.mono_mul(q, mg)
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


@st.composite
def _reduction_case(draw):
    width = draw(st.integers(1, 4))
    kind = draw(st.sampled_from([GREVLEX, LEX, BLOCK]))
    split = draw(st.integers(0, width)) if kind == BLOCK else 0
    mono = st.tuples(*[st.integers(0, 3)] * width)
    coeff = st.integers(-3, 3).filter(bool).map(Fraction)

    def terms(max_size):
        return draw(st.dictionaries(mono, coeff, min_size=1, max_size=max_size))

    gens, leads = [], []
    for _ in range(draw(st.integers(0, 3))):
        g = terms(4)
        lm, lc = _K.lead_term(g, kind, split)
        gens.append({m: c / lc for m, c in g.items()})  # monic
        leads.append(lm)
    return terms(8), gens, leads, kind, split


# x^2 -> x*y - y^2 cancels the y^2 of p; then x*y -> y - y^2 creates y^2
# again after its heap entry went stale
_X2, _XY, _Y2, _Y, _ONE_MONO = (2, 0), (1, 1), (0, 2), (0, 1), (0, 0)
_RECREATED = (
    {_X2: Fraction(1), _Y2: Fraction(1), _ONE_MONO: Fraction(5)},
    [
        {_X2: Fraction(1), _XY: Fraction(-1), _Y2: Fraction(1)},
        {_XY: Fraction(1), _Y2: Fraction(1), _Y: Fraction(-1)},
    ],
    [_X2, _XY],
)


@given(_reduction_case())
@example(_RECREATED + (GREVLEX, 0))
@example(_RECREATED + (LEX, 0))
def test_heap_normal_form_matches_linear_scan(case):
    p, gens, leads, kind, split = case
    tail = _K.normal_form(p, gens, leads, kind, split)
    expected = _linear_scan_normal_form(p, gens, leads, [Fraction(1)] * len(gens), kind, split)
    assert tail == expected
    by_cmp = cmp_to_key(lambda a, b: _K.mono_cmp(a, b, kind, split))
    assert list(tail) == list(expected) == sorted(tail, key=by_cmp, reverse=True)


def _term_mul(coeff, mono, g):
    """coeff * x^mono * g on dense terms."""
    return {tuple(map(add, mono, m)): coeff * c for m, c in g.items()}


def _reference_division(p, gens, leads, kind, split):
    """Reference division with cofactors, the engine's before the kernel kept
    them: rescan for the lead term and rebuild the work dict at every step."""
    work = dict(p)
    tail: dict = {}
    quotients: list[dict] = [dict() for _ in gens]
    while work:
        lm, lc = _K.lead_term(work, kind, split)
        for i, lead in enumerate(leads):
            q = _K.mono_div(lm, lead)
            if q is not None:
                quotients[i] = _K.add_scaled(quotients[i], {q: lc}, Fraction(1))
                work = _K.add_scaled(work, _term_mul(lc, q, gens[i]), Fraction(-1))
                break
        else:
            tail[lm] = lc
            work = dict(work)
            del work[lm]
    return quotients, tail


def _dense_groebner(gens, kind, split):
    """The reduced basis of the ideal of gens under (kind, split), as monic
    dense terms over the same slots, with its leads.  Inputs whose basis
    takes more than a few S-pairs are skipped, to keep the test fast."""
    width = len(next(iter(gens[0])))
    codes = tuple(var_code("x", width - 1 - k) for k in range(width))  # descending
    if kind == LEX:
        order = LEX_ORDER
    elif kind == BLOCK and split:
        order = block_order(codes[:split])
    else:  # grevlex, which a block order with an empty first block is too
        order = GREVLEX_ORDER
    ring = _Ring(codes, kind, split)
    try:
        basis = buchberger(
            Ideal([ring.sparsify(g) for g in gens]), order, Budget(max_spairs=40)
        )
    except BudgetExhausted:
        reject()
    dense = [ring.densify(g) for g in basis.polys]
    return dense, [_K.lead_term(g, kind, split)[0] for g in dense]


@given(_reduction_case(), st.booleans())
@example(_RECREATED + (GREVLEX, 0), False)
def test_kernel_division_matches_reference(case, groebner):
    p, gens, leads, kind, split = case
    if groebner and gens:
        gens, leads = _dense_groebner(gens, kind, split)
    quotients = [{} for _ in gens]
    tail = _K.normal_form(p, gens, leads, kind, split, quotients)
    assert (quotients, tail) == _reference_division(p, gens, leads, kind, split)
    assert tail == _K.normal_form(p, gens, leads, kind, split)
    # p = sum q_i g_i + r, exactly
    total = dict(tail)
    for q, g in zip(quotients, gens):
        for mono, c in q.items():
            total = _K.add_scaled(total, _term_mul(c, mono, g), Fraction(1))
    assert total == p


def test_reduce_with_quotients_in_a_wider_ring():
    gb = buchberger(ideal("x0^2 + y0", "x0*y0 + 1"))
    p = P("x0^3*z0 + x0*y0 + z0^2 + 5")  # z0 is not a variable of the basis
    quotients = []
    r = gb.reduce(p, quotients)
    assert r == gb.reduce(p) and r
    assert sum((q * g for q, g in zip(quotients, gb.polys)), r) == p


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
    lf, lg = _lead_mono(f, GREVLEX_ORDER), _lead_mono(g, GREVLEX_ORDER)
    ef, eg = dict(lf), dict(lg)
    lcm = {c: max(ef.get(c, 0), eg.get(c, 0)) for c in set(ef) | set(eg)}
    cf = dict(f.items())[lf]
    cg = dict(g.items())[lg]
    mf = Polynomial.term(1, [(c, e - ef.get(c, 0)) for c, e in lcm.items()])
    mg = Polynomial.term(1, [(c, e - eg.get(c, 0)) for c, e in lcm.items()])
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
                assert gb.reduce(_spoly(a, b)).is_zero


@pytest.mark.parametrize("gens", FIXTURES)
def test_reduced_basis_invariants(gens):
    gb = buchberger(Ideal([P(t) for t in gens]))
    leads = [_lead_mono(g, GREVLEX_ORDER) for g in gb.polys]
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
_PINNED_SELECTION = [
    (_QUADRICS, GREVLEX_ORDER, 4, 21),
    (_CUBICS, GREVLEX_ORDER, 3, 3),
    (_QUADRICS, LEX_ORDER, 3, 28),
    (_CUBICS, LEX_ORDER, 5, 10),
    (_QUADRICS, block_order([var_code("x", 0)]), 4, 21),
    (_CUBICS, block_order([var_code("x", 0)]), 5, 10),
]


@pytest.mark.parametrize("gens, order, size, spairs", _PINNED_SELECTION)
def test_pair_selection_pinned(gens, order, size, spairs):
    # spairs_processed counts every popped pair, pruned ones too, so it moves
    # whenever the selection order or a criterion changes
    gb = buchberger(Ideal([P(t) for t in gens]), order)
    assert (len(gb), gb.spairs_processed) == (size, spairs)


def test_budget_exhaustion_raises():
    with pytest.raises(BudgetExhausted):
        buchberger(
            ideal("x0^2 + y0", "x0*y0 + 1", "y0^2 - z0"),
            budget=Budget(max_spairs=1, max_seconds=300),
        )


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
        other = ideal(*_QUADRICS).groebner(LEX_ORDER)  # the order is in the key
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
    assert buchberger(ideal(*_QUADRICS), LEX_ORDER).spairs_processed == 28
    with session(Budget(max_spairs=27)):
        with pytest.raises(BudgetExhausted) as exc:
            ideal(*_QUADRICS).groebner(LEX_ORDER)
    assert exc.value.spairs == 28
    with session(Budget(max_spairs=28)):
        assert ideal(*_QUADRICS).groebner(LEX_ORDER).spairs_processed == 28


# ---------------------------------------------------------------------------
# normal forms and membership


def test_normal_form_of_member_is_zero():
    gb = buchberger(ideal("x0 - y0", "y0 - z0"))
    assert gb.reduce(P("x0 - y0")).is_zero


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
    rep = member(P("x0^2 + x0*y0"), ideal("x0"), presolve=False)
    assert rep.verified
    assert rep.certificate.get("cofactors")


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
        gens.append(Polynomial.term(1, pairs))
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
    res, killed = linear_presolve(ideal("x0", "y0", "z0", "x1*y1 - z0"))
    assert [str(g) for g in res.generators] == ["x1*y1"]
    assert len(killed) == 3


def test_presolve_is_lazy_about_general_generators():
    res, killed = linear_presolve(ideal("x0 - y0"))
    assert killed == ()
    assert [str(g) for g in res.generators] == ["x0 - y0"]


def test_presolve_cascades():
    # dropping one variable exposes the next
    res, killed = linear_presolve(ideal("x0", "y0 + x0*z0"))
    assert len(killed) == 2
    assert res.generators == ()


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
        fast = member(p, i, presolve=True)
        slow = member(p, i, presolve=False)
        assert fast.outcome == slow.outcome == (
            VERIFIED if slow.verified else fast.outcome
        )
        rad_fast = radical_member(p, i, presolve=True)
        rad_slow = radical_member(p, i, presolve=False)
        assert rad_fast.outcome == rad_slow.outcome


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
        linear_presolve(a)[0],
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

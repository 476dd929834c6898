import random
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, strategies as st

from jetfibers.groebner import (
    BUDGET_EXHAUSTED,
    Budget,
    BudgetExhausted,
    GREVLEX_ORDER,
    Ideal,
    LEX_ORDER,
    VERIFIED,
    _make_ring,
    block_order,
    buchberger,
    dense_order_key,
    ideal_intersect_elim,
    krull_dim,
    linear_presolve,
    member,
    merge_reports,
    monomial_ideal_intersect,
    radical_member,
    restrict_to_residual,
    saturate,
)
from jetfibers.kernel import BLOCK, GREVLEX, LEX, impl as _K
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
    rep = member(
        P("z0"),
        ideal("x0^2 + y0", "x0*y0 + 1", "y0^2 - z0"),
        budget=Budget(max_spairs=1, max_seconds=300),
    )
    assert rep.outcome == BUDGET_EXHAUSTED


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


# ---------------------------------------------------------------------------
# dimension


def test_krull_dim_hypersurface():
    i = Ideal([P("x0*y0")], variables=[var_code("x", 0), var_code("y", 0)])
    assert krull_dim(i) == 1


def test_krull_dim_point_and_unit():
    two_vars = [var_code("x", 0), var_code("y", 0)]
    assert krull_dim(Ideal([P("x0"), P("y0")], variables=two_vars)) == 0
    assert krull_dim(Ideal([Polynomial.one()], variables=two_vars)) == -1


def test_krull_dim_counts_free_variables():
    ambient = [var_code("x", 0), var_code("y", 0), var_code("z", 0), var_code("z", 1)]
    i = Ideal([P("x0^2")], variables=ambient)
    assert krull_dim(i) == 3


def test_krull_dim_reads_each_lead_support():
    # leads x0^2 and y0*z0 need two hitting variables, not one
    ambient = [var_code("x", 0), var_code("y", 0), var_code("z", 0), var_code("z", 1)]
    assert krull_dim(Ideal([P("x0^2"), P("y0*z0")], variables=ambient)) == 2
    assert krull_dim(Ideal([P("x0^2 - y0*z1"), P("y0*z0")], variables=ambient)) == 2

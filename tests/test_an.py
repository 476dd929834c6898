import itertools

import pytest

from jetfibers import an as an_mod
from jetfibers.an import (
    ComponentDescriptor,
    Ladder,
    _avoids_on_arc,
    _case_guard,
    _cover_claim,
    _swap_xy,
    an_table,
    arc_values,
    component_dimension,
    containment,
    decompose_intersection,
    intersection_dimension,
    maximal_pairs,
    pair_ideal,
    table_csv,
    table_header,
    table_text,
    verify_all_pairs,
    verify_decomposition,
)
from jetfibers import groebner as gb
from jetfibers.jets import an_surface, d4_surface, jet_coeffs
from jetfibers.poly import Polynomial, parse_polynomial, var_code
from jetfibers.witnesses import avoids_at
from references import (
    avoids_on_arc_all_generators,
    component_ideal,
    monomial_ideal_intersect,
    verify_containment_criterion,
)


def P(text):
    return parse_polynomial(text)


# ---------------------------------------------------------------------------
# ladders


def test_ladder_zero():
    assert Ladder(0, 0, 0).ideal().generators == ()


def test_ladder_unrolled():
    assert [str(g) for g in Ladder(2, 2, 1).ideal().generators] == [
        "x0",
        "x1",
        "y0",
        "y1",
        "z0",
    ]


def test_ladder_generator_count():
    for p, q, r in itertools.product(range(4), repeat=3):
        assert len(Ladder(p, q, r).generators()) == p + q + r


def test_ladder_from_theorem_parameters():
    # n=3, i=1, j=3 merges to the (3,3,1) ladder
    n, i, j = 3, 1, 3
    assert Ladder(j, n + 1 - i, 1).label == "L(3,3,1)"


# ---------------------------------------------------------------------------
# component ideals


def test_component_at_base_order_is_the_ladder():
    comp = component_ideal(3, 3, 2)
    assert [str(g) for g in comp.reduced.generators] == [
        "x0",
        "x1",
        "y0",
        "y1",
        "z0",
    ]


def test_component_reduced_presentation():
    comp = component_ideal(2, 4, 1)
    got = [str(g) for g in comp.reduced.generators]
    assert got[:4] == ["x0", "y0", "y1", "z0"]
    assert got[4:] == [str(P("x1*y2 - z1^3")), str(P("x2*y2 + x1*y3 - 3*z1^2*z2"))]


def test_component_presentations_agree_small_grid():
    # the constructor itself asserts mutual membership
    for n in range(1, 5):
        for m in range(n, n + 5):
            for l in range(1, n + 1):
                component_ideal(n, m, l)


@pytest.mark.parametrize(
    "budget", [gb.Budget(max_spairs=0), gb.Budget(max_seconds=0)], ids=["spairs", "seconds"]
)
def test_component_ideal_reports_a_budget_as_exhausted(budget):
    with gb.session(budget):
        with pytest.raises(gb.BudgetExhausted) as exc:
            component_ideal(2, 6, 1)
    assert exc.value.context == "buchberger"
    assert exc.value.spairs == 1


def test_component_bounds():
    with pytest.raises(ValueError):
        component_ideal(2, 4, 0)
    with pytest.raises(ValueError):
        component_ideal(2, 1, 1)


# ---------------------------------------------------------------------------
# decompositions


def test_case_a():
    dec = decompose_intersection(3, 3, 1, 3)
    assert dec.case == "a" and dec.count == 1
    assert dec.components[0].label == "L(3,3,1)"


def test_case_b():
    dec = decompose_intersection(3, 4, 1, 3)
    assert dec.case == "b" and dec.count == 1
    assert dec.components[0].label == "L(3,3,2)"


def test_case_c():
    dec = decompose_intersection(3, 5, 1, 2)
    assert dec.case == "c" and dec.count == 2
    assert [d.label for d in dec.components] == ["L(2,4,2)", "L(3,3,2)"]


def test_case_d():
    dec = decompose_intersection(3, 8, 1, 2)
    assert dec.case == "d" and dec.count == 4
    assert [d.label for d in dec.components] == [
        "L(2,6,2)+f[8..8]",
        "L(3,5,2)+f[8..8]",
        "L(4,4,2)+f[8..8]",
        "L(5,3,2)+f[8..8]",
    ]


def test_guards_partition_and_counts():
    for n in range(2, 7):
        for m in range(n, 2 * n + 5):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    dec = decompose_intersection(n, m, i, j)
                    applicable = {
                        "a": m == n,
                        "b": 1 <= m - n <= j - i,
                        "c": j - i <= m - n and m < 2 * n + 2,
                        "d": m >= 2 * n + 2,
                    }
                    assert applicable[dec.case]
                    expected_count = {
                        "a": 1,
                        "b": 1,
                        "c": m - n - (j - i) + 1,
                        "d": n - (j - i) + 2,
                    }[dec.case]
                    assert dec.count == expected_count, (n, m, i, j)


def test_component_count_monotone_in_gap():
    for n in (3, 4, 5):
        for m in range(n, 2 * n + 5):
            counts = [
                decompose_intersection(n, m, 1, 1 + gap).count
                for gap in range(1, n)
            ]
            assert counts == sorted(counts, reverse=True)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        decompose_intersection(1, 1, 1, 1)
    with pytest.raises(ValueError):
        decompose_intersection(3, 2, 1, 2)
    with pytest.raises(ValueError):
        decompose_intersection(3, 5, 2, 2)


# ---------------------------------------------------------------------------
# dimensions


def test_dimension_examples():
    assert intersection_dimension(3, 3, 1, 3) == 5
    assert intersection_dimension(3, 4, 1, 3) == 7
    assert intersection_dimension(3, 6, 1, 2) == 12


def test_component_dimension():
    assert component_dimension(3, 3) == 7
    assert component_dimension(3, 7) == 15
    for n in (1, 2, 5):
        assert component_dimension(n, n) == 2 * n + 1


def test_descriptor_dimensions_match_formula():
    for n in (2, 3, 4):
        for m in range(n, 2 * n + 4):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    dec = decompose_intersection(n, m, i, j)
                    for d in dec.components:
                        assert d.dimension(m) == dec.dimension, (n, m, i, j)


def test_boundary_regimes_agree():
    # at m - n = j - i the single thickened ladder has the chain dimension
    n, i, j = 4, 1, 3
    m = n + (j - i)
    assert intersection_dimension(n, m, i, j) == 2 * m
    assert decompose_intersection(n, m, i, j).count == 1


# ---------------------------------------------------------------------------
# containment and maximal pairs


def test_containment_criterion_examples():
    assert containment(3, 4, 1, 3, 1, 2) is True
    assert containment(3, 4, 1, 2, 2, 3) is False
    assert containment(3, 4, 1, 2, 1, 2) is True


def test_maximal_pairs():
    assert maximal_pairs(3) == ((1, 2), (2, 3))
    assert maximal_pairs(1) == ()
    assert maximal_pairs(5) == ((1, 2), (2, 3), (3, 4), (4, 5))
    # the pairs maximal under the containment criterion are the adjacent ones
    for n in range(1, 9):
        assert maximal_pairs(n) == tuple((i, i + 1) for i in range(1, n)), n


def test_containment_cross_check_small():
    rep = verify_containment_criterion(2, 3)
    assert rep.outcome == gb.VERIFIED


def test_containment_cross_check_counts_the_pairs_of_its_queries(monkeypatch):
    # every "criterion agrees" report is decided by radical-member queries,
    # so it carries the sum of their S-pairs; each query the presolve does
    # not answer is decided by the split on monomial generators
    pending, decided = [], []
    radical_member, check = gb.radical_member, gb.check

    def recorded_query(*args, **kwargs):
        report = radical_member(*args, **kwargs)
        pending.append(report)
        return report

    def recorded_check(claim, *args, **kwargs):
        report = check(claim, *args, **kwargs)
        if claim.startswith("criterion agrees"):
            decided.append((report, pending[:]))
            pending.clear()
        return report

    monkeypatch.setattr(gb, "radical_member", recorded_query)
    monkeypatch.setattr(gb, "check", recorded_check)
    rep = verify_containment_criterion(3, 9)
    assert rep.outcome == gb.VERIFIED
    assert len(decided) == 3 * 3
    for report, queries in decided:
        assert queries
        assert report.spairs_processed == sum(q.spairs_processed for q in queries)
    trivial = {"kind": "radical-trick", "trivial": True}
    split = [q for _, queries in decided for q in queries if q.certificate != trivial]
    assert split and all(q.certificate["kind"] == "split" for q in split)
    # at (3, 9) some leaves of the splits still build a basis
    assert rep.spairs_processed == sum(r.spairs_processed for r, _ in decided) > 0


# ---------------------------------------------------------------------------
# engine verification


def test_verify_case_a():
    rep = verify_decomposition(2, 2, 1, 2)
    assert rep.outcome == gb.VERIFIED


def test_verify_case_b():
    rep = verify_decomposition(3, 4, 1, 3)
    assert rep.outcome == gb.VERIFIED


def test_verify_case_c_two_components():
    rep = verify_decomposition(3, 5, 1, 2)
    assert rep.outcome == gb.VERIFIED
    cases = [s["claim"] for s in rep.certificate["subchecks"]]
    assert any("witnesses separate" in c for c in cases)


def test_verify_case_d_small():
    rep = verify_decomposition(2, 6, 1, 2)
    assert rep.outcome == gb.VERIFIED
    tails = [
        s
        for s in rep.certificate["subchecks"]
        if "reindexed jet ideal" in s["claim"]
    ]
    assert len(tails) == 3
    assert all(t["outcome"] == gb.VERIFIED for t in tails)


def _refutations(rep):
    """The "x_w / y_w not in" subchecks of a decomposition report; none in a
    mirror pair's, which names its representative's report."""
    return [
        piece
        for sub in rep.certificate.get("subchecks", ())
        if sub["claim"].startswith("witnesses separate")
        for piece in sub["certificate"]["subchecks"]
        if " not in " in piece["claim"]
    ]


@pytest.mark.parametrize(
    "n, m, count", [(2, 7, 6), (4, 7, 14), (2, 12, 6), (3, 14, 18)]
)
def test_witness_refutations_stand_on_monomial_arcs(n, m, count):
    # every refutation is a point check at an arc x=t^a, y=t^b, z=t^c with
    # a+b=(n+1)c, where the witness variable is 1: no basis, under a budget
    # of no S-pair at all
    with gb.session(gb.Budget(max_spairs=0)):
        reports = verify_all_pairs(n, m)
    refutations = [piece for rep in reports for piece in _refutations(rep)]
    assert len(refutations) == count
    for piece in refutations:
        a, b, c = piece["certificate"]["arc"]
        assert a + b == (n + 1) * c
        assert piece["certificate"]["value"] == "1"
        assert piece["outcome"] == gb.VERIFIED
    assert all(rep.outcome == gb.VERIFIED and rep.spairs_processed == 0 for rep in reports)


def _first_two_components(n, m, i, j):
    dec = decompose_intersection(n, m, i, j)
    return [(d, d.ideal(n, m)) for d in dec.components[:2]]


@pytest.mark.parametrize("n, m", [(2, 7), (3, 6), (3, 9), (4, 7), (4, 11)])
def test_ladder_arc_search_finds_the_all_generator_arc(n, m):
    # the jet equations vanish on every arc searched, so the ladder alone
    # picks the same arc, or the same engine fallback, as every generator
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            dec = decompose_intersection(n, m, i, j)
            for desc in dec.components:
                comp = desc.ideal(n, m)
                for family in "xy":
                    for k in range(m + 1):
                        v = Polynomial.variable(var_code(family, k))
                        claim = f"{v} not in {desc.label}"
                        got = _avoids_on_arc(n, m, v, desc, comp, claim)
                        ref = avoids_on_arc_all_generators(n, m, v, comp, claim)
                        assert (got.outcome, got.certificate) == (ref.outcome, ref.certificate)


def test_an_arc_off_the_component_falls_back_to_the_engine():
    # (2,7;1,2): x2 is not in L(2,4,2)+f[6..7], witnessed by the arc (2,4,2).
    # Setting x0 = 1 as well moves the point off the component: the point
    # check fails and names x0, and the engine decides with the outcome the
    # claim had when it stood on the engine alone
    (desc, comp), _ = _first_two_components(2, 7, 1, 2)
    x2 = P("x2")
    claim = "x2 not in L(2,4,2)+f[6..7]"
    found = _avoids_on_arc(2, 7, x2, desc, comp, claim)
    assert found.certificate == {"arc": [2, 4, 2], "value": "1"}

    moved = {**arc_values(7, 2, 4, 2), var_code("x", 0): 1}
    rep = avoids_at(x2, comp, moved, claim=claim, witness={"arc": [2, 4, 2]}, radical=False)
    engine = gb.expect_refuted(gb.member(x2, comp, claim=claim))
    assert rep.certificate["point check"]["nonvanishing"] == ["x0"]
    assert rep.certificate["engine"] == engine.certificate
    assert (rep.outcome, rep.spairs_processed) == (engine.outcome, engine.spairs_processed)
    assert rep.outcome == gb.VERIFIED and rep.spairs_processed > 0


def test_an_zero_of_the_witness_never_verifies():
    # x2 lies in L(3,3,2)+f[6..7], so "x2 not in" it is false.  The arc
    # (3,3,2) lies on that component and x2 vanishes there: the point says
    # nothing, and the engine refutes the claim.  The arc search finds no
    # arc at all, since x2 = 1 leaves the ladder, and the engine decides.
    _, (desc, comp) = _first_two_components(2, 7, 1, 2)
    x2 = P("x2")
    claim = "x2 not in L(3,3,2)+f[6..7]"
    rep = avoids_at(x2, comp, arc_values(7, 3, 3, 2), claim=claim, radical=False)
    assert rep.certificate["point check"]["value"] == "0"
    assert rep.outcome == gb.REFUTED
    searched = _avoids_on_arc(2, 7, x2, desc, comp, claim)
    assert searched.outcome == gb.REFUTED
    assert searched.certificate == gb.member(x2, comp).certificate


def _case_guard_report(rep):
    (guard,) = [s for s in rep.certificate["subchecks"] if s["claim"].startswith("case guard")]
    return guard


def test_case_guard_checks_dimensions_and_distinctness():
    for n, m, i, j in [(2, 2, 1, 2), (3, 4, 1, 3), (3, 5, 1, 2), (2, 6, 1, 2)]:
        dec = decompose_intersection(n, m, i, j)
        guard = _case_guard(dec)
        assert guard.outcome == gb.VERIFIED
        assert guard.certificate == {"case": dec.case, "count": dec.count}


def test_case_guard_refutes_a_wrong_dimension(monkeypatch):
    monkeypatch.setattr(ComponentDescriptor, "dimension", lambda self, m: 3 * (m + 1))
    rep = verify_decomposition(2, 2, 1, 2)
    guard = _case_guard_report(rep)
    assert guard["outcome"] == gb.REFUTED
    assert guard["certificate"]["witness"] == "dim L(2,2,1) = 9, closed form 4"
    assert rep.outcome == gb.REFUTED


def test_case_guard_refutes_a_repeated_component():
    dec = decompose_intersection(3, 5, 1, 2)
    assert dec.count == 2
    twice = dec._replace(components=(dec.components[0],) * 2)
    guard = _case_guard(twice)
    assert guard.outcome == gb.REFUTED
    assert guard.certificate["witness"] == f"{dec.components[0].label} listed twice"


def test_every_component_generator_is_a_ladder_variable_or_a_pair_generator():
    # the premise of the cover claim: C_u lies in J + L_u, so covering V(J)
    # by the ladders covers it by the components
    for n in range(2, 6):
        for m in range(n, 2 * n + 7):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    J = set(pair_ideal(n, m, i, j).generators)
                    for desc in decompose_intersection(n, m, i, j).components:
                        allowed = J | set(desc.ladder.generators())
                        for g in desc.ideal(n, m).generators:
                            assert g in allowed, (n, m, i, j, desc.label, str(g))


# every pair with two or more components at (3, 6) (case c) and (3, 9)
# (case d), and one pair each at (2, 7) and (4, 11)
DROPPED = [
    (3, 6, 1, 2), (3, 6, 1, 3), (3, 6, 2, 3), (2, 7, 1, 2),
    (3, 9, 1, 2), (3, 9, 1, 3), (3, 9, 2, 3), (4, 11, 2, 3),
]


def _tree_leaves(tree):
    """The leaves of a cover tree: component indices, or a fallback leaf's
    list of product certificates."""
    if isinstance(tree, dict):
        return [leaf for sub in tree.values() for leaf in _tree_leaves(sub)]
    return [tree]


def _without(dec, u):
    return dec._replace(components=dec.components[:u] + dec.components[u + 1:])


@pytest.mark.parametrize("n, m, i, j", DROPPED)
def test_dropping_a_component_refutes_the_meet_claim(n, m, i, j):
    # the cover walk of the meet claim reaches a leaf that zeroes only the
    # dropped ladder; there a product of one surviving variable from each
    # remaining ladder lies in all of them and outside sqrt J, which the
    # engine confirms on J itself
    dec = decompose_intersection(n, m, i, j)
    assert dec.case in "cd" and dec.count >= 2
    J = pair_ideal(n, m, i, j)
    rep = _cover_claim(dec, J)
    assert rep.outcome == gb.VERIFIED
    assert rep.certificate["kind"] == "cover"
    assert set(_tree_leaves(rep.certificate["tree"])) == set(range(dec.count))
    for u in range(dec.count):
        rest = _without(dec, u)
        rep = _cover_claim(rest, J)
        assert rep.outcome == gb.REFUTED, (n, m, i, j, u)
        cert = rep.certificate
        assert cert["kind"] == "cover" and cert["query"]["kind"] in ("radical-trick", "split")
        g = P(cert["product"])
        for desc in rest.components:
            assert g.variables() & set(desc.ladder.codes()), (desc.label, cert["product"])
        assert gb.radical_member(g, J).outcome == gb.REFUTED


@pytest.mark.parametrize("n, m", [(3, 6), (3, 9), (4, 9), (4, 11)])
def test_cover_agrees_with_the_reference_meet(n, m):
    # the cover holds exactly when every generator of the ladders' meet lies
    # in sqrt J: on every pair, and on every pair with one component dropped
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            dec = decompose_intersection(n, m, i, j)
            J = pair_ideal(n, m, i, j)
            drops = [_without(dec, u) for u in range(dec.count)] if dec.count > 1 else []
            for listed in [dec] + drops:
                meet = monomial_ideal_intersect(d.ladder.ideal() for d in listed.components)
                in_radical = all(gb.radical_member(g, J).verified for g in meet.generators)
                rep = _cover_claim(listed, J)
                assert rep.verified == in_radical, (n, m, i, j, listed.meet_label)
                assert rep.outcome in (gb.VERIFIED, gb.REFUTED)
                if listed is dec:  # every leaf zeroes a ladder: no fallback
                    leaves = _tree_leaves(rep.certificate["tree"])
                    assert all(isinstance(leaf, int) for leaf in leaves)


def _x0_and_y0():
    """A one-pair decomposition whose components are the ladders (x0) and
    (y0), to hold the cover claim to an ideal of one's own."""
    dec = decompose_intersection(2, 2, 1, 2)
    comps = (ComponentDescriptor(Ladder(1, 0, 0)), ComponentDescriptor(Ladder(0, 1, 0)))
    return dec._replace(components=comps)


def test_a_leaf_with_no_monomial_generator_checks_the_products():
    # J has no monomial and no linear generator, so its presolve is the
    # whole leaf; x0*y0 = (g1 + g2)/2 lies in J, so the one product of the
    # ladders (x0) and (y0) lies in sqrt J, and x0 alone does not
    J = gb.Ideal([P("x0*y0 + z0^2"), P("x0*y0 - z0^2")], label="J")
    rep = _cover_claim(_x0_and_y0(), J)
    assert rep.outcome == gb.VERIFIED
    (product,) = rep.certificate["tree"]
    assert product["product"] == "x0*y0"
    assert product["query"]["kind"] == "radical-trick"
    assert rep.spairs_processed > 0

    rep = _cover_claim(_without(_x0_and_y0(), 1), J)
    assert rep.outcome == gb.REFUTED
    assert rep.certificate["path"] == [] and rep.certificate["product"] == "x0"
    assert rep.certificate["query"]["witness"] == "normal form of 1 is 1"
    assert gb.radical_member(P("x0"), J).outcome == gb.REFUTED


def test_a_fallback_leaf_below_a_split_names_its_path():
    # x0*y1 splits J: on x0 = 0 the ladder (x0) is zeroed, and on y1 = 0
    # the leaf x0*y0 + z0^2 keeps no monomial, where the product x0*y0 is
    # not in the radical: the point x0 = y0 = 1, z0 = i is a zero of J
    J = gb.Ideal([P("x0*y1"), P("x0*y0 + z0^2")], label="J")
    rep = _cover_claim(_x0_and_y0(), J)
    assert rep.outcome == gb.REFUTED
    assert rep.certificate["path"] == ["y1"]
    assert rep.certificate["product"] == "x0*y0"
    assert gb.radical_member(P("x0*y0"), J).outcome == gb.REFUTED


def test_a_product_query_out_of_budget_leaves_the_cover_undecided():
    J = gb.Ideal([P("x0*y0 + z0^2"), P("x0*y0 - z0^2")], label="J")
    with gb.session(gb.Budget(max_spairs=0)):
        rep = _cover_claim(_x0_and_y0(), J)
    assert rep.outcome == gb.BUDGET_EXHAUSTED
    (product,) = rep.certificate["tree"]
    assert product["query"] == {"kind": "budget", "context": "buchberger"}


def _exact_meet(dec) -> gb.Ideal:
    """The exact intersection of the listed component ideals, by
    elimination: the shared ladder variables are split off and the
    residuals intersected pairwise."""
    common = sorted(set.intersection(*(set(d.ladder.codes()) for d in dec.components)))
    residuals = [
        gb.Ideal([gb.restrict_to_residual(g, common) for g in d.ideal(dec.n, dec.m).generators])
        for d in dec.components
    ]
    current = residuals[0]
    for nxt in residuals[1:]:
        current = gb.ideal_intersect_elim(current, nxt)
    coordinate = tuple(Polynomial.variable(c) for c in reversed(common))
    return gb.Ideal(coordinate + current.generators)


@pytest.mark.parametrize("n, m", [(2, 6), (2, 7), (3, 8)])
def test_exact_meet_of_the_components_lies_in_the_radical(n, m):
    # the reference the ladder cover replaces: the exact intersection of the
    # tail-regime components, computed by elimination, lies in sqrt J too
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            dec = decompose_intersection(n, m, i, j)
            assert dec.case == "d"
            J = pair_ideal(n, m, i, j)
            for g in _exact_meet(dec).generators:
                assert gb.radical_member(g, J).outcome == gb.VERIFIED, (n, m, i, j, str(g))


def test_pair_ideal_shape():
    J = pair_ideal(2, 4, 1, 2)
    assert len(J.generators) == 2 + 2 + 1 + 5
    assert J.label == "J(n2,m4;1,2)"


# ---------------------------------------------------------------------------
# the x<->y mirror


def test_swap_exchanges_x_and_y_and_fixes_the_jet_equations():
    assert _swap_xy(P("3*x1*y0^2 - z2 + x4")) == P("3*y1*x0^2 - z2 + y4")
    assert _swap_xy(_swap_xy(P("x0*y3*z1 - 1/2*y2"))) == P("x0*y3*z1 - 1/2*y2")
    # the A_n surface is fixed by the swap, the D4 surface is not
    assert all(_swap_xy(c) == c for c in jet_coeffs(an_surface(3), 6))
    assert not all(_swap_xy(c) == c for c in jet_coeffs(d4_surface(), 6))


def _mirror_pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if i + j > n + 1]


@pytest.mark.parametrize("n", range(2, 6))
def test_each_mirror_report_agrees_with_a_direct_verification(n):
    for m in range(n, 2 * n + 6):
        with gb.session():
            reports = {r.claim: r for r in verify_all_pairs(n, m)}
            for i, j in _mirror_pairs(n):
                direct = verify_decomposition(n, m, i, j)
                mirror = reports[direct.claim]
                assert mirror.certificate["stands on"] == (
                    f"decomposition of J(n{n},m{m};{n + 1 - j},{n + 1 - i})"
                )
                assert (mirror.outcome, mirror.spairs_processed) == (
                    direct.outcome, direct.spairs_processed
                ), (n, m, i, j)
        assert len(reports) == n * (n - 1) // 2
        assert all(r.verified for r in reports.values())


def _break_mirror(monkeypatch, n, m, i, j, change):
    """decompose_intersection with its (n, m, i, j) component list passed
    through change, every other pair's list left as it is."""
    decompose = decompose_intersection

    def broken(*pair):
        dec = decompose(*pair)
        return dec._replace(components=change(dec.components)) if pair == (n, m, i, j) else dec

    monkeypatch.setattr(an_mod, "decompose_intersection", broken)


@pytest.mark.parametrize(
    "change, witness",
    [
        # one more z coordinate on the first component, L(3,4,2): its image
        # of z2 is in no component of (1,2), the nearest being L(4,3,2)
        (
            lambda comps: (comps[0]._replace(ladder=comps[0].ladder._replace(r=3)),) + comps[1:],
            {"generator": "z2", "of": "L(3,4,3)", "image not in": "L(4,3,2)"},
        ),
        # the last component, L(5,2,2), dropped: the component L(2,5,2) of
        # (1,2) is no image, and its y4 maps to x4, outside the nearest
        # listed component L(4,3,2)
        (
            lambda comps: comps[:-1],
            {"generator": "y4", "of": "L(2,5,2)", "image not in": "L(4,3,2)"},
        ),
    ],
    ids=["thicker", "dropped"],
)
def test_a_component_list_broken_for_the_mirror_pair_refutes_it(monkeypatch, change, witness):
    _break_mirror(monkeypatch, 3, 6, 2, 3, change)
    with gb.session():
        reports = verify_all_pairs(3, 6)
    assert [r.outcome for r in reports] == [gb.VERIFIED, gb.VERIFIED, gb.REFUTED]
    mirror = reports[2]
    assert mirror.claim == "decomposition of J(n3,m6;2,3)"
    assert mirror.certificate == {
        "stands on": "decomposition of J(n3,m6;1,2)",
        "swap": {"kind": "swap", "witness": witness},
    }


def test_a_pair_ideal_broken_for_the_mirror_pair_refutes_it(monkeypatch):
    # J(n3,m6;2,3) given one more x coordinate: x3's image y3 is no
    # generator of J(n3,m6;1,2), whose ladder stops at y2
    build = pair_ideal

    def broken(n, m, i, j):
        J = build(n, m, i, j)
        if (i, j) == (2, 3):
            J = gb.Ideal(J.generators + (P("x3"),), label=J.label)
        return J

    monkeypatch.setattr(an_mod, "pair_ideal", broken)
    with gb.session():
        mirror = verify_all_pairs(3, 6)[2]
    assert mirror.outcome == gb.REFUTED
    assert mirror.certificate["swap"]["witness"] == {
        "generator": "x3", "of": "J(n3,m6;2,3)", "image not in": "J(n3,m6;1,2)",
    }


def test_a_representative_out_of_budget_leaves_its_mirror_out_of_budget(monkeypatch):
    # the clock reads 1e6 only on its second read, the one before the pair
    # (1,2): that pair starts past the limit; (1,3) and the mirror (2,3)
    # start in time, and the mirror folds the exhausted report of (1,2)
    reads = []

    def monotonic():
        reads.append(1)
        return 1e6 if len(reads) == 2 else 0.0

    monkeypatch.setattr(gb.time, "monotonic", monotonic)
    with gb.session(gb.Budget(max_seconds=10)):
        reports = verify_all_pairs(3, 5)
    assert [r.outcome for r in reports] == [gb.BUDGET_EXHAUSTED, gb.VERIFIED, gb.BUDGET_EXHAUSTED]
    assert reports[0].certificate == {"kind": "budget", "context": "pair loop"}
    assert reports[2].claim == "decomposition of J(n3,m5;2,3)"
    assert reports[2].certificate["stands on"] == "decomposition of J(n3,m5;1,2)"
    assert reports[2].certificate["swap"]["kind"] == "swap"
    assert "witness" not in reports[2].certificate["swap"]


# ---------------------------------------------------------------------------
# the table


def test_table_row_values():
    rows = an_table(3, range(3, 8))
    assert rows == [
        (3, 7, 6, 5, 5, 6, 7, 1, 1),
        (4, 9, 8, 7, 6, 7, 8, 1, 1),
        (5, 11, 10, 10, 7, 8, 8, 2, 1),
        (6, 13, 12, 12, 8, 9, 9, 3, 2),
        (7, 15, 14, 14, 9, 10, 10, 4, 3),
    ]


def test_table_csv_bytes():
    csv = table_csv(3, an_table(3, [3, 4]))
    assert csv == (
        "m,dim_Z,dim_Z12,dim_Z13,codim_Z,codim_Z12,codim_Z13,N12,N13\n"
        "3,7,6,5,5,6,7,1,1\n"
        "4,9,8,7,6,7,8,1,1\n"
    )


def test_table_text_aligned():
    text = table_text(3, an_table(3, [3]))
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].split() == list(table_header(3))


def test_table_small_n_columns():
    assert table_header(2) == ("m", "dim_Z", "dim_Z12", "codim_Z", "codim_Z12", "N12")
    assert table_header(1) == ("m", "dim_Z", "codim_Z")
    rows = an_table(1, [1, 2])
    assert rows == [(1, 3, 3), (2, 5, 4)]

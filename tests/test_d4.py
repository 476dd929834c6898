from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from jetfibers import d4, groebner as gb
from jetfibers.d4 import (
    Automorphism,
    PHI1,
    PHI2,
    PHI2_INV,
    chart_point,
    d4_ideals,
    d4_maximal_intersections,
    g1,
    g2,
    point_p,
    point_p_prime,
    point_q,
    point_q_prime,
    verify_automorphism_algebra,
    verify_chart_transport,
    verify_complete_intersection_remark,
    verify_component_ideals,
    verify_coordinate_lemma,
    verify_g1_identity,
    verify_g2_identity,
    verify_phi_invariance,
    verify_suite,
    witness_checks,
)
from jetfibers.jets import d4_surface, jet_coeffs, t_order
from jetfibers.poly import (
    Polynomial,
    evaluate,
    jet_variables,
    linear_substitute,
    parse_polynomial,
    var_code,
    var_family,
    var_index,
)
from jetfibers.witnesses import avoids_at, vanishes_at
from references import d4_component_ideal


def P(text):
    return parse_polynomial(text)


# ---------------------------------------------------------------------------
# the ideal family


def test_chart_two_generators():
    fam = d4_ideals(5)
    assert [str(g) for g in fam.charts[2].generators] == [
        "x0",
        "x1",
        "y0",
        "z0",
        "y1 - z1",
    ]


def test_chart_one_is_the_double_ladder():
    fam = d4_ideals(5)
    assert [str(g) for g in fam.charts[1].generators] == ["x0", "x1", "y0", "z0", "z1"]


def test_distinguished_ideal_generator_count():
    fam = d4_ideals(5)
    assert len(fam.i0.generators) == 7 + 6


def test_first_two_jet_coefficients_in_origin_ideal():
    coeffs = jet_coeffs(d4_surface(), 5)
    origin = gb.Ideal([P("x0"), P("y0"), P("z0")])
    assert gb.member(coeffs[0], origin).verified
    assert gb.member(coeffs[1], origin).verified


def test_order_bound_enforced():
    with pytest.raises(ValueError):
        d4_ideals(4)


@pytest.mark.parametrize(
    "run",
    [verify_g1_identity, lambda m: verify_coordinate_lemma(m, 1, 2), witness_checks],
    ids=["g1_identity", "coordinate_lemma", "witness_checks"],
)
def test_checks_below_the_minimum_order_raise(run):
    # the bound is checked once, by d4_ideals, which every check builds on
    with pytest.raises(ValueError, match=f"need m >= {d4.M_MIN}"):
        run(d4.M_MIN - 1)


def test_a_repeated_chart_transport_presolves_nothing(monkeypatch):
    # d4_ideals(m) builds one family per order, and the presolves of its
    # ideals are served from the session memo by their generators: inside
    # one session a second chart transport presolves nothing
    calls = []
    presolve = gb.linear_presolve
    monkeypatch.setattr(
        gb, "linear_presolve", lambda ideal: calls.append(ideal.generators) or presolve(ideal)
    )
    with gb.session():
        assert verify_chart_transport(6).verified
        first = len(calls)
        assert d4_ideals(6) is d4_ideals(6)
        assert verify_chart_transport(6).verified
    # the three charts and I0, each presolved once
    assert first == len(set(calls)) == 4
    assert len(calls) == first
    with pytest.raises(AttributeError):
        d4_ideals(6).m = 7


# ---------------------------------------------------------------------------
# automorphisms


def test_flip_fixes_jet_coefficients():
    coeffs = jet_coeffs(d4_surface(), 6)
    for j in range(7):
        assert PHI1.on_polynomial(coeffs[j]) == coeffs[j]


def test_rotation_has_order_three():
    sample = P("x1*y2 - 3*z0^2*y1 + 2/3*z3")
    once = PHI2.on_polynomial(sample)
    assert once != sample
    assert PHI2.on_polynomial(PHI2.on_polynomial(once)) == sample


def test_rotation_entries():
    assert PHI2.on_polynomial(P("z2")) == P("-1/2*y2 - 1/2*z2")
    assert PHI1.on_polynomial(P("y3")) == P("-y3")
    assert PHI2_INV.on_polynomial(P("y1")) == P("-1/2*y1 - 3/2*z1")


def test_inverse_really_inverts():
    sample = P("y1*z2 + z3^2 - y0")
    assert PHI2_INV.on_polynomial(PHI2.on_polynomial(sample)) == sample
    assert PHI2.on_polynomial(PHI2_INV.on_polynomial(sample)) == sample


def test_flip_swaps_charts():
    fam = d4_ideals(5)
    mapped = PHI1.on_ideal(fam.charts[2])
    for g in mapped.generators:
        assert gb.member(g, fam.charts[3]).verified


def test_automorphism_acts_on_points_and_polynomials():
    y1, z1, x2 = var_code("y", 1), var_code("z", 1), var_code("x", 2)
    image = PHI1.on_point({y1: Fraction(1), z1: Fraction(2), x2: Fraction(3)})
    assert image == {y1: -1, z1: 2, x2: 3}
    # a coordinate the map sends to zero is left out, like a zero of _jet
    assert PHI2.on_point({y1: Fraction(3), z1: Fraction(1)}) == {z1: -2}
    assert PHI1.on_polynomial(P("y0")) == P("-y0")


def test_algebra_report():
    assert verify_automorphism_algebra().outcome == gb.VERIFIED
    assert verify_phi_invariance(8).outcome == gb.VERIFIED
    assert verify_chart_transport(5).outcome == gb.VERIFIED


_JET_CODES = list(jet_variables(3))
_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)
_jet_polys = st.lists(
    st.tuples(
        st.lists(st.tuples(st.sampled_from(_JET_CODES), st.integers(1, 3)), max_size=4),
        _rationals,
    ),
    max_size=6,
).map(Polynomial.from_terms)
_jet_points = st.lists(_rationals, min_size=12, max_size=12).map(
    lambda c: dict(zip(_JET_CODES, c))
)


@given(p=_jet_polys, pt=_jet_points)
def test_symmetry_on_polynomials_is_pullback_along_points(p, pt):
    # the substitution path and the independent point path agree:
    # (phi p)(pt) = p(phi pt)
    for auto in (PHI1, PHI2, PHI2_INV):
        pulled = evaluate(auto.on_polynomial(p), pt)
        assert pulled == evaluate(p, auto.on_point(pt)), auto.name


def test_phi_invariance_is_refuted_by_a_perturbed_rotation(monkeypatch):
    perturbed = Automorphism(
        "phi2", Fraction(-1, 2), Fraction(3, 2), Fraction(-1, 2), Fraction(-1, 3)
    )
    monkeypatch.setattr(d4, "PHI2", perturbed)
    report = verify_phi_invariance(8)
    assert report.outcome == gb.REFUTED
    assert report.certificate == {"failures": [("phi2", j) for j in range(9)]}


# ---------------------------------------------------------------------------
# certificate polynomials


def test_g1_shape():
    poly = g1()
    assert len(poly) == 4
    assert poly.total_degree() == 4


def test_g2_shape():
    assert len(g2()) == 12


def test_g1_fixed_by_flip():
    assert PHI1.on_polynomial(g1()) == g1()


def test_chart_shifted_coefficients():
    shifted = jet_coeffs(d4_surface(), 5, (2, 1, 2))
    assert shifted[4] == P("x2^2 - y1^2*z2")
    assert shifted[5] == P("2*x2*x3 - 2*y1*y2*z2 - y1^2*z3")


def test_g1_identity_exact():
    shifted = jet_coeffs(d4_surface(), 5, (2, 1, 2))
    f4, f5 = shifted[4], shifted[5]
    lhs = P("y1^2") * g1()
    rhs = f5 * f5 - 4 * P("x3^2") * f4 + 4 * P("y1*y2*z2") * f5
    assert lhs == rhs
    assert not (lhs - rhs)


def test_g1_identity_report():
    for m in (5, 6, 8):
        assert verify_g1_identity(m).outcome == gb.VERIFIED


def test_chart_transport_needs_no_basis_and_g1_needs_the_budget():
    with gb.session(gb.Budget(max_spairs=0)):
        # the presolve and the generator certificate settle every transport
        # membership, so a zero budget leaves it verified with no S-pair
        transport = verify_chart_transport(8)
        assert (transport.outcome, transport.spairs_processed) == (gb.VERIFIED, 0)
        # the identity holds; only the membership it stands on is undecided
        assert verify_g1_identity(5).outcome == gb.BUDGET_EXHAUSTED


def test_g2_identity_report():
    rep = verify_g2_identity()
    assert rep.outcome == gb.VERIFIED


def test_g2_identity_value():
    pulled = PHI2_INV.on_polynomial(g1())
    swapped = __import__("jetfibers.poly", fromlist=["linear_substitute"]).linear_substitute(
        pulled, {var_code("y", 1): P("z1")}
    )
    assert swapped == Fraction(1, 4) * g2()


def test_g1_membership_consequence():
    fam = d4_ideals(5)
    assert gb.member(P("y1^2") * g1(), fam.j[1]).verified


# ---------------------------------------------------------------------------
# coordinate lemma


def test_coordinate_lemma_all_pairs():
    for i, j in ((1, 2), (1, 3), (2, 3)):
        assert verify_coordinate_lemma(5, i, j).outcome == gb.VERIFIED


def test_square_congruence():
    coeffs = jet_coeffs(d4_surface(), 5)
    diff = P("x2^2") - coeffs[4]
    killed = {var_code(f, i) for f in "xy" for i in range(2)} | {
        var_code("z", 0),
        var_code("z", 1),
    }
    for mono, _ in diff.items():
        assert any(code in killed for code, _ in mono)


def test_coordinate_lemma_is_radical_queries_and_the_congruence(monkeypatch):
    from jetfibers import d4

    queries = []
    radical_member = gb.radical_member

    def recorded(*args, **kwargs):
        report = radical_member(*args, **kwargs)
        queries.append(report.claim)
        return report

    def no_member(*args, **kwargs):
        raise AssertionError("the coordinate lemma makes no plain member query")

    monkeypatch.setattr(d4.gb, "radical_member", recorded)
    monkeypatch.setattr(d4.gb, "member", no_member)
    rep = verify_coordinate_lemma(8, 2, 3)
    assert rep.outcome == gb.VERIFIED
    congruence, containment = rep.certificate["subchecks"]
    assert congruence["claim"] == "x2^2 matches f^(4) modulo L(2,2,2)"
    assert containment["claim"] == "I0(m8) subset sqrt J2+J3(m8)"
    # one radical query per generator of I0, in order, under the one claim
    gens = d4_ideals(8).i0.generators
    assert queries == [containment["claim"]] * len(gens)
    assert congruence["outcome"] == containment["outcome"] == gb.VERIFIED
    # x2, generator #2, is the one query the presolve leaves: the residual's
    # first generator is x2^2, so the split has the one branch x2 = 0, on
    # which x2 restricts to zero, and no basis is built
    trivial = {"kind": "radical-trick", "trivial": True}
    cert = containment["certificate"]
    assert cert["decided"] == [[2, {"kind": "split", "branches": {"x2": trivial}}]]
    assert "failed" not in cert
    assert sorted(cert["restricts_to_zero"] + [k for k, _ in cert["generator"]] + [2]) == list(
        range(len(gens))
    )
    assert rep.spairs_processed == 0


def test_chart_sum_lists_the_jet_equations_once():
    fam = d4_ideals(8)
    pair = fam.j[2] + fam.j[3]
    assert len(pair.generators) == len(set(fam.j[2].generators) | set(fam.j[3].generators))
    assert len(pair.presolved().residual.generators) == 5


def test_coordinate_lemma_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_coordinate_lemma(5, 1, 1)
    with pytest.raises(ValueError):
        verify_coordinate_lemma(4, 1, 2)


# ---------------------------------------------------------------------------
# witnesses


def test_witness_points():
    q = point_q()
    assert q[var_code("x", 3)] == -1
    assert point_q_prime(0) == q
    assert point_p_prime(0) == point_p()


def test_reduced_g2_value_at_q():
    from jetfibers.an import Ladder

    h = gb.restrict_to_residual(g2(), Ladder(3, 2, 2).codes())
    assert h == P(
        "-y2^4 - 4*y2^3*z2 + 2*y2^2*z2^2 + 12*y2*z2^3 - 9*z2^4 + 8*x3^2*y2 - 8*x3^2*z2"
    )
    assert evaluate(h, point_q()) == -32


def test_surface_order_along_q():
    f = d4_surface()
    assert t_order(f, point_q(), 7) == 6
    assert t_order(f, point_q(), 5) is None  # truncation-limited at order 5


def test_chart_ideal_vanishes_along_q_prime():
    fam = d4_ideals(5)
    for s in (1, 2, -1):
        values = point_q_prime(s)
        for g in fam.j[1].generators:
            assert evaluate(g, values) == 0


def test_y2_at_p():
    assert point_p()[var_code("y", 2)] == 1


def test_witness_reports():
    assert witness_checks(5).outcome == gb.VERIFIED
    assert witness_checks(6).outcome == gb.VERIFIED


def test_witness_chain_engine_subchecks_at_m6():
    rep = witness_checks(6)
    claims = {s["claim"]: s["outcome"] for s in rep.certificate["subchecks"]}
    assert claims["z2 in sqrt I0+J1+(g1) m6"] == gb.VERIFIED
    assert claims["x3 in sqrt I0+J1+(g1) m6"] == gb.VERIFIED
    assert claims["y2 in sqrt I0+J1+J2+(g1,g2) m6"] == gb.VERIFIED
    assert claims["y2 avoids sqrt I0+J1+(g1) m6"] == gb.VERIFIED


@pytest.mark.parametrize("m", [6, 7, 8, 11, 14])
def test_strictness_stands_on_the_point_p_at_every_order(m):
    rep = witness_checks(m)
    assert rep.outcome == gb.VERIFIED
    subs = {s["claim"]: s for s in rep.certificate["subchecks"]}
    assert subs[f"y2 avoids sqrt I0+J1+(g1) m{m}"] == {
        "claim": f"y2 avoids sqrt I0+J1+(g1) m{m}",
        "outcome": gb.VERIFIED,
        "certificate": {"point": {"y2": "1"}, "value": "1"},
    }
    # the positive chain queries stay behind the m <= 7 guard
    assert (f"z2 in sqrt I0+J1+(g1) m{m}" in subs) == (m <= 7)


def _chain_ideal(m):
    fam = d4_ideals(m)
    return fam.i0 + fam.j[1] + gb.Ideal([g1()])


def test_a_point_off_the_variety_falls_back_to_the_engine():
    # x2 = 1 moves P off V(I0+J1+(g1)), where x2 is a generator: the point
    # check fails and names it, and the engine decides "y2 avoids" with the
    # outcome it had when it stood on the engine alone
    u1 = _chain_ideal(6)
    y2 = P("y2")
    moved = {var_code("x", 2): Fraction(1), var_code("y", 2): Fraction(1)}
    rep = avoids_at(y2, u1, moved, claim="y2 avoids sqrt u1")
    engine = gb.expect_refuted(gb.radical_member(y2, u1, claim="y2 avoids sqrt u1"))
    failed = rep.certificate["point check"]
    assert failed["point"] == {"x2": "1", "y2": "1"}
    assert failed["value"] == "1"
    assert "x2" in failed["nonvanishing"]
    assert all(evaluate(P(g), moved) for g in failed["nonvanishing"])
    assert rep.certificate["engine"] == engine.certificate
    assert (rep.outcome, rep.spairs_processed) == (engine.outcome, engine.spairs_processed)
    assert rep.outcome == gb.VERIFIED and rep.spairs_processed > 0


@pytest.mark.parametrize(
    "text, point, outcome",
    [
        # z2 and x3 lie in the radical and vanish at P: the claims are false
        ("z2", point_p(), gb.REFUTED),
        ("x3", point_p(), gb.REFUTED),
        # y2 lies outside the radical but vanishes at the origin
        ("y2", {}, gb.VERIFIED),
    ],
)
def test_a_zero_of_p_never_verifies(text, point, outcome):
    u1 = _chain_ideal(6)
    p = P(text)
    assert vanishes_at("on V", u1, point).verified and not evaluate(p, point)
    rep = avoids_at(p, u1, point, claim=f"{text} avoids sqrt u1")
    engine = gb.expect_refuted(gb.radical_member(p, u1, claim=f"{text} avoids sqrt u1"))
    assert rep.certificate["point check"]["value"] == "0"
    assert rep.outcome == engine.outcome == outcome


# ---------------------------------------------------------------------------
# component ideals: the chart-level certificates against the saturated
# ideals I^i = J^i : y1^inf of references.d4_component_ideal


def test_g1_lands_in_first_component():
    i1 = d4_component_ideal(5, 1)
    assert gb.member(g1(), i1).verified


def test_g2_lands_in_second_component():
    i2 = d4_component_ideal(5, 2)
    assert gb.member(g2(), i2).verified


def test_y1_avoids_component_radicals():
    for i in (1, 2, 3):
        comp = d4_component_ideal(5, i)
        assert gb.radical_member(P("y1"), comp).outcome == gb.REFUTED


@pytest.mark.parametrize("m", [5, 6])
def test_y1_avoids_component_radicals_at_the_chart_points(m):
    # P'(1) on the first component, phi2(P'(1)) on the second and
    # phi2_inv(P'(1)) on the third: each ideal vanishes and y1 does not
    for i in (1, 2, 3):
        comp = d4_component_ideal(m, i)
        rep = avoids_at(P("y1"), comp, chart_point(i), claim=f"y1 avoids sqrt I{i}")
        assert rep.outcome == gb.VERIFIED and rep.spairs_processed == 0
        assert "point" in rep.certificate and rep.certificate["value"] != "0"
    # the component report takes the same points, on the chart ideals J^i
    subs = _component_subchecks(m)
    for i in (1, 2, 3):
        sub = subs[f"y1 avoids sqrt I{i}(m{m})"]
        assert sub["certificate"]["stands on"] == f"y1 avoids sqrt J{i}(m{m})"
        assert "point" in sub["certificate"]["certificate"]


def test_flip_swaps_saturated_components():
    i2 = d4_component_ideal(5, 2)
    i3 = d4_component_ideal(5, 3)
    for g in PHI1.on_ideal(i2).generators:
        assert gb.member(g, i3).verified
    for g in PHI1.on_ideal(i3).generators:
        assert gb.member(g, i2).verified
    # the component report holds one containment report per direction, of
    # the chart ideals, whose groups list every generator index once
    fam = d4_ideals(5)
    flip = _component_subchecks(5)["y-flip swaps components 2 and 3 (m5)"]
    parts = flip["certificate"]["subchecks"]
    assert [p["claim"] for p in parts] == ["phi1(J2) subset J3(m5)", "phi1(J3) subset J2(m5)"]
    for part, src in zip(parts, (fam.j[2], fam.j[3])):
        cert = part["certificate"]
        assert part["outcome"] == gb.VERIFIED and cert["kind"] == "generators"
        assert "failed" not in cert
        listed = cert["restricts_to_zero"] + [k for k, _ in cert["generator"] + cert["decided"]]
        assert sorted(listed) == list(range(len(src.generators)))


def test_component_dimensions():
    fam = d4_ideals(5)
    ambient = jet_variables(5)
    assert gb.krull_dim(fam.i0, ambient) == 11
    assert gb.krull_dim(d4_component_ideal(5, 1), ambient) == 11


def test_saturation_puts_back_the_linear_chart_generator():
    # the presolve solves y1 - z1 for y1; the saturated ideal must hold that
    # generator itself, not only the coordinates set to zero
    fam = d4_ideals(5)
    i2 = d4_component_ideal(5, 2)
    assert P("y1 - z1") in i2.generators
    assert gb.member(P("y1 - z1"), i2).verified
    # the pivot counts against the dimension once, as a coordinate does
    ambient = jet_variables(5)
    for ideal in (fam.i0, d4_component_ideal(5, 1), i2, d4_component_ideal(5, 3)):
        assert gb.krull_dim(ideal, ambient) == 2 * 5 + 1


def test_component_report():
    assert verify_component_ideals(5).outcome == gb.VERIFIED


def _component_subchecks(m):
    """claim -> subcheck of the component report at order m."""
    subs = verify_component_ideals(m).certificate["subchecks"]
    return {s["claim"]: s for s in subs}


def _off_y1(m):
    """J1 + (1 - w0*y1) at order m, with its ambient ring."""
    w = var_code("w", 0)
    ideal = d4_ideals(m).j[1] + gb.Ideal([Polynomial.one() - Polynomial.variable(w) * P("y1")])
    return ideal, jet_variables(m) + (w,)


@pytest.mark.parametrize("m", [5, 6])
def test_chart_certificates_agree_with_the_saturated_components(m):
    fam = d4_ideals(m)
    comps = {i: d4_component_ideal(m, i) for i in (1, 2, 3)}
    subs = _component_subchecks(m)
    assert all(s["outcome"] == gb.VERIFIED for s in subs.values())
    # g_i in I^i, as the chart certificate y1^2*g_i in L^i+(f4,f5) says
    for i, g in ((1, g1()), (2, g2())):
        assert gb.member(g, comps[i]).verified
        assert subs[f"g{i} in I{i}(m{m})"]["certificate"]["stands on"] == (
            f"y1^2*g{i} in L{i}+(f4,f5)(m{m})"
        )
    # y1 outside sqrt I^i, as outside sqrt J^i
    for i in (1, 2, 3):
        assert gb.radical_member(P("y1"), comps[i]).outcome == gb.REFUTED
        assert gb.radical_member(P("y1"), fam.j[i]).outcome == gb.REFUTED
    # phi1 swaps I2 and I3, as it swaps J2 and J3
    for src, dst in ((2, 3), (3, 2)):
        assert gb.generators_in("flip", PHI1.on_ideal(comps[src]).generators, comps[dst]).verified
    # dim I1 = dim J1+(1-w0*y1) = 2m+1
    off_y1, ambient = _off_y1(m)
    dim = gb.krull_dim(comps[1], jet_variables(m))
    assert dim == gb.krull_dim(off_y1, ambient) == 2 * m + 1
    dims = subs[f"component dimensions equal {2 * m + 1} at m{m}"]["certificate"]
    assert dims == {"I0": 2 * m + 1, f"J1(m{m})+(1-w0*y1)": dim}


@pytest.mark.parametrize("m", [5, 6, 7])
def test_y1_times_g2_is_not_in_the_second_chart_ideal(m):
    # the power 2 of the g2 certificate is needed
    assert gb.member(P("y1") * g2(), d4_ideals(m).j[2]).outcome == gb.REFUTED


def test_the_power_one_refutes_g2_in_i2(monkeypatch):
    monkeypatch.setattr(d4, "Y1_POWER", 1)
    sub = _component_subchecks(5)["g2 in I2(m5)"]
    assert sub["outcome"] == gb.REFUTED
    assert sub["certificate"]["stands on"] == "y1^1*g2 in L2+(f4,f5)(m5)"
    assert sub["certificate"]["certificate"]["remainder"] != "0"
    assert verify_component_ideals(5).outcome == gb.REFUTED


def test_a_chart_point_off_the_chart_falls_back_to_the_engine(monkeypatch):
    # x0 = 1 puts each chart point off V(J^i), where x0 is a generator: the
    # point decides nothing, and the engine's radical query decides alone
    moved = {i: {**chart_point(i), var_code("x", 0): Fraction(1)} for i in (1, 2, 3)}
    monkeypatch.setattr(d4, "chart_point", moved.__getitem__)
    subs = _component_subchecks(5)
    for i in (1, 2, 3):
        sub = subs[f"y1 avoids sqrt I{i}(m5)"]
        cert = sub["certificate"]["certificate"]
        assert set(cert) == {"point check", "engine"}
        assert "x0" in cert["point check"]["nonvanishing"]
        assert cert["engine"]["kind"] in ("split", "radical-trick")
        assert sub["outcome"] == gb.VERIFIED


@pytest.mark.parametrize("shift", [-1, 1])
def test_a_wrong_dimension_refutes(monkeypatch, shift):
    krull_dim = gb.krull_dim
    monkeypatch.setattr(gb, "krull_dim", lambda ideal, ambient: krull_dim(ideal, ambient) + shift)
    report = verify_component_ideals(5)
    sub = _component_subchecks(5)["component dimensions equal 11 at m5"]
    assert sub["outcome"] == gb.REFUTED and sub["certificate"]["I0"] == 11 + shift
    assert report.outcome == gb.REFUTED


def test_a_dimension_out_of_budget_is_undecided(monkeypatch):
    def exhausted(ideal, ambient):
        raise gb.BudgetExhausted("buchberger", 0, 0.0)

    monkeypatch.setattr(gb, "krull_dim", exhausted)
    sub = _component_subchecks(5)["component dimensions equal 11 at m5"]
    assert sub["outcome"] == gb.BUDGET_EXHAUSTED
    assert sub["certificate"] == {"kind": "budget", "context": "buchberger"}


def test_flip_fixes_distinguished_generators_up_to_sign():
    fam = d4_ideals(5)
    for g in fam.i0.generators:
        image = PHI1.on_polynomial(g)
        assert image == g or image == -g
    for g in fam.j[1].generators:
        image = PHI1.on_polynomial(g)
        assert image == g or image == -g


# ---------------------------------------------------------------------------
# the theorem


def test_complete_intersection_remark():
    assert verify_complete_intersection_remark(5).outcome == gb.VERIFIED


def test_maximal_intersections():
    for m in (5, 6):
        pairs, report = d4_maximal_intersections(m)
        assert pairs == ((0, 1), (0, 2), (0, 3))
        assert report.outcome == gb.VERIFIED


def test_suite_all_verified():
    for m in (5, 6):
        reports = verify_suite(m)
        assert all(r.outcome == gb.VERIFIED for r in reports), [
            (r.claim, r.outcome) for r in reports if r.outcome != gb.VERIFIED
        ]


def _plain_image(auto, p):
    """auto on p by one linear substitution with its matrix written out."""
    mapping = {}
    for code in p.variables():
        idx = var_index(code)
        y, z = P(f"y{idx}"), P(f"z{idx}")
        if var_family(code) == "y":
            mapping[code] = auto.yy * y + auto.yz * z
        elif var_family(code) == "z":
            mapping[code] = auto.zy * y + auto.zz * z
    return linear_substitute(p, mapping)


def test_memoized_transport_equals_plain_substitution():
    polys = set(jet_coeffs(d4_surface(), 8))
    for m in range(5, 9):
        fam = d4_ideals(m)
        for ideal in (*fam.charts.values(), fam.i0):
            polys.update(ideal.generators)
    for auto in (PHI1, PHI2, PHI2_INV):
        for p in polys:
            image = auto.on_polynomial(p)
            assert image == _plain_image(auto, p)
            assert auto.on_polynomial(p) is image


def test_chart_transport_reuses_the_invariance_images():
    # phi-invariance transports f^(0..8) first; the chart transport at m=6
    # then computes only the images of the chart and ladder generators
    Automorphism.on_polynomial.cache_clear()
    verify_phi_invariance(8)
    before = Automorphism.on_polynomial.cache_info().misses
    assert before == 2 * 9
    verify_chart_transport(6)
    fam = d4_ideals(6)
    coeffs = set(jet_coeffs(d4_surface(), 8))
    others = {g for i in (fam.i0, *fam.charts.values()) for g in i.generators} - coeffs
    assert Automorphism.on_polynomial.cache_info().misses - before == 2 * len(others)


@pytest.mark.parametrize("m", [5, 6, 7, 8])
def test_a_repeated_suite_transports_nothing_again(m):
    verify_suite(m)
    before = Automorphism.on_polynomial.cache_info()
    verify_suite(m)
    after = Automorphism.on_polynomial.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits


@pytest.mark.parametrize("m", [5, 6])
def test_suite_runs_each_check_once(monkeypatch, m):
    from jetfibers import d4

    calls = {}

    def counted(name):
        original = getattr(d4, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(d4, name, wrapper)

    for name in (
        "witness_checks",
        "verify_chart_transport",
        "verify_g1_identity",
        "verify_coordinate_lemma",
        "d4_maximal_intersections",
    ):
        counted(name)
    reports = d4.verify_suite(m)
    assert calls == {
        "witness_checks": 1,
        "verify_chart_transport": 1,
        "verify_g1_identity": 1,
        "verify_coordinate_lemma": 3,
    }
    (theorem,) = [r for r in reports if r.claim == f"maximal pairs at m{m}"]
    pairs, report = d4_maximal_intersections(m)
    assert theorem.certificate == {"pairs": [list(p) for p in pairs]}
    assert (theorem.outcome, theorem.spairs_processed) == (
        report.outcome,
        report.spairs_processed,
    )


def test_maximal_intersections_cite_every_coordinate_lemma():
    identities, separation = d4._theorem_facts(6)
    claims = [r.claim for r in identities + separation]
    lemmas = [c for c in claims if c.startswith("distinguished ideal inside")]
    assert lemmas == [
        f"distinguished ideal inside sqrt(J{i}+J{j}) at m6" for i, j in ((1, 2), (1, 3), (2, 3))
    ]
    assert not [c for c in claims if "transports" in c]
    lemma_spairs = sum(
        verify_coordinate_lemma(6, i, j).spairs_processed for i, j in ((1, 3), (2, 3))
    )
    # the three presolved chart sums coincide, and each lemma answers x2
    # by the split on x2^2, with no basis
    assert lemma_spairs == 0 + 0


def test_maximal_intersections_take_a_failed_lemma(monkeypatch):
    from jetfibers import d4

    original = d4.verify_coordinate_lemma

    def failing_on_23(m, i, j):
        report = original(m, i, j)
        if (i, j) == (2, 3):
            report.outcome = gb.REFUTED
        return report

    monkeypatch.setattr(d4, "verify_coordinate_lemma", failing_on_23)
    _, report = d4_maximal_intersections(5)
    assert report.outcome == gb.REFUTED
    (theorem,) = [r for r in d4.verify_suite(5) if r.claim == "maximal pairs at m5"]
    assert theorem.outcome == gb.REFUTED


@pytest.mark.parametrize("m", [5, 6])
def test_one_maximal_pairs_report(m):
    pairs, report = d4_maximal_intersections(m)
    assert pairs == ((0, 1), (0, 2), (0, 3))
    assert report.to_json_dict() == verify_suite(m)[-1].to_json_dict()
    assert report.claim == f"maximal pairs at m{m}"
    assert report.certificate == {"pairs": [[0, 1], [0, 2], [0, 3]]}


def test_d4_graph_exits_on_a_failed_lemma(monkeypatch, capsys):
    from jetfibers.cli import main

    original = d4.verify_coordinate_lemma

    def failing_on_23(m, i, j):
        report = original(m, i, j)
        if (i, j) == (2, 3):
            report.outcome = gb.REFUTED
        return report

    monkeypatch.setattr(d4, "verify_coordinate_lemma", failing_on_23)
    assert main(["d4", "graph", "--m", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "maximal-intersection verification refuted" in captured.err


def test_certificate_polynomials_are_parsed_once():
    assert g1() is g1()
    assert g2() is g2()

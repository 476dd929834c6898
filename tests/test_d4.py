from fractions import Fraction

import pytest

from jetfibers import groebner as gb
from jetfibers.d4 import (
    PHI1,
    PHI2,
    PHI2_INV,
    d4_ideals,
    d4_maximal_intersections,
    g1,
    g2,
    point_p,
    point_p_prime,
    point_q,
    point_q_prime,
    shifted_chart_coeffs,
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
from jetfibers.jets import d4_surface, jet_coeffs
from jetfibers.poly import (
    JetPoint,
    Polynomial,
    evaluate,
    jet_point_values,
    jet_variables,
    parse_polynomial,
    t_order,
    var_code,
)


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
    pt = JetPoint.make(5, y={1: 1}, z={1: 2})
    image = PHI1.on_point(pt)
    assert image.ys[1] == -1 and image.zs[1] == 2
    assert PHI1.on_polynomial(P("y0")) == P("-y0")


def test_algebra_report():
    assert verify_automorphism_algebra().outcome == gb.VERIFIED
    assert verify_phi_invariance(8).outcome == gb.VERIFIED
    assert verify_chart_transport(5).outcome == gb.VERIFIED


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
    shifted = shifted_chart_coeffs()
    assert shifted[4] == P("x2^2 - y1^2*z2")
    assert shifted[5] == P("2*x2*x3 - 2*y1*y2*z2 - y1^2*z3")


def test_g1_identity_exact():
    shifted = shifted_chart_coeffs()
    f4, f5 = shifted[4], shifted[5]
    lhs = P("y1^2") * g1()
    rhs = f5 * f5 - 4 * P("x3^2") * f4 + 4 * P("y1*y2*z2") * f5
    assert lhs == rhs
    assert (lhs - rhs).is_zero


def test_g1_identity_report():
    for m in (5, 6, 8):
        assert verify_g1_identity(m).outcome == gb.VERIFIED


def test_budget_reaches_chart_transport_and_g1():
    with gb.session(gb.Budget(max_spairs=0)):
        assert verify_chart_transport(8).outcome == gb.BUDGET_EXHAUSTED
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


def test_coordinate_lemma_certificate_combination():
    rep = verify_coordinate_lemma(5, 1, 2)
    named = {s["claim"]: s for s in rep.certificate["subchecks"]}
    combo = named["y1 in span of chart generators (1,2)"]
    assert combo["outcome"] == gb.VERIFIED
    assert combo["certificate"]["combination"]


def test_square_congruence():
    coeffs = jet_coeffs(d4_surface(), 5)
    diff = P("x2^2") - coeffs[4]
    killed = {var_code(f, i) for f in "xy" for i in range(2)} | {
        var_code("z", 0),
        var_code("z", 1),
    }
    for mono, _ in diff.items():
        assert any(code in killed for code, _ in mono)


def test_coordinate_lemma_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_coordinate_lemma(5, 1, 1)
    with pytest.raises(ValueError):
        verify_coordinate_lemma(4, 1, 2)


# ---------------------------------------------------------------------------
# witnesses


def test_witness_points():
    q = point_q(5)
    assert jet_point_values(q)[var_code("x", 3)] == -1
    assert point_q_prime(5, 0) == q
    assert point_p_prime(6, 0) == point_p(6)


def test_reduced_g2_value_at_q():
    from jetfibers.an import Ladder

    h = gb.restrict_to_residual(g2(), Ladder(3, 2, 2).codes())
    assert h == P(
        "-y2^4 - 4*y2^3*z2 + 2*y2^2*z2^2 + 12*y2*z2^3 - 9*z2^4 + 8*x3^2*y2 - 8*x3^2*z2"
    )
    assert evaluate(h, jet_point_values(point_q(5))) == -32


def test_surface_order_along_q():
    f = d4_surface().ambient_polynomial()
    assert t_order(point_q(7), f) == 6
    assert t_order(point_q(5), f) is None  # truncation-limited at order 5


def test_chart_ideal_vanishes_along_q_prime():
    fam = d4_ideals(5)
    for s in (1, 2, -1):
        values = jet_point_values(point_q_prime(5, s))
        for g in fam.j[1].generators:
            assert evaluate(g, values) == 0


def test_y2_at_p():
    assert jet_point_values(point_p(6))[var_code("y", 2)] == 1


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


# ---------------------------------------------------------------------------
# component ideals (saturation level)


def test_g1_lands_in_first_component():
    i1 = d4_ideals(5).component_ideal(1)
    assert gb.member(g1(), i1).verified


def test_g2_lands_in_second_component():
    i2 = d4_ideals(5).component_ideal(2)
    assert gb.member(g2(), i2).verified


def test_y1_avoids_component_radicals():
    for i in (1, 2, 3):
        comp = d4_ideals(5).component_ideal(i)
        assert gb.radical_member(P("y1"), comp).outcome == gb.REFUTED


def test_flip_swaps_saturated_components():
    i2 = d4_ideals(5).component_ideal(2)
    i3 = d4_ideals(5).component_ideal(3)
    for g in PHI1.on_ideal(i2).generators:
        assert gb.member(g, i3).verified
    for g in PHI1.on_ideal(i3).generators:
        assert gb.member(g, i2).verified


def test_component_dimensions():
    fam = d4_ideals(5)
    ambient = jet_variables(5)
    assert gb.krull_dim(fam.i0, ambient) == 11
    assert gb.krull_dim(fam.component_ideal(1), ambient) == 11


def test_component_report():
    assert verify_component_ideals(5).outcome == gb.VERIFIED


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
    _, report = d4_maximal_intersections(6)
    claims = [sub["claim"] for sub in report.certificate["subchecks"]]
    lemmas = [c for c in claims if c.startswith("distinguished ideal inside")]
    assert lemmas == [
        f"distinguished ideal inside sqrt(J{i}+J{j}) at m6" for i, j in ((1, 2), (1, 3), (2, 3))
    ]
    assert not [c for c in claims if "transports" in c]
    lemma_spairs = sum(
        verify_coordinate_lemma(6, i, j).spairs_processed for i, j in ((1, 3), (2, 3))
    )
    assert lemma_spairs == 39 + 216


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

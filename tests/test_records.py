"""The package's records: immutable tuples with named fields, and the
mutable verification report, which every rewrapping copies."""

import pytest

from jetfibers import groebner as gb
from jetfibers.an import ComponentDescriptor, Ladder, decompose_intersection
from jetfibers.d4 import PHI1, Automorphism, _on_chart, d4_ideals
from jetfibers.graphs import resolution_graph
from jetfibers.poly import Polynomial, parse_polynomial, var_code
from jetfibers.witnesses import avoids_at

RECORDS = {
    "Ladder": (lambda: Ladder(1, 2, 3), "p"),
    "ComponentDescriptor": (lambda: ComponentDescriptor(Ladder(1, 1, 2), (4, 5)), "f_tail"),
    "IntersectionDecomposition": (lambda: decompose_intersection(3, 8, 1, 2), "case"),
    "D4IdealFamily": (lambda: d4_ideals(5), "m"),
    "Automorphism": (lambda: PHI1, "yy"),
    "IntersectionGraph": (lambda: resolution_graph("D4"), "edges"),
    "MonomialOrder": (lambda: gb.MonomialOrder(), "eliminate"),
    "Budget": (lambda: gb.Budget(), "max_spairs"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_assignment(name):
    make, field = RECORDS[name]
    record = make()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):  # no __dict__ to take a new name
        record.extra = None
    assert getattr(record, field) is before


@pytest.mark.parametrize("heights", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
def test_ladder_refuses_negative_heights(heights):
    with pytest.raises(ValueError, match="nonnegative"):
        Ladder(*heights)


def test_monomial_order_refuses_a_jet_variable():
    with pytest.raises(ValueError, match="auxiliary"):
        gb.MonomialOrder(var_code("x", 0))


def test_record_defaults():
    assert (gb.Budget().max_spairs, gb.Budget().max_seconds) == (100_000, 300.0)
    assert gb.Budget(max_spairs=5).max_seconds == 300.0
    assert ComponentDescriptor(Ladder(1, 2, 1)).f_tail is None
    assert gb.MonomialOrder().eliminate is None


def test_an_equal_automorphism_hits_the_cache():
    p = parse_polynomial("y3*z1 - y0^2 + x2*z4")
    twin = Automorphism(*PHI1)
    assert twin == PHI1 and twin is not PHI1
    image = PHI1.on_polynomial(p)
    hits = Automorphism.on_polynomial.cache_info().hits
    assert twin.on_polynomial(p) is image
    assert Automorphism.on_polynomial.cache_info().hits == hits + 1


def _fields(report):
    return (
        report.claim, report.outcome, report.certificate, report.spairs_processed, report.seconds
    )


def _report(outcome):
    return gb.VerificationReport("claim", outcome, {"kind": "test"}, 7, 0.25)


@pytest.mark.parametrize("outcome", [gb.VERIFIED, gb.REFUTED, gb.BUDGET_EXHAUSTED])
def test_expect_refuted_leaves_its_input_unchanged(outcome):
    report = _report(outcome)
    before = _fields(report)
    flipped = gb.expect_refuted(report)
    assert _fields(report) == before
    swapped = {gb.VERIFIED: gb.REFUTED, gb.REFUTED: gb.VERIFIED}.get(outcome, outcome)
    assert _fields(flipped) == ("claim", swapped) + before[2:]


def test_avoids_at_leaves_the_engine_report_unchanged(monkeypatch):
    # the point check fails (x0 does not vanish at x0 = 1), so the engine's
    # report, here a fixed object, decides the claim
    engine = _report(gb.REFUTED)
    monkeypatch.setattr(gb, "radical_member", lambda p, ideal, claim: engine)
    before = _fields(engine)
    x0, y0 = (Polynomial.variable(var_code(v, 0)) for v in "xy")
    got = avoids_at(y0, gb.Ideal([x0]), {var_code("x", 0): 1}, claim="y0 avoids sqrt (x0)")
    assert _fields(engine) == before
    assert got.outcome == gb.VERIFIED
    assert got.certificate["engine"] is engine.certificate
    assert (got.claim, got.spairs_processed, got.seconds) == ("claim", 7, 0.25)


def test_on_chart_leaves_the_fact_unchanged():
    fact = _report(gb.VERIFIED)
    before = _fields(fact)
    got = _on_chart("chart claim", fact)
    assert _fields(fact) == before
    assert _fields(got) == (
        "chart claim",
        gb.VERIFIED,
        {"stands on": "claim", "certificate": {"kind": "test"}},
        7,
        0.25,
    )

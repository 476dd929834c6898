"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.
"""

import itertools
import json
import time
from fractions import Fraction

import pytest

from jetfibers import an as an_mod
from jetfibers import d4 as d4_mod
from jetfibers import graphs
from jetfibers import groebner as gb
from jetfibers.cli import _an_graph as an_graph
from jetfibers.cli import main as cli_main
from jetfibers.jets import (
    an_surface,
    d4_surface,
    jet_coeffs,
    t_order,
)
from jetfibers.poly import (
    Polynomial,
    evaluate,
    parse_polynomial,
    var_code,
)
from references import fpqr_closed, g_shift, verify_containment_criterion


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:>2} {name}: {status}{suffix}", flush=True)
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def P(text):
    return parse_polynomial(text)


def test_criterion_01_worked_example_reproduction(capsys):
    code = cli_main(["expand", "x*y - z^2", "--m", "2"])
    out = capsys.readouterr().out
    expected = (
        "f^(0) = x0*y0 - z0^2\n"
        "f^(1) = x1*y0 + x0*y1 - 2*z0*z1\n"
        "f^(2) = x2*y0 + x1*y1 + x0*y2 - z1^2 - 2*z0*z2\n"
    )
    with capsys.disabled():
        _report(1, "first-order example reproduction", code == 0 and out == expected)


def test_criterion_02_table_reproduction(capsys):
    rows = an_mod.an_table(3, range(3, 8))
    expected = [
        (3, 7, 6, 5, 5, 6, 7, 1, 1),
        (4, 9, 8, 7, 6, 7, 8, 1, 1),
        (5, 11, 10, 10, 7, 8, 8, 2, 1),
        (6, 13, 12, 12, 8, 9, 9, 3, 2),
        (7, 15, 14, 14, 9, 10, 10, 4, 3),
    ]
    with capsys.disabled():
        _report(2, "summary table rows", rows == expected)


def test_criterion_03_closed_formula_oracle(capsys):
    start = time.monotonic()
    mismatches = 0
    checked = 0
    for n in (1, 2, 3, 4):
        for p, q, r in itertools.product(range(4), repeat=3):
            shifted = jet_coeffs(an_surface(n), 8, (p, q, r))
            for j in range(9):
                checked += 1
                if fpqr_closed(n, p, q, r, j) != shifted[j]:
                    mismatches += 1
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(
            3,
            "closed formula vs substitution oracle",
            mismatches == 0 and elapsed < 60.0,
            f"{checked} coefficients, {elapsed:.1f}s",
        )


def test_criterion_04_shift_lemma_suite(capsys):
    ok = True
    for n in (1, 2, 3):
        for e in (1, 2):
            base = e * (n + 1)
            for l in range(base + 1):
                for j in range(5):
                    m = base + j
                    lhs = jet_coeffs(an_surface(n), m, (l, base - l, e))[m]
                    if lhs != g_shift(n, l, e, j):
                        ok = False
    with capsys.disabled():
        _report(4, "shift identity suite", ok)


def test_criterion_05_decomposition_verification(capsys):
    outcomes = []
    for n in (2, 3):
        for m in range(n, 2 * n + 2):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    rep = an_mod.verify_decomposition(n, m, i, j)
                    outcomes.append(((n, m, i, j), rep.outcome))
    for m in (6, 7):
        rep = an_mod.verify_decomposition(2, m, 1, 2)
        outcomes.append(((2, m, 1, 2), rep.outcome))
    bad = [o for o in outcomes if o[1] != gb.VERIFIED]
    with capsys.disabled():
        _report(
            5,
            "pairwise decomposition verification",
            not bad,
            f"{len(outcomes)} decompositions" + (f"; failures: {bad}" if bad else ""),
        )


def test_criterion_06_containment_cross_check(capsys):
    ok = True
    for n in (2, 3):
        for m in range(n, n + 4):
            rep = verify_containment_criterion(n, m)
            if rep.outcome != gb.VERIFIED:
                ok = False
    with capsys.disabled():
        _report(6, "containment criterion vs engine", ok)


def test_criterion_07_exact_identities(capsys):
    shifted = jet_coeffs(d4_surface(), 5, (2, 1, 2))
    f4, f5 = shifted[4], shifted[5]
    lhs = P("y1^2") * d4_mod.g1()
    rhs = f5 * f5 - 4 * P("x3^2") * f4 + 4 * P("y1*y2*z2") * f5
    identity1 = lhs == rhs

    pulled = d4_mod.PHI2_INV.on_polynomial(d4_mod.g1())
    from jetfibers.poly import linear_substitute

    identity2 = linear_substitute(pulled, {var_code("y", 1): P("z1")}) == Fraction(
        1, 4
    ) * d4_mod.g2()

    coeffs = jet_coeffs(d4_surface(), 8)
    diff = P("x2^2") - coeffs[4]
    killed = {var_code(f, i) for f in "xy" for i in range(2)} | {
        var_code("z", 0),
        var_code("z", 1),
    }
    congruence = all(
        any(code in killed for code, _ in mono) for mono, _ in diff.items()
    )

    invariance = all(
        auto.on_polynomial(coeffs[j]) == coeffs[j]
        for auto in (d4_mod.PHI1, d4_mod.PHI2)
        for j in range(9)
    )
    ok = identity1 and identity2 and congruence and invariance
    with capsys.disabled():
        _report(7, "exact certificate identities", ok)


def test_criterion_08_witness_suite(capsys):
    fam5 = d4_mod.d4_ideals(5)
    h = gb.restrict_to_residual(d4_mod.g2(), an_mod.Ladder(3, 2, 2).codes())
    h_at_q = evaluate(h, d4_mod.point_q())
    y2_at_p = d4_mod.point_p()[var_code("y", 2)]
    vanishing = all(
        evaluate(g, d4_mod.point_q_prime(s)) == 0
        for s in (1, 2, -1)
        for g in fam5.j[1].generators
    )
    order = t_order(d4_surface(), d4_mod.point_q(), 7)

    chain = d4_mod.witness_checks(6)
    claims = {s["claim"]: s["outcome"] for s in chain.certificate["subchecks"]}
    chain_ok = (
        chain.outcome == gb.VERIFIED
        and claims.get("z2 in sqrt I0+J1+(g1) m6") == gb.VERIFIED
        and claims.get("x3 in sqrt I0+J1+(g1) m6") == gb.VERIFIED
        and claims.get("y2 in sqrt I0+J1+J2+(g1,g2) m6") == gb.VERIFIED
    )
    ok = h_at_q == -32 and y2_at_p == 1 and vanishing and order == 6 and chain_ok
    with capsys.disabled():
        _report(
            8,
            "witness suite",
            ok,
            f"h(Q)={h_at_q}, y2(P)={y2_at_p}, ord={order}",
        )


def test_criterion_09_graph_corollaries(capsys):
    ok = True
    for n in range(2, 7):
        for m in range(n, 2 * n + 4):
            g = an_graph(n, m)
            if not graphs.isomorphic(g, graphs.resolution_graph("An", n)):
                ok = False
    for m in (5, 6, 7, 8):
        pairs, report = d4_mod.d4_maximal_intersections(m)
        g = graphs.component_graph(range(4), pairs)
        if not (report.verified and graphs.isomorphic(g, graphs.resolution_graph("D4"))):
            ok = False
    with capsys.disabled():
        _report(9, "fiber graphs match resolution graphs", ok)


def test_criterion_10_saturation_check(capsys):
    downgraded = False
    with gb.session(gb.Budget(max_spairs=100_000, max_seconds=300.0)):
        try:
            component = gb.saturate(d4_mod.d4_ideals(5).j[1], P("y1"))
            ok = gb.member(d4_mod.g1(), component).verified
        except gb.BudgetExhausted:
            downgraded = True
            fallback = gb.member(P("y1^2") * d4_mod.g1(), d4_mod.d4_ideals(5).j[1])
            ok = fallback.verified
    with capsys.disabled():
        _report(
            10,
            "saturation-level certificate",
            ok,
            "downgraded to chart-level membership" if downgraded else "saturation",
        )


def test_criterion_11_determinism(tmp_path, capsys):
    commands = [
        ["an", "verify", "--n", "2", "--m", "6", "--format", "json"],
        ["d4", "verify", "--m", "5", "--format", "json"],
        ["d4", "verify", "--m", "6", "--format", "json"],
    ]
    ok = True
    for k, argv in enumerate(commands):
        paths = [tmp_path / f"run{k}_{t}.json" for t in (0, 1)]
        for path in paths:
            code = cli_main(argv + ["--out", str(path)])
            if code != 0:
                ok = False
        first, second = (p.read_bytes() for p in paths)
        if first != second:
            ok = False
        json.loads(first.decode("utf-8"))  # well-formed
    with capsys.disabled():
        _report(11, "byte-identical reports", ok)

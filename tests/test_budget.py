"""The engine budget lives in one place: the session a command opens.

Every public check, run inside session(Budget(max_spairs=0)), must come out
budget-exhausted whenever it needs any S-pair, and no check may be refuted
by a budget.  Only session takes a budget: the session object holds it,
one clock reading taken when the outermost session opens and one count of
the S-pairs popped so far, and no function below it keeps a budget or a
clock of its own.  The S-pair bound is exact on every pop and applies to
the session's total; the time since the session opened is read on
buchberger's first pop, before each reduction, before each branch of
radical_member's split and of an A_n cover walk, and before each pair of
an.verify_all_pairs, so two queries that each fit the limit exhaust it
together.  None takes an
ambient variable set.
"""

import inspect

import pytest

from jetfibers import an, d4, graphs
from jetfibers import groebner as gb
from jetfibers.jets import d4_surface, jet_coeffs
from jetfibers.poly import Polynomial, var_code
from references import verify_containment_criterion


def _suite(m):
    return gb.merge_reports(f"suite m{m}", d4.verify_suite(m))


CHECKS = {
    "an.verify_decomposition(2,7,1,2)": lambda: an.verify_decomposition(2, 7, 1, 2),
    "an.verify_decomposition(3,6,1,3)": lambda: an.verify_decomposition(3, 6, 1, 3),
    "an.verify_all_pairs(3,5)": lambda: gb.merge_reports("pairs", an.verify_all_pairs(3, 5)),
    "verify_containment_criterion(3,4)": lambda: verify_containment_criterion(3, 4),
    "d4.verify_g1_identity(6)": lambda: d4.verify_g1_identity(6),
    "d4.verify_g2_identity()": d4.verify_g2_identity,
    "d4.verify_phi_invariance()": d4.verify_phi_invariance,
    "d4.verify_automorphism_algebra()": d4.verify_automorphism_algebra,
    "d4.verify_complete_intersection_remark(5)": lambda: d4.verify_complete_intersection_remark(5),
    "d4.verify_chart_transport(8)": lambda: d4.verify_chart_transport(8),
    "d4.verify_coordinate_lemma(5,1,2)": lambda: d4.verify_coordinate_lemma(5, 1, 2),
    "d4.verify_coordinate_lemma(6,2,3)": lambda: d4.verify_coordinate_lemma(6, 2, 3),
    "d4.witness_checks(6)": lambda: d4.witness_checks(6),
    "d4.verify_component_ideals(5)": lambda: d4.verify_component_ideals(5),
    "d4.d4_maximal_intersections(6)": lambda: d4.d4_maximal_intersections(6)[1],
    "d4.verify_suite(5)": lambda: _suite(5),
}


@pytest.mark.parametrize("run", CHECKS.values(), ids=CHECKS.keys())
def test_zero_pair_budget_reaches_every_check(run):
    unbudgeted = run()
    with gb.session(gb.Budget(max_spairs=0)):
        budgeted = run()
    assert budgeted.outcome != gb.REFUTED
    if unbudgeted.spairs_processed > 0:
        assert budgeted.outcome == gb.BUDGET_EXHAUSTED


def _takers(module, parameter: str) -> set[str]:
    """Names of the functions and methods defined in module that take a
    parameter of the given name."""
    found = set()
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
        for attr, fn in members:
            if inspect.isfunction(fn) and parameter in inspect.signature(fn).parameters:
                found.add(name if attr is None else f"{name}.{attr}")
    return found


def test_only_the_session_takes_a_budget():
    for module in (an, d4, graphs):
        assert _takers(module, "budget") == set(), module.__name__
    # session() builds the one session object, which holds the budget
    assert _takers(gb, "budget") == {"session", "_Session.__init__"}


def test_no_function_takes_an_ambient_variable_set():
    # an ideal is its generators; krull_dim takes its ambient ring as an
    # argument of its own name
    for module in (gb, an, d4, graphs):
        assert _takers(module, "variables") == set(), module.__name__


def _d4_jet_ideal():
    return gb.Ideal(tuple(jet_coeffs(d4_surface(), 2)))


def _fake_clock(monkeypatch, jump_after: int) -> list:
    """Replace the engine's clock by one that reads 0 for its first
    jump_after reads and 1e6 after; returns the list of reads."""
    reads = []

    def monotonic():
        reads.append(1)
        return 0.0 if len(reads) <= jump_after else 1e6

    monkeypatch.setattr(gb.time, "monotonic", monotonic)
    return reads


def test_time_limit_stops_a_run_in_its_middle(monkeypatch):
    full = gb.buchberger(_d4_jet_ideal())
    _fake_clock(monkeypatch, jump_after=20)
    with gb.session(gb.Budget(max_seconds=10)):
        with pytest.raises(gb.BudgetExhausted) as exc:
            gb.buchberger(_d4_jet_ideal())
    assert exc.value.context == "buchberger"
    assert 1 < exc.value.spairs < full.spairs_processed


def test_zero_seconds_stop_at_the_first_pop_even_when_it_is_pruned():
    # the only pair of (x0, y0) has coprime leads and is never reduced
    xy = gb.Ideal([Polynomial.variable(var_code("x", 0)), Polynomial.variable(var_code("y", 0))])
    assert gb.buchberger(xy).spairs_processed == 1
    with gb.session(gb.Budget(max_seconds=0)):
        with pytest.raises(gb.BudgetExhausted) as exc:
            gb.buchberger(xy)
    assert exc.value.spairs == 1


def test_pruned_pairs_do_not_read_the_clock(monkeypatch):
    # the S-pair bound is exact on every pop; the clock is read when the
    # session opens, on the first pop and for the pairs that are reduced,
    # far fewer than those popped
    reads = _fake_clock(monkeypatch, jump_after=10**9)
    with gb.session(gb.Budget(max_seconds=10)):
        got = gb.buchberger(_d4_jet_ideal())
    assert 0 < len(reads) < got.spairs_processed
    monkeypatch.undo()
    with gb.session(gb.Budget(max_spairs=got.spairs_processed - 1)):
        with pytest.raises(gb.BudgetExhausted) as exc:
            gb.buchberger(_d4_jet_ideal())
    assert exc.value.spairs == got.spairs_processed


def test_the_radical_split_is_charged_to_the_time_budget(monkeypatch):
    # x0*y0*z0 splits the query into x0 = 0, y0 = 0 and z0 = 0, and
    # x0*y0*z0^2 restricts to zero on each branch: no basis is built, so
    # only the split can read the time budget
    x, y, z = (Polynomial.variable(var_code(v, 0)) for v in "xyz")
    monomial = gb.Ideal([x * y * z])
    p = x * y * z * z
    trivial = {"kind": "radical-trick", "trivial": True}

    reads = _fake_clock(monkeypatch, jump_after=10**9)
    with gb.session(gb.Budget(max_seconds=10)):
        rep = gb.radical_member(p, monomial)
    assert rep.outcome == gb.VERIFIED and rep.spairs_processed == 0
    assert rep.certificate == {
        "kind": "split", "branches": {"x0": trivial, "y0": trivial, "z0": trivial}
    }
    assert len(reads) >= 3  # one read before each branch at least

    # the clock passes the limit after the session opens and the query
    # starts: the split stops before its first branch
    monkeypatch.undo()
    _fake_clock(monkeypatch, jump_after=2)
    with gb.session(gb.Budget(max_seconds=10)):
        rep = gb.radical_member(p, monomial)
    assert rep.outcome == gb.BUDGET_EXHAUSTED
    assert rep.certificate == {"kind": "budget", "context": "radical split"}
    # without a session the default budget applies, timed from the
    # query's own start
    monkeypatch.undo()
    _fake_clock(monkeypatch, jump_after=2)
    assert gb.radical_member(p, monomial).outcome == gb.BUDGET_EXHAUSTED


def test_two_queries_share_the_session_clock(monkeypatch):
    # a clock that moves one second per read: each query reads it at its
    # start, before each of its three branches and at its end, so one query
    # spans 4 s and fits a 6 s limit, and the second one in the same session
    # starts past it
    x, y, z = (Polynomial.variable(var_code(v, 0)) for v in "xyz")
    monomial = gb.Ideal([x * y * z])
    p = x * y * z * z
    reads = []

    def monotonic():
        reads.append(1)
        return float(len(reads))

    monkeypatch.setattr(gb.time, "monotonic", monotonic)
    with gb.session(gb.Budget(max_seconds=6)):
        alone = gb.radical_member(p, monomial)
    assert alone.outcome == gb.VERIFIED
    with gb.session(gb.Budget(max_seconds=6)):
        first = gb.radical_member(p, monomial)
        second = gb.radical_member(p, monomial)
    assert first.outcome == gb.VERIFIED
    assert second.outcome == gb.BUDGET_EXHAUSTED
    assert second.certificate == {"kind": "budget", "context": "radical split"}


def test_a_cover_walk_crossing_the_limit_is_exhausted_not_refuted(monkeypatch):
    # a clock that moves one second per read: the session opens at 1, the
    # cover claim reads it at its start, before each of the seven branches
    # of the split of J(n3,m6;1,2) and at its end; a 4 s limit is crossed
    # at the fourth branch, inside the tree
    dec = an.decompose_intersection(3, 6, 1, 2)
    J = an.pair_ideal(3, 6, 1, 2)
    reads = []

    def monotonic():
        reads.append(1)
        return float(len(reads))

    monkeypatch.setattr(gb.time, "monotonic", monotonic)
    with gb.session(gb.Budget(max_seconds=100)):
        whole = an._cover_claim(dec, J)
    assert whole.outcome == gb.VERIFIED
    assert len(reads) == 3 + 7
    reads.clear()
    with gb.session(gb.Budget(max_seconds=4)):
        rep = an._cover_claim(dec, J)
    assert rep.outcome == gb.BUDGET_EXHAUSTED
    assert rep.claim == whole.claim
    assert rep.certificate == {"kind": "budget", "context": "cover split"}
    assert len(reads) == 1 + 1 + 4 + 1  # open, start, four branches, the report


def test_pairs_past_the_deadline_are_exhausted_and_never_presolved(monkeypatch):
    # the clock reads 0 until the first pair is decided and 1e6 after it:
    # the pair loop reads the clock before each pair, so the two later pairs
    # start past the limit and run no presolve, no cover walk and no query
    now = [0.0]
    monkeypatch.setattr(gb.time, "monotonic", lambda: now[0])
    decided, presolved = [], []
    decide, presolve = an.verify_decomposition, gb.linear_presolve

    def first_then_late(*pair):
        decided.append(pair)
        report = decide(*pair)
        now[0] = 1e6
        presolved.clear()
        return report

    monkeypatch.setattr(an, "verify_decomposition", first_then_late)
    monkeypatch.setattr(gb, "linear_presolve", lambda i: presolved.append(i) or presolve(i))
    with gb.session(gb.Budget(max_seconds=10)):
        reports = an.verify_all_pairs(3, 5)
    assert decided == [(3, 5, 1, 2)] and presolved == []
    assert [r.outcome for r in reports] == [gb.VERIFIED] + [gb.BUDGET_EXHAUSTED] * 2
    assert [r.claim for r in reports[1:]] == [
        "decomposition of J(n3,m5;1,3)",
        "decomposition of J(n3,m5;2,3)",
    ]
    for r in reports[1:]:
        assert r.certificate == {"kind": "budget", "context": "pair loop"}
        assert r.spairs_processed == 0

"""The engine budget lives in one place: the session a command opens.

Every public check, run inside session(Budget(max_spairs=0)), must come out
budget-exhausted whenever it needs any S-pair, and no check may be refuted
by a budget.  No function below the session takes a budget of its own, and
none takes an ambient variable set.  Inside buchberger the S-pair bound is
exact on every pop, and the time limit is read on the first pop and before
each reduction; radical_member's split reads it before each branch.
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


def test_only_the_session_and_buchberger_take_a_budget():
    for module in (an, d4, graphs):
        assert _takers(module, "budget") == set(), module.__name__
    assert _takers(gb, "budget") == {"session", "buchberger"}


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
    with pytest.raises(gb.BudgetExhausted) as exc:
        gb.buchberger(_d4_jet_ideal(), budget=gb.Budget(max_seconds=10))
    assert exc.value.context == "buchberger"
    assert 1 < exc.value.spairs < full.spairs_processed


def test_zero_seconds_stop_at_the_first_pop_even_when_it_is_pruned():
    # the only pair of (x0, y0) has coprime leads and is never reduced
    xy = gb.Ideal([Polynomial.variable(var_code("x", 0)), Polynomial.variable(var_code("y", 0))])
    assert gb.buchberger(xy).spairs_processed == 1
    with pytest.raises(gb.BudgetExhausted) as exc:
        gb.buchberger(xy, budget=gb.Budget(max_seconds=0))
    assert exc.value.spairs == 1


def test_pruned_pairs_do_not_read_the_clock(monkeypatch):
    # the S-pair bound is exact on every pop; the clock is read on the first
    # pop and for the pairs that are reduced, far fewer than those popped
    reads = _fake_clock(monkeypatch, jump_after=10**9)
    got = gb.buchberger(_d4_jet_ideal(), budget=gb.Budget(max_seconds=10))
    assert 0 < len(reads) < got.spairs_processed
    monkeypatch.undo()
    with pytest.raises(gb.BudgetExhausted) as exc:
        gb.buchberger(_d4_jet_ideal(), budget=gb.Budget(max_spairs=got.spairs_processed - 1))
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

    # the clock passes the limit after the query's start: the split stops
    # before its first branch
    monkeypatch.undo()
    _fake_clock(monkeypatch, jump_after=2)
    with gb.session(gb.Budget(max_seconds=10)):
        rep = gb.radical_member(p, monomial)
    assert rep.outcome == gb.BUDGET_EXHAUSTED
    assert rep.certificate == {"kind": "budget", "context": "radical split"}
    # without a session the default budget applies
    monkeypatch.undo()
    _fake_clock(monkeypatch, jump_after=2)
    assert gb.radical_member(p, monomial).outcome == gb.BUDGET_EXHAUSTED

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from jetfibers import cli, jets, poly
from jetfibers.cli import build_parser, main
from jetfibers.groebner import VerificationReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_worked_example(capsys):
    code, out, _ = run(capsys, "expand", "x*y - z^2", "--m", "2")
    assert code == 0
    assert out == (
        "f^(0) = x0*y0 - z0^2\n"
        "f^(1) = x1*y0 + x0*y1 - 2*z0*z1\n"
        "f^(2) = x2*y0 + x1*y1 + x0*y2 - z1^2 - 2*z0*z2\n"
    )


def test_expand_order_zero(capsys):
    code, out, _ = run(capsys, "expand", "x^2 - y^2*z + z^3", "--m", "0")
    assert code == 0
    from jetfibers.poly import parse_polynomial

    line = out.strip().split(" = ", 1)[1]
    assert parse_polynomial(line) == parse_polynomial(
        "x0^2 - y0^2*z0 + z0^3"
    )


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_expand_writes_text_without_the_general_formatter(capsys, monkeypatch, fmt):
    # expand prints from the compositions; a return to str(Polynomial)
    # would call format_polynomial and fail here
    argv = ["expand", "x*y-z^5", "--m", "12", "--format", fmt]
    code, expected, _ = run(capsys, *argv)
    assert code == 0

    def refuse(p):
        raise AssertionError("expand called format_polynomial")

    monkeypatch.setattr(poly, "format_polynomial", refuse)
    assert run(capsys, *argv) == (0, expected, "")


class _TextOnlyInJson(str):
    """A coefficient text that the JSON encoder reads as a plain string but
    that refuses to be formatted into expand's text output."""

    def __format__(self, spec):
        raise AssertionError("a JSON run built the text output")


def test_json_runs_build_no_text(capsys, monkeypatch):
    # each command builds only the output its format asks for: expand's
    # text would format every coefficient, an verify's would call
    # _report_lines
    runs = [
        ["expand", "x*y-z^5", "--m", "12", "--format", "json"],
        ["an", "verify", "--n", "2", "--m", "5", "--format", "json"],
    ]
    expected = [run(capsys, *argv) for argv in runs]
    plain = jets.expand_text
    monkeypatch.setattr(jets, "expand_text", lambda f, m: list(map(_TextOnlyInJson, plain(f, m))))

    def refuse(reports):
        raise AssertionError("a JSON run called _report_lines")

    monkeypatch.setattr(cli, "_report_lines", refuse)
    assert [run(capsys, *argv) for argv in runs] == expected


def test_text_runs_build_no_json(capsys, monkeypatch):
    argv = ["an", "verify", "--n", "2", "--m", "5"]
    expected = run(capsys, *argv)
    assert expected[0] == 0

    def refuse(self, include_timings=False):
        raise AssertionError("a text run called VerificationReport.to_json_dict")

    monkeypatch.setattr(VerificationReport, "to_json_dict", refuse)
    assert run(capsys, *argv) == expected


def test_expand_rejects_malformed_input(capsys):
    code, _, err = run(capsys, "expand", "x*y - z^", "--m", "1")
    assert code == 1
    assert "parse error" in err


@pytest.mark.parametrize(
    "text", ["x*y-z^\u0665", "x*y-z^\u00b2"], ids=["arabic-indic", "superscript"]
)
def test_expand_rejects_digits_outside_ascii(capsys, text):
    # int() would read z^<Arabic-Indic five> as z^5 and fail on
    # z^<superscript two> with no position
    code, out, err = run(capsys, "expand", text, "--m", "1")
    assert (code, out) == (1, "")
    assert err == f"jetfibers: parse error: unexpected character {text[6]!r} (at position 6)\n"


def test_expand_rejects_jet_variables(capsys):
    code, _, err = run(capsys, "expand", "x1*y0", "--m", "1")
    assert code == 1
    assert "jet-indexed" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "an", "table", "--n", "3")  # missing --m
    assert code == 1


def test_shared_parser_keeps_no_state_between_commands(capsys):
    # the parser is built once per process: a usage error after a command
    # with non-default flags must leave the next command as a fresh parser
    # would run it
    build_parser.cache_clear()
    fresh = run(capsys, "an", "table", "--n", "3", "--m", "3..7")
    assert fresh[0] == 0
    assert run(capsys, "an", "table", "--n", "2", "--m", "2..6", "--format", "csv")[0] == 0
    code, _, err = run(capsys, "an", "table", "--n", "3", "--format", "yaml")
    assert code == 1 and "invalid choice" in err
    assert run(capsys, "an", "table", "--n", "3", "--m", "3..7") == fresh
    assert build_parser.cache_info().misses == 1


def test_unknown_format_is_usage_error(capsys):
    code, _, _ = run(capsys, "expand", "x", "--m", "1", "--format", "yaml")
    assert code == 1


def test_an_table_csv_bytes(capsys):
    code, out, _ = run(capsys, "an", "table", "--n", "3", "--m", "3..7", "--format", "csv")
    assert code == 0
    assert out == (
        "m,dim_Z,dim_Z12,dim_Z13,codim_Z,codim_Z12,codim_Z13,N12,N13\n"
        "3,7,6,5,5,6,7,1,1\n"
        "4,9,8,7,6,7,8,1,1\n"
        "5,11,10,10,7,8,8,2,1\n"
        "6,13,12,12,8,9,9,3,2\n"
        "7,15,14,14,9,10,10,4,3\n"
    )


def test_an_table_rejects_small_m(capsys):
    code, _, err = run(capsys, "an", "table", "--n", "3", "--m", "1..2")
    assert code == 1 and "m >= n" in err


@pytest.mark.parametrize("command", ["table --m 1", "graph", "verify --m 1"])
def test_an_commands_reject_n_zero(capsys, command):
    code, out, err = run(capsys, "an", *command.split(), "--n", "0")
    assert code == 1 and not out and "need n >= 1" in err


def test_an_decompose_json(capsys):
    code, out, _ = run(
        capsys,
        "an", "decompose", "--n", "3", "--m", "8", "--i", "1", "--j", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    dec = payload["decomposition"]
    assert dec["case"] == "d" and dec["count"] == 4
    assert dec["components"][0] == {
        "p": 2, "q": 6, "r": 2, "f_tail_from": 8, "f_tail_to": 8,
    }


def test_an_decompose_guard(capsys):
    code, _, err = run(capsys, "an", "decompose", "--n", "1", "--m", "1", "--i", "1", "--j", "1")
    assert code == 1


def test_an_graph_dot(capsys):
    code, out, _ = run(capsys, "an", "graph", "--n", "4")
    assert code == 0
    assert out == (
        'graph {\n  "Z1";\n  "Z2";\n  "Z3";\n  "Z4";\n'
        '  "Z1" -- "Z2";\n  "Z2" -- "Z3";\n  "Z3" -- "Z4";\n}\n'
    )


def test_an_verify_exit_zero(capsys):
    code, out, _ = run(capsys, "an", "verify", "--n", "2", "--m", "3")
    assert code == 0
    assert "summary:" in out and "0 refuted" in out


def test_an_verify_single_pair_json(capsys):
    code, out, _ = run(
        capsys, "an", "verify", "--n", "3", "--m", "4", "--i", "1", "--j", "3",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert all(r["outcome"] == "verified" for r in payload["reports"])
    assert all(r["seconds"] is None for r in payload["reports"])


def test_d4_ideals_listing(capsys):
    code, out, _ = run(capsys, "d4", "ideals", "--m", "5")
    assert code == 0
    assert "L2:" in out and "y1 - z1" in out


def test_d4_verify_guard(capsys):
    code, _, err = run(capsys, "d4", "verify", "--m", "4")
    assert code == 1
    assert "m >= 5" in err


def test_d4_verify_m5(capsys):
    code, out, _ = run(capsys, "d4", "verify", "--m", "5")
    assert code == 0
    assert "0 refuted" in out and "0 budget-exhausted" in out
    assert "strictness witnesses at m5" in out


def test_d4_verify_m10_the_former_frontier(capsys):
    # the linear presolve and the generator certificate keep the chart-sum
    # bases small; this order once took minutes
    code, out, _ = run(capsys, "d4", "verify", "--m", "10", "--format", "json")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert len(reports) == 12
    assert {r["outcome"] for r in reports} == {"verified"}


def test_d4_verify_json_carries_witness_value(capsys):
    code, out, _ = run(capsys, "d4", "verify", "--m", "5", "--format", "json")
    assert code == 0
    assert '"value": "-32"' in out


def _stub_d4_suite(monkeypatch, outcome, pairs):
    from jetfibers import d4
    from jetfibers.groebner import VerificationReport

    def verify_suite(m, saturate=False):
        return [
            VerificationReport(
                claim=f"maximal pairs at m{m}",
                outcome=outcome,
                certificate={"pairs": [list(p) for p in pairs]},
            )
        ]

    monkeypatch.setattr(d4, "verify_suite", verify_suite)


def _graph_report(out, m):
    payload = json.loads(out)
    claim = f"fiber graph matches the resolution graph (m{m})"
    (report,) = [r for r in payload["reports"] if r["claim"] == claim]
    return report


def test_d4_verify_graph_claim_follows_the_pairs_theorem(capsys, monkeypatch):
    star = ((0, 1), (0, 2), (0, 3))
    _stub_d4_suite(monkeypatch, "budget-exhausted", star)
    code, out, _ = run(capsys, "d4", "verify", "--m", "5", "--format", "json")
    assert code == 3
    report = _graph_report(out, 5)
    assert report["outcome"] == "budget-exhausted"
    assert report["certificate"]["edges"] == [["Z0", "Z1"], ["Z0", "Z2"], ["Z0", "Z3"]]
    assert report["spairs_processed"] == 0


def test_d4_verify_graph_claim_refuted_by_wrong_pairs(capsys, monkeypatch):
    path = ((0, 1), (1, 2), (2, 3))
    _stub_d4_suite(monkeypatch, "verified", path)
    code, out, _ = run(capsys, "d4", "verify", "--m", "5", "--format", "json")
    assert code == 2
    report = _graph_report(out, 5)
    assert report["outcome"] == "refuted"
    assert report["certificate"]["edges"] == [["Z0", "Z1"], ["Z1", "Z2"], ["Z2", "Z3"]]


def test_d4_graph_dot(capsys):
    code, out, _ = run(capsys, "d4", "graph", "--m", "6")
    assert code == 0
    assert out == (
        'graph {\n  "Z0";\n  "Z1";\n  "Z2";\n  "Z3";\n'
        '  "Z0" -- "Z1";\n  "Z0" -- "Z2";\n  "Z0" -- "Z3";\n}\n'
    )


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "graph.dot"
    code, out, _ = run(capsys, "an", "graph", "--n", "2", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8") == (
        'graph {\n  "Z1";\n  "Z2";\n  "Z1" -- "Z2";\n}\n'
    )


def test_out_to_an_unwritable_path_is_an_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(
        capsys, "an", "verify", "--n", "2", "--m", "5", "--format", "json", "--out", str(target)
    )
    assert code == 1 and out == ""
    assert err.startswith("jetfibers: error: ") and str(target) in err
    assert not target.exists()


def test_unwritable_out_fails_before_the_command_runs(tmp_path, capsys, monkeypatch):
    def never(args):
        raise AssertionError("the handler ran")

    monkeypatch.setitem(cli._HANDLERS, ("an", "verify"), never)
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(
        capsys, "an", "verify", "--n", "6", "--m", "14", "--format", "json", "--out", str(target)
    )
    assert code == 1 and out == ""
    assert err.startswith("jetfibers: error: ") and str(target) in err


def test_timings_flag_fills_seconds(capsys):
    code, out, _ = run(
        capsys, "an", "verify", "--n", "2", "--m", "2", "--format", "json", "--timings"
    )
    assert code == 0
    payload = json.loads(out)
    assert all(isinstance(r["seconds"], float) for r in payload["reports"])


# JSON trees of every type the encoder writes: text with non-ASCII
# characters, control characters and lone surrogates, ints past 64 bits,
# bools, None, every kind of float, and nested dicts, lists and tuples
_CHARS = st.one_of(
    st.characters(),
    st.characters(max_codepoint=0x1F),
    st.integers(0xD800, 0xDFFF).map(chr),
)
_TEXT = st.lists(_CHARS, max_size=8).map("".join)
_JSON = st.recursive(
    st.one_of(
        _TEXT,
        st.integers(-(2**200), 2**200),
        st.booleans(),
        st.none(),
        st.floats(),
        st.sampled_from([-0.0, 1e300, float("nan"), float("inf"), float("-inf")]),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=20,
)


@given(_JSON)
@example({"": {}, "a": [], "b": (), "\u00e9\ud800\x01": [[{}], -0.0, 1e300, 10**30]})
def test_encode_is_json_dumps_byte_for_byte(obj):
    parts = []
    cli._encode(obj, 0, parts.append)
    assert "".join(parts) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [{"a": Fraction(1, 2)}, {1: "x"}], ids=["fraction", "int-key"])
def test_encode_refuses_what_no_payload_holds(obj):
    with pytest.raises(TypeError):
        cli._encode(obj, 0, [].append)


class _WriteRecorder:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


def test_json_is_streamed_one_report_per_write(monkeypatch):
    stream = _WriteRecorder()
    monkeypatch.setattr(sys, "stdout", stream)
    assert main(["an", "verify", "--n", "2", "--m", "5", "--format", "json"]) == 0
    out = "".join(stream.writes)
    golden = Path(__file__).parent / "golden" / "an_verify_n2_m5.json"
    assert out == golden.read_bytes().decode("utf-8")
    assert len(stream.writes) > len(json.loads(out)["reports"])
    assert all(len(w) < len(out) for w in stream.writes)


def test_timings_json_is_canonical(capsys):
    # the float path: no golden file or pin holds a --timings output
    code, out, _ = run(
        capsys, "an", "verify", "--n", "2", "--m", "5", "--timings", "--format", "json"
    )
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_budget_flags_accepted(capsys):
    code, _, _ = run(
        capsys, "an", "verify", "--n", "2", "--m", "2",
        "--budget-spairs", "50000", "--budget-seconds", "60",
    )
    assert code == 0


@pytest.mark.parametrize("flag", ["--budget-spairs", "--budget-seconds"])
def test_zero_budget_is_a_budget(capsys, flag):
    # d4 verify --m 6 still builds bases: its coordinate lemmas and the
    # z2/x3/y2 chain queries (no an verify does, since its refutations stand
    # on monomial arcs)
    code, out, _ = run(capsys, "d4", "verify", "--m", "6", flag, "0", "--format", "json")
    assert code == 3
    payload = json.loads(out)
    assert payload["config"][flag[2:].replace("-", "_")] == 0
    assert any(r["outcome"] == "budget-exhausted" for r in payload["reports"])


@pytest.mark.parametrize("flag", ["--budget-spairs", "--budget-seconds"])
def test_negative_budget_is_a_usage_error(capsys, flag):
    code, out, err = run(capsys, "an", "verify", "--n", "2", "--m", "5", flag, "-1")
    assert code == 1
    assert out == ""
    assert "must be nonnegative" in err


BUDGETED = [
    ["an", "verify", "--n", "2", "--m", "6"],
    ["an", "verify", "--n", "3", "--m", "8", "--i", "1", "--j", "2"],
    ["d4", "verify", "--m", "5"],
    ["d4", "verify", "--m", "6", "--saturate"],
    ["d4", "graph", "--m", "5"],
]
BUDGETS = [
    ["--budget-spairs", "0"],
    ["--budget-spairs", "5"],
    ["--budget-seconds", "0"],
]


@pytest.mark.parametrize("budget", BUDGETS, ids=[" ".join(b) for b in BUDGETS])
@pytest.mark.parametrize("argv", BUDGETED, ids=[" ".join(a) for a in BUDGETED])
def test_budgeted_commands_report_instead_of_crashing(capsys, argv, budget):
    code, _, _ = run(capsys, *argv, *budget)
    # a budget leaves checks undecided; it never refutes one
    assert code in (0, 3)


def test_d4_graph_budget_is_an_error(capsys):
    code, out, err = run(capsys, "d4", "graph", "--m", "5", "--budget-spairs", "5")
    assert code == 3
    assert out == ""
    assert "maximal-intersection verification budget-exhausted" in err

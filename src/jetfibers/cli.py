"""Command-line surface.

Subcommands wire the modules into reproducible runs:

  expand FTEXT --m M          jet coefficients of an ambient polynomial
  an decompose|table|graph|verify
  an-series decompositions, the summary table, the fiber graph, engine checks
  d4 ideals|verify|graph      the D4 ideal family, certificate suite, graph

Exit codes: 0 all good, 1 usage or parse error, 2 at least one claim
refuted, 3 budget exhausted on a required check.  Runs with identical
configuration produce byte-identical output; wall-clock timings only enter
reports behind --timings.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter

from . import an as an_mod
from . import graphs
from . import jets
from .groebner import (
    BUDGET_EXHAUSTED,
    Budget,
    REFUTED,
    VERIFIED,
    VerificationReport,
    check,
    session,
)
from .poly import PolynomialParseError, parse_polynomial

SCHEMA = 1


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here reserves 2 for
    refuted claims, so remap usage errors to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _nonnegative(kind):
    """argparse type: a number of the given kind that is not negative."""

    def parse(text):
        value = kind(text)
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the kind in its messages
    return parse


def _add_budget_flags(p):
    p.add_argument("--budget-spairs", type=_nonnegative(int), default=None, metavar="N")
    p.add_argument("--budget-seconds", type=_nonnegative(float), default=None, metavar="S")
    p.add_argument("--timings", action="store_true", help="include wall-clock times in reports")


def _add_output_flags(p, formats, default):
    p.add_argument("--format", choices=formats, default=default)
    p.add_argument("--out", default=None, metavar="FILE")


@functools.cache
def build_parser() -> _Parser:
    # built on the first command and shared by the rest of the process: a
    # parse keeps no state in the parser
    parser = _Parser(prog="jetfibers", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("expand", help="expand an ambient polynomial along a generic jet")
    p.add_argument("f", metavar="POLY")
    p.add_argument("--m", type=int, required=True)
    _add_output_flags(p, ("text", "json"), "text")

    pan = sub.add_parser("an", help="A-series surface commands")
    an_sub = pan.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = an_sub.add_parser("decompose", help="decompose one pairwise intersection")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    _add_output_flags(p, ("text", "json"), "text")

    p = an_sub.add_parser("table", help="dimension/component-count summary table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", required=True, metavar="M|A..B")
    _add_output_flags(p, ("text", "csv", "json"), "text")

    p = an_sub.add_parser("graph", help="fiber intersection graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    _add_output_flags(p, ("dot", "json"), "dot")

    p = an_sub.add_parser("verify", help="engine verification of the decompositions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--j", type=int, default=None)
    _add_budget_flags(p)
    _add_output_flags(p, ("text", "json"), "text")

    pd4 = sub.add_parser("d4", help="D4 surface commands")
    d4_sub = pd4.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = d4_sub.add_parser("ideals", help="list the chart and component ideals")
    p.add_argument("--m", type=int, required=True)
    _add_output_flags(p, ("text", "json"), "text")

    p = d4_sub.add_parser("verify", help="run the certificate suite")
    p.add_argument("--m", type=int, required=True)
    p.add_argument(
        "--saturate",
        action="store_true",
        help="force the saturation-level component checks at any order",
    )
    _add_budget_flags(p)
    _add_output_flags(p, ("text", "json"), "text")

    p = d4_sub.add_parser("graph", help="fiber intersection graph")
    p.add_argument("--m", type=int, required=True)
    _add_budget_flags(p)
    _add_output_flags(p, ("dot", "json"), "dot")

    return parser


# ---------------------------------------------------------------------------
# helpers


def _budget(args) -> Budget | None:
    """The budget the --budget-* flags set, defaults filling the other
    limit; None when neither flag is given or the command takes none."""
    limits = {
        "max_spairs": getattr(args, "budget_spairs", None),
        "max_seconds": getattr(args, "budget_seconds", None),
    }
    limits = {k: v for k, v in limits.items() if v is not None}
    return Budget(**limits) if limits else None


def _config(args, **extra) -> dict:
    return {
        "command": args.command,
        "subcommand": getattr(args, "subcommand", None),
        "format": getattr(args, "format", None),
        "budget_spairs": getattr(args, "budget_spairs", None),
        "budget_seconds": getattr(args, "budget_seconds", None),
        "timings": getattr(args, "timings", False),
        **extra,
    }


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_result(args, fields: dict, text: str, **config) -> None:
    """With --format json, emit {schema, config, **fields}; otherwise text."""
    if args.format == "json":
        payload = {"schema": SCHEMA, "config": _config(args, **config), **fields}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _emit(args, text)


def _parse_m_range(spec: str) -> list[int]:
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
        if not values:
            raise ValueError(f"empty order range {spec!r}")
        return values
    return [int(spec)]


def _report_lines(reports: list[VerificationReport]) -> str:
    counts = Counter(r.outcome for r in reports)
    lines = [f"{r.outcome.upper():<17} {r.claim}" for r in reports]
    lines.append(
        f"summary: {counts[VERIFIED]} verified, {counts[REFUTED]} refuted,"
        f" {counts[BUDGET_EXHAUSTED]} budget-exhausted"
    )
    return "\n".join(lines) + "\n"


def _verify_exit(reports: list[VerificationReport]) -> int:
    outcomes = {r.outcome for r in reports}
    if REFUTED in outcomes:
        return 2
    if BUDGET_EXHAUSTED in outcomes:
        return 3
    return 0


def _emit_reports(args, reports: list[VerificationReport], **config) -> int:
    """Emit the reports as JSON or one line each; return the exit code."""
    _emit_result(
        args,
        {"reports": [r.to_json_dict(args.timings) for r in reports]},
        _report_lines(reports),
        **config,
    )
    return _verify_exit(reports)


def _graph_claim(tag: str, fiber, resolution, premises=()) -> VerificationReport:
    return check(
        f"fiber graph matches the resolution graph ({tag})",
        graphs.isomorphic(fiber, resolution),
        fiber.to_json_dict(),
        premises=premises,
    )


# ---------------------------------------------------------------------------
# command handlers


def _cmd_expand(args) -> int:
    f = parse_polynomial(args.f, ambient=True)
    if args.m < 0:
        raise ValueError("--m must be nonnegative")
    coeffs = [str(c) for c in jets.expand_ambient(f, args.m)]
    _emit_result(
        args,
        {"coefficients": coeffs},
        "".join(f"f^({j}) = {c}\n" for j, c in enumerate(coeffs)),
        f=args.f,
        m=args.m,
    )
    return 0


def _cmd_an_decompose(args) -> int:
    dec = an_mod.decompose_intersection(args.n, args.m, args.i, args.j)
    lines = [f"case {dec.case}: {dec.count} component(s), dimension {dec.dimension}"]
    lines += [f"  {d.label}" for d in dec.components]
    _emit_result(
        args,
        {"decomposition": dec.to_json_dict()},
        "\n".join(lines) + "\n",
        n=args.n, m=args.m, i=args.i, j=args.j,
    )
    return 0


def _cmd_an_table(args) -> int:
    m_values = _parse_m_range(args.m)
    if min(m_values) < args.n:
        raise ValueError(f"table orders must satisfy m >= n = {args.n}")
    rows = an_mod.an_table(args.n, m_values)
    table = an_mod.table_csv if args.format == "csv" else an_mod.table_text
    _emit_result(
        args,
        {
            "header": list(an_mod.table_header(args.n)),
            "rows": [list(r.cells()) for r in rows],
        },
        table(args.n, rows),
        n=args.n, m=args.m,
    )
    return 0


def _emit_graph(args, g, **config) -> int:
    _emit_result(args, {"graph": g.to_json_dict()}, graphs.to_dot(g), **config)
    return 0


def _cmd_an_graph(args) -> int:
    return _emit_graph(args, graphs.an_fiber_graph(args.n, args.m), n=args.n, m=args.m)


def _cmd_an_verify(args) -> int:
    if (args.i is None) != (args.j is None):
        raise ValueError("--i and --j go together")
    if args.i is not None:
        reports = [an_mod.verify_decomposition(args.n, args.m, args.i, args.j)]
    else:
        reports = an_mod.verify_all_pairs(args.n, args.m)
        reports.append(
            _graph_claim(
                f"n{args.n}",
                graphs.an_fiber_graph(args.n, args.m),
                graphs.resolution_graph("An", args.n),
            )
        )
    return _emit_reports(args, reports, n=args.n, m=args.m, i=args.i, j=args.j)


def _cmd_d4_ideals(args) -> int:
    from .d4 import d4_ideals

    fam = d4_ideals(args.m)
    named = [fam.l322, fam.charts[1], fam.charts[2], fam.charts[3], fam.i0] + [
        fam.j[i] for i in (1, 2, 3)
    ]
    lines = []
    for ideal in named:
        lines.append(f"{ideal.label}:")
        lines += [f"  {g}" for g in ideal.generators]
    _emit_result(
        args,
        {"ideals": {ideal.label: [str(g) for g in ideal.generators] for ideal in named}},
        "\n".join(lines) + "\n",
        m=args.m,
    )
    return 0


def _cmd_d4_verify(args) -> int:
    from .d4 import verify_suite

    reports = verify_suite(args.m, args.saturate)
    # the graph claim stands on the maximal-pair theorem: it takes that
    # report's outcome, or is refuted when its pairs do not give the star
    (theorem,) = [r for r in reports if r.claim == f"maximal pairs at m{args.m}"]
    reports.append(
        _graph_claim(
            f"m{args.m}",
            graphs.component_graph(range(4), theorem.certificate["pairs"]),
            graphs.resolution_graph("D4"),
            premises=[theorem],
        )
    )
    return _emit_reports(args, reports, m=args.m, saturate=args.saturate)


def _cmd_d4_graph(args) -> int:
    try:
        g = graphs.d4_fiber_graph(args.m)
    except graphs.UnverifiedGraph as exc:
        print(f"jetfibers: error: {exc}", file=sys.stderr)
        return _verify_exit([exc.report])
    return _emit_graph(args, g, m=args.m)


_HANDLERS = {
    ("expand", None): _cmd_expand,
    ("an", "decompose"): _cmd_an_decompose,
    ("an", "table"): _cmd_an_table,
    ("an", "graph"): _cmd_an_graph,
    ("an", "verify"): _cmd_an_verify,
    ("d4", "ideals"): _cmd_d4_ideals,
    ("d4", "verify"): _cmd_d4_verify,
    ("d4", "graph"): _cmd_d4_graph,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    handler = _HANDLERS[(args.command, getattr(args, "subcommand", None))]
    try:
        # one engine session per command: the budget of its flags bounds
        # every basis, and a basis is computed once per command
        with session(_budget(args)):
            return handler(args)
    except PolynomialParseError as exc:
        print(f"jetfibers: parse error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # OSError: an --out that cannot be written
        print(f"jetfibers: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

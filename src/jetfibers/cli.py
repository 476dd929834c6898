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
import contextlib
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
    p.add_argument("--budget-spairs", type=_nonnegative(int), default=None, metavar="N",
                   help="bound the S-pairs popped by the whole command")
    p.add_argument("--budget-seconds", type=_nonnegative(float), default=None, metavar="S",
                   help="bound the seconds since the command started")
    p.add_argument("--timings", action="store_true", help="include wall-clock times in reports")


def _add_output_flags(p, formats, default):
    p.add_argument("--format", choices=formats, default=default)
    p.add_argument("--out", default=None, metavar="FILE")


@functools.cache
def build_parser(path: tuple[str, ...] = ()) -> _Parser:
    """The parser of the commands on path, the leading words of a command
    line that name a handler, such as ("an", "verify") or ("expand",); the
    empty path gives the full parser, with every command.  A command parses
    the same on either, up to arguments left over, which main hands to the
    full parser so that its usage line reports them.  Each parser is built
    on the first command that needs it and shared by the rest of the
    process: a parse keeps no state in the parser."""

    def wanted(*names):
        return names[: len(path)] == path[: len(names)]

    parser = _Parser(prog="jetfibers", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    if wanted("expand"):
        p = sub.add_parser("expand", help="expand an ambient polynomial along a generic jet")
        p.add_argument("f", metavar="POLY")
        p.add_argument("--m", type=int, required=True)
        _add_output_flags(p, ("text", "json"), "text")

    if wanted("an"):
        pan = sub.add_parser("an", help="A-series surface commands")
        an_sub = pan.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    if wanted("an", "decompose"):
        p = an_sub.add_parser("decompose", help="decompose one pairwise intersection")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--i", type=int, required=True)
        p.add_argument("--j", type=int, required=True)
        _add_output_flags(p, ("text", "json"), "text")

    if wanted("an", "table"):
        p = an_sub.add_parser("table", help="dimension/component-count summary table")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m", required=True, metavar="M|A..B")
        _add_output_flags(p, ("text", "csv", "json"), "text")

    if wanted("an", "graph"):
        p = an_sub.add_parser("graph", help="fiber intersection graph")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m", type=int, default=None)
        _add_output_flags(p, ("dot", "json"), "dot")

    if wanted("an", "verify"):
        p = an_sub.add_parser("verify", help="engine verification of the decompositions")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--i", type=int, default=None)
        p.add_argument("--j", type=int, default=None)
        _add_budget_flags(p)
        _add_output_flags(p, ("text", "json"), "text")

    if wanted("d4"):
        pd4 = sub.add_parser("d4", help="D4 surface commands")
        d4_sub = pd4.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    if wanted("d4", "ideals"):
        p = d4_sub.add_parser("ideals", help="list the chart and component ideals")
        p.add_argument("--m", type=int, required=True)
        _add_output_flags(p, ("text", "json"), "text")

    if wanted("d4", "verify"):
        p = d4_sub.add_parser("verify", help="run the certificate suite")
        p.add_argument("--m", type=int, required=True)
        p.add_argument(
            "--saturate",
            action="store_true",
            help="force the component checks at any order",
        )
        _add_budget_flags(p)
        _add_output_flags(p, ("text", "json"), "text")

    if wanted("d4", "graph"):
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


_quote = json.encoder.encode_basestring_ascii  # the C escaper of ensure_ascii=True
_INF = float("inf")


def _encode(obj, indent: int, write) -> None:
    """Write obj through write, in pieces, exactly as the json module's
    dumps(obj, indent=2, sort_keys=True) encodes it, but without its
    pure-Python encoder, which indent selects; indent is obj's nesting depth.
    Each list element is one piece, so a payload streams one report per
    write.  Raises TypeError on a key that is not a str and on a value that
    is not a str, int, float, bool, None, dict, list or tuple."""
    if isinstance(obj, str):
        write(_quote(obj))
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = "\n" + "  " * (indent + 1)
        sep = "{" + inner
        for key in sorted(obj):  # _quote raises TypeError on a key that is not a str
            value = obj[key]
            if isinstance(value, str):  # most leaves: one piece for the whole line
                write(f"{sep}{_quote(key)}: {_quote(value)}")
            else:
                write(f"{sep}{_quote(key)}: ")
                _encode(value, indent + 1, write)
            sep = "," + inner
        write("\n" + "  " * indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        inner = "\n" + "  " * (indent + 1)
        sep = "[" + inner
        for value in obj:
            parts = [sep]
            _encode(value, indent + 1, parts.append)
            write("".join(parts))
            sep = "," + inner
        write("\n" + "  " * indent + "]")
    elif obj is None or obj is True or obj is False:
        write("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        write(int.__repr__(obj))
    elif isinstance(obj, float):
        write(
            "NaN" if obj != obj
            else "Infinity" if obj == _INF
            else "-Infinity" if obj == -_INF
            else float.__repr__(obj)
        )
    else:
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit_result(args, fields, text, **config) -> None:
    """With --format json, emit {schema, config, **fields()} through
    _encode, straight to the open stream, otherwise text().  Both are
    zero-argument callables, so a run builds only the output its format
    asks for."""
    if args.format != "json":
        args.stream.write(text())
        return
    payload = {"schema": SCHEMA, "config": _config(args, **config), **fields()}
    _encode(payload, 0, args.stream.write)
    args.stream.write("\n")


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
        lambda: {"reports": [r.to_json_dict(args.timings) for r in reports]},
        lambda: _report_lines(reports),
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
    coeffs = jets.expand_text(f, args.m)
    _emit_result(
        args,
        lambda: {"coefficients": coeffs},
        lambda: "".join(f"f^({j}) = {c}\n" for j, c in enumerate(coeffs)),
        f=args.f,
        m=args.m,
    )
    return 0


def _cmd_an_decompose(args) -> int:
    dec = an_mod.decompose_intersection(args.n, args.m, args.i, args.j)

    def text():
        lines = [f"case {dec.case}: {dec.count} component(s), dimension {dec.dimension}"]
        lines += [f"  {d.label}" for d in dec.components]
        return "\n".join(lines) + "\n"

    _emit_result(
        args,
        lambda: {"decomposition": dec.to_json_dict()},
        text,
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
        lambda: {
            "header": list(an_mod.table_header(args.n)),
            "rows": [list(r) for r in rows],
        },
        lambda: table(args.n, rows),
        n=args.n, m=args.m,
    )
    return 0


def _emit_graph(args, g, **config) -> int:
    _emit_result(args, lambda: {"graph": g.to_json_dict()}, lambda: graphs.to_dot(g), **config)
    return 0


def _an_graph(n: int, m: int | None):
    """The A-series fiber graph: one edge per maximal pair.  The pairs come
    from the containment criterion and do not depend on m, which is
    validated when given."""
    if m is not None and m < n:
        raise ValueError(f"need m >= n, got m={m}, n={n}")
    return graphs.component_graph(range(1, n + 1), an_mod.maximal_pairs(n))


def _cmd_an_graph(args) -> int:
    return _emit_graph(args, _an_graph(args.n, args.m), n=args.n, m=args.m)


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
                _an_graph(args.n, args.m),
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

    def text():
        lines = []
        for ideal in named:
            lines.append(f"{ideal.label}:")
            lines += [f"  {g}" for g in ideal.generators]
        return "\n".join(lines) + "\n"

    _emit_result(
        args,
        lambda: {"ideals": {ideal.label: [str(g) for g in ideal.generators] for ideal in named}},
        text,
        m=args.m,
    )
    return 0


def _cmd_d4_verify(args) -> int:
    from .d4 import verify_suite

    reports = verify_suite(args.m, args.saturate)
    # the graph claim stands on the maximal-pair theorem, the suite's closing
    # report: it takes that report's outcome, or is refuted when its pairs
    # do not give the star
    theorem = reports[-1]
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
    from .d4 import d4_maximal_intersections

    pairs, theorem = d4_maximal_intersections(args.m)
    if not theorem.verified:
        print(
            f"jetfibers: error: maximal-intersection verification {theorem.outcome}",
            file=sys.stderr,
        )
        return _verify_exit([theorem])
    return _emit_graph(args, graphs.component_graph(range(4), pairs), m=args.m)


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


def _command_path(argv) -> tuple[str, ...]:
    """The leading words of argv that name a handler, or () when they name
    none: a help flag or an unknown word in their place, or no words."""
    for command, subcommand in _HANDLERS:
        path = (command,) if subcommand is None else (command, subcommand)
        if tuple(argv[: len(path)]) == path:
            return path
    return ()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args, extra = build_parser(_command_path(argv)).parse_known_args(argv)
        if extra:  # the full parser rejects them under its usage line
            build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    handler = _HANDLERS[(args.command, getattr(args, "subcommand", None))]
    try:
        # --out is opened before any work, so a path that cannot be written
        # fails at once; one engine session per command: its budget flags
        # bound the whole command, and a basis or presolve is computed once
        out = open(args.out, "w", encoding="utf-8", newline="\n") if args.out else None
        with out or contextlib.nullcontext(sys.stdout) as args.stream, session(_budget(args)):
            return handler(args)
    except PolynomialParseError as exc:
        print(f"jetfibers: parse error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # OSError: an --out that cannot be written
        print(f"jetfibers: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

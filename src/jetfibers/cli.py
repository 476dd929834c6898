"""Command-line surface.

Subcommands wire the modules into reproducible runs:

  expand FTEXT --m M          jet coefficients of an ambient polynomial
  an decompose|table|graph|verify
  an-series decompositions, the summary table, the fiber graph, engine checks
  d4 ideals|verify|graph      the D4 ideal family, certificate suite, graph

The command tree is written down once, in _HANDLERS: one row per command,
in help order, with its handler, help text, arguments, formats (the first
the default) and whether it takes the budget flags.  build_parser adds the
rows on a command's path, main dispatches from the row it parsed, and the
config of a JSON output is the parsed arguments themselves, so a flag
declared in a row reaches the config with nothing else to edit.

Exit codes: 0 all good, 1 usage or parse error, 2 at least one claim
refuted, 3 budget exhausted on a required check.  Runs with identical
configuration produce byte-identical output; wall-clock timings only enter
reports behind --timings.  An --out file is replaced only when the command
writes its output, so a command that fails leaves an existing file as it
was.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
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


_GROUPS = {"an": "A-series surface commands", "d4": "D4 surface commands"}


@functools.cache
def build_parser(path: tuple[str, ...] = ()) -> _Parser:
    """The parser of the commands on path, the leading words of a command
    line that name a handler, such as ("an", "verify") or ("expand",); the
    empty path gives the full parser, with every command.  A command parses
    the same on either, up to arguments left over, which main hands to the
    full parser so that its usage line reports them.  Each parser is built
    on the first command that needs it and shared by the rest of the
    process: a parse keeps no state in the parser."""
    parser = _Parser(prog="jetfibers", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    groups = {}
    for key, (_, text, arguments, formats, budgeted) in _HANDLERS.items():
        if key[: len(path)] != path:
            continue
        command, subcommand = key
        if subcommand is None:
            p = sub.add_parser(command, help=text)
        else:
            if command not in groups:
                groups[command] = sub.add_parser(command, help=_GROUPS[command]).add_subparsers(
                    dest="subcommand", required=True, parser_class=_Parser
                )
            p = groups[command].add_parser(subcommand, help=text)
        for name, options in arguments:
            p.add_argument(name, **options)
        if budgeted:
            _add_budget_flags(p)
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None, metavar="FILE")
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


# the config keys every command's JSON holds, at their defaults where the
# command takes no such argument
_SHARED = {"subcommand": None, "budget_spairs": None, "budget_seconds": None, "timings": False}


def _config(args) -> dict:
    """The parsed arguments, less where the output goes."""
    config = {**_SHARED, **vars(args)}
    del config["out"], config["stream"]
    return config


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


def _emit_result(args, fields, text) -> None:
    """With --format json, emit {schema, config, **fields()} through
    _encode, straight to the open stream, otherwise text().  Both are
    zero-argument callables, so a run builds only the output its format
    asks for.  main opens an --out file for appending; a regular file is
    emptied here, where the command first writes."""
    if args.out and os.path.isfile(args.out):
        args.stream.truncate(0)
    if args.format != "json":
        args.stream.write(text())
        return
    payload = {"schema": SCHEMA, "config": _config(args), **fields()}
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


def _emit_reports(args, reports: list[VerificationReport]) -> int:
    """Emit the reports as JSON or one line each; return the exit code."""
    _emit_result(
        args,
        lambda: {"reports": [r.to_json_dict(args.timings) for r in reports]},
        lambda: _report_lines(reports),
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
    coeffs = jets.expand_text(f, args.m)
    _emit_result(
        args,
        lambda: {"coefficients": coeffs},
        lambda: "".join(f"f^({j}) = {c}\n" for j, c in enumerate(coeffs)),
    )
    return 0


def _cmd_an_decompose(args) -> int:
    dec = an_mod.decompose_intersection(args.n, args.m, args.i, args.j)

    def text():
        lines = [f"case {dec.case}: {dec.count} component(s), dimension {dec.dimension}"]
        lines += [f"  {d.label}" for d in dec.components]
        return "\n".join(lines) + "\n"

    _emit_result(args, lambda: {"decomposition": dec.to_json_dict()}, text)
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
    )
    return 0


def _emit_graph(args, g) -> int:
    _emit_result(args, lambda: {"graph": g.to_json_dict()}, lambda: graphs.to_dot(g))
    return 0


def _an_graph(n: int, m: int | None):
    """The A-series fiber graph: one edge per maximal pair.  The pairs come
    from the containment criterion and do not depend on m, which is
    validated when given."""
    if m is not None and m < n:
        raise ValueError(f"need m >= n, got m={m}, n={n}")
    return graphs.component_graph(range(1, n + 1), an_mod.maximal_pairs(n))


def _cmd_an_graph(args) -> int:
    return _emit_graph(args, _an_graph(args.n, args.m))


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
    return _emit_reports(args, reports)


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
    return _emit_reports(args, reports)


def _cmd_d4_graph(args) -> int:
    from .d4 import d4_maximal_intersections

    pairs, theorem = d4_maximal_intersections(args.m)
    if not theorem.verified:
        print(
            f"jetfibers: error: maximal-intersection verification {theorem.outcome}",
            file=sys.stderr,
        )
        return _verify_exit([theorem])
    return _emit_graph(args, graphs.component_graph(range(4), pairs))


_REQUIRED = {"type": int, "required": True}
_OPTIONAL = {"type": int}

# the command tree, in help order: (command, subcommand) -> (handler, help,
# arguments as (name, add_argument keywords), formats with the default
# first, whether the budget flags apply)
_HANDLERS = {
    ("expand", None): (
        _cmd_expand, "expand an ambient polynomial along a generic jet",
        [("f", {"metavar": "POLY"}), ("--m", {"type": _nonnegative(int), "required": True})],
        ("text", "json"), False,
    ),
    ("an", "decompose"): (
        _cmd_an_decompose, "decompose one pairwise intersection",
        [("--n", _REQUIRED), ("--m", _REQUIRED), ("--i", _REQUIRED), ("--j", _REQUIRED)],
        ("text", "json"), False,
    ),
    ("an", "table"): (
        _cmd_an_table, "dimension/component-count summary table",
        [("--n", _REQUIRED), ("--m", {"required": True, "metavar": "M|A..B"})],
        ("text", "csv", "json"), False,
    ),
    ("an", "graph"): (
        _cmd_an_graph, "fiber intersection graph",
        [("--n", _REQUIRED), ("--m", _OPTIONAL)], ("dot", "json"), False,
    ),
    ("an", "verify"): (
        _cmd_an_verify, "engine verification of the decompositions",
        [("--n", _REQUIRED), ("--m", _REQUIRED), ("--i", _OPTIONAL), ("--j", _OPTIONAL)],
        ("text", "json"), True,
    ),
    ("d4", "ideals"): (
        _cmd_d4_ideals, "list the chart and component ideals",
        [("--m", _REQUIRED)], ("text", "json"), False,
    ),
    ("d4", "verify"): (
        _cmd_d4_verify, "run the certificate suite",
        [
            ("--m", _REQUIRED),
            ("--saturate", {
                "action": "store_true",
                "help": "force the component checks at any order: they finish in under a"
                " second up to m = 7 and exceed the default 300 s budget from m = 8",
            }),
        ],
        ("text", "json"), True,
    ),
    ("d4", "graph"): (
        _cmd_d4_graph, "fiber intersection graph", [("--m", _REQUIRED)], ("dot", "json"), True,
    ),
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
    handler = _HANDLERS[(args.command, getattr(args, "subcommand", None))][0]
    try:
        # --out is opened before any work, so a path that cannot be written
        # fails at once, and for appending, so that a command that fails
        # leaves the file as it was; one engine session per command: its
        # budget flags bound the whole command, and a basis or presolve is
        # computed once
        out = open(args.out, "a", encoding="utf-8", newline="\n") if args.out else None
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

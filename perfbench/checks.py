"""Correctness checks on command outputs, independent of the code under test.

The expansion reference is computed with sympy's sparse rings over QQ and
truncated series products, and the package's textual polynomials are read
back by a parser of this file, so no jetfibers code takes part in a check.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

VERIFIED = "verified"
_SEPARATOR = re.compile(r" ([+-]) ")


def parse_terms(text: str) -> dict[tuple, Fraction]:
    """Read 'x0*y1 - 5*z0^4*z1' into {(('x0', 1), ('y1', 1)): 1, ...}."""
    if text == "0":
        return {}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = _SEPARATOR.split(text)
    signed = [(sign, pieces[0])]
    signed += [(1 if op == "+" else -1, term) for op, term in zip(pieces[1::2], pieces[2::2])]
    out: dict[tuple, Fraction] = {}
    for s, term in signed:
        coeff = Fraction(s)
        powers = []
        for factor in term.split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                name, _, exp = factor.partition("^")
                powers.append((name, int(exp) if exp else 1))
        key = tuple(sorted(powers))
        if key in out or len(set(powers)) != len(powers):
            raise ValueError(f"repeated monomial in {text!r}")
        out[key] = coeff
    return out


def reference_expansion(f_text: str, m: int) -> list[dict[tuple, Fraction]]:
    """Coefficients of t^0..t^m of f(X(t), Y(t), Z(t)) with X(t) = sum x_i t^i
    (likewise Y, Z), by sympy truncated series arithmetic over QQ."""
    import sympy
    from sympy import QQ
    from sympy.polys.ring_series import rs_mul, rs_pow
    from sympy.polys.rings import ring

    x, y, z = sympy.symbols("x y z")
    ambient = sympy.Poly(sympy.sympify(f_text.replace("^", "**")), x, y, z)
    names = ["t"] + [f"{family}{i}" for family in "xyz" for i in range(m + 1)]
    R, t, *jet_vars = ring(names, QQ)
    series = [
        sum((jet_vars[k * (m + 1) + i] * t**i for i in range(m + 1)), R.zero)
        for k in range(3)
    ]
    total = R.zero
    for exps, coeff in ambient.terms():
        term = R(coeff)
        for s, e in zip(series, exps):
            if e:
                term = rs_mul(term, rs_pow(s, e, t, m + 1), t, m + 1)
        total += term
    out: list[dict[tuple, Fraction]] = [{} for _ in range(m + 1)]
    for monom, coeff in total.items():
        key = tuple(sorted((names[k], e) for k, e in enumerate(monom) if k and e))
        out[monom[0]][key] = Fraction(int(coeff.numerator), int(coeff.denominator))
    return out


def _matches(text: str, expected: dict) -> bool:
    try:
        return parse_terms(text) == expected
    except ValueError:
        return False


class Checker:
    """Counts checks attempted and failed over one benchmark session.

    Per command execution: the exit code is 0; every report is verified;
    the canonical JSON is byte-identical to the first execution of the same
    command; for `expand`, each coefficient equals the reference.  Outputs
    already checked are recognised by their bytes, so each distinct output
    is parsed once.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first: dict[tuple, str] = {}
        self._verdicts: dict[str, tuple[int, int, list[str]]] = {}
        self._references: dict[tuple, list] = {}

    def check(self, argv, exit_code, output: str) -> None:
        self._count(exit_code == 0, f"{argv}: exit code {exit_code}")
        key = tuple(argv)
        if key in self._first:
            self._count(output == self._first[key], f"{argv}: output differs from the session's first")
        else:
            self._first[key] = output
        verdict = self._verdicts.get(output)
        if verdict is None:
            verdict = self._verdicts[output] = self._content_checks(argv, output)
        attempted, failed, problems = verdict
        self.attempted += attempted
        self.failed += failed
        self.problems += problems

    def _count(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def _content_checks(self, argv, output: str):
        try:
            payload = json.loads(output)
        except ValueError:
            return 1, 1, [f"{argv}: output is not JSON"]
        if "reports" in payload:
            outcomes = [r["outcome"] for r in payload["reports"]]
            bad = [o for o in outcomes if o != VERIFIED]
            return len(outcomes), len(bad), [f"{argv}: outcomes {bad}"] if bad else []
        config = payload["config"]
        key = (config["f"], config["m"])
        if key not in self._references:
            self._references[key] = reference_expansion(*key)
        expected = self._references[key]
        got = payload["coefficients"]
        wrong = [
            j
            for j in range(len(expected))
            if j >= len(got) or not _matches(got[j], expected[j])
        ]
        attempted = max(len(expected), len(got))
        failed = len(wrong) + max(0, len(got) - len(expected))
        return attempted, failed, [f"{argv}: coefficients {wrong} differ"] if failed else []

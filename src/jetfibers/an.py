"""Singular-fiber components of the A-series surfaces and their pairwise
intersections.

For xy - z^(n+1) the fiber of the m-jet space over the singular point breaks
into n components, each cut out by a coordinate ladder plus shifted jet
equations.  This module builds those ideals, decomposes the pairwise
intersections into the four parameter regimes (single ladder, thickened
ladder, a chain of ladders, ladders carrying a jet-equation tail), computes
the dimension bookkeeping behind the summary table, and drives the engine
checks that certify every claim at small parameters.

The listed components C_u of a pair ideal J cover its zero set, and this is
certified on the ladders alone, on one split of J as the engine's radical
queries split: each leaf zeroes every variable of some ladder L_u, so V(J)
lies in the union of the V(L_u).  Every generator of C_u is a variable of
L_u or a jet equation f^(k), which is a generator of J, so C_u lies in
J + L_u.  Hence V(J), the union of the V(J + L_u), lies in the union of the
V(C_u): the meet of the C_u lies in sqrt J, with no intersection computed.
"""

from __future__ import annotations

import time
from collections import namedtuple
from itertools import product
from math import prod

from . import groebner as gb
from .jets import an_surface, jet_coeffs
from .poly import Polynomial, var_code, var_family, var_index, var_name, X, Y, Z
from .witnesses import avoids_at

# ---------------------------------------------------------------------------
# ladders


class Ladder(namedtuple("Ladder", "p q r")):
    """The ideal of the first p x-, q y- and r z-coordinates."""

    __slots__ = ()

    def __new__(cls, p, q, r):
        if min(p, q, r) < 0:
            raise ValueError("ladder heights must be nonnegative")
        return super().__new__(cls, p, q, r)

    @property
    def label(self) -> str:
        return f"L({self.p},{self.q},{self.r})"

    def codes(self) -> tuple[int, ...]:
        out = [var_code(X, i) for i in range(self.p)]
        out += [var_code(Y, i) for i in range(self.q)]
        out += [var_code(Z, i) for i in range(self.r)]
        return tuple(out)

    def generators(self) -> tuple[Polynomial, ...]:
        return tuple(Polynomial.variable(c) for c in self.codes())

    def ideal(self) -> gb.Ideal:
        return gb.Ideal(self.generators(), label=self.label)


def _fk(n: int, m: int, k: int) -> Polynomial:
    return jet_coeffs(an_surface(n), m)[k]


def pair_ideal(n: int, m: int, i: int, j: int) -> gb.Ideal:
    """Generators of the intersection locus of components i and j: the merged
    ladder plus all jet equations."""
    lad = Ladder(j, n + 1 - i, 1)
    gens = lad.generators() + tuple(_fk(n, m, k) for k in range(m + 1))
    return gb.Ideal(gens, label=f"J(n{n},m{m};{i},{j})")


# ---------------------------------------------------------------------------
# intersection decompositions


class ComponentDescriptor(namedtuple("ComponentDescriptor", "ladder f_tail", defaults=(None,))):
    """One irreducible piece of a pairwise intersection: a ladder, plus the
    jet-equation tail f^(first..last) in the thick regime, or None."""

    __slots__ = ()

    @property
    def label(self) -> str:
        if self.f_tail is None:
            return self.ladder.label
        return f"{self.ladder.label}+f[{self.f_tail[0]}..{self.f_tail[1]}]"

    def ideal(self, n: int, m: int) -> gb.Ideal:
        gens = list(self.ladder.generators())
        if self.f_tail is not None:
            first, last = self.f_tail
            gens += [_fk(n, m, k) for k in range(first, last + 1)]
        return gb.Ideal(gens, label=self.label)

    def dimension(self, m: int) -> int:
        lad = self.ladder
        dim = 3 * (m + 1) - (lad.p + lad.q + lad.r)
        if self.f_tail is not None:
            first, last = self.f_tail
            dim -= last - first + 1  # the tail is a regular sequence here
        return dim


class IntersectionDecomposition(
    namedtuple("IntersectionDecomposition", "n m i j case components dimension")
):
    """The components of the (i, j) intersection at (n, m), a tuple of
    ComponentDescriptor, the parameter regime that selects them and the
    intersection's dimension."""

    __slots__ = ()

    @property
    def count(self) -> int:
        return len(self.components)

    @property
    def meet_label(self) -> str:
        """Label of the intersection of the listed components."""
        return "(" + " ^ ".join(d.label for d in self.components) + ")"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "i": self.i,
            "j": self.j,
            "case": self.case,
            "components": [
                {
                    "p": d.ladder.p,
                    "q": d.ladder.q,
                    "r": d.ladder.r,
                    "f_tail_from": None if d.f_tail is None else d.f_tail[0],
                    "f_tail_to": None if d.f_tail is None else d.f_tail[1],
                }
                for d in self.components
            ],
            "dimension": self.dimension,
            "count": self.count,
        }


def _check_pair(n: int, m: int, i: int, j: int):
    if n < 2:
        raise ValueError("pairwise intersections need n >= 2")
    if m < n:
        raise ValueError(f"need m >= n, got m={m}, n={n}")
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= n, got i={i}, j={j}")


def decompose_intersection(n: int, m: int, i: int, j: int) -> IntersectionDecomposition:
    """Irreducible components of the (i, j) pairwise intersection, selected
    by the parameter regime.  Regimes overlap only on the boundary
    m - n = j - i, where both produce the single thickened ladder."""
    _check_pair(n, m, i, j)
    dim = intersection_dimension(n, m, i, j)
    if m == n:
        comps = (ComponentDescriptor(Ladder(j, n + 1 - i, 1)),)
        case = "a"
    elif 1 <= m - n <= j - i:
        comps = (ComponentDescriptor(Ladder(j, n + 1 - i, 2)),)
        case = "b"
    elif j - i <= m - n and m < 2 * n + 2:
        comps = tuple(
            ComponentDescriptor(Ladder(j + u, m - j - u + 1, 2))
            for u in range(m - n - (j - i) + 1)
        )
        case = "c"
    else:
        comps = tuple(
            ComponentDescriptor(Ladder(j + u, 2 * n + 2 - j - u, 2), (2 * n + 2, m))
            for u in range(n + 1 - (j - i) + 1)
        )
        case = "d"
    return IntersectionDecomposition(n, m, i, j, case, comps, dim)


def intersection_dimension(n: int, m: int, i: int, j: int) -> int:
    _check_pair(n, m, i, j)
    if m == n:
        return 2 * n - (j - i) + 1
    if m - n < j - i:
        return 3 * m - n - (j - i)
    return 2 * m


def component_dimension(n: int, m: int) -> int:
    """dim of each fiber component: the jet space of the surface has
    dimension 2(k+1) at order k, and components fiber over it."""
    if m < n:
        raise ValueError(f"need m >= n, got m={m}, n={n}")
    return 2 * m + 1


def containment(n: int, m: int, i: int, j: int, k: int, l: int) -> bool:
    """Index criterion: the (i, j) intersection sits inside the (k, l) one
    exactly when [k, l] nests in [i, j]."""
    _check_pair(n, m, i, j)
    _check_pair(n, m, k, l)
    return i <= k < l <= j


def maximal_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Pairs whose intersection is maximal for inclusion: by the containment
    criterion, the (i, j) intersection lies inside no other pair's
    intersection.  The criterion does not depend on the jet order, so it is
    read at m = n."""
    if n < 1:
        raise ValueError("need n >= 1")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return tuple(
        (i, j)
        for i, j in pairs
        if not any(
            (k, l) != (i, j) and containment(n, n, i, j, k, l) for k, l in pairs
        )
    )


# ---------------------------------------------------------------------------
# engine verification


def _case_guard(dec: IntersectionDecomposition) -> gb.VerificationReport:
    """The regime's components are distinct and each has the closed-form
    dimension of the intersection, as components of an equidimensional
    intersection must."""
    n, m, i, j = dec.n, dec.m, dec.i, dec.j
    expected = intersection_dimension(n, m, i, j)
    certificate = {"case": dec.case, "count": dec.count}
    seen = set()
    for desc in dec.components:
        got = desc.dimension(m)
        if got != expected:
            certificate["witness"] = f"dim {desc.label} = {got}, closed form {expected}"
            break
        if desc in seen:
            certificate["witness"] = f"{desc.label} listed twice"
            break
        seen.add(desc)
    return gb.check(
        f"case guard {dec.case} for (n{n},m{m};{i},{j})",
        "witness" not in certificate,
        certificate,
    )


def _cover_claim(dec: IntersectionDecomposition, J: gb.Ideal) -> gb.VerificationReport:
    """The listed components cover V(J), on one split of J (the module
    docstring).  A node whose path's presolves zeroed a whole ladder L_u is
    a leaf named u; any other branches on its residual's split, the session
    clock read before each branch.  The certificate is {"kind": "cover",
    "tree": T}, T a component index or {branch variable: T}.  A leaf that
    zeroes no ladder and keeps no monomial needs each product g of one free
    variable per ladder, which lies in every L_u, in sqrt(J + the path's
    variables); one outside refutes the claim, one out of budget leaves it
    undecided."""
    claim = f"{dec.meet_label} subset sqrt {J.label}"
    ladders = [frozenset(d.ladder.codes()) for d in dec.components]
    start, sess, queries = time.monotonic(), gb.current_session(), []

    def walk(presolved, zeroed, path):
        """(True, subtree) when the node is covered, else (False, refutation)."""
        zeroed |= presolved.zeros
        u = next((u for u, codes in enumerate(ladders) if codes <= zeroed), None)
        if u is not None:
            return True, u
        branches = presolved.residual.split()
        if branches is None:
            at = gb.Ideal(J.generators + tuple(map(Polynomial.variable, path)))
            leaf = []
            for picks in product(*[sorted(codes - zeroed) for codes in ladders]):
                g = prod(map(Polynomial.variable, picks), start=Polynomial.one())
                queries.append(rep := gb.radical_member(g, at))
                leaf.append({"product": str(g), "query": rep.certificate})
                if rep.outcome == gb.REFUTED:
                    return False, {"path": [var_name(c) for c in path], **leaf[-1]}
            return True, leaf
        tree = {}
        for code, branch in branches:
            sess.check_clock("cover split", sum(q.spairs_processed for q in queries))
            ok, tree[var_name(code)] = walk(branch.presolved(), zeroed, path + (code,))
            if not ok:
                return ok, tree[var_name(code)]
        return True, tree

    try:
        ok, found = walk(J.presolved(), frozenset(), ())
    except gb.BudgetExhausted as exc:
        return gb.exhausted(claim, exc, time.monotonic() - start)
    cert = {"kind": "cover", "tree": found} if ok else {"kind": "cover", **found}
    spairs = sum(q.spairs_processed for q in queries)
    return gb.check(claim, ok, cert, spairs, time.monotonic() - start, premises=queries)


def arc_values(m: int, a: int, b: int, c: int) -> dict:
    """The m-jet of the monomial arc x = t^a, y = t^b, z = t^c, as variable
    code -> 1 with every other coordinate zero; a series whose exponent
    passes m is zero."""
    return {var_code(f, e): 1 for f, e in ((X, a), (Y, b), (Z, c)) if e <= m}


def _avoids_on_arc(
    n: int, m: int, v: Polynomial, desc: ComponentDescriptor, comp: gb.Ideal, claim: str
) -> gb.VerificationReport:
    """The witness variable v (x_k or y_k) is not in comp, the component
    desc.  Along a monomial arc with a + b = (n+1)c the surface equation,
    and with it every jet equation, vanishes identically, and v is 1 on the
    arc whose x (or y) exponent is k.  The arcs are searched by increasing c
    from 0 to m+1 (by then the arc is x = t^k or y = t^k alone) for the
    first that sets no coordinate of desc's ladder, and avoids_at evaluates
    comp once, on it, certificate {"arc": [a, b, c]}; the engine decides
    when there is none."""
    ((mono, _),) = v.items()
    ((code, _),) = mono
    k = var_index(code)
    ladder = frozenset(desc.ladder.codes())
    for c in range(-(-k // (n + 1)), m + 2):  # from the least c with (n+1)c >= k
        other = (n + 1) * c - k
        a, b = (k, other) if var_family(code) == X else (other, k)
        values = arc_values(m, a, b, c)
        if ladder.isdisjoint(values):
            return avoids_at(
                v, comp, values, claim=claim, witness={"arc": [a, b, c]}, radical=False
            )
    return gb.expect_refuted(gb.member(v, comp, claim=claim))


def verify_decomposition(n: int, m: int, i: int, j: int) -> gb.VerificationReport:
    """Engine certification of the decomposition of one pairwise intersection.

    Checks, after the coordinate presolve: the pair ideal J sits inside every
    listed component; the components cover V(J), on one split of J whose
    every leaf zeroes some component's ladder (_cover_claim); the components
    are separated pairwise by the witness variables x_w and y_w, each a
    variable of one component's ladder and outside the other by a point
    check at a monomial arc (_avoids_on_arc), so no basis is built; in the
    tail regime the residual generators are exactly f^(2n+2..m) at the jet
    shifted past the ladder (x from t^p, y from t^(2n+2-p), z from t^2), on
    variables disjoint from the ladder (the structural fact the cited
    primality rests on)."""
    dec = decompose_intersection(n, m, i, j)
    J = pair_ideal(n, m, i, j)
    comps = [d.ideal(n, m) for d in dec.components]
    reports: list[gb.VerificationReport] = []

    reports.append(_case_guard(dec))

    for comp in comps:
        reports.append(gb.generators_in(f"{J.label} subset {comp.label}", J.generators, comp))

    reports.append(_cover_claim(dec, J))

    for u1 in range(dec.count):
        for u2 in range(u1 + 1, dec.count):
            x_w = Polynomial.variable(var_code(X, j + u2 - 1))
            if dec.case == "d":
                y_w = Polynomial.variable(var_code(Y, 2 * n + 1 - j - u1))
            else:
                y_w = Polynomial.variable(var_code(Y, m - j - u1))
            d1, d2 = dec.components[u1], dec.components[u2]
            pieces = [
                gb.member(x_w, comps[u2], claim=f"{x_w} in {d2.label}"),
                _avoids_on_arc(n, m, x_w, d1, comps[u1], f"{x_w} not in {d1.label}"),
                gb.member(y_w, comps[u1], claim=f"{y_w} in {d1.label}"),
                _avoids_on_arc(n, m, y_w, d2, comps[u2], f"{y_w} not in {d2.label}"),
            ]
            reports.append(
                gb.merge_reports(f"witnesses separate u={u1} and u={u2}", pieces)
            )

    if dec.case == "d":
        for desc, comp in zip(dec.components, comps):
            presolved = comp.presolved()
            p = desc.ladder.p
            expected = jet_coeffs(an_surface(n), m, (p, 2 * n + 2 - p, 2))[2 * n + 2 :]
            ladder_codes = set(desc.ladder.codes())
            structure_ok = presolved.residual.generators == expected and all(
                not (g.variables() & ladder_codes) for g in expected
            )
            reports.append(
                gb.check(
                    f"tail of {desc.label} is the reindexed jet ideal",
                    structure_ok,
                    {
                        "eliminated": [var_name(c) for c in presolved.eliminated],
                        "residual": [str(g) for g in presolved.residual.generators],
                    },
                )
            )

    return gb.merge_reports(f"decomposition of {J.label}", reports)


def verify_all_pairs(n: int, m: int) -> list[gb.VerificationReport]:
    """verify_decomposition on every pair.  The session's clock is read
    before each pair, and a pair that starts past the time limit is reported
    budget-exhausted with no work done."""
    sess = gb.current_session()
    reports = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            try:
                sess.check_clock("pair loop", 0)
            except gb.BudgetExhausted as exc:
                claim = f"decomposition of {pair_ideal(n, m, i, j).label}"
                reports.append(gb.exhausted(claim, exc, 0.0))
            else:
                reports.append(verify_decomposition(n, m, i, j))
    return reports


# ---------------------------------------------------------------------------
# the summary table


def table_pairs(n: int) -> tuple[tuple[int, int], ...]:
    if n >= 3:
        return ((1, 2), (1, 3))
    if n == 2:
        return ((1, 2),)
    return ()


def an_table(n: int, m_values) -> list[tuple[int, ...]]:
    """Dimension/codimension/component-count summary rows, one per m, each a
    tuple of cells in table_header's column order."""
    if n < 1:
        raise ValueError("need n >= 1")
    pairs = table_pairs(n)
    rows = []
    for m in m_values:
        ambient = 3 * (m + 1)
        dim_z = component_dimension(n, m)
        dims = tuple(intersection_dimension(n, m, i, j) for i, j in pairs)
        counts = tuple(decompose_intersection(n, m, i, j).count for i, j in pairs)
        codims = tuple(ambient - d for d in dims)
        rows.append((m, dim_z) + dims + (ambient - dim_z,) + codims + counts)
    return rows


def table_header(n: int) -> tuple[str, ...]:
    pairs = table_pairs(n)
    tags = [f"Z{i}{j}" for i, j in pairs]
    return (
        ("m", "dim_Z")
        + tuple(f"dim_{t}" for t in tags)
        + ("codim_Z",)
        + tuple(f"codim_{t}" for t in tags)
        + tuple(f"N{i}{j}" for i, j in pairs)
    )


def table_csv(n: int, rows: list[tuple[int, ...]]) -> str:
    lines = [",".join(table_header(n))]
    for row in rows:
        lines.append(",".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


def table_text(n: int, rows: list[tuple[int, ...]]) -> str:
    header = table_header(n)
    grid = [header] + [tuple(str(c) for c in row) for row in rows]
    widths = [max(len(r[c]) for r in grid) for c in range(len(header))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in grid]
    return "\n".join(lines) + "\n"

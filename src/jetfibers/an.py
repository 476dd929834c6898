"""Singular-fiber components of the A-series surfaces and their pairwise
intersections.

For xy - z^(n+1) the fiber of the m-jet space over the singular point breaks
into n components, each cut out by a coordinate ladder plus reindexed jet
equations.  This module builds those ideals, decomposes the pairwise
intersections into the four parameter regimes (single ladder, thickened
ladder, a chain of ladders, ladders carrying a jet-equation tail), computes
the dimension bookkeeping behind the summary table, and drives the engine
checks that certify every claim at small parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import groebner as gb
from .jets import an_surface, g_shift, jet_coeffs
from .poly import Polynomial, jet_variables, var_code, var_name, X, Y, Z

# ---------------------------------------------------------------------------
# ladders


@dataclass(frozen=True)
class Ladder:
    """The ideal of the first p x-, q y- and r z-coordinates."""

    p: int
    q: int
    r: int

    def __post_init__(self):
        if min(self.p, self.q, self.r) < 0:
            raise ValueError("ladder heights must be nonnegative")

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

    def ideal(self, variables=None) -> gb.Ideal:
        return gb.Ideal(self.generators(), variables=variables, label=self.label)


def ladder(p: int, q: int, r: int, variables=None) -> gb.Ideal:
    return Ladder(p, q, r).ideal(variables)


def _fk(n: int, m: int, k: int) -> Polynomial:
    return jet_coeffs(an_surface(n), m)[k]


def pair_ideal(n: int, m: int, i: int, j: int) -> gb.Ideal:
    """Generators of the intersection locus of components i and j: the merged
    ladder plus all jet equations."""
    lad = Ladder(j, n + 1 - i, 1)
    gens = lad.generators() + tuple(_fk(n, m, k) for k in range(m + 1))
    return gb.Ideal(
        gens, variables=jet_variables(m), label=f"J(n{n},m{m};{i},{j})"
    )


# ---------------------------------------------------------------------------
# component ideals


@dataclass(frozen=True)
class AnComponent:
    """Component l of the singular fiber, with its two presentations: the
    defining one (ladder + all jet equations) and the reduced one (ladder +
    reindexed equations in the surviving variables)."""

    n: int
    m: int
    l: int
    defining: gb.Ideal
    reduced: gb.Ideal


def component_ideal(
    n: int, m: int, l: int, budget: gb.Budget | None = None, check: bool = True
) -> AnComponent:
    if not 1 <= l <= n <= m:
        raise ValueError(f"need 1 <= l <= n <= m, got l={l}, n={n}, m={m}")
    lad = Ladder(l, n + 1 - l, 1)
    defining = gb.Ideal(
        lad.generators() + tuple(_fk(n, m, k) for k in range(m + 1)),
        variables=jet_variables(m),
        label=f"I(n{n},m{m};{l})",
    )
    tail = tuple(g_shift(n, l, 1, v) for v in range(m - n))  # empty when m = n
    reduced = gb.Ideal(
        lad.generators() + tail,
        variables=jet_variables(m),
        label=f"I(n{n},m{m};{l})/reduced",
    )
    if check:
        for g in defining.generators:
            rep = gb.member(g, reduced, budget)
            if not rep.verified:
                raise AssertionError(f"presentation mismatch: {rep.claim}")
        for g in reduced.generators:
            rep = gb.member(g, defining, budget)
            if not rep.verified:
                raise AssertionError(f"presentation mismatch: {rep.claim}")
    return AnComponent(n, m, l, defining, reduced)


# ---------------------------------------------------------------------------
# intersection decompositions


@dataclass(frozen=True)
class ComponentDescriptor:
    """One irreducible piece of a pairwise intersection: a ladder, plus the
    jet-equation tail f^(first..last) in the thick regime."""

    ladder: Ladder
    f_tail: tuple[int, int] | None = None

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
        return gb.Ideal(gens, variables=jet_variables(m), label=self.label)

    def dimension(self, m: int) -> int:
        lad = self.ladder
        dim = 3 * (m + 1) - (lad.p + lad.q + lad.r)
        if self.f_tail is not None:
            first, last = self.f_tail
            dim -= last - first + 1  # the tail is a regular sequence here
        return dim


@dataclass(frozen=True)
class IntersectionDecomposition:
    n: int
    m: int
    i: int
    j: int
    case: str
    components: tuple[ComponentDescriptor, ...]
    dimension: int

    @property
    def count(self) -> int:
        return len(self.components)

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
    """Pairs whose intersection is maximal: exactly the adjacent ones."""
    if n < 1:
        raise ValueError("need n >= 1")
    return tuple((i, i + 1) for i in range(1, n))


# ---------------------------------------------------------------------------
# engine verification


def _intersect_descriptors(
    dec: IntersectionDecomposition, budget: gb.Budget | None
) -> gb.Ideal:
    """Exact intersection of the listed component ideals.

    Pure ladders intersect as monomial ideals.  With jet tails present, the
    shared ladder variables are split off first and the small residuals are
    intersected by elimination.
    """
    n, m = dec.n, dec.m
    ideals = [d.ideal(n, m) for d in dec.components]
    if all(d.f_tail is None for d in dec.components):
        return gb.monomial_ideal_intersect(ideals)
    common = set.intersection(*(set(d.ladder.codes()) for d in dec.components))
    residuals = []
    for ideal in ideals:
        gens = [gb.restrict_to_residual(g, sorted(common)) for g in ideal.generators]
        residuals.append(gb.Ideal([g for g in gens if g], label=ideal.label))
    current = residuals[0]
    for nxt in residuals[1:]:
        current = gb.ideal_intersect_elim(current, nxt, budget)
    coordinate = tuple(Polynomial.variable(c) for c in sorted(common, reverse=True))
    return gb.Ideal(
        coordinate + current.generators,
        variables=jet_variables(m),
        label="(" + " ^ ".join(d.label for d in dec.components) + ")",
    )


def verify_decomposition(
    n: int, m: int, i: int, j: int, budget: gb.Budget | None = None
) -> gb.VerificationReport:
    """Engine certification of the decomposition of one pairwise intersection.

    Checks, after the coordinate presolve: the pair ideal sits inside every
    listed component; the generators of the exact intersection of the listed
    components sit in the radical of the pair ideal; adjacent components are
    separated by the witness variables; in the tail regime the residual
    generators are exactly the reindexed jet equations on variables disjoint
    from the ladder (the structural fact the cited primality rests on).
    """
    dec = decompose_intersection(n, m, i, j)
    J = pair_ideal(n, m, i, j)
    comps = [d.ideal(n, m) for d in dec.components]
    reports: list[gb.VerificationReport] = []

    reports.append(
        gb.VerificationReport(
            claim=f"case guard {dec.case} for (n{n},m{m};{i},{j})",
            outcome=gb.VERIFIED,
            certificate={"case": dec.case, "count": dec.count},
        )
    )

    for desc, comp in zip(dec.components, comps):
        subs = [
            gb.member(g, comp, budget, claim=f"{J.label} gen#{k} in {desc.label}")
            for k, g in enumerate(J.generators)
        ]
        reports.append(gb.merge_reports(f"{J.label} subset {desc.label}", subs))

    meet = _intersect_descriptors(dec, budget)
    subs = [
        gb.radical_member(g, J, budget, claim=f"{meet.label} gen#{k} in sqrt {J.label}")
        for k, g in enumerate(meet.generators)
    ]
    reports.append(gb.merge_reports(f"{meet.label} subset sqrt {J.label}", subs))

    for u1 in range(dec.count):
        for u2 in range(u1 + 1, dec.count):
            x_w = Polynomial.variable(var_code(X, j + u2 - 1))
            if dec.case == "d":
                y_w = Polynomial.variable(var_code(Y, 2 * n + 1 - j - u1))
            else:
                y_w = Polynomial.variable(var_code(Y, m - j - u1))
            pieces = [
                gb.member(x_w, comps[u2], budget, claim=f"{x_w} in {dec.components[u2].label}"),
                gb.expect_refuted(
                    gb.member(x_w, comps[u1], budget, claim=f"{x_w} not in {dec.components[u1].label}")
                ),
                gb.member(y_w, comps[u1], budget, claim=f"{y_w} in {dec.components[u1].label}"),
                gb.expect_refuted(
                    gb.member(y_w, comps[u2], budget, claim=f"{y_w} not in {dec.components[u2].label}")
                ),
            ]
            reports.append(
                gb.merge_reports(f"witnesses separate u={u1} and u={u2}", pieces)
            )

    if dec.case == "d":
        for desc, comp in zip(dec.components, comps):
            residual, eliminated = comp.presolved()
            expected = [
                g_shift(n, desc.ladder.p, 2, v) for v in range(m - 2 * n - 1)
            ]
            ladder_codes = set(desc.ladder.codes())
            structure_ok = list(residual.generators) == expected and all(
                not (g.variables() & ladder_codes) for g in expected
            )
            reports.append(
                gb.VerificationReport(
                    claim=f"tail of {desc.label} is the reindexed jet ideal",
                    outcome=gb.VERIFIED if structure_ok else gb.REFUTED,
                    certificate={
                        "eliminated": [var_name(c) for c in eliminated],
                        "residual": [str(g) for g in residual.generators],
                    },
                )
            )

    return gb.merge_reports(f"decomposition of {J.label}", reports)


def verify_containment_criterion(
    n: int, m: int, budget: gb.Budget | None = None
) -> gb.VerificationReport:
    """Cross-check the index criterion against engine-decided containment on
    every pair of pairs at (n, m)."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    reports = []
    for i, j in pairs:
        J_ij = pair_ideal(n, m, i, j)
        for k, l in pairs:
            predicted = containment(n, m, i, j, k, l)
            lad = Ladder(l, n + 1 - k, 1)
            engine = True
            for code in lad.codes():
                rep = gb.radical_member(Polynomial.variable(code), J_ij, budget)
                if rep.outcome == gb.BUDGET_EXHAUSTED:
                    reports.append(rep)
                    engine = None
                    break
                if not rep.verified:
                    engine = False
                    break
            if engine is None:
                continue
            agree = engine == predicted
            reports.append(
                gb.VerificationReport(
                    claim=f"criterion agrees at (({i},{j}),({k},{l})) n{n} m{m}",
                    outcome=gb.VERIFIED if agree else gb.REFUTED,
                    certificate={"criterion": predicted, "engine": engine},
                )
            )
    return gb.merge_reports(f"containment criterion n{n} m{m}", reports)


def verify_all_pairs(
    n: int, m: int, budget: gb.Budget | None = None
) -> list[gb.VerificationReport]:
    return [
        verify_decomposition(n, m, i, j, budget)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]


# ---------------------------------------------------------------------------
# the summary table


def table_pairs(n: int) -> tuple[tuple[int, int], ...]:
    if n >= 3:
        return ((1, 2), (1, 3))
    if n == 2:
        return ((1, 2),)
    return ()


@dataclass(frozen=True)
class TableRow:
    m: int
    dim_component: int
    dims: tuple[int, ...]
    codim_component: int
    codims: tuple[int, ...]
    counts: tuple[int, ...]

    def cells(self) -> tuple[int, ...]:
        return (
            (self.m, self.dim_component)
            + self.dims
            + (self.codim_component,)
            + self.codims
            + self.counts
        )


def an_table(n: int, m_values) -> list[TableRow]:
    """Dimension/codimension/component-count summary rows, one per m."""
    pairs = table_pairs(n)
    rows = []
    for m in m_values:
        ambient = 3 * (m + 1)
        dim_z = component_dimension(n, m)
        dims = tuple(intersection_dimension(n, m, i, j) for i, j in pairs)
        counts = tuple(decompose_intersection(n, m, i, j).count for i, j in pairs)
        rows.append(
            TableRow(
                m=m,
                dim_component=dim_z,
                dims=dims,
                codim_component=ambient - dim_z,
                codims=tuple(ambient - d for d in dims),
                counts=counts,
            )
        )
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


def table_csv(n: int, rows: list[TableRow]) -> str:
    lines = [",".join(table_header(n))]
    for row in rows:
        lines.append(",".join(str(c) for c in row.cells()))
    return "\n".join(lines) + "\n"


def table_text(n: int, rows: list[TableRow]) -> str:
    header = table_header(n)
    grid = [header] + [tuple(str(c) for c in row.cells()) for row in rows]
    widths = [max(len(r[c]) for r in grid) for c in range(len(header))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in grid]
    return "\n".join(lines) + "\n"

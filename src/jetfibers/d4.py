"""Singular-fiber components of the D4 surface x^2 - y^2*z + z^3.

Unlike the A-series case the component ideals away from the distinguished
one are only known through localization: each is the contraction of an open
chart ideal at y1.  The verification strategy follows that structure: exact
polynomial identities produce certificate elements of the contracted ideals,
coordinate elements and witness jets separate the intersections, and the
surface symmetries transport every fact between the three charts.  The
outcome is that the maximal pairwise intersections are exactly the three
meeting the distinguished component, so the intersection graph is a star.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from types import MappingProxyType

from . import groebner as gb
from .an import Ladder
from .jets import d4_surface, jet_coeffs, jet_coeffs_shifted
from .poly import (
    JetPoint,
    Polynomial,
    evaluate,
    jet_point_values,
    jet_variables,
    linear_substitute,
    parse_polynomial,
    t_order,
    var_code,
    var_family,
    var_index,
    X,
    Y,
    Z,
)

M_MIN = 5


def _fk(m: int, k: int) -> Polynomial:
    return jet_coeffs(d4_surface(), m)[k]


# ---------------------------------------------------------------------------
# the ideal family


@dataclass(frozen=True)
class D4IdealFamily:
    """All the chart and component ideals at one jet order.  d4_ideals
    hands one family to every caller, so its maps are read-only."""

    m: int
    l322: gb.Ideal
    charts: Mapping[int, gb.Ideal]  # L^1, L^2, L^3
    i0: gb.Ideal
    j: Mapping[int, gb.Ideal]  # J^i = L^i + jet equations

    def component_ideal(self, i: int) -> gb.Ideal:
        """I^i = J^i : y1^inf, the contraction of the chart ideal.  Its
        elimination basis is served from the open session's memo."""
        if i not in (1, 2, 3):
            raise ValueError("chart index must be 1, 2 or 3")
        got = gb.saturate(self.j[i], Polynomial.variable(var_code(Y, 1)))
        got.label = f"I{i}(m{self.m})"
        return got


@cache
def _charts() -> Mapping[int, gb.Ideal]:
    """L^1, L^2, L^3: they do not depend on the jet order, so every family
    shares them, with their presolve caches."""
    base = [
        Polynomial.variable(var_code(X, 0)),
        Polynomial.variable(var_code(X, 1)),
        Polynomial.variable(var_code(Y, 0)),
        Polynomial.variable(var_code(Z, 0)),
    ]
    y1 = Polynomial.variable(var_code(Y, 1))
    z1 = Polynomial.variable(var_code(Z, 1))
    return MappingProxyType({
        1: gb.Ideal(base + [z1], label="L1"),
        2: gb.Ideal(base + [y1 - z1], label="L2"),
        3: gb.Ideal(base + [y1 + z1], label="L3"),
    })


@cache
def d4_ideals(m: int) -> D4IdealFamily:
    """The family at order m, built once per process: every check of every
    command reads the same ideals, so each keeps its presolve and split
    caches (both depend on the generators alone).  Bases stay in the
    session memo."""
    if m < M_MIN:
        raise ValueError(f"need m >= {M_MIN}, got {m}")
    jet_tail = tuple(_fk(m, k) for k in range(m + 1))
    l322 = Ladder(3, 2, 2).ideal()
    charts = _charts()
    i0 = gb.Ideal(l322.generators + jet_tail, label=f"I0(m{m})")
    j = {i: gb.Ideal(charts[i].generators + jet_tail, label=f"J{i}(m{m})") for i in (1, 2, 3)}
    return D4IdealFamily(m=m, l322=l322, charts=charts, i0=i0, j=MappingProxyType(j))


# ---------------------------------------------------------------------------
# automorphisms


@dataclass(frozen=True)
class Automorphism:
    """A surface symmetry acting jet-index-wise: x fixed, (y, z) through an
    invertible rational 2x2 matrix."""

    name: str
    yy: Fraction
    yz: Fraction
    zy: Fraction
    zz: Fraction

    def _images(self, codes):
        out = {}
        for code in codes:
            fam = var_family(code)
            if fam not in (Y, Z):
                continue
            idx = var_index(code)
            row = (self.yy, self.yz) if fam == Y else (self.zy, self.zz)
            # row . (y_idx, z_idx), without its zero entries
            out[code] = Polynomial(
                {((var_code(v, idx), 1),): c for v, c in zip((Y, Z), row) if c}
            )
        return out

    @cache
    def on_polynomial(self, p: Polynomial) -> Polynomial:
        """The image of p, computed once per (automorphism, polynomial) in a
        process: the jet coefficients, charts and I0 generators are
        transported again by every check and every command."""
        return linear_substitute(p, self._images(sorted(p.variables())))

    def on_ideal(self, ideal: gb.Ideal) -> gb.Ideal:
        return gb.Ideal(self.on_polynomial(g) for g in ideal.generators)

    def on_point(self, pt: JetPoint) -> JetPoint:
        ys = tuple(self.yy * y + self.yz * z for y, z in zip(pt.ys, pt.zs))
        zs = tuple(self.zy * y + self.zz * z for y, z in zip(pt.ys, pt.zs))
        return JetPoint(pt.xs, ys, zs)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other, as maps on polynomials."""
        return Automorphism(
            name=f"{self.name}*{other.name}",
            yy=other.yy * self.yy + other.yz * self.zy,
            yz=other.yy * self.yz + other.yz * self.zz,
            zy=other.zy * self.yy + other.zz * self.zy,
            zz=other.zy * self.yz + other.zz * self.zz,
        )

    @property
    def is_identity(self) -> bool:
        return (self.yy, self.yz, self.zy, self.zz) == (1, 0, 0, 1)


PHI1 = Automorphism("phi1", Fraction(-1), Fraction(0), Fraction(0), Fraction(1))
PHI2 = Automorphism(
    "phi2", Fraction(-1, 2), Fraction(3, 2), Fraction(-1, 2), Fraction(-1, 2)
)
# not displayed anywhere: obtained by inverting the matrix of phi2 and
# validated by composition in the test suite
PHI2_INV = Automorphism(
    "phi2_inv", Fraction(-1, 2), Fraction(-3, 2), Fraction(1, 2), Fraction(-1, 2)
)


# ---------------------------------------------------------------------------
# certificate polynomials


def g1() -> Polynomial:
    """Degree-4 certificate element of the first contracted component ideal."""
    return parse_polynomial("-4*y2^2*z2^2 + y1^2*z3^2 + 4*x3^2*z2 - 4*x2*x3*z3")


def g2() -> Polynomial:
    """Certificate element of the second contracted component ideal."""
    return parse_polynomial(
        "-y2^4 - 4*y2^3*z2 + 2*y2^2*z2^2 + 12*y2*z2^3 - 9*z2^4"
        " + 4*y3^2*z1^2 - 8*y3*z1^2*z3 + 4*z1^2*z3^2"
        " + 8*x3^2*y2 - 8*x3^2*z2 - 8*x2*x3*y3 + 8*x2*x3*z3"
    )


def shifted_chart_coeffs(m: int = 5):
    """Coefficients of the surface equation on the first chart's generic jet:
    x from t^2, y from t^1, z from t^2."""
    return jet_coeffs_shifted(d4_surface(), m, 2, 1, 2)


def verify_g1_identity(m: int = M_MIN) -> gb.VerificationReport:
    """y1^2*g1 equals F5^2 - 4*x3^2*F4 + 4*y1*y2*z2*F5 exactly, where F4, F5
    are the chart-shifted jet coefficients; hence y1^2*g1 lies in J^1 and g1
    in the contraction I^1.

    The chart membership is certified through the subideal generated by the
    chart variables and f^(4), f^(5) alone (F4 and F5 match those modulo the
    chart variables), which keeps the engine work independent of m.
    """
    if m < M_MIN:
        raise ValueError(f"need m >= {M_MIN}")
    shifted = shifted_chart_coeffs()
    f4, f5 = shifted[4], shifted[5]
    y1 = Polynomial.variable(var_code(Y, 1))
    y2 = Polynomial.variable(var_code(Y, 2))
    z2 = Polynomial.variable(var_code(Z, 2))
    x3 = Polynomial.variable(var_code(X, 3))
    lhs = y1**2 * g1()
    rhs = f5**2 - 4 * x3**2 * f4 + 4 * y1 * y2 * z2 * f5
    identity = lhs == rhs
    fam = d4_ideals(m)
    chart_codes = [g.variables() for g in fam.charts[1].generators]
    chart_vars = set().union(*chart_codes)
    congruent = not (
        gb.restrict_to_residual(_fk(m, 4) - f4, chart_vars)
        or gb.restrict_to_residual(_fk(m, 5) - f5, chart_vars)
    )
    subideal = gb.Ideal(
        fam.charts[1].generators + (_fk(m, 4), _fk(m, 5)), label=f"L1+(f4,f5)(m{m})"
    )
    consequence = gb.member(lhs, subideal, claim=f"y1^2*g1 in {subideal.label}")
    return gb.check(
        f"g1 certificate identity (m{m})",
        identity and congruent,
        {
            "identity": "y1^2*g1 = F5^2 - 4*x3^2*F4 + 4*y1*y2*z2*F5",
            "F4": str(f4),
            "F5": str(f5),
            "difference": str(lhs - rhs),
            "F4,F5 match f^(4),f^(5) mod chart": congruent,
            "membership": consequence.to_json_dict(),
        },
        consequence.spairs_processed,
        consequence.seconds,
        premises=[consequence],
    )


def verify_g2_identity() -> gb.VerificationReport:
    """Pull g1 back through the inverse rotation, trade y1 for z1 (their
    difference generates in the second chart), and land exactly on g2/4."""
    pulled = PHI2_INV.on_polynomial(g1())
    y1c = var_code(Y, 1)
    z1 = Polynomial.variable(var_code(Z, 1))
    swapped = linear_substitute(pulled, {y1c: z1})
    target = Fraction(1, 4) * g2()
    identity = swapped == target
    # without the trade the difference is a nonzero multiple of y1 - z1
    difference = pulled - target
    vanishes_on_diagonal = linear_substitute(difference, {y1c: z1}).is_zero
    return gb.check(
        "g2 certificate identity",
        identity and (not difference.is_zero) and vanishes_on_diagonal,
        {
            "identity": "phi2_inv(g1)|y1->z1 = g2/4",
            "difference_multiple_of_y1_minus_z1": vanishes_on_diagonal,
        },
    )


def verify_phi_invariance(max_j: int = 8) -> gb.VerificationReport:
    """Both symmetries fix every jet coefficient of the surface equation."""
    coeffs = jet_coeffs(d4_surface(), max_j)
    bad = []
    for auto in (PHI1, PHI2):
        for j in range(max_j + 1):
            if auto.on_polynomial(coeffs[j]) != coeffs[j]:
                bad.append((auto.name, j))
    return gb.check(
        f"symmetries fix jet coefficients up to order {max_j}",
        not bad,
        {"failures": bad} if bad else {"orders": max_j + 1},
    )


def verify_automorphism_algebra() -> gb.VerificationReport:
    """phi1 is an involution, phi2 has order three, phi2_inv inverts it."""
    ok = (
        PHI1.compose(PHI1).is_identity
        and PHI2.compose(PHI2).compose(PHI2).is_identity
        and PHI2.compose(PHI2_INV).is_identity
        and PHI2_INV.compose(PHI2).is_identity
        and not PHI2.compose(PHI2).is_identity
    )
    return gb.check(
        "automorphism algebra",
        ok,
        {"phi1^2": "id", "phi2^3": "id", "phi2*phi2_inv": "id"},
    )


def verify_chart_transport(m: int = M_MIN) -> gb.VerificationReport:
    """The symmetries permute the chart ideals the way the component
    permutation requires: phi1 swaps charts 2 and 3, phi2 cycles 1->3->2->1
    on ideals, and both fix the distinguished ideal."""
    fam = d4_ideals(m)
    reports = []
    expect = {
        (PHI1.name, 1): 1, (PHI1.name, 2): 3, (PHI1.name, 3): 2,
        (PHI2.name, 1): 3, (PHI2.name, 2): 1, (PHI2.name, 3): 2,
    }
    for auto in (PHI1, PHI2):
        for src in (1, 2, 3):
            dst = expect[(auto.name, src)]
            mapped = auto.on_ideal(fam.charts[src])
            subs = [
                gb.member(g, fam.charts[dst], claim=f"{auto.name}(L{src}) gen#{k} in L{dst}")
                for k, g in enumerate(mapped.generators)
            ]
            reports.append(gb.merge_reports(f"{auto.name}(L{src}) subset L{dst}", subs))
        mapped0 = auto.on_ideal(fam.i0)
        subs = [
            gb.member(g, fam.i0, claim=f"{auto.name}(I0) gen#{k} in I0(m{m})")
            for k, g in enumerate(mapped0.generators)
        ]
        reports.append(gb.merge_reports(f"{auto.name}(I0) subset I0(m{m})", subs))
    return gb.merge_reports(f"symmetries permute the charts (m{m})", reports)


# ---------------------------------------------------------------------------
# coordinate lemma and witnesses


def verify_coordinate_lemma(m: int, i: int, j: int) -> gb.VerificationReport:
    """y1, z1 and x2 lie in the radical of any two distinct chart sums, so
    the distinguished ideal sits inside it: the pairwise intersections of the
    contracted components land in the distinguished component.  Reported as
    the congruence x2^2 = f^(4) modulo L(2,2,2), which puts x2 in the radical
    of I0, and one radical query per generator of I0; y1 and z1 are its
    generators #4 and #6."""
    if m < M_MIN:
        raise ValueError(f"need m >= {M_MIN}")
    if i == j or i not in (1, 2, 3) or j not in (1, 2, 3):
        raise ValueError("need two distinct chart indices")
    fam = d4_ideals(m)
    pair = fam.j[i] + fam.j[j]
    pair.label = f"J{i}+J{j}(m{m})"
    x2 = Polynomial.variable(var_code(X, 2))
    l222 = Ladder(2, 2, 2)
    congruence = not gb.restrict_to_residual(x2**2 - _fk(m, 4), l222.codes())
    reports = [
        gb.check("x2^2 matches f^(4) modulo L(2,2,2)", congruence, {"modulus": l222.label})
    ]
    reports += [
        gb.radical_member(g, pair, claim=f"I0 gen#{k} in sqrt {pair.label}")
        for k, g in enumerate(fam.i0.generators)
    ]
    return gb.merge_reports(f"distinguished ideal inside sqrt(J{i}+J{j}) at m{m}", reports)


# witness jets


def point_p(m: int) -> JetPoint:
    return JetPoint.make(m, y={2: 1})


def point_p_prime(m: int, s) -> JetPoint:
    return JetPoint.make(m, y={1: Fraction(s), 2: 1})


def point_q(m: int) -> JetPoint:
    return JetPoint.make(m, x={3: -1}, y={2: -1}, z={2: 1})


def point_q_prime(m: int, s) -> JetPoint:
    s = Fraction(s)
    return JetPoint.make(m, x={2: s, 3: -1}, y={1: s, 2: -1}, z={2: 1})


WITNESS_SCALES = (Fraction(1), Fraction(2), Fraction(-1))


def chart_point(m: int, i: int) -> JetPoint:
    """A point of the i-th contracted component with y1 != 0: P'(1) on the
    first chart, carried to the second by phi2 and to the third by its
    inverse."""
    pt = point_p_prime(m, 1)
    return {1: pt, 2: PHI2.on_point(pt), 3: PHI2_INV.on_point(pt)}[i]


def witness_checks(m: int) -> gb.VerificationReport:
    """Strictness witnesses: the distinguished-component intersections are
    strictly bigger than the triple intersections.

    At m = 5 the witness jet Q = (-t^3, -t^2, t^2) lies on charts 0 and 1 but
    a reduced certificate polynomial takes the value -32 at it.  At m >= 6
    the jet P = (0, t^2, 0) has y2 = 1 while y2 lies in the radical of the
    three-chart sum through the certificate chain z2 -> x3 -> y2.  The chain
    stands on congruence certificates at every order, and the engine
    corroborates it at m <= 7.  That P lies on I0+J1+(g1) with y2 = 1, so
    that y2 avoids its radical, is a point check at every order (the engine
    decides only if the point check fails).
    """
    if m < M_MIN:
        raise ValueError(f"need m >= {M_MIN}")
    fam = d4_ideals(m)
    reports = []

    if m == 5:
        name, base, moved = "Q", point_q(m), point_q_prime
        order = t_order(point_q(7), d4_surface().ambient_polynomial())
        reports.append(
            gb.check(
                "surface order along Q is 6",
                order == 6,
                {"order": order, "truncated_at_5": "vanishes"},
            )
        )
    else:
        name, base, moved = "P", point_p(m), point_p_prime
    base_values = jet_point_values(base)
    reports.append(gb.vanishes_at(f"I0 vanishes at {name}", fam.i0, base_values))
    if m > 5:
        y2val = base_values[var_code(Y, 2)]
        reports.append(gb.check("y2 equals 1 at P", y2val == 1, {"y2": str(y2val)}))
    for s in WITNESS_SCALES:
        pt = moved(m, s)
        values = jet_point_values(pt)
        reports.append(gb.vanishes_at(f"J1 vanishes at {name}'({s})", fam.j[1], values))
        y1val = values[var_code(Y, 1)]
        reports.append(
            gb.check(
                f"{name}'({s}) lies in the y1 chart", y1val == s != 0, {"y1": str(y1val)}
            )
        )
    reports.append(
        gb.check(f"{name}'(s) degenerates to {name} at s=0", moved(m, 0) == base)
    )

    if m == 5:
        h = gb.restrict_to_residual(g2(), Ladder(3, 2, 2).codes())
        value = evaluate(h, base_values)
        reports.append(
            gb.check(
                "reduced g2 takes the value -32 at Q",
                value == -32,
                {"h": str(h), "value": str(value)},
            )
        )
    else:
        # the certificate chain: z2, then x3, then y2
        f6 = _fk(m, 6)
        z2 = Polynomial.variable(var_code(Z, 2))
        x3 = Polynomial.variable(var_code(X, 3))
        y2 = Polynomial.variable(var_code(Y, 2))
        l322_codes = Ladder(3, 2, 2).codes()
        c1 = not gb.restrict_to_residual(4 * z2**4 - (4 * z2 * f6 - g1()), l322_codes)
        c2 = not gb.restrict_to_residual(f6 - x3**2, l322_codes + (var_code(Z, 2),))
        c3 = not gb.restrict_to_residual(
            g2() + y2**4, l322_codes + (var_code(Z, 2), var_code(X, 3))
        )
        reports.append(
            gb.check(
                "certificate congruences for the z2/x3/y2 chain",
                c1 and c2 and c3,
                {
                    "4*z2^4 = 4*z2*f^(6) - g1 mod L(3,2,2)": c1,
                    "f^(6) = x3^2 mod L(3,2,3)": c2,
                    "g2 = -y2^4 mod L(3,2,3)+x3": c3,
                },
            )
        )
        u1 = fam.i0 + fam.j[1] + gb.Ideal([g1()])
        u1.label = f"I0+J1+(g1) m{m}"
        # engine corroboration of the chain, at small orders only: its three
        # positive radical queries take 409 S-pairs at m=6, 1,101 at m=7,
        # 1,881 at m=8, 5,977 at m=10 (0.12 s), 18,746 at m=12 (0.6 s) and
        # 53,137 at m=14 (2.4 s on a 2-core VM), about three times as many
        # every two orders.  The congruences above stand at every order.
        if m <= 7:
            u2 = u1 + fam.j[2] + gb.Ideal([g2()])
            u2.label = f"I0+J1+J2+(g1,g2) m{m}"
            reports += [
                gb.radical_member(z2, u1, claim=f"z2 in sqrt {u1.label}"),
                gb.radical_member(x3, u1, claim=f"x3 in sqrt {u1.label}"),
                gb.radical_member(y2, u2, claim=f"y2 in sqrt {u2.label}"),
            ]
        # the strictness itself stands at every order on P, where I0+J1+(g1)
        # vanishes and y2 = 1
        reports.append(gb.avoids_at(y2, u1, base_values, claim=f"y2 avoids sqrt {u1.label}"))
    return gb.merge_reports(f"strictness witnesses at m{m}", reports)


# ---------------------------------------------------------------------------
# component ideals and the main theorem


def verify_component_ideals(m: int = 5) -> gb.VerificationReport:
    """Saturation-level facts at small order: the certificates g1, g2 land in
    the contracted ideals, y1 stays outside their radicals (a point check at
    chart_point, where each ideal vanishes and y1 does not), the y-flip swaps
    components 2 and 3, and the dimensions come out at 2m+1."""
    fam = d4_ideals(m)
    reports = []
    try:
        i1 = fam.component_ideal(1)
        i2 = fam.component_ideal(2)
        i3 = fam.component_ideal(3)
    except gb.BudgetExhausted as exc:
        fallback = gb.member(
            Polynomial.variable(var_code(Y, 1)) ** 2 * g1(),
            fam.j[1],
            claim=f"fallback: y1^2*g1 in J1(m{m})",
        )
        return gb.merge_reports(
            f"component ideals at m{m} (saturation budget exhausted; chart-level fallback)",
            [gb.exhausted(f"saturation of J-ideals at m{m}", exc, exc.seconds), fallback],
        )
    reports.append(gb.member(g1(), i1, claim=f"g1 in {i1.label}"))
    reports.append(gb.member(g2(), i2, claim=f"g2 in {i2.label}"))
    y1 = Polynomial.variable(var_code(Y, 1))
    for i, ideal in ((1, i1), (2, i2), (3, i3)):
        values = jet_point_values(chart_point(m, i))
        reports.append(
            gb.avoids_at(y1, ideal, values, claim=f"y1 avoids sqrt {ideal.label}")
        )
    mapped = PHI1.on_ideal(i2)
    subs = [
        gb.member(g, i3, claim=f"phi1(I2) gen#{k} in I3") for k, g in enumerate(mapped.generators)
    ]
    back = PHI1.on_ideal(i3)
    subs += [
        gb.member(g, i2, claim=f"phi1(I3) gen#{k} in I2") for k, g in enumerate(back.generators)
    ]
    reports.append(gb.merge_reports(f"y-flip swaps components 2 and 3 (m{m})", subs))

    ambient = jet_variables(m)
    dims = {"I0": gb.krull_dim(fam.i0, ambient), "I1": gb.krull_dim(i1, ambient)}
    reports.append(
        gb.check(
            f"component dimensions equal {2 * m + 1} at m{m}",
            all(d == 2 * m + 1 for d in dims.values()),
            dims,
        )
    )
    return gb.merge_reports(f"component ideals at m{m}", reports)


def verify_complete_intersection_remark(m: int = 5) -> gb.VerificationReport:
    """The full fiber needs only x0, y0, z0 and the jet coefficients from
    order two on: the first two coefficients already lie in the coordinate
    ideal."""
    fam_vars = (var_code(X, 0), var_code(Y, 0), var_code(Z, 0))
    ok = not (
        gb.restrict_to_residual(_fk(m, 0), fam_vars)
        or gb.restrict_to_residual(_fk(m, 1), fam_vars)
    )
    return gb.check(
        "fiber is cut by m+2 equations",
        ok,
        {"f0,f1 in (x0,y0,z0)": ok, "generators": m + 2},
    )


MAXIMAL_PAIRS = ((0, 1), (0, 2), (0, 3))
CHART_PAIRS = ((1, 2), (1, 3), (2, 3))


def _theorem_facts(m: int):
    """The checks the maximal-pair theorem stands on, in two groups: the
    symmetries and the certificate identities, then the coordinate lemma on
    every chart pair and the strictness witnesses."""
    identities = [
        verify_automorphism_algebra(),
        verify_phi_invariance(max(m, 8)),
        verify_chart_transport(m),
        verify_g1_identity(m),
        verify_g2_identity(),
    ]
    separation = [
        *(verify_coordinate_lemma(m, i, j) for i, j in CHART_PAIRS),
        witness_checks(m),
    ]
    return identities, separation


def _maximal_theorem(m: int, identities, separation) -> gb.VerificationReport:
    return gb.merge_reports(f"maximal intersections at m{m}", identities + separation)


def d4_maximal_intersections(m: int):
    """The maximal pairwise intersections are the three against the
    distinguished component.  Returns (pairs, report); the report folds the
    checks of _theorem_facts, run in one engine session, so the three
    coordinate lemmas share their chart-sum bases."""
    with gb.session():
        identities, separation = _theorem_facts(m)
    return MAXIMAL_PAIRS, _maximal_theorem(m, identities, separation)


def verify_suite(m: int, saturate: bool = False) -> list[gb.VerificationReport]:
    """Everything checkable at one jet order, as a flat report list; the
    saturation-level component checks run at m = 5 or when asked for.

    Every check runs once, in one engine session: the closing
    "maximal pairs" report folds the suite's own reports the way
    d4_maximal_intersections folds its, so it agrees with that function in
    outcome and S-pair count without running any check again.
    """
    with gb.session():
        identities, separation = _theorem_facts(m)
        reports = identities + [verify_complete_intersection_remark(m)] + separation
        if saturate or m == 5:
            reports.append(verify_component_ideals(m))
    theorem = _maximal_theorem(m, identities, separation)
    reports.append(
        gb.VerificationReport(
            claim=f"maximal pairs at m{m}",
            outcome=theorem.outcome,
            certificate={"pairs": [list(p) for p in MAXIMAL_PAIRS]},
            spairs_processed=theorem.spairs_processed,
            seconds=theorem.seconds,
        )
    )
    return reports

"""Singular-fiber components of the D4 surface x^2 - y^2*z + z^3.

Unlike the A-series case the component ideals away from the distinguished
one are only known through localization: each is the contraction
I^i = J^i : y1^inf of an open chart ideal.  The verification strategy
follows that structure: exact polynomial identities produce certificate
elements of the contracted ideals, coordinate elements and witness jets
separate the intersections, and the surface symmetries transport every
fact between the three charts.  No check builds a contraction: each fact
about I^i is decided by a fact about J^i that implies it (Cox, Little &
O'Shea, "Ideals, Varieties, and Algorithms", ch. 4 sec. 4), as
``verify_component_ideals`` sets out.  The outcome is that the maximal
pairwise intersections are exactly the three meeting the distinguished
component, so the intersection graph is a star.  That theorem is one
report, "maximal pairs at m<m>", folded from its facts by
``_maximal_theorem``: ``d4_maximal_intersections`` and the closing entry
of ``verify_suite`` are that report.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache

from . import groebner as gb
from .an import Ladder
from .jets import d4_surface, jet_coeffs, t_order
from .poly import (
    AUX,
    Polynomial,
    evaluate,
    jet_variables,
    linear_substitute,
    parse_polynomial,
    var_code,
    var_family,
    var_index,
    X,
    Y,
    Z,
)
from .witnesses import avoids_at, vanishes_at

M_MIN = 5


def _fk(m: int, k: int) -> Polynomial:
    return jet_coeffs(d4_surface(), m)[k]


# ---------------------------------------------------------------------------
# the ideal family


class D4IdealFamily(namedtuple("D4IdealFamily", "m l322 charts i0 j")):
    """The ladder L(3,2,2), the charts L^i, the distinguished ideal I0 and
    the chart ideals J^i at one jet order; charts and j map i = 1, 2, 3 to
    L^i and to J^i = L^i + jet equations.  One family per order serves
    every caller in a process, so no caller may change it; the presolves
    and bases of its ideals live in the open session's memo."""

    __slots__ = ()


@cache
def d4_ideals(m: int) -> D4IdealFamily:
    """The family at order m, built once per process.  The charts L^i do
    not depend on the jet order."""
    if m < M_MIN:
        raise ValueError(f"need m >= {M_MIN}, got {m}")
    jet_tail = tuple(_fk(m, k) for k in range(m + 1))
    l322 = Ladder(3, 2, 2).ideal()
    base = [Polynomial.variable(var_code(v, k)) for v, k in ((X, 0), (X, 1), (Y, 0), (Z, 0))]
    y1 = Polynomial.variable(var_code(Y, 1))
    z1 = Polynomial.variable(var_code(Z, 1))
    charts = {
        1: gb.Ideal(base + [z1], label="L1"),
        2: gb.Ideal(base + [y1 - z1], label="L2"),
        3: gb.Ideal(base + [y1 + z1], label="L3"),
    }
    i0 = gb.Ideal(l322.generators + jet_tail, label=f"I0(m{m})")
    j = {i: gb.Ideal(charts[i].generators + jet_tail, label=f"J{i}(m{m})") for i in (1, 2, 3)}
    return D4IdealFamily(m=m, l322=l322, charts=charts, i0=i0, j=j)


# ---------------------------------------------------------------------------
# automorphisms


class Automorphism(namedtuple("Automorphism", "name yy yz zy zz")):
    """A surface symmetry acting jet-index-wise: x fixed, (y, z) through an
    invertible rational 2x2 matrix [[yy, yz], [zy, zz]]."""

    __slots__ = ()

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

    def on_point(self, pt: dict) -> dict:
        """The image of a jet point: x kept, (y, z) at each index through
        the matrix."""
        x, y, z = (
            {var_index(c): v for c, v in pt.items() if var_family(c) == f} for f in (X, Y, Z)
        )
        idx = y.keys() | z.keys()
        return _jet(
            x=x,
            y={i: self.yy * y.get(i, 0) + self.yz * z.get(i, 0) for i in idx},
            z={i: self.zy * y.get(i, 0) + self.zz * z.get(i, 0) for i in idx},
        )

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


@cache
def g1() -> Polynomial:
    """Degree-4 certificate element of the first contracted component ideal."""
    return parse_polynomial("-4*y2^2*z2^2 + y1^2*z3^2 + 4*x3^2*z2 - 4*x2*x3*z3")


@cache
def g2() -> Polynomial:
    """Certificate element of the second contracted component ideal."""
    return parse_polynomial(
        "-y2^4 - 4*y2^3*z2 + 2*y2^2*z2^2 + 12*y2*z2^3 - 9*z2^4"
        " + 4*y3^2*z1^2 - 8*y3*z1^2*z3 + 4*z1^2*z3^2"
        " + 8*x3^2*y2 - 8*x3^2*z2 - 8*x2*x3*y3 + 8*x2*x3*z3"
    )


# y1^k*g in J^i puts g in the contraction I^i.  k = 2 serves g1 and g2 at
# every order; y1*g2 is not in J2 at m = 5, 6 or 7.
Y1_POWER = 2


def _y1_multiple_in_low_jets(
    fam: D4IdealFamily, i: int, g: Polynomial
) -> gb.VerificationReport:
    """Is y1^Y1_POWER*g in L^i + (f^(4), f^(5))?  That subideal lies in J^i,
    so a yes puts g in I^i, and its basis does not grow with m."""
    m = fam.m
    subideal = gb.Ideal(
        fam.charts[i].generators + (_fk(m, 4), _fk(m, 5)), label=f"L{i}+(f4,f5)(m{m})"
    )
    y1 = Polynomial.variable(var_code(Y, 1))
    return gb.member(
        y1**Y1_POWER * g, subideal, claim=f"y1^{Y1_POWER}*g{i} in {subideal.label}"
    )


def verify_g1_identity(m: int = M_MIN) -> gb.VerificationReport:
    """y1^2*g1 equals F5^2 - 4*x3^2*F4 + 4*y1*y2*z2*F5 exactly, where F4, F5
    are the chart-shifted jet coefficients; hence y1^2*g1 lies in J^1 and g1
    in the contraction I^1.

    The chart membership is certified through the subideal generated by the
    chart variables and f^(4), f^(5) alone (F4 and F5 match those modulo the
    chart variables), which keeps the engine work independent of m.
    """
    # the first chart's generic jet: x from t^2, y from t^1, z from t^2
    shifted = jet_coeffs(d4_surface(), 5, (2, 1, 2))
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
    consequence = _y1_multiple_in_low_jets(fam, 1, g1())
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
    vanishes_on_diagonal = not linear_substitute(difference, {y1c: z1})
    return gb.check(
        "g2 certificate identity",
        identity and bool(difference) and vanishes_on_diagonal,
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
            mapped = auto.on_ideal(fam.charts[src]).generators
            claim = f"{auto.name}(L{src}) subset L{dst}"
            reports.append(gb.generators_in(claim, mapped, fam.charts[dst]))
        mapped = auto.on_ideal(fam.i0).generators
        reports.append(gb.generators_in(f"{auto.name}(I0) subset {fam.i0.label}", mapped, fam.i0))
    return gb.merge_reports(f"symmetries permute the charts (m{m})", reports)


# ---------------------------------------------------------------------------
# coordinate lemma and witnesses


def verify_coordinate_lemma(m: int, i: int, j: int) -> gb.VerificationReport:
    """y1, z1 and x2 lie in the radical of any two distinct chart sums, so
    the distinguished ideal sits inside it: the pairwise intersections of the
    contracted components land in the distinguished component.  Reported as
    the congruence x2^2 = f^(4) modulo L(2,2,2), which puts x2 in the radical
    of I0, and one containment report, I0 inside sqrt(Ji+Jj), that decides a
    radical query on each generator of I0 (y1 and z1 are its generators #4
    and #6, x2 its generator #2)."""
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
    claim = f"{fam.i0.label} subset sqrt {pair.label}"
    reports.append(gb.generators_in(claim, fam.i0.generators, pair, radical=True))
    return gb.merge_reports(f"distinguished ideal inside sqrt(J{i}+J{j}) at m{m}", reports)


# witness jets


def _jet(**series) -> dict:
    """The jet point with the given x, y, z series (index -> value) as
    jet-variable code -> value, zeros left out: P'(0) is P."""
    return {var_code(f, i): Fraction(v) for f, vs in series.items() for i, v in vs.items() if v}


def point_p() -> dict:
    return _jet(y={2: 1})


def point_p_prime(s) -> dict:
    return _jet(y={1: s, 2: 1})


def point_q() -> dict:
    return _jet(x={3: -1}, y={2: -1}, z={2: 1})


def point_q_prime(s) -> dict:
    return _jet(x={2: s, 3: -1}, y={1: s, 2: -1}, z={2: 1})


WITNESS_SCALES = (Fraction(1), Fraction(2), Fraction(-1))


def chart_point(i: int) -> dict:
    """A point of the i-th contracted component with y1 != 0: P'(1) on the
    first chart, carried to the second by phi2 and to the third by its
    inverse."""
    pt = point_p_prime(1)
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
    fam = d4_ideals(m)
    reports = []

    if m == 5:
        name, base, moved = "Q", point_q(), point_q_prime
        order = t_order(d4_surface(), base, 7)
        reports.append(
            gb.check(
                "surface order along Q is 6",
                order == 6,
                {"order": order, "truncated_at_5": "vanishes"},
            )
        )
    else:
        name, base, moved = "P", point_p(), point_p_prime
    reports.append(vanishes_at(f"I0 vanishes at {name}", fam.i0, base))
    if m > 5:
        y2val = base.get(var_code(Y, 2), 0)
        reports.append(gb.check("y2 equals 1 at P", y2val == 1, {"y2": str(y2val)}))
    for s in WITNESS_SCALES:
        pt = moved(s)
        reports.append(vanishes_at(f"J1 vanishes at {name}'({s})", fam.j[1], pt))
        y1val = pt.get(var_code(Y, 1), 0)
        reports.append(
            gb.check(
                f"{name}'({s}) lies in the y1 chart", y1val == s != 0, {"y1": str(y1val)}
            )
        )
    reports.append(
        gb.check(f"{name}'(s) degenerates to {name} at s=0", moved(0) == base)
    )

    if m == 5:
        h = gb.restrict_to_residual(g2(), Ladder(3, 2, 2).codes())
        value = evaluate(h, base)
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
        reports.append(avoids_at(y2, u1, base, claim=f"y2 avoids sqrt {u1.label}"))
    return gb.merge_reports(f"strictness witnesses at m{m}", reports)


# ---------------------------------------------------------------------------
# component ideals and the main theorem


def _on_chart(claim: str, fact: gb.VerificationReport) -> gb.VerificationReport:
    """The report of a claim about a contracted ideal I^i that a fact about
    its chart ideal J^i implies: the fact's outcome, S-pairs and seconds,
    with the fact's claim and certificate under "stands on"."""
    return gb.VerificationReport(
        claim,
        fact.outcome,
        {"stands on": fact.claim, "certificate": fact.certificate},
        fact.spairs_processed,
        fact.seconds,
    )


def verify_component_ideals(m: int = 5) -> gb.VerificationReport:
    """Facts about the contracted ideals I^i = J^i : y1^inf, each decided by
    a fact about J^i that implies it, so no contraction is built:

    - g1 in I1 and g2 in I2: y1^Y1_POWER*g_i lies in L^i + (f^(4), f^(5)),
      inside J^i (the g1 query is verify_g1_identity's);
    - y1 avoids sqrt I^i: y1 lies in sqrt I^i exactly when it lies in
      sqrt J^i, decided at chart_point(i), where J^i vanishes and y1 does
      not, with the engine as the fallback;
    - the y-flip swaps components 2 and 3: phi1 maps J2 into J3 and J3 into
      J2, and it sends y1 to -y1, so it commutes with the contraction;
    - dim I0 = dim I1 = 2m+1, the second read off J1 + (1 - w0*y1), whose
      zero set is V(J1) minus V(y1), lifted, and dense in V(I1).

    The dimensions need bases of I0 and of J1 + (1 - w0*y1); running out of
    budget there leaves that subcheck undecided."""
    fam = d4_ideals(m)
    y1 = Polynomial.variable(var_code(Y, 1))
    reports = [
        _on_chart(f"g{i} in I{i}(m{m})", _y1_multiple_in_low_jets(fam, i, g))
        for i, g in ((1, g1()), (2, g2()))
    ]
    for i in (1, 2, 3):
        fact = avoids_at(y1, fam.j[i], chart_point(i), claim=f"y1 avoids sqrt {fam.j[i].label}")
        reports.append(_on_chart(f"y1 avoids sqrt I{i}(m{m})", fact))
    flips = [
        gb.generators_in(
            f"phi1(J{src}) subset {fam.j[dst].label}", PHI1.on_ideal(fam.j[src]).generators,
            fam.j[dst],
        )
        for src, dst in ((2, 3), (3, 2))
    ]
    reports.append(gb.merge_reports(f"y-flip swaps components 2 and 3 (m{m})", flips))

    claim = f"component dimensions equal {2 * m + 1} at m{m}"
    w = var_code(AUX, 0)
    off_y1 = fam.j[1] + gb.Ideal([Polynomial.one() - Polynomial.variable(w) * y1])
    ambient = jet_variables(m)
    try:
        dims = {
            "I0": gb.krull_dim(fam.i0, ambient),
            f"{fam.j[1].label}+(1-w0*y1)": gb.krull_dim(off_y1, ambient + (w,)),
        }
    except gb.BudgetExhausted as exc:
        reports.append(gb.exhausted(claim, exc, exc.seconds))
    else:
        reports.append(gb.check(claim, all(d == 2 * m + 1 for d in dims.values()), dims))
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


def _maximal_theorem(m: int, facts) -> gb.VerificationReport:
    """The maximal-pair theorem at order m: certificate the pairs, outcome
    the worst of the facts it stands on, and their S-pairs and seconds."""
    return gb.check(
        f"maximal pairs at m{m}",
        True,
        {"pairs": [list(p) for p in MAXIMAL_PAIRS]},
        sum(r.spairs_processed for r in facts),
        sum(r.seconds for r in facts),
        premises=facts,
    )


def d4_maximal_intersections(m: int):
    """The maximal pairwise intersections are the three against the
    distinguished component.  Returns (pairs, report), the report that of
    _maximal_theorem over the checks of _theorem_facts, run in one engine
    session, so the three coordinate lemmas share their chart-sum bases."""
    with gb.session():
        identities, separation = _theorem_facts(m)
    return MAXIMAL_PAIRS, _maximal_theorem(m, identities + separation)


def verify_suite(m: int, saturate: bool = False) -> list[gb.VerificationReport]:
    """Everything checkable at one jet order, as a flat report list; the
    component checks (verify_component_ideals) run at m = 5 or when
    saturate is set.  The flag is named for the saturations I^i those
    checks are about; they build none, but their dimension basis grows
    with m.

    Every check runs once, in one engine session.  The closing report is
    the maximal-pair theorem over the suite's own facts, the same report
    d4_maximal_intersections returns, with no check run again.
    """
    with gb.session():
        identities, separation = _theorem_facts(m)
        reports = identities + [verify_complete_intersection_remark(m)] + separation
        if saturate or m == 5:
            reports.append(verify_component_ideals(m))
    reports.append(_maximal_theorem(m, identities + separation))
    return reports

"""References the tests compare the package against, kept out of the
package because no command runs them:

* the closed formula for the shifted jet coefficients of the A-series
  surface, with its index sets Lambda_xy and Lambda_z
  (``lambda_xy``, ``lambda_z``, ``multinomial``, ``fpqr_closed``), which
  the tests hold the shifted ``jets.jet_coeffs`` to;
* the shift lemma's side of the same coefficients: the plain coefficient
  f^(j) with its variables moved up the ladder (``g_shift``), which the
  tests also hold the shifted ``jets.jet_coeffs`` to;
* the two presentations of an A-series fiber component, checked to
  generate one ideal (``component_ideal``);
* the engine cross-check of the index containment criterion
  (``verify_containment_criterion``);
* the linear presolve as a one-pivot-at-a-time loop that rescans every
  generator per pivot (``plain_presolve``), which the tests hold
  ``groebner.linear_presolve``'s pick order and output to;
* the intersection of monomial ideals by pairwise lcms
  (``monomial_ideal_intersect``), the ladder meet whose generators the tests
  hold the A_n cover claim to;
* the witness arc search that evaluates every generator of the component
  (``avoids_on_arc_all_generators``), which the tests hold the ladder-only
  search of ``an._avoids_on_arc`` to;
* the contracted D4 component ideals I^i = J^i : y1^inf by saturation
  (``d4_component_ideal``), which the tests hold the chart-level
  certificates of ``d4.verify_component_ideals`` to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from jetfibers import groebner as gb
from jetfibers.an import Ladder, _fk, arc_values, containment, pair_ideal
from jetfibers.d4 import d4_ideals
from jetfibers.jets import _compositions, an_surface, jet_coeffs
from jetfibers.kernel import impl as _K
from jetfibers.poly import (
    Polynomial,
    evaluate,
    linear_substitute,
    var_code,
    var_family,
    var_index,
    X,
    Y,
    Z,
)
from jetfibers.witnesses import avoids_at

# ---------------------------------------------------------------------------
# the closed formula for the shifted coefficients


def lambda_xy(p: int, q: int, j: int) -> tuple[tuple[int, int], ...]:
    """Exponent pairs (l1, l2) with l1 >= p, l2 >= q, l1 + l2 = j."""
    return tuple((l1, j - l1) for l1 in range(p, j - q + 1))


def lambda_z(r: int, j: int, n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Weighted compositions (support, parts): supports r <= i_1 < ... < i_l
    <= j with positive parts d_k summing to n+1 and total weight
    sum(i_k * d_k) = j."""
    return tuple(
        (tuple(i for i, _ in reversed(pairs)), tuple(d for _, d in reversed(pairs)))
        for pairs, _ in _compositions(r, n + 1, j)[j]
    )


@lru_cache(maxsize=None)
def multinomial(parts: tuple[int, ...]) -> int:
    total = math.factorial(sum(parts))
    for d in parts:
        total //= math.factorial(d)
    return total


def fpqr_closed(n: int, p: int, q: int, r: int, j: int) -> Polynomial:
    """Closed formula for the shifted coefficient of t^j on the A-series
    surface: the x*y pairs minus the multinomial-weighted z monomials.
    Either sum is empty exactly when its index set is."""
    if n < 1:
        raise ValueError("the closed formula needs n >= 1")
    terms = []
    for l1, l2 in lambda_xy(p, q, j):
        terms.append((((var_code(X, l1), 1), (var_code(Y, l2), 1)), 1))
    for mono, mult in _compositions(r, n + 1, j, var_code(Z, 0))[j]:
        terms.append((mono, -mult))
    return Polynomial.from_terms(terms)


# ---------------------------------------------------------------------------
# the shift lemma


def g_shift(n: int, l: int, e: int, j: int) -> Polynomial:
    """f^(j) of the A-series surface with variables moved to x_(l+k),
    y_(e(n+1)-l+k), z_(e+k): by the shift lemma, the coefficient of
    t^(e(n+1)+j) at the jet with x from t^l, y from t^(e(n+1)-l) and z from
    t^e; the residual jet equation after splitting a coordinate ladder off
    the shifted equations."""
    hi = e * (n + 1)
    if not 0 <= l <= hi:
        raise ValueError(f"shift l={l} outside 0..{hi}")
    if j < 0:
        raise ValueError("coefficient index must be nonnegative")
    offsets = {X: l, Y: hi - l, Z: e}

    def moved(code: int) -> int:
        family = var_family(code)
        return var_code(family, var_index(code) + offsets[family])

    return Polynomial.from_terms(
        (tuple((moved(code), d) for code, d in mono), c)
        for mono, c in jet_coeffs(an_surface(n), j)[j].items()
    )


# ---------------------------------------------------------------------------
# A-series component ideals


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


def component_ideal(n: int, m: int, l: int) -> AnComponent:
    """Both presentations of component l, checked to generate the same ideal
    inside one engine session, so the checks share their bases.  A check the
    budget leaves undecided raises BudgetExhausted; a refuted one raises
    AssertionError."""
    if not 1 <= l <= n <= m:
        raise ValueError(f"need 1 <= l <= n <= m, got l={l}, n={n}, m={m}")
    lad = Ladder(l, n + 1 - l, 1)
    defining = gb.Ideal(
        lad.generators() + tuple(_fk(n, m, k) for k in range(m + 1)),
        label=f"I(n{n},m{m};{l})",
    )
    tail = tuple(g_shift(n, l, 1, v) for v in range(m - n))  # empty when m = n
    reduced = gb.Ideal(lad.generators() + tail, label=f"I(n{n},m{m};{l})/reduced")
    with gb.session():
        for source, target in ((defining, reduced), (reduced, defining)):
            for g in source.generators:
                rep = gb.member(g, target)
                if rep.outcome == gb.BUDGET_EXHAUSTED:
                    context = rep.certificate["context"]
                    raise gb.BudgetExhausted(context, rep.spairs_processed, rep.seconds)
                if not rep.verified:
                    raise AssertionError(f"presentation mismatch: {rep.claim}")
    return AnComponent(n, m, l, defining, reduced)


# ---------------------------------------------------------------------------
# the containment criterion against the engine


def verify_containment_criterion(n: int, m: int) -> gb.VerificationReport:
    """Cross-check the index criterion against engine-decided containment on
    every pair of pairs at (n, m).  The engine calls go through the module
    (gb.radical_member, gb.check), so a test can wrap them."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    reports = []
    for i, j in pairs:
        J_ij = pair_ideal(n, m, i, j)
        for k, l in pairs:
            predicted = containment(n, m, i, j, k, l)
            queries = []
            for code in Ladder(l, n + 1 - k, 1).codes():
                queries.append(gb.radical_member(Polynomial.variable(code), J_ij))
                if not queries[-1].verified:
                    break
            if queries[-1].outcome == gb.BUDGET_EXHAUSTED:
                reports.append(queries[-1])
                continue
            engine = all(r.verified for r in queries)
            reports.append(
                gb.check(
                    f"criterion agrees at (({i},{j}),({k},{l})) n{n} m{m}",
                    engine == predicted,
                    {"criterion": predicted, "engine": engine},
                    sum(r.spairs_processed for r in queries),
                    sum(r.seconds for r in queries),
                )
            )
    return gb.merge_reports(f"containment criterion n{n} m{m}", reports)


# ---------------------------------------------------------------------------
# the linear presolve, one pivot at a time


def plain_presolve(ideal: gb.Ideal) -> gb.Presolve:
    """The linear presolve by rescanning: before each pivot, the first
    generator that is a single variable sets that coordinate to zero, and
    when there is none the first other degree-one generator is solved for
    its highest code; every generator and earlier image is then rewritten
    by that one pivot."""
    gens = list(ideal.generators)
    eliminated: dict[int, Polynomial] = {}
    while True:
        for g in gens:
            if g.is_variable():
                ((mono, _),) = g.items()
                code, image = mono[0][0], Polynomial.zero()
                break
        else:
            solved = next(filter(None, map(gb._solve_linear, gens)), None)
            if solved is None:
                break
            code, image = solved
        gens = [h for g in gens if (h := _substitute(g, code, image))]
        for c in [c for c, earlier in eliminated.items() if earlier]:
            eliminated[c] = _substitute(eliminated[c], code, image)
        eliminated[code] = image
    return gb.Presolve(gb.Ideal(gens), eliminated)


def _substitute(p: Polynomial, code: int, image: Polynomial) -> Polynomial:
    """p with the variable code replaced by image; only the terms that
    contain it change."""
    hit = {mono: c for mono, c in p.items() if any(v == code for v, _ in mono)}
    if not hit:
        return p
    rest = Polynomial({mono: c for mono, c in p.items() if mono not in hit})
    if not image:
        return rest
    return rest + linear_substitute(Polynomial(hit), {code: image})


# ---------------------------------------------------------------------------
# the ladder meet


def monomial_ideal_intersect(ideals) -> gb.Ideal:
    """Intersection of monomial ideals via pairwise lcms, minimalized.  The
    generators come out in descending grevlex order."""
    ideals = list(ideals)
    if not ideals:
        raise ValueError("need at least one ideal")
    gens = [g for i in ideals for g in i.generators]
    for g in gens:
        if len(g) != 1:
            raise ValueError(f"non-monomial generator: {g}")

    def meet(ring) -> gb.Ideal:
        packing = ring.packing

        def minimalize(monos) -> list[int]:
            kept: list[int] = []
            for m in sorted(set(monos), key=packing.key):  # divisors come first
                if all((m - k) & packing.guards for k in kept):
                    kept.append(m)
            return kept

        def monomials(ideal: gb.Ideal) -> list[int]:
            return minimalize(m for g in ideal.generators for m in ring.pack(g))

        current = monomials(ideals[0])
        for nxt in ideals[1:]:
            gens = monomials(nxt)
            current = minimalize([_K.mono_lcm(a, b, packing) for a in current for b in gens])
        return gb.Ideal([ring.unpack({m: Fraction(1)}) for m in reversed(current)])

    return gb._widening(gb._make_ring(gens, gb.GREVLEX_ORDER), meet)


# ---------------------------------------------------------------------------
# the witness arc search on every generator


def avoids_on_arc_all_generators(
    n: int, m: int, v: Polynomial, comp: gb.Ideal, claim: str
) -> gb.VerificationReport:
    """The arc search as it stood before it read only the ladder: the first
    arc, by increasing c, on which every generator of the component
    vanishes, then the point check of avoids_at, which evaluates them all
    again; the engine decides when there is none."""
    ((mono, _),) = v.items()
    ((code, _),) = mono
    k = var_index(code)
    for c in range(m + 2):
        other = (n + 1) * c - k
        if other < 0:
            continue
        a, b = (k, other) if var_family(code) == X else (other, k)
        values = arc_values(m, a, b, c)
        if not any(evaluate(g, values) for g in comp.generators):
            return avoids_at(
                v, comp, values, claim=claim, witness={"arc": [a, b, c]}, radical=False
            )
    return gb.expect_refuted(gb.member(v, comp, claim=claim))


# ---------------------------------------------------------------------------
# the D4 component ideals by saturation


def d4_component_ideal(m: int, i: int) -> gb.Ideal:
    """I^i = J^i : y1^inf, the contraction of the i-th D4 chart ideal at
    order m, by elimination (groebner.saturate); its elimination basis is
    served from the open session's memo."""
    if i not in (1, 2, 3):
        raise ValueError("chart index must be 1, 2 or 3")
    got = gb.saturate(d4_ideals(m).j[i], Polynomial.variable(var_code(Y, 1)))
    got.label = f"I{i}(m{m})"
    return got

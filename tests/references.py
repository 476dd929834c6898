"""References the tests compare the package against, kept out of the
package because no command runs them:

* the closed formula for the shifted jet coefficients of the A-series
  surface, with its index sets Lambda_xy and Lambda_z
  (``lambda_xy``, ``lambda_z``, ``multinomial``, ``fpqr_closed``), which
  the tests hold ``jets.jet_coeffs_shifted`` to;
* the two presentations of an A-series fiber component, checked to
  generate one ideal (``component_ideal``);
* the engine cross-check of the index containment criterion
  (``verify_containment_criterion``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from jetfibers import groebner as gb
from jetfibers.an import Ladder, _fk, containment, pair_ideal
from jetfibers.jets import _compositions, g_shift
from jetfibers.poly import Polynomial, var_code, X, Y, Z

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

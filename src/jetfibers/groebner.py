"""Budgeted exact ideal computations.

A small, deterministic Groebner engine over the rationals: reduced bases by
Buchberger's algorithm with the normal selection strategy and both classical
pair criteria, normal forms, (radical) membership, monomial-ideal and
elimination-based intersections, saturation, and a coordinate-variable
presolve that collapses the very sparse ideals showing up in jet-space
computations down to a handful of effective variables.

The pending S-pairs live in a binary heap ordered by (lcm degree, order key
of the lcm, pair index), so choosing the next pair costs a logarithmic pop
rather than a scan of every pending pair.

Monomial orders live in one place.  _make_ring encodes a MonomialOrder over
a variable set as dense exponent tuples plus a kernel order (kind, split),
and dense_order_key turns that into a key function that sorts exactly as the
kernel's mono_cmp does.  The pair heap, the final sorting of a basis and the
monomial-ideal intersection all compare monomials through it.

Every potentially expensive computation takes a Budget; exceeding it raises
BudgetExhausted rather than returning anything partial.  Identical inputs
always produce identical bases and reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from operator import neg

from .kernel import impl as _K
from .poly import (
    AUX,
    Polynomial,
    var_code,
    var_family,
    var_index,
    var_name,
)

_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# monomial orders


@dataclass(frozen=True)
class MonomialOrder:
    """grevlex, lex, or a block elimination order (the named variables rank
    above everything else, grevlex inside each block).  Comparisons happen on
    dense exponent tuples: _make_ring encodes the order for a variable set and
    dense_order_key turns that encoding into a sort key."""

    kind: str
    eliminate: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex", "block"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind == "block" and not self.eliminate:
            raise ValueError("block orders need a nonempty eliminated set")
        if self.kind != "block" and self.eliminate:
            raise ValueError("only block orders eliminate variables")


GREVLEX_ORDER = MonomialOrder("grevlex")
LEX_ORDER = MonomialOrder("lex")


def block_order(eliminate) -> MonomialOrder:
    return MonomialOrder("block", tuple(sorted(eliminate, reverse=True)))


# ---------------------------------------------------------------------------
# budgets and reports


@dataclass(frozen=True)
class Budget:
    """Work limits for a single computation.  An S-pair counts as processed
    when it is popped from the queue, whether or not a criterion discards it."""

    max_spairs: int = 100_000
    max_seconds: float = 300.0


DEFAULT_BUDGET = Budget()


class BudgetExhausted(RuntimeError):
    def __init__(self, context: str, spairs: int, seconds: float):
        super().__init__(
            f"budget exhausted in {context}: {spairs} S-pairs, {seconds:.3f}s"
        )
        self.context = context
        self.spairs = spairs
        self.seconds = seconds


VERIFIED = "verified"
REFUTED = "refuted"
BUDGET_EXHAUSTED = "budget-exhausted"

_OUTCOME_RANK = {VERIFIED: 0, BUDGET_EXHAUSTED: 1, REFUTED: 2}


@dataclass
class VerificationReport:
    """Outcome of one checked claim.  A refutation always carries a concrete
    witness in the certificate; timings never affect the canonical JSON."""

    claim: str
    outcome: str
    certificate: object = None
    spairs_processed: int = 0
    seconds: float = 0.0

    @property
    def verified(self) -> bool:
        return self.outcome == VERIFIED

    def to_json_dict(self, include_timings: bool = False) -> dict:
        return {
            "claim": self.claim,
            "outcome": self.outcome,
            "certificate": self.certificate,
            "spairs_processed": self.spairs_processed,
            "seconds": self.seconds if include_timings else None,
        }


def merge_reports(claim: str, reports) -> VerificationReport:
    """Fold sub-reports into one; the worst sub-outcome wins."""
    reports = list(reports)
    outcome = VERIFIED
    for r in reports:
        if _OUTCOME_RANK[r.outcome] > _OUTCOME_RANK[outcome]:
            outcome = r.outcome
    return VerificationReport(
        claim=claim,
        outcome=outcome,
        certificate={
            "subchecks": [
                {"claim": r.claim, "outcome": r.outcome, "certificate": r.certificate}
                for r in reports
            ]
        },
        spairs_processed=sum(r.spairs_processed for r in reports),
        seconds=sum(r.seconds for r in reports),
    )


def expect_refuted(report: VerificationReport) -> VerificationReport:
    """Invert a membership report: non-membership is the claim here."""
    if report.outcome == REFUTED:
        outcome = VERIFIED
    elif report.outcome == VERIFIED:
        outcome = REFUTED
    else:
        outcome = report.outcome
    return VerificationReport(
        claim=report.claim,
        outcome=outcome,
        certificate=report.certificate,
        spairs_processed=report.spairs_processed,
        seconds=report.seconds,
    )


# ---------------------------------------------------------------------------
# dense ring plumbing


class _Ring:
    """Fixed variable tuple plus the dense encoding of an order."""

    __slots__ = ("codes", "pos", "kind", "split")

    def __init__(self, codes: tuple[int, ...], kind: int, split: int):
        self.codes = codes
        self.pos = {c: i for i, c in enumerate(codes)}
        self.kind = kind
        self.split = split

    def densify(self, p: Polynomial) -> dict:
        width = len(self.codes)
        pos = self.pos
        out = {}
        for mono, coeff in p.items():
            vec = [0] * width
            for code, exp in mono:
                vec[pos[code]] = exp
            out[tuple(vec)] = coeff
        return out

    def sparsify(self, terms: dict) -> Polynomial:
        codes = self.codes
        out = {}
        for vec, coeff in terms.items():
            mono = tuple(
                sorted(((codes[i], e) for i, e in enumerate(vec) if e), reverse=True)
            )
            out[mono] = coeff
        return Polynomial(out)


def _make_ring(codes, order: MonomialOrder) -> _Ring:
    codes = set(codes)
    if order.kind == "block":
        elim = sorted((c for c in codes if c in set(order.eliminate)), reverse=True)
        rest = sorted(codes - set(elim), reverse=True)
        return _Ring(tuple(elim + rest), _K.BLOCK, len(elim))
    kind = _K.LEX if order.kind == "lex" else _K.GREVLEX
    return _Ring(tuple(sorted(codes, reverse=True)), kind, 0)


# ---------------------------------------------------------------------------
# ideals


class Ideal:
    """A generator list with an explicit ambient variable set (needed for
    dimension counts) and a per-order cache of reduced bases."""

    __slots__ = ("generators", "variables", "label", "_gb_cache", "_presolved")

    def __init__(self, generators, variables=None, label: str | None = None):
        gens = []
        for g in generators:
            if isinstance(g, (int, Fraction)):
                g = Polynomial.constant(g)
            if not isinstance(g, Polynomial):
                raise TypeError("ideal generators must be polynomials")
            if g:
                gens.append(g)
        self.generators = tuple(gens)
        used = frozenset().union(*(g.variables() for g in gens)) if gens else frozenset()
        self.variables = used | frozenset(variables or ())
        self.label = label
        self._gb_cache: dict[MonomialOrder, GroebnerBasis] = {}
        self._presolved = None

    def __add__(self, other: "Ideal") -> "Ideal":
        label = None
        if self.label and other.label:
            label = f"{self.label}+{other.label}"
        return Ideal(
            self.generators + other.generators,
            variables=self.variables | other.variables,
            label=label,
        )

    def __repr__(self) -> str:
        tag = self.label or f"{len(self.generators)} generators"
        return f"Ideal({tag})"

    def describe(self) -> str:
        return self.label or "ideal"

    def groebner(self, order: MonomialOrder = GREVLEX_ORDER, budget: Budget | None = None):
        got = self._gb_cache.get(order)
        if got is None:
            got = buchberger(self, order, budget)
            self._gb_cache[order] = got
        return got

    def presolved(self):
        if self._presolved is None:
            self._presolved = linear_presolve(self)
        return self._presolved


# ---------------------------------------------------------------------------
# Buchberger


class GroebnerBasis:
    """A reduced basis (monic, mutually reduced, sorted by descending lead)."""

    __slots__ = ("polys", "order", "spairs_processed", "seconds", "_ring", "_dense", "_leads")

    def __init__(self, polys, order, spairs_processed, seconds, ring, dense, leads):
        self.polys = polys
        self.order = order
        self.spairs_processed = spairs_processed
        self.seconds = seconds
        self._ring = ring
        self._dense = dense
        self._leads = leads

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    @property
    def is_unit(self) -> bool:
        return self.polys == (Polynomial.one(),)

    def reduce(self, p: Polynomial) -> Polynomial:
        """The normal form of p: unique, and zero exactly on ideal members."""
        if not p:
            return p
        ring, dense, leads = self._ring, self._dense, self._leads
        if not p.variables() <= set(ring.pos):
            ring = _make_ring(set(ring.codes) | p.variables(), self.order)
            dense = [ring.densify(g) for g in self.polys]
            leads = [_K.lead_term(d, ring.kind, ring.split)[0] for d in dense]
        tail = _K.normal_form(
            ring.densify(p), dense, leads, [_ONE] * len(dense), ring.kind, ring.split
        )
        return ring.sparsify(tail)

    def contains(self, p: Polynomial) -> bool:
        return not self.reduce(p)

    def reduce_with_quotients(self, p: Polynomial):
        """Slow-path division tracking the cofactors: p = sum q_i g_i + r."""
        ring = self._ring
        if p and not p.variables() <= set(ring.pos):
            ring = _make_ring(set(ring.codes) | p.variables(), self.order)
        dense = [ring.densify(g) for g in self.polys]
        leads = [_K.lead_term(d, ring.kind, ring.split)[0] for d in dense]
        work = ring.densify(p)
        tail: dict = {}
        quotients: list[dict] = [dict() for _ in dense]
        while work:
            lm, lc = _K.lead_term(work, ring.kind, ring.split)
            for i, lead in enumerate(leads):
                q = _K.mono_div(lm, lead)
                if q is not None:
                    quotients[i] = _K.add_scaled(quotients[i], {q: lc}, _ONE)
                    work = _K.add_scaled(work, _K.term_mul(lc, q, dense[i]), Fraction(-1))
                    break
            else:
                tail[lm] = lc
                work = dict(work)
                del work[lm]
        return [ring.sparsify(q) for q in quotients], ring.sparsify(tail)


def dense_order_key(kind: int, split: int):
    """Key function on dense exponent tuples that sorts exactly as
    _K.mono_cmp(a, b, kind, split): a ranks above b iff key(a) > key(b)."""
    if kind == _K.LEX:
        return _lex_key
    if kind == _K.GREVLEX:
        return _grevlex_key

    def block_key(a):
        return _grevlex_key(a[:split]) + _grevlex_key(a[split:])

    return block_key


def _lex_key(a):
    return a


def _grevlex_key(a):
    # higher degree first; on a tie the rightmost differing slot decides,
    # the smaller exponent ranking higher
    return (sum(a), tuple(map(neg, reversed(a))))


def buchberger(
    ideal: Ideal, order: MonomialOrder = GREVLEX_ORDER, budget: Budget | None = None
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under the given order.

    Normal selection strategy: pending pairs sit in a binary heap keyed on
    (lcm degree, order key of the lcm, i, j), so each pop takes the pair of
    smallest lcm degree, ties broken by the order on the lcm and then by pair
    index.  Buchberger's coprimality and chain criteria prune pairs; the
    chain criterion reads the pending (i, j) from a set.  The budget is
    checked after each pop; BudgetExhausted is raised when it runs out.
    """
    budget = budget or DEFAULT_BUDGET
    start = time.monotonic()
    ring = _make_ring(
        frozenset().union(*(g.variables() for g in ideal.generators))
        if ideal.generators
        else frozenset(),
        order,
    )
    kind, split = ring.kind, ring.split
    order_key = dense_order_key(kind, split)

    basis: list[dict] = []
    leads: list[tuple] = []
    spairs = 0

    def check_budget():
        elapsed = time.monotonic() - start
        if spairs > budget.max_spairs or elapsed > budget.max_seconds:
            raise BudgetExhausted("buchberger", spairs, elapsed)

    def normalize(h: dict) -> dict:
        lm, lc = _K.lead_term(h, kind, split)
        if lc != 1:
            h = {m: c / lc for m, c in h.items()}
        return h

    lcs = []
    queue: list[tuple] = []  # heap of (lcm degree, order key of the lcm, i, j)
    pending: set[tuple[int, int]] = set()

    def add_poly(h: dict):
        h = normalize(h)
        lm, _ = _K.lead_term(h, kind, split)
        j = len(basis)
        for i in range(j):
            lcm = _K.mono_lcm(leads[i], lm)
            heappush(queue, (sum(lcm), order_key(lcm), i, j))
            pending.add((i, j))
        basis.append(h)
        leads.append(lm)
        lcs.append(_ONE)

    for g in ideal.generators:
        h = _K.normal_form(ring.densify(g), basis, leads, lcs, kind, split)
        if h:
            add_poly(h)

    while queue:
        _, _, i, j = heappop(queue)
        pending.remove((i, j))
        spairs += 1
        check_budget()

        lcm = _K.mono_lcm(leads[i], leads[j])
        # coprime leads: the S-polynomial reduces to zero
        if lcm == _K.mono_mul(leads[i], leads[j]):
            continue
        # chain criterion: a third divisor whose pairs are both settled
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _K.mono_div(lcm, leads[k]) is not None:
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue

        qi = _K.mono_div(lcm, leads[i])
        qj = _K.mono_div(lcm, leads[j])
        s = _K.add_scaled(
            _K.term_mul(_ONE, qi, basis[i]),
            _K.term_mul(_ONE, qj, basis[j]),
            Fraction(-1),
        )
        h = _K.normal_form(s, basis, leads, lcs, kind, split)
        if h:
            add_poly(h)

    # minimalize: drop elements whose lead another lead divides
    ordered = sorted(range(len(basis)), key=lambda k: order_key(leads[k]))
    kept: list[int] = []
    for k in ordered:
        if not any(_K.mono_div(leads[k], leads[t]) is not None for t in kept):
            kept.append(k)
    # interreduce tails
    final: list[dict] = [basis[k] for k in kept]
    final_leads = [leads[k] for k in kept]
    for idx in range(len(final)):
        others = final[:idx] + final[idx + 1 :]
        other_leads = final_leads[:idx] + final_leads[idx + 1 :]
        final[idx] = normalize(
            _K.normal_form(final[idx], others, other_leads, [_ONE] * len(others), kind, split)
        )
        final_leads[idx] = _K.lead_term(final[idx], kind, split)[0]

    by_lead = sorted(
        range(len(final)), key=lambda k: order_key(final_leads[k]), reverse=True
    )
    final = [final[k] for k in by_lead]
    final_leads = [final_leads[k] for k in by_lead]
    polys = tuple(ring.sparsify(d) for d in final)
    return GroebnerBasis(
        polys,
        order,
        spairs,
        time.monotonic() - start,
        ring,
        final,
        final_leads,
    )


# ---------------------------------------------------------------------------
# coordinate presolve


def _drop_variable(p: Polynomial, code: int) -> Polynomial:
    return Polynomial(
        {mono: c for mono, c in p.items() if all(v != code for v, _ in mono)}
    )


def linear_presolve(ideal: Ideal):
    """Split off generators that are single variables.

    Returns (residual ideal, eliminated variable codes).  Setting the
    eliminated coordinates to zero identifies membership and radical queries
    over the original ideal with queries over the residual one.
    """
    gens = list(ideal.generators)
    eliminated: list[int] = []
    while True:
        code = None
        for g in gens:
            if g.is_variable():
                ((mono, _),) = g.items()
                code = mono[0][0]
                break
        if code is None:
            break
        eliminated.append(code)
        gens = [h for g in gens if (h := _drop_variable(g, code))]
    label = f"{ideal.label}/presolved" if ideal.label else None
    residual = Ideal(
        gens, variables=ideal.variables - set(eliminated), label=label
    )
    return residual, tuple(eliminated)


def restrict_to_residual(p: Polynomial, eliminated) -> Polynomial:
    """Image of p after setting the eliminated coordinates to zero."""
    for code in eliminated:
        p = _drop_variable(p, code)
    return p


# ---------------------------------------------------------------------------
# membership


def _certificate_for_member(gb: GroebnerBasis, p: Polynomial) -> dict:
    cert: dict = {"kind": "normal-form", "remainder": "0", "basis_size": len(gb)}
    if len(gb) <= 12 and len(p) <= 40:
        quotients, tail = gb.reduce_with_quotients(p)
        if not tail and sum(len(q) for q in quotients) <= 80:
            cert["cofactors"] = {
                str(gb.polys[i]): str(q) for i, q in enumerate(quotients) if q
            }
    return cert


def member(
    p: Polynomial,
    ideal: Ideal,
    budget: Budget | None = None,
    *,
    claim: str | None = None,
    presolve: bool = True,
) -> VerificationReport:
    """Is p in the ideal?  Verified/refuted by normal form against a reduced
    basis; a refutation's witness is the nonzero remainder."""
    claim = claim or f"member: {p} in {ideal.describe()}"
    start = time.monotonic()
    try:
        if presolve:
            residual, eliminated = ideal.presolved()
            p0 = restrict_to_residual(p, eliminated)
        else:
            residual, p0 = ideal, p
        if not p0:
            return VerificationReport(
                claim,
                VERIFIED,
                {"kind": "normal-form", "remainder": "0", "basis_size": 0},
                0,
                time.monotonic() - start,
            )
        gb = residual.groebner(GREVLEX_ORDER, budget)
        remainder = gb.reduce(p0)
        if not remainder:
            cert = _certificate_for_member(gb, p0)
            return VerificationReport(
                claim, VERIFIED, cert, gb.spairs_processed, time.monotonic() - start
            )
        return VerificationReport(
            claim,
            REFUTED,
            {"kind": "normal-form", "remainder": str(remainder), "basis_size": len(gb)},
            gb.spairs_processed,
            time.monotonic() - start,
        )
    except BudgetExhausted as exc:
        return VerificationReport(
            claim, BUDGET_EXHAUSTED, {"kind": "budget", "context": exc.context},
            exc.spairs, time.monotonic() - start,
        )


def _fresh_aux(*var_sets) -> int:
    top = -1
    for vs in var_sets:
        for code in vs:
            if var_family(code) == AUX:
                top = max(top, var_index(code))
    return var_code(AUX, top + 1)


def radical_member(
    p: Polynomial,
    ideal: Ideal,
    budget: Budget | None = None,
    *,
    claim: str | None = None,
    presolve: bool = True,
) -> VerificationReport:
    """Is p in the radical?  Decided by adjoining 1 - w*p for a fresh
    auxiliary variable and testing whether the ideal becomes the unit ideal."""
    claim = claim or f"radical-member: {p} in sqrt {ideal.describe()}"
    start = time.monotonic()
    try:
        if presolve:
            residual, eliminated = ideal.presolved()
            p0 = restrict_to_residual(p, eliminated)
        else:
            residual, p0 = ideal, p
        if not p0:
            return VerificationReport(
                claim, VERIFIED, {"kind": "radical-trick", "trivial": True},
                0, time.monotonic() - start,
            )
        w = _fresh_aux(ideal.variables, p.variables())
        trick = Polynomial.one() - Polynomial.variable(w) * p0
        extended = Ideal(
            residual.generators + (trick,),
            variables=residual.variables | p0.variables() | {w},
        )
        gb = buchberger(extended, GREVLEX_ORDER, budget)
        if gb.is_unit:
            return VerificationReport(
                claim,
                VERIFIED,
                {"kind": "radical-trick", "aux": var_name(w)},
                gb.spairs_processed,
                time.monotonic() - start,
            )
        return VerificationReport(
            claim,
            REFUTED,
            {
                "kind": "radical-trick",
                "aux": var_name(w),
                "witness": "normal form of 1 is 1",
                "basis_size": len(gb),
            },
            gb.spairs_processed,
            time.monotonic() - start,
        )
    except BudgetExhausted as exc:
        return VerificationReport(
            claim, BUDGET_EXHAUSTED, {"kind": "budget", "context": exc.context},
            exc.spairs, time.monotonic() - start,
        )


# ---------------------------------------------------------------------------
# intersections and saturation


def monomial_ideal_intersect(ideals) -> Ideal:
    """Intersection of monomial ideals via pairwise lcms, minimalized.  The
    generators come out in descending grevlex order."""
    ideals = list(ideals)
    if not ideals:
        raise ValueError("need at least one ideal")
    variables = frozenset().union(*(i.variables for i in ideals))
    ring = _make_ring(variables, GREVLEX_ORDER)
    order_key = dense_order_key(ring.kind, ring.split)

    def exponents(ideal: Ideal) -> list[tuple]:
        out = []
        for g in ideal.generators:
            if len(g) != 1:
                raise ValueError(f"non-monomial generator: {g}")
            (vec,) = ring.densify(g)
            out.append(vec)
        return out

    def minimalize(monos) -> list[tuple]:
        kept: list[tuple] = []
        for m in sorted(set(monos), key=order_key):  # divisors come first
            if all(_K.mono_div(m, k) is None for k in kept):
                kept.append(m)
        return kept

    current = minimalize(exponents(ideals[0]))
    for nxt in ideals[1:]:
        gens = minimalize(exponents(nxt))
        current = minimalize([_K.mono_lcm(a, b) for a in current for b in gens])
    labels = [i.label or "?" for i in ideals]
    return Ideal(
        [ring.sparsify({m: _ONE}) for m in reversed(current)],
        variables=variables,
        label="(" + " ^ ".join(labels) + ")",
    )


def _eliminate_aux(gens, w: int, variables, budget, label) -> Ideal:
    helper = Ideal(gens, variables=variables | {w})
    gb = buchberger(helper, block_order([w]), budget)
    retained = tuple(g for g in gb.polys if w not in g.variables())
    return Ideal(retained, variables=variables, label=label)


def ideal_intersect_elim(a: Ideal, b: Ideal, budget: Budget | None = None) -> Ideal:
    """a ^ b computed from <w*a, (1-w)*b> by eliminating the fresh slot w."""
    w = _fresh_aux(a.variables, b.variables)
    wp = Polynomial.variable(w)
    one_minus = Polynomial.one() - wp
    gens = [wp * g for g in a.generators] + [one_minus * g for g in b.generators]
    label = None
    if a.label and b.label:
        label = f"({a.label} ^ {b.label})"
    return _eliminate_aux(gens, w, a.variables | b.variables, budget, label)


def saturate(ideal: Ideal, p: Polynomial, budget: Budget | None = None) -> Ideal:
    """ideal : p^infinity, the contraction of the localization at p.

    Runs after the coordinate presolve; the split-off variables are put back
    into the result unchanged.
    """
    residual, eliminated = ideal.presolved()
    p0 = restrict_to_residual(p, eliminated)
    label = f"({ideal.label} : {p}^inf)" if ideal.label else None
    if not p0:
        return Ideal([Polynomial.one()], variables=ideal.variables, label=label)
    w = _fresh_aux(ideal.variables, p.variables())
    trick = Polynomial.one() - Polynomial.variable(w) * p0
    sat = _eliminate_aux(
        residual.generators + (trick,),
        w,
        residual.variables | p0.variables(),
        budget,
        None,
    )
    coordinate_gens = tuple(Polynomial.variable(c) for c in sorted(eliminated, reverse=True))
    return Ideal(
        coordinate_gens + sat.generators, variables=ideal.variables, label=label
    )


# ---------------------------------------------------------------------------
# dimension


def _min_hitting(supports: tuple[frozenset, ...], memo: dict) -> int:
    if not supports:
        return 0
    got = memo.get(supports)
    if got is not None:
        return got
    pivot = min(supports, key=lambda s: (len(s), sorted(s)))
    best = None
    for v in sorted(pivot):
        rest = tuple(s for s in supports if v not in s)
        cand = 1 + _min_hitting(rest, memo)
        if best is None or cand < best:
            best = cand
    memo[supports] = best
    return best


def krull_dim(ideal: Ideal, budget: Budget | None = None) -> int:
    """Dimension of the vanishing locus inside the ambient affine space of
    ideal.variables; -1 for the empty locus.  Uses the lead-term ideal of a
    reduced basis plus a maximum-independent-set search."""
    residual, eliminated = ideal.presolved()
    gb = residual.groebner(GREVLEX_ORDER, budget)
    if gb.is_unit:
        return -1
    ambient = sorted(ideal.variables - set(eliminated))
    codes = gb._ring.codes
    supports = [
        frozenset(code for code, e in zip(codes, lead) if e) for lead in gb._leads
    ]
    supports = tuple(
        sorted(set(supports), key=lambda s: (len(s), sorted(s)))
    )
    covered = _min_hitting(supports, {})
    return len(ambient) - covered

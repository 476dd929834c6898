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

An Ideal is its generators plus the label its caller names it by: sums,
the presolve, saturation and both intersections return unlabelled ideals,
and a caller that prints a name sets it.  No ideal carries an ambient ring;
krull_dim, the one answer that depends on one, takes the ambient variable
codes as an argument.

Monomial orders live in one place, the kernel.  _make_ring encodes a
MonomialOrder over a variable set as dense exponent tuples plus a kernel
order (kind, split), and the kernel's dense_order_key turns that into a key
function that sorts exactly as its mono_cmp does.  The pair heap, the final
sorting of a basis and the monomial-ideal intersection all compare monomials
through it; the kernel's normal_form pops terms off a heap on the matching
descending key.  Every basis element is monic before anything reduces
against it, as normal_form requires.  Division with cofactors, for the
membership certificates, is the same kernel call given quotient dicts.
Yes/no divisibility tests (the chain criterion, minimalizing leads and
monomial generators) are all(map(ge, a, b)) and build no quotient.

One command runs in one engine session (session()): a ContextVar scope that
holds the command's Budget and a memo of every reduced basis computed in it,
keyed on (generators, order).  Ideal.groebner is the one path to a basis: it
serves a repeated input from the memo and computes a missing one with
buchberger under the session budget.  buchberger is a pure computation and
the one place a budget is applied; exceeding it raises BudgetExhausted rather
than returning anything partial, and an exhausted run stores nothing.  Every
basis in the memo was computed under the session's one budget, so serving it
can never exceed that budget.  The basis depends on nothing but its key,
since the ring is built from the generators' variables; identical inputs
always produce identical bases and reports.  A session opened inside another
joins it, and the memo is dropped when the outermost one exits.  Outside a
session a basis is computed afresh under the default budget.

check is the one rule that turns a decided claim into an outcome: verified
when the check held, refuted when it failed, and never better than the
reports the claim stands on.  member and radical_member decide through one
query wrapper (_query) that owns the presolve, the trivial case, the timing
and the budget-exhausted report; exhausted builds that report.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from fractions import Fraction
from heapq import heappop, heappush
from operator import ge

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
    the kernel's dense_order_key turns that encoding into a sort key."""

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


# the open session: (budget, memo of (generators, order) -> GroebnerBasis); a
# context variable, so a thread never sees a session another thread opened
_session: ContextVar[tuple | None] = ContextVar("session", default=None)


@contextmanager
def session(budget: Budget | None = None):
    """One engine session: every basis computed inside the block runs under
    this budget (the default when None) and is served again from the
    session's memo.  A session opened inside another joins it and may not set
    a budget of its own; the memo is dropped when the outermost one exits.
    """
    if _session.get() is not None:
        if budget is not None:
            raise ValueError("a nested session cannot set its own budget")
        yield
        return
    token = _session.set((budget, {}))
    try:
        yield
    finally:
        _session.reset(token)


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


def _worst(outcomes) -> str:
    return max(outcomes, key=_OUTCOME_RANK.__getitem__, default=VERIFIED)


def check(
    claim: str,
    ok: bool,
    certificate=None,
    spairs_processed: int = 0,
    seconds: float = 0.0,
    premises=(),
) -> VerificationReport:
    """The report of a decided check: verified when ok, refuted otherwise.
    A claim that stands on premise reports takes the worst of its own
    outcome and theirs, so an undecided premise leaves it undecided."""
    outcome = _worst([VERIFIED if ok else REFUTED] + [r.outcome for r in premises])
    return VerificationReport(claim, outcome, certificate, spairs_processed, seconds)


def exhausted(claim: str, exc: BudgetExhausted, seconds: float) -> VerificationReport:
    """The report of a check whose computation ran out of budget."""
    return VerificationReport(
        claim, BUDGET_EXHAUSTED, {"kind": "budget", "context": exc.context},
        exc.spairs, seconds,
    )


def merge_reports(claim: str, reports) -> VerificationReport:
    """Fold sub-reports into one; the worst sub-outcome wins."""
    reports = list(reports)
    subchecks = [
        {"claim": r.claim, "outcome": r.outcome, "certificate": r.certificate}
        for r in reports
    ]
    return VerificationReport(
        claim,
        _worst(r.outcome for r in reports),
        {"subchecks": subchecks},
        sum(r.spairs_processed for r in reports),
        sum(r.seconds for r in reports),
    )


def expect_refuted(report: VerificationReport) -> VerificationReport:
    """Invert a membership report: non-membership is the claim here."""
    swapped = {VERIFIED: REFUTED, REFUTED: VERIFIED}.get(report.outcome, report.outcome)
    return replace(report, outcome=swapped)


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


def _codes(polys) -> set[int]:
    """Every variable code the polynomials use."""
    return set().union(*(p.variables() for p in polys))


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
    """A generator list, the label its caller names it by (None on what the
    engine returns), and a cache of its coordinate presolve.  It has no
    ambient ring: krull_dim takes one as an argument."""

    __slots__ = ("generators", "label", "_presolved")

    def __init__(self, generators, label: str | None = None):
        gens = []
        for g in generators:
            if isinstance(g, (int, Fraction)):
                g = Polynomial.constant(g)
            if not isinstance(g, Polynomial):
                raise TypeError("ideal generators must be polynomials")
            if g:
                gens.append(g)
        self.generators = tuple(gens)
        self.label = label
        self._presolved = None

    def __add__(self, other: "Ideal") -> "Ideal":
        return Ideal(self.generators + other.generators)

    def __repr__(self) -> str:
        tag = self.label or f"{len(self.generators)} generators"
        return f"Ideal({tag})"

    def describe(self) -> str:
        return self.label or "ideal"

    def groebner(self, order: MonomialOrder = GREVLEX_ORDER) -> GroebnerBasis:
        """The reduced basis under order: served from the open session's memo,
        or computed under the session budget and stored there."""
        open_session = _session.get()
        if open_session is None:
            return buchberger(self, order)
        budget, memo = open_session
        key = (self.generators, order)
        got = memo.get(key)
        if got is None:
            got = memo[key] = buchberger(self, order, budget)
        return got

    def presolved(self):
        if self._presolved is None:
            self._presolved = linear_presolve(self)
        return self._presolved


# ---------------------------------------------------------------------------
# Buchberger


class GroebnerBasis:
    """A reduced basis (monic, mutually reduced, sorted by descending lead)."""

    __slots__ = ("polys", "order", "spairs_processed", "_ring", "_dense", "_leads")

    def __init__(self, polys, order, spairs_processed, ring, dense, leads):
        self.polys = polys
        self.order = order
        self.spairs_processed = spairs_processed
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

    def _divisors(self, p: Polynomial):
        """(ring, dense basis, leads) to divide p by: the stored ones, or the
        basis re-encoded in a ring that also holds the variables of p."""
        ring = self._ring
        if p.variables() <= set(ring.pos):
            return ring, self._dense, self._leads
        ring = _make_ring(set(ring.codes) | p.variables(), self.order)
        dense = [ring.densify(g) for g in self.polys]
        return ring, dense, [_K.lead_term(d, ring.kind, ring.split)[0] for d in dense]

    def reduce(self, p: Polynomial, quotients: list | None = None) -> Polynomial:
        """The normal form of p: unique, and zero exactly on ideal members.

        quotients, when given, is an empty list that receives one cofactor
        q_i per element of self.polys, so that p = sum q_i g_i + the normal
        form; the division that finds the normal form also finds them."""
        ring, dense, leads = self._divisors(p)
        cofactors = None if quotients is None else [{} for _ in dense]
        tail = _K.normal_form(
            ring.densify(p), dense, leads, ring.kind, ring.split, cofactors
        )
        if cofactors is not None:
            quotients.extend(map(ring.sparsify, cofactors))
        return ring.sparsify(tail)


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
    Nothing is stored: Ideal.groebner memoizes within a session.
    """
    budget = budget or DEFAULT_BUDGET
    start = time.monotonic()
    ring = _make_ring(_codes(ideal.generators), order)
    kind, split = ring.kind, ring.split
    order_key = _K.dense_order_key(kind, split)

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

    for g in ideal.generators:
        h = _K.normal_form(ring.densify(g), basis, leads, kind, split)
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
            if all(map(ge, lcm, leads[k])):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue

        qi = _K.mono_div(lcm, leads[i])
        qj = _K.mono_div(lcm, leads[j])
        s = _K.s_polynomial(qi, basis[i], qj, basis[j])
        h = _K.normal_form(s, basis, leads, kind, split)
        if h:
            add_poly(h)

    # minimalize: drop elements whose lead another lead divides
    ordered = sorted(range(len(basis)), key=lambda k: order_key(leads[k]))
    kept: list[int] = []
    for k in ordered:
        if not any(all(map(ge, leads[k], leads[t])) for t in kept):
            kept.append(k)
    # interreduce tails
    final: list[dict] = [basis[k] for k in kept]
    final_leads = [leads[k] for k in kept]
    for idx in range(len(final)):
        others = final[:idx] + final[idx + 1 :]
        other_leads = final_leads[:idx] + final_leads[idx + 1 :]
        final[idx] = normalize(
            _K.normal_form(final[idx], others, other_leads, kind, split)
        )
        final_leads[idx] = _K.lead_term(final[idx], kind, split)[0]

    by_lead = sorted(
        range(len(final)), key=lambda k: order_key(final_leads[k]), reverse=True
    )
    final = [final[k] for k in by_lead]
    final_leads = [final_leads[k] for k in by_lead]
    polys = tuple(ring.sparsify(d) for d in final)
    return GroebnerBasis(polys, order, spairs, ring, final, final_leads)


# ---------------------------------------------------------------------------
# coordinate presolve


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
        gens = [h for g in gens if (h := restrict_to_residual(g, (code,)))]
    return Ideal(gens), tuple(eliminated)


def restrict_to_residual(p: Polynomial, eliminated) -> Polynomial:
    """Image of p after setting the eliminated coordinates to zero: the terms
    of p that contain none of them."""
    gone = set(eliminated)
    return Polynomial(
        {mono: c for mono, c in p.items() if not any(v in gone for v, _ in mono)}
    )


# ---------------------------------------------------------------------------
# membership


def _divide_for_member(gb: GroebnerBasis, p: Polynomial):
    """(remainder, certificate) from one division of p.  A small enough
    basis and p divide with quotients, which the certificate of a member
    lists as cofactors when there are few of them."""
    quotients = None if len(gb) > 12 or len(p) > 40 else []
    remainder = gb.reduce(p, quotients)
    cert: dict = {"kind": "normal-form", "remainder": str(remainder), "basis_size": len(gb)}
    if quotients and not remainder and sum(len(q) for q in quotients) <= 80:
        cert["cofactors"] = {
            str(gb.polys[i]): str(q) for i, q in enumerate(quotients) if q
        }
    return remainder, cert


def _query(claim, p, ideal, presolve, trivial, decide) -> VerificationReport:
    """Run one engine query on p and the ideal: restrict both to the
    coordinate presolve's residual (unless presolve is off), report a p that
    restricts to zero as verified with the trivial certificate, and
    otherwise report decide(residual, p0) -> (ok, certificate, S-pairs).
    Time runs from the call; running out of budget gives exhausted's
    report."""
    start = time.monotonic()
    try:
        if presolve:
            residual, eliminated = ideal.presolved()
            p0 = restrict_to_residual(p, eliminated)
        else:
            residual, p0 = ideal, p
        if not p0:
            return check(claim, True, trivial, 0, time.monotonic() - start)
        ok, cert, spairs = decide(residual, p0)
        return check(claim, ok, cert, spairs, time.monotonic() - start)
    except BudgetExhausted as exc:
        return exhausted(claim, exc, time.monotonic() - start)


def member(
    p: Polynomial,
    ideal: Ideal,
    *,
    claim: str | None = None,
    presolve: bool = True,
) -> VerificationReport:
    """Is p in the ideal?  Verified/refuted by normal form against a reduced
    basis; a refutation's witness is the nonzero remainder."""

    def decide(residual, p0):
        gb = residual.groebner(GREVLEX_ORDER)
        remainder, cert = _divide_for_member(gb, p0)
        return not remainder, cert, gb.spairs_processed

    return _query(
        claim or f"member: {p} in {ideal.describe()}", p, ideal, presolve,
        {"kind": "normal-form", "remainder": "0", "basis_size": 0}, decide,
    )


def _fresh_aux(*polys) -> int:
    """The first auxiliary slot above every one the polynomials use.  Only a
    monomial's first code is read: auxiliary codes rank above every jet
    variable and a monomial lists its codes in descending order."""
    top = -1
    for p in polys:
        for mono, _ in p.items():
            if mono and var_family(mono[0][0]) == AUX:
                top = max(top, var_index(mono[0][0]))
    return var_code(AUX, top + 1)


def radical_member(
    p: Polynomial,
    ideal: Ideal,
    *,
    claim: str | None = None,
    presolve: bool = True,
) -> VerificationReport:
    """Is p in the radical?  Decided by adjoining 1 - w*p for a fresh
    auxiliary variable and testing whether the ideal becomes the unit ideal."""

    def decide(residual, p0):
        w = _fresh_aux(p, *ideal.generators)
        trick = Polynomial.one() - Polynomial.variable(w) * p0
        gb = Ideal(residual.generators + (trick,)).groebner(GREVLEX_ORDER)
        cert = {"kind": "radical-trick", "aux": var_name(w)}
        if not gb.is_unit:
            cert.update(witness="normal form of 1 is 1", basis_size=len(gb))
        return gb.is_unit, cert, gb.spairs_processed

    return _query(
        claim or f"radical-member: {p} in sqrt {ideal.describe()}", p, ideal,
        presolve, {"kind": "radical-trick", "trivial": True}, decide,
    )


# ---------------------------------------------------------------------------
# intersections and saturation


def monomial_ideal_intersect(ideals) -> Ideal:
    """Intersection of monomial ideals via pairwise lcms, minimalized.  The
    generators come out in descending grevlex order."""
    ideals = list(ideals)
    if not ideals:
        raise ValueError("need at least one ideal")
    ring = _make_ring(_codes(g for i in ideals for g in i.generators), GREVLEX_ORDER)
    order_key = _K.dense_order_key(ring.kind, ring.split)

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
            if not any(all(map(ge, m, k)) for k in kept):
                kept.append(m)
        return kept

    current = minimalize(exponents(ideals[0]))
    for nxt in ideals[1:]:
        gens = minimalize(exponents(nxt))
        current = minimalize([_K.mono_lcm(a, b) for a in current for b in gens])
    return Ideal([ring.sparsify({m: _ONE}) for m in reversed(current)])


def _eliminate_aux(gens, w: int) -> Ideal:
    gb = Ideal(gens).groebner(block_order([w]))
    return Ideal(g for g in gb.polys if w not in g.variables())


def ideal_intersect_elim(a: Ideal, b: Ideal) -> Ideal:
    """a ^ b computed from <w*a, (1-w)*b> by eliminating the fresh slot w."""
    w = _fresh_aux(*a.generators, *b.generators)
    wp = Polynomial.variable(w)
    one_minus = Polynomial.one() - wp
    gens = [wp * g for g in a.generators] + [one_minus * g for g in b.generators]
    return _eliminate_aux(gens, w)


def saturate(ideal: Ideal, p: Polynomial) -> Ideal:
    """ideal : p^infinity, the contraction of the localization at p.

    Runs after the coordinate presolve; the split-off variables are put back
    into the result unchanged.
    """
    residual, eliminated = ideal.presolved()
    p0 = restrict_to_residual(p, eliminated)
    if not p0:
        return Ideal([Polynomial.one()])
    w = _fresh_aux(p, *ideal.generators)
    trick = Polynomial.one() - Polynomial.variable(w) * p0
    sat = _eliminate_aux(residual.generators + (trick,), w)
    coordinate_gens = tuple(Polynomial.variable(c) for c in sorted(eliminated, reverse=True))
    return Ideal(coordinate_gens + sat.generators)


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


def krull_dim(ideal: Ideal, ambient) -> int:
    """Dimension of the vanishing locus inside the affine space whose
    coordinates are the variable codes in ambient, which must hold every
    variable of the generators; -1 for the empty locus.  The dimension
    depends on the ambient ring as well as on the ideal, so the caller names
    it.  Uses the lead-term ideal of a reduced basis plus a
    maximum-independent-set search."""
    ambient = set(ambient)
    if not _codes(ideal.generators) <= ambient:
        raise ValueError("the ambient ring lacks a variable of the ideal")
    residual, eliminated = ideal.presolved()
    gb = residual.groebner(GREVLEX_ORDER)
    if gb.is_unit:
        return -1
    codes = gb._ring.codes
    supports = [
        frozenset(code for code, e in zip(codes, lead) if e) for lead in gb._leads
    ]
    supports = tuple(
        sorted(set(supports), key=lambda s: (len(s), sorted(s)))
    )
    covered = _min_hitting(supports, {})
    return len(ambient - set(eliminated)) - covered

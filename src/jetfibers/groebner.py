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

Monomial orders live in one place, the kernel, and there are two: grevlex
and grevlex after one fresh auxiliary variable w.  A _Ring packs monomials
into ints, one field per variable, and its kernel Packing gives the one
additive int key that the pair heap, normal_form, the sorting of a basis
and the monomial-ideal intersection all order by.  The field width comes
from the inputs' degrees; a computation that outgrows it runs again at
twice the width.  Every basis element is monic before anything reduces
against it, as normal_form requires.  Division with cofactors, for the
membership certificates, is the same kernel call given quotient dicts.
Divisibility tests are one subtraction and one AND and build no quotient.

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
from itertools import compress

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
    """grevlex, or with eliminate the elimination order of that auxiliary
    variable: more of it ranks higher, and grevlex on the other variables
    breaks ties.  The variable must rank above every other variable of the
    ring it is used in, as a fresh auxiliary slot does."""

    eliminate: int | None = None

    def __post_init__(self):
        if self.eliminate is not None and var_family(self.eliminate) != AUX:
            raise ValueError("only an auxiliary variable can be eliminated")


GREVLEX_ORDER = MonomialOrder()


def elimination_order(w: int) -> MonomialOrder:
    return MonomialOrder(w)


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
# packed ring plumbing


class _Ring:
    """The variables of a computation by descending code, slot 0 first, and
    the kernel Packing of their monomials under order at a field width of
    bits.  An eliminated variable in the ring must be its highest-ranked
    one, so that it sits in slot 0."""

    __slots__ = ("codes", "order", "bits", "shift", "packing", "read")

    def __init__(self, codes, order: MonomialOrder, bits: int):
        self.codes = tuple(sorted(codes, reverse=True))
        eliminate = order.eliminate in self.codes
        if eliminate and self.codes[0] != order.eliminate:
            raise ValueError("the eliminated variable must rank above every other")
        self.order = order
        self.bits = bits
        self.shift = {c: i * bits for i, c in enumerate(self.codes)}
        self.packing = _K.Packing(bits, len(self.codes), eliminate)
        self.read = _K.exponent_reader(bits, len(self.codes))

    def wider(self) -> "_Ring":
        if self.bits == 64:
            raise OverflowError("exponents outgrow a 64-bit field")
        return _Ring(self.codes, self.order, 2 * self.bits)

    def pack(self, p: Polynomial) -> dict:
        """p on packed monomials; HeadroomExceeded when a term's degree does
        not fit half a field."""
        if p.total_degree() >> (self.bits - 1):
            raise _K.HeadroomExceeded
        shift = self.shift
        return {sum(e << shift[c] for c, e in mono): coeff for mono, coeff in p.items()}

    def unpack(self, terms: dict) -> Polynomial:
        codes, read = self.codes, self.read
        out = {}
        for mono, coeff in terms.items():
            exps = read(mono)
            out[tuple(zip(compress(codes, exps), compress(exps, exps)))] = coeff
        return Polynomial(out)


def _codes(polys) -> set[int]:
    """Every variable code the polynomials use."""
    return set().union(*(p.variables() for p in polys))


def _make_ring(polys, order: MonomialOrder) -> _Ring:
    """The ring of the polynomials' variables, with fields that hold twice
    their largest degree."""
    degree = max((p.total_degree() for p in polys), default=0)
    return _Ring(_codes(polys), order, _K.field_bits(2 * degree))


def _widening(ring: _Ring, run):
    """run(ring), run again at twice the field width whenever a monomial
    outgrows the headroom: no answer depends on the width."""
    while True:
        try:
            return run(ring)
        except _K.HeadroomExceeded:
            ring = ring.wider()


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
    """A reduced basis (monic, mutually reduced, sorted by descending lead).
    It keeps one copy, packed in the ring it was computed in, and builds
    the sparse polys the first time they are read."""

    __slots__ = ("spairs_processed", "_ring", "_basis", "_leads", "_polys")

    def __init__(self, spairs_processed, ring, basis, leads):
        self.spairs_processed = spairs_processed
        self._ring = ring
        self._basis = basis
        self._leads = leads
        self._polys = None

    @property
    def polys(self) -> tuple[Polynomial, ...]:
        if self._polys is None:
            self._polys = tuple(map(self._ring.unpack, self._basis))
        return self._polys

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self._basis)

    @property
    def is_unit(self) -> bool:
        return self._leads == [0]  # the basis (1), whose lead is the monomial 1

    def lead_supports(self) -> list[frozenset]:
        """The variable codes of each lead monomial, in basis order."""
        codes, read = self._ring.codes, self._ring.read
        return [frozenset(compress(codes, read(lead))) for lead in self._leads]

    def reduce(self, p: Polynomial, quotients: list | None = None) -> Polynomial:
        """The normal form of p: unique, and zero exactly on ideal members.

        quotients, when given, is an empty list that receives one cofactor
        q_i per element of self.polys, so that p = sum q_i g_i + the normal
        form; the division that finds the normal form also finds them.  The
        basis is re-packed when p has a variable it lacks or a degree its
        fields cannot hold."""
        home = self._ring
        extra = p.variables() - home.shift.keys()
        ring = _Ring(home.codes + tuple(extra), home.order, home.bits) if extra else home

        def divide(ring: _Ring) -> Polynomial:
            basis, leads = self._basis, self._leads
            if ring is not home:
                basis = [ring.pack(g) for g in self.polys]
                leads = [_K.lead_term(g, ring.packing)[0] for g in basis]
            cofactors = None if quotients is None else [{} for _ in basis]
            tail = _K.normal_form(ring.pack(p), basis, leads, ring.packing, cofactors)
            if cofactors is not None:
                quotients.extend(map(ring.unpack, cofactors))
            return ring.unpack(tail)

        return _widening(ring, divide)


def buchberger(
    ideal: Ideal, order: MonomialOrder = GREVLEX_ORDER, budget: Budget | None = None
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under the given order.

    Normal selection strategy: pending pairs sit in a binary heap keyed on
    (lcm degree, order key of the lcm, i, j), so each pop takes the pair of
    smallest lcm degree, ties broken by the order on the lcm and then by pair
    index.  Buchberger's coprimality and chain criteria prune pairs; the
    chain criterion reads the pending (i, j) from a set.  The budget is
    checked after each pop; BudgetExhausted is raised when it runs out.  A
    run whose monomials outgrow the field width starts again at twice the
    width: its time counts against the budget, its S-pairs do not.
    Nothing is stored: Ideal.groebner memoizes within a session.
    """
    budget = budget or DEFAULT_BUDGET
    start = time.monotonic()
    gens = ideal.generators

    def run(ring: _Ring) -> GroebnerBasis:
        packing = ring.packing
        key, guards, low = packing.key, packing.guards, packing.low

        basis: list[dict] = []
        leads: list[int] = []
        spairs = 0

        def check_budget():
            elapsed = time.monotonic() - start
            if spairs > budget.max_spairs or elapsed > budget.max_seconds:
                raise BudgetExhausted("buchberger", spairs, elapsed)

        def monic(h: dict) -> tuple[dict, int]:
            """h divided by its lead coefficient, and its lead monomial."""
            lm, lc = _K.lead_term(h, packing)
            return (h if lc == 1 else {m: c / lc for m, c in h.items()}), lm

        queue: list[tuple] = []  # heap of (lcm degree, order key of the lcm, i, j)
        pending: set[tuple[int, int]] = set()

        def add_poly(h: dict):
            h, lm = monic(h)
            j = len(basis)
            for i in range(j):
                lcm = _K.mono_lcm(leads[i], lm, packing)
                heappush(queue, (_K.mono_deg(lcm, packing), key(lcm), i, j))
                pending.add((i, j))
            basis.append(h)
            leads.append(lm)

        for g in gens:
            h = _K.normal_form(ring.pack(g), basis, leads, packing)
            if h:
                add_poly(h)

        while queue:
            _, lcm_key, i, j = heappop(queue)
            pending.remove((i, j))
            spairs += 1
            check_budget()

            lcm = lcm_key & low
            # coprime leads: the S-polynomial reduces to zero
            if lcm == leads[i] + leads[j]:
                continue
            # chain criterion: a third divisor whose pairs are both settled
            skip = False
            for k in range(len(basis)):
                if k in (i, j):
                    continue
                if not (lcm - leads[k]) & guards:
                    a = (min(i, k), max(i, k))
                    b = (min(j, k), max(j, k))
                    if a not in pending and b not in pending:
                        skip = True
                        break
            if skip:
                continue

            s = _K.s_polynomial(lcm - leads[i], basis[i], lcm - leads[j], basis[j])
            h = _K.normal_form(s, basis, leads, packing)
            if h:
                add_poly(h)

        # minimalize: drop elements whose lead another lead divides
        ordered = sorted(range(len(basis)), key=lambda k: key(leads[k]))
        kept: list[int] = []
        for k in ordered:
            if all((leads[k] - leads[t]) & guards for t in kept):
                kept.append(k)
        # interreduce tails
        final: list[dict] = [basis[k] for k in kept]
        final_leads = [leads[k] for k in kept]
        for idx in range(len(final)):
            others = final[:idx] + final[idx + 1 :]
            other_leads = final_leads[:idx] + final_leads[idx + 1 :]
            final[idx], final_leads[idx] = monic(
                _K.normal_form(final[idx], others, other_leads, packing)
            )

        by_lead = sorted(range(len(final)), key=lambda k: key(final_leads[k]), reverse=True)
        return GroebnerBasis(
            spairs, ring, [final[k] for k in by_lead], [final_leads[k] for k in by_lead]
        )

    return _widening(_make_ring(gens, order), run)


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
    gens = [g for i in ideals for g in i.generators]
    for g in gens:
        if len(g) != 1:
            raise ValueError(f"non-monomial generator: {g}")

    def meet(ring: _Ring) -> Ideal:
        packing = ring.packing

        def minimalize(monos) -> list[int]:
            kept: list[int] = []
            for m in sorted(set(monos), key=packing.key):  # divisors come first
                if all((m - k) & packing.guards for k in kept):
                    kept.append(m)
            return kept

        def monomials(ideal: Ideal) -> list[int]:
            return minimalize(m for g in ideal.generators for m in ring.pack(g))

        current = monomials(ideals[0])
        for nxt in ideals[1:]:
            gens = monomials(nxt)
            current = minimalize([_K.mono_lcm(a, b, packing) for a in current for b in gens])
        return Ideal([ring.unpack({m: _ONE}) for m in reversed(current)])

    return _widening(_make_ring(gens, GREVLEX_ORDER), meet)


def _eliminate_aux(gens, w: int) -> Ideal:
    gb = Ideal(gens).groebner(elimination_order(w))
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
    supports = tuple(sorted(set(gb.lead_supports()), key=lambda s: (len(s), sorted(s))))
    covered = _min_hitting(supports, {})
    return len(ambient - set(eliminated)) - covered

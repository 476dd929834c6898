"""Budgeted exact ideal computations.

A small, deterministic Groebner engine over the rationals: reduced bases by
Buchberger's algorithm with the normal selection strategy and both classical
pair criteria, normal forms, (radical) membership, an elimination-based
intersection, saturation, and a linear presolve that collapses the very
sparse ideals showing up in jet-space computations down to a handful of
effective variables.

The linear presolve (linear_presolve) eliminates every degree-one generator
by exact Gaussian elimination.  A generator that is a single variable sets
that coordinate to zero, in one pass over a term index that drops each term
once, in the order a rescan would take them; any other is solved for its
highest variable code, and that pivot's image is substituted into the other
generators and back-substituted into the earlier images.  A query restricts
its polynomial to the residual ideal by one zero-restriction and one linear
substitution (Presolve.restrict); saturate puts the linear generators
pivot - image back, and krull_dim counts each pivot as one dimension fewer.

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
additive int key that the pair heap, normal_form and the sorting of a
basis all order by.  The field width comes from the inputs' degrees; a
computation that outgrows it runs again at twice the width.  Divisibility
tests are one subtraction and one AND and build no quotient.

Buchberger's pair loop is fraction-free: each input is cleared of
denominators once, on entry, and every basis element is a primitive int
polynomial with a positive lead coefficient, which normal_form reduces
against by scaling its remainder instead of dividing (Becker & Weispfenning,
"Groebner Bases", 1993).  Each remainder is a nonzero multiple of the one
over Q, so the leads, the pair sequence and the basis are the same.  Only
the final reduced basis becomes monic with Fraction coefficients, and every
GroebnerBasis is that monic basis, which reduce divides by.  Division with
cofactors, for the membership certificates, is the same kernel call given
quotient dicts, and the kernel takes it only against lead coefficients 1.

One command runs in one engine session (session()): a ContextVar scope
holding one session object, which keeps the command's Budget, the clock
reading taken when it opened, the S-pairs popped so far and one memo of
what depends only on a generator tuple: reduced bases, keyed on
(generators, order), linear presolves, keyed on (generators,
"presolve"), and the point decisions of witnesses.vanishes_at, keyed on
(generators, point).  Ideal.groebner and Ideal.presolved serve a repeated
tuple from it, whichever Ideal carries it, and a served basis costs nothing.
Nothing below session() takes a budget or keeps a clock: each pop in
buchberger counts against the session's S-pair bound, and the session's
clock is read on buchberger's first pop, before each S-polynomial is
reduced, before each branch of a radical split and, through
current_session(), before each A_n pair and each branch of its cover.
Exceeding either raises BudgetExhausted rather than returning anything
partial; an exhausted run stores nothing and is charged for its pairs.  A
session opened inside another joins it, and the memo is dropped when the
outermost one exits.  Outside a session each query and each direct
buchberger call runs in a throwaway session of the default budget, timed
from its own start.

Only this module builds a VerificationReport, by three rules, and
expect_refuted inverts one for a claim of non-membership.  check turns a
decided claim into an outcome: verified when the check held, refuted when
it failed, and never better than the reports the claim stands on.  fold
makes one report of a claim that stands on reports alone: the worst of
their outcomes, their S-pairs and seconds summed, under the caller's
certificate; merge_reports and generators_in fold their subreports, and
d4 and witnesses the facts a claim stands on.  exhausted builds the report
of a check that ran out of budget.  member and radical_member decide
through one query wrapper (_query) that owns the presolve, the
certificate-first rule, the timing and the budget-exhausted report.
The rule: a polynomial that restricts to zero is verified by the trivial
certificate, and otherwise one of the ideal's own generators by the
generator certificate, which names its index (a generator lies in the ideal
and so in its radical); both take 0 S-pairs and no basis.  Only the rest is
decided against a reduced basis.  A containment claim, each generator of
one ideal in another or in its radical, is one generators_in call and one
report: its certificate groups the generator indices by how each was
decided (restricted to zero, named as a generator, or decided with its own
certificate), and keeps each generator that is not verified, with its
outcome and witness, under "failed".

A radical query first splits the residual on its monomial generators, the
monomial case of the factorizing Buchberger algorithm (Czapor, JSC 1989;
Graebe, AAECC 1995): sqrt(I + (c*x^e)) = sqrt(I + (x)), and
sqrt(I + (c*x1^a1*...*xk^ak)) is the intersection of the sqrt(I + (x_i)).
So the first monomial generator branches the query into the ideals
I + (x_i), one per variable, and p must lie in the radical of each.  Each
branch is presolved again, which sets x_i to zero, and splits again; a
nonzero constant generator leaves no branch at all (the unit ideal).
Ideal.split builds the branches afresh; the memo serves their presolves
again to every query that walks them.  The certificate is that tree,
{"kind": "split", "branches": {x_i: certificate}}, with the trivial
certificate where p restricts to zero and a radical-trick certificate at a
leaf with no monomial generator left, the only place a basis is built.  A
failed branch refutes the query at once, and the session's time budget is
checked before each branch.

A non-membership is decided at a rational point first, with these queries
as the fallback (witnesses.avoids_at).
"""

from __future__ import annotations

import time
from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from heapq import heappop, heappush
from itertools import compress
from operator import itemgetter

from .kernel import impl as _K
from .poly import (
    AUX,
    Polynomial,
    linear_substitute,
    var_code,
    var_family,
    var_index,
    var_name,
)

_first = itemgetter(0)


# ---------------------------------------------------------------------------
# monomial orders


class MonomialOrder(namedtuple("MonomialOrder", "eliminate")):
    """grevlex, or with eliminate the elimination order of that auxiliary
    variable: more of it ranks higher, and grevlex on the other variables
    breaks ties.  The variable must rank above every other variable of the
    ring it is used in, as a fresh auxiliary slot does."""

    __slots__ = ()

    def __new__(cls, eliminate=None):
        if eliminate is not None and var_family(eliminate) != AUX:
            raise ValueError("only an auxiliary variable can be eliminated")
        return super().__new__(cls, eliminate)


GREVLEX_ORDER = MonomialOrder()


def elimination_order(w: int) -> MonomialOrder:
    return MonomialOrder(w)


# ---------------------------------------------------------------------------
# budgets and reports


class Budget(namedtuple("Budget", "max_spairs max_seconds", defaults=(100_000, 300.0))):
    """Work limits for a whole engine session: max_spairs bounds the S-pairs
    popped by every basis it builds together, and max_seconds the time since
    it opened.  An S-pair counts as processed when it is popped from the
    queue, whether or not a criterion discards it."""

    __slots__ = ()


class _Session:
    """The state of one engine session: its budget, the clock reading taken
    when it opened, the S-pairs its bases have popped so far and the memo."""

    __slots__ = ("budget", "start", "spairs", "memo")

    def __init__(self, budget: Budget | None = None):
        self.budget = budget or Budget()
        self.start = time.monotonic()
        self.spairs = 0
        self.memo = {}

    def served(self, key, compute):
        """compute(), served from the memo under key; a raise stores nothing."""
        got = self.memo.get(key)
        if got is None:
            got = self.memo[key] = compute()
        return got

    def check_clock(self, context: str, spairs: int):
        """Raise BudgetExhausted once the session has run past its time limit."""
        elapsed = time.monotonic() - self.start
        if elapsed > self.budget.max_seconds:
            raise BudgetExhausted(context, spairs, elapsed)


# the open session; a thread never sees a session another thread opened
_session: ContextVar[_Session | None] = ContextVar("session", default=None)


@contextmanager
def session(budget: Budget | None = None):
    """One engine session: every check inside the block runs under this
    budget (the default when None), counted and timed from here, and bases
    and presolves are served again from the session's memo.  A session
    opened inside another joins it and may not set a budget of its own; the
    memo is dropped when the outermost one exits."""
    if _session.get() is not None:
        if budget is not None:
            raise ValueError("a nested session cannot set its own budget")
        yield
        return
    token = _session.set(_Session(budget))
    try:
        yield
    finally:
        _session.reset(token)


def current_session() -> _Session:
    """The open session; outside one, a throwaway session whose clock starts now."""
    return _session.get() or _Session()


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


class VerificationReport:
    """Outcome of one checked claim.  A refutation always carries a concrete
    witness in the certificate; timings never affect the canonical JSON."""

    __slots__ = ("claim", "outcome", "certificate", "spairs_processed", "seconds")

    def __init__(self, claim, outcome, certificate=None, spairs_processed=0, seconds=0.0):
        self.claim = claim
        self.outcome = outcome
        self.certificate = certificate
        self.spairs_processed = spairs_processed
        self.seconds = seconds

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


def fold(claim: str, reports, certificate) -> VerificationReport:
    """The report of a claim that stands on reports alone, with the given
    certificate: the worst of their outcomes wins, and their S-pairs and
    seconds add up."""
    return VerificationReport(
        claim,
        _worst(r.outcome for r in reports),
        certificate,
        sum(r.spairs_processed for r in reports),
        sum(r.seconds for r in reports),
    )


def merge_reports(claim: str, reports) -> VerificationReport:
    """Fold sub-reports into one, each kept as a subcheck."""
    reports = list(reports)
    subchecks = [
        {"claim": r.claim, "outcome": r.outcome, "certificate": r.certificate}
        for r in reports
    ]
    return fold(claim, reports, {"subchecks": subchecks})


def expect_refuted(report: VerificationReport) -> VerificationReport:
    """Invert a membership report: non-membership is the claim here."""
    swapped = {VERIFIED: REFUTED, REFUTED: VERIFIED}.get(report.outcome, report.outcome)
    return VerificationReport(
        report.claim, swapped, report.certificate, report.spairs_processed, report.seconds
    )


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
    """A list of distinct generators, each kept at its first position, and
    the label its caller names it by (None on what the engine returns).  Its
    bases and presolve live in the session memo, and it has no ambient ring:
    krull_dim takes one as an argument."""

    __slots__ = ("generators", "label")

    def __init__(self, generators, label: str | None = None):
        gens = []
        for g in generators:
            if isinstance(g, (int, Fraction)):
                g = Polynomial.constant(g)
            if not isinstance(g, Polynomial):
                raise TypeError("ideal generators must be polynomials")
            if g:
                gens.append(g)
        self.generators = tuple(dict.fromkeys(gens))
        self.label = label

    def __add__(self, other: "Ideal") -> "Ideal":
        return Ideal(self.generators + other.generators)

    def __repr__(self) -> str:
        tag = self.label or f"{len(self.generators)} generators"
        return f"Ideal({tag})"

    def groebner(self, order: MonomialOrder = GREVLEX_ORDER) -> GroebnerBasis:
        """The reduced basis under order, served from the session memo."""
        return current_session().served((self.generators, order), lambda: buchberger(self, order))

    def presolved(self) -> Presolve:
        """The linear presolve, served from the session memo."""
        return current_session().served(
            (self.generators, "presolve"), lambda: linear_presolve(self)
        )

    def split(self) -> tuple[tuple[int, Ideal], ...] | None:
        """None when no generator is a monomial.  Otherwise, for the first
        one, c*x1^a1*...*xk^ak, the ideals self + (x_i), one per variable
        and keyed by its code, whose radicals meet in the radical of self;
        none at all for a nonzero constant, whose radical is the whole ring."""
        mono = next((g for g in self.generators if len(g) == 1), None)
        if mono is None:
            return None
        ((m, _),) = mono.items()
        return tuple(
            (code, Ideal(self.generators + (Polynomial.variable(code),)))
            for code, _ in m
        )


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
                leads = [next(iter(g)) for g in basis]  # each in descending order
            cofactors = None if quotients is None else [{} for _ in basis]
            tail = _K.normal_form(ring.pack(p), basis, leads, ring.packing, cofactors)
            if cofactors is not None:
                quotients.extend(map(ring.unpack, cofactors))
            return ring.unpack(tail)

        return _widening(ring, divide)


def buchberger(ideal: Ideal, order: MonomialOrder = GREVLEX_ORDER) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under the given order.

    Normal selection strategy: pending pairs sit in a binary heap keyed on
    (lcm degree, order key of the lcm, i, j), so each pop takes the pair of
    smallest lcm degree, ties broken by the order on the lcm and then by pair
    index.  Buchberger's coprimality and chain criteria prune pairs; the
    chain criterion reads the pending (i, j) from a set.  Each pop counts
    against the session's S-pair bound, the session's clock is read after
    the first pop and before each S-polynomial is reduced (a pruned pair
    costs microseconds), and BudgetExhausted is raised when either runs out;
    a finished or exhausted run is charged for its pairs, and one whose
    monomials outgrow the field width starts again at twice the width,
    charged for its time only.  Nothing is stored: Ideal.groebner memoizes.

    The loop runs on ints: each generator is made primitive on entry, each
    basis element is a primitive int polynomial stored with its lead
    monomial and its positive lead coefficient, the S-polynomial of a and b
    is lc(b)/d*x^qa*a - lc(a)/d*x^qb*b for d = gcd(lc(a), lc(b)), and each
    nonzero normal form is divided by its content.  The reduced basis is
    then made monic, c -> Fraction(c, lc).
    """
    sess = current_session()
    charged, limit = sess.spairs, sess.budget.max_spairs  # the count before this basis
    gens = ideal.generators

    def run(ring: _Ring) -> GroebnerBasis:
        packing = ring.packing
        key, guards, low = packing.key, packing.guards, packing.low

        basis = []  # primitive int polynomials
        leads = []  # their packed lead monomials
        lcs = []  # their lead coefficients, all positive
        sess.spairs = charged  # a run begun again wider is not charged twice

        queue = []  # heap of (lcm degree, order key of the lcm, i, j)
        pending = set()  # the (i, j) still in the queue

        def add_poly(h):
            """Add a nonzero normal form, made primitive."""
            h = _K.primitive(h)
            lm, lc = next(iter(h.items()))  # a normal form comes lead first
            j = len(basis)
            for i in range(j):
                lcm = _K.mono_lcm(leads[i], lm, packing)
                heappush(queue, (_K.mono_deg(lcm, packing), key(lcm), i, j))
                pending.add((i, j))
            basis.append(h)
            leads.append(lm)
            lcs.append(lc)

        for g in gens:
            h = _K.normal_form(_K.primitive(ring.pack(g)), basis, leads, packing)
            if h:
                add_poly(h)

        while queue:
            _, lcm_key, i, j = heappop(queue)
            pending.remove((i, j))
            sess.spairs += 1
            if sess.spairs > limit:
                elapsed = time.monotonic() - sess.start
                raise BudgetExhausted("buchberger", sess.spairs - charged, elapsed)
            if sess.spairs == charged + 1:
                sess.check_clock("buchberger", 1)

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

            sess.check_clock("buchberger", sess.spairs - charged)
            s = _K.s_polynomial(
                lcm - leads[i], basis[i], lcs[i], lcm - leads[j], basis[j], lcs[j]
            )
            h = _K.normal_form(s, basis, leads, packing)
            if h:
                add_poly(h)

        # minimalize: drop elements whose lead another lead divides
        ordered = sorted(range(len(basis)), key=lambda k: key(leads[k]))
        kept = []
        for k in ordered:
            if all((leads[k] - leads[t]) & guards for t in kept):
                kept.append(k)
        # interreduce tails; no lead divides another, so each lead stays
        final = [basis[k] for k in kept]
        final_leads = [leads[k] for k in kept]
        for idx in range(len(final)):
            others = final[:idx] + final[idx + 1 :]
            other_leads = final_leads[:idx] + final_leads[idx + 1 :]
            final[idx] = _K.primitive(_K.normal_form(final[idx], others, other_leads, packing))

        by_lead = sorted(range(len(final)), key=lambda k: key(final_leads[k]), reverse=True)
        monic = []
        for k in by_lead:
            lc = final[k][final_leads[k]]
            monic.append({m: Fraction(c, lc) for m, c in final[k].items()})
        return GroebnerBasis(sess.spairs - charged, ring, monic, [final_leads[k] for k in by_lead])

    return _widening(_make_ring(gens, order), run)


# ---------------------------------------------------------------------------
# linear presolve


class Presolve:
    """An ideal split by its linear presolve: the residual ideal, and the
    image of each pivot variable, zero for a coordinate set to zero, in the
    order the pivots were taken.  No image mentions a pivot, and the ideal
    is the residual plus the linear generators pivot - image.  The set
    zeros and the linear map that restrict applies are built once, here."""

    __slots__ = ("residual", "eliminated", "zeros", "_linear")

    def __init__(self, residual: Ideal, eliminated: dict[int, Polynomial]):
        self.residual = residual
        self.eliminated = eliminated
        self.zeros = frozenset(c for c, image in eliminated.items() if not image)
        self._linear = {c: image for c, image in eliminated.items() if image}

    def restrict(self, p: Polynomial) -> Polynomial:
        """The image of p in the residual ring: one zero-restriction for the
        coordinates, then one linear substitution for the other pivots."""
        if self.zeros:
            p = restrict_to_residual(p, self.zeros)
        return linear_substitute(p, self._linear) if self._linear else p


def _solve_linear(g: Polynomial):
    """(pivot, image) for a generator of degree one: its highest variable
    code, and the solution of g = 0 for that variable.  None otherwise."""
    pivot = None
    for mono, _ in g.items():
        if len(mono) > 1 or (mono and mono[0][1] > 1):
            return None
        if mono and (pivot is None or mono[0][0] > pivot):
            pivot = mono[0][0]
    if pivot is None:
        return None
    return pivot, Polynomial.variable(pivot) - g / g.coefficient(((pivot, 1),))


def linear_presolve(ideal: Ideal) -> Presolve:
    """Eliminate every degree-one generator by exact Gaussian elimination.

    A generator that is a single variable sets that coordinate to zero: the
    fast path, and the only one an A_n ideal takes.  Each coordinate comes
    from the first generator that is then a single variable.  One pass finds
    them all: each term is indexed under its variable codes, a min-heap
    holds the positions of the generators that are or become one term, and
    zeroing a coordinate drops each term that holds it, once.  When none is
    left, the first other degree-one generator is solved for its highest
    variable code, the pivot.  Each pivot's image is substituted into the
    generators and back-substituted into the earlier images, so no image
    mentions a pivot.  Membership and radical queries over the ideal are
    then the same queries over the residual ideal on Presolve.restrict'ed
    polynomials.
    """
    gens = list(ideal.generators)
    eliminated: dict[int, Polynomial] = {}
    while True:
        zeros, gens = _zero_variables(gens)
        if zeros:
            for c in [c for c, earlier in eliminated.items() if earlier]:
                eliminated[c] = restrict_to_residual(eliminated[c], zeros)
            eliminated.update(dict.fromkeys(zeros, Polynomial.zero()))
        solved = next(filter(None, map(_solve_linear, gens)), None)
        if solved is None:
            break
        code, image = solved
        gens = [h for g in gens if (h := linear_substitute(g, {code: image}))]
        for c in [c for c, earlier in eliminated.items() if earlier]:
            eliminated[c] = linear_substitute(eliminated[c], {code: image})
        eliminated[code] = image
    return Presolve(Ideal(gens), eliminated)


def _zero_variables(gens) -> tuple[list[int], list[Polynomial]]:
    """The zero pivots in the order linear_presolve takes them, and the
    nonzero generators left after them, in their order."""
    heap = [i for i, g in enumerate(gens) if g.is_variable()]
    if not heap:
        return [], gens
    live = [dict(g.items()) for g in gens]
    index: dict[int, list] = {}
    for i, terms in enumerate(live):
        for mono in terms:
            for v, _ in mono:
                index.setdefault(v, []).append((i, mono))
    zeros = []
    while heap:
        last = next(iter(live[heappop(heap)]), ())
        if len(last) != 1 or last[0][1] != 1:
            continue  # dropped, or a single term of another shape
        zeros.append(last[0][0])
        for i, mono in index.pop(last[0][0]):
            terms = live[i]
            if terms.pop(mono, None) is not None and len(terms) == 1:
                heappush(heap, i)
    return zeros, [g if len(g) == len(t) else Polynomial(t) for g, t in zip(gens, live) if t]


def restrict_to_residual(p: Polynomial, eliminated) -> Polynomial:
    """Image of p after setting the eliminated coordinates to zero: the terms
    of p that contain none of them.  A frozenset of codes is used as given."""
    gone = frozenset(eliminated)
    return Polynomial({mono: c for mono, c in p.items() if gone.isdisjoint(map(_first, mono))})


# ---------------------------------------------------------------------------
# membership


# The certificates of a polynomial that restricts to zero on the residual:
# _query returns these very objects, so generators_in tells them by identity.
_TRIVIAL_MEMBER = {"kind": "normal-form", "remainder": "0", "basis_size": 0}
_TRIVIAL_RADICAL = {"kind": "radical-trick", "trivial": True}


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


def _query(claim, p, ideal, trivial, decide) -> VerificationReport:
    """Run one engine query on p and the ideal, certificate first: restrict
    both to the linear presolve's residual, report a p that restricts to
    zero as verified with the trivial certificate, a p that is one of the
    ideal's generators as verified with the generator certificate, and
    otherwise report decide(sess, residual, p0) -> (ok, certificate,
    S-pairs) for the session sess (outside one, a throwaway timed from the
    call); running out of budget gives exhausted's report."""
    start = time.monotonic()
    sess = current_session()
    try:
        presolved = ideal.presolved()
        p0 = presolved.restrict(p)
        ok, cert, spairs = True, trivial, 0
        if p0 and p in ideal.generators:
            cert = {"kind": "generator", "index": ideal.generators.index(p)}
        elif p0:
            ok, cert, spairs = decide(sess, presolved.residual, p0)
        return check(claim, ok, cert, spairs, time.monotonic() - start)
    except BudgetExhausted as exc:
        return exhausted(claim, exc, time.monotonic() - start)


def member(p: Polynomial, ideal: Ideal, *, claim: str | None = None) -> VerificationReport:
    """Is p in the ideal?  After _query's certificate-first rule, verified or
    refuted by normal form against a reduced basis; a refutation's witness
    is the nonzero remainder."""

    def decide(_sess, residual, p0):
        gb = residual.groebner(GREVLEX_ORDER)
        remainder, cert = _divide_for_member(gb, p0)
        return not remainder, cert, gb.spairs_processed

    return _query(
        claim or f"member: {p} in {ideal.label or 'ideal'}", p, ideal, _TRIVIAL_MEMBER, decide
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
    p: Polynomial, ideal: Ideal, *, claim: str | None = None
) -> VerificationReport:
    """Is p in the radical?  After _query's certificate-first rule, decided
    on the split of the residual (see the module docstring): p must lie in
    the radical of every branch, and a failed branch refutes the query at
    once.  A leaf with no monomial generator left takes the radical trick:
    adjoin 1 - w*p for a fresh auxiliary variable w and test whether the
    ideal becomes the unit ideal.  The session's clock is checked before
    each branch, and each basis is counted in the session's S-pairs."""

    def decide(sess, residual, p0):
        spairs = 0
        aux = None  # the fresh slot w, found at the first radical-trick leaf

        def walk(node: Ideal, q: Polynomial) -> tuple[bool, dict]:
            """Is q in the radical of node?"""
            nonlocal spairs, aux
            branches = node.split()
            if branches is None:
                if aux is None:
                    aux = _fresh_aux(p, *ideal.generators)
                w = Polynomial.variable(aux)
                gb = Ideal(node.generators + (Polynomial.one() - w * q,)).groebner()
                spairs += gb.spairs_processed
                cert = {"kind": "radical-trick", "aux": var_name(aux)}
                if not gb.is_unit:
                    cert.update(witness="normal form of 1 is 1", basis_size=len(gb))
                return gb.is_unit, cert
            ok, certs = True, {}
            for code, branch in branches:
                sess.check_clock("radical split", spairs)
                presolved = branch.presolved()
                q_branch = presolved.restrict(q)
                ok, certs[var_name(code)] = (
                    walk(presolved.residual, q_branch) if q_branch else (True, _TRIVIAL_RADICAL)
                )
                if not ok:
                    break
            return ok, {"kind": "split", "branches": certs}

        ok, cert = walk(residual, p0)
        return ok, cert, spairs

    return _query(
        claim or f"radical-member: {p} in sqrt {ideal.label or 'ideal'}", p, ideal,
        _TRIVIAL_RADICAL, decide,
    )


def generators_in(claim: str, gens, ideal: Ideal, *, radical=False) -> VerificationReport:
    """The one report of the claim that every generator in gens lies in the
    ideal, or in its radical when radical is set: member or radical_member
    decides each generator in order, the outcome is the worst of theirs and
    the S-pairs and seconds are their sums.  The certificate groups the
    indices k into gens by how each was verified: "restricts_to_zero" (the
    query's trivial certificate), "generator" ([k, index] when gens[k] is
    the ideal's generator #index) and "decided" ([k, certificate] for the
    rest); a generator that is not verified is listed under "failed" as
    [k, outcome, certificate], so a refutation names k and keeps its
    witness."""
    query, trivial = (radical_member, _TRIVIAL_RADICAL) if radical else (member, _TRIVIAL_MEMBER)
    reports = [query(g, ideal, claim=claim) for g in gens]
    cert: dict = {"kind": "generators", "restricts_to_zero": [], "generator": [], "decided": []}
    failed = []
    for k, r in enumerate(reports):
        if not r.verified:
            failed.append([k, r.outcome, r.certificate])
        elif r.certificate is trivial:
            cert["restricts_to_zero"].append(k)
        elif r.certificate["kind"] == "generator":
            cert["generator"].append([k, r.certificate["index"]])
        else:
            cert["decided"].append([k, r.certificate])
    if failed:
        cert["failed"] = failed
    return fold(claim, reports, cert)


# ---------------------------------------------------------------------------
# intersections and saturation


def _eliminate_aux(gens, w: int) -> Ideal:
    gb = Ideal(gens).groebner(elimination_order(w))
    return Ideal(g for g in gb.polys if w not in g.variables())


def ideal_intersect_elim(a: Ideal, b: Ideal) -> Ideal:
    """a ^ b computed from <w*a, (1-w)*b> by eliminating the fresh slot w.
    No package code calls it; the tests keep it as the exact reference."""
    w = _fresh_aux(*a.generators, *b.generators)
    wp = Polynomial.variable(w)
    one_minus = Polynomial.one() - wp
    gens = [wp * g for g in a.generators] + [one_minus * g for g in b.generators]
    return _eliminate_aux(gens, w)


def saturate(ideal: Ideal, p: Polynomial) -> Ideal:
    """ideal : p^infinity, the contraction of the localization at p.

    Runs on the linear presolve's residual, saturated by the restricted p;
    the linear generators pivot - image, by descending pivot code, are put
    back in front of the result, so it is an ideal of the original ring.
    """
    presolved = ideal.presolved()
    p0 = presolved.restrict(p)
    if not p0:
        return Ideal([Polynomial.one()])
    w = _fresh_aux(p, *ideal.generators)
    trick = Polynomial.one() - Polynomial.variable(w) * p0
    sat = _eliminate_aux(presolved.residual.generators + (trick,), w)
    pivots = sorted(presolved.eliminated.items(), reverse=True)
    linear = tuple(Polynomial.variable(c) - image for c, image in pivots)
    return Ideal(linear + sat.generators)


# ---------------------------------------------------------------------------
# dimension


def _min_hitting(supports: tuple[frozenset, ...], memo: dict) -> int:
    if not supports:
        return 0
    got = memo.get(supports)
    if got is not None:
        return got
    pivot = min(supports, key=lambda s: (len(s), sorted(s)))
    best = memo[supports] = 1 + min(
        _min_hitting(tuple(s for s in supports if v not in s), memo) for v in sorted(pivot)
    )
    return best


def krull_dim(ideal: Ideal, ambient) -> int:
    """Dimension of the vanishing locus inside the affine space whose
    coordinates are the variable codes in ambient, which must hold every
    variable of the generators; -1 for the empty locus.  The dimension
    depends on the ambient ring as well as on the ideal, so the caller names
    it.  Uses the lead-term ideal of a reduced basis of the presolve's
    residual plus a maximum-independent-set search; each presolve pivot
    takes away one dimension."""
    ambient = set(ambient)
    if not _codes(ideal.generators) <= ambient:
        raise ValueError("the ambient ring lacks a variable of the ideal")
    presolved = ideal.presolved()
    gb = presolved.residual.groebner(GREVLEX_ORDER)
    if gb.is_unit:
        return -1
    supports = tuple(sorted(set(gb.lead_supports()), key=lambda s: (len(s), sorted(s))))
    covered = _min_hitting(supports, {})
    return len(ambient - set(presolved.eliminated)) - covered

"""Point witnesses: claims about an ideal decided by evaluation at a
rational point, with an engine query as the fallback.

A non-membership is decided at a rational point first (avoids_at): when
every generator of I vanishes there and p does not, p lies outside sqrt(I)
and so outside I.  The certificate is the point and p's value there, found
by evaluation with no basis.  A point that fails, off V(I) or on a zero of
p, says nothing about the claim; the engine query then decides it alone.
"""

from __future__ import annotations

from . import groebner as gb
from .poly import Polynomial, evaluate, var_name


def vanishes_at(claim: str, ideal: gb.Ideal, values: dict) -> gb.VerificationReport:
    """Does every generator of the ideal vanish at the point?  The point is
    variable code -> rational, absent codes zero.  A refutation lists the
    generators that do not vanish."""
    bad = [str(g) for g in ideal.generators if evaluate(g, values)]
    return gb.check(
        claim,
        not bad,
        {"nonvanishing": bad} if bad else {"generators": len(ideal.generators)},
    )


def avoids_at(
    p: Polynomial,
    ideal: gb.Ideal,
    values: dict,
    *,
    claim: str,
    witness: dict | None = None,
    radical: bool = True,
) -> gb.VerificationReport:
    """Is p outside the radical of the ideal (outside the ideal itself when
    radical is off)?  Decided first at the point: when every generator
    vanishes there and p does not, p is not in sqrt(I), which holds I, and
    the claim is verified with the certificate witness (by default the
    point's nonzero coordinates by name) plus p's value, in 0 S-pairs and
    with no basis.  Otherwise the point says nothing about the claim, and
    the engine query, radical_member or member, decides it alone: its report
    is inverted by expect_refuted and its certificate is kept under
    "engine", next to the failed point check under "point check"."""
    on = vanishes_at(claim, ideal, values)
    value = evaluate(p, values)
    if witness is None:
        witness = {"point": {var_name(c): str(v) for c, v in values.items() if v}}
    cert = {**witness, "value": str(value)}
    if on.verified and value:
        return gb.check(claim, True, cert)
    query = gb.radical_member if radical else gb.member
    engine = gb.expect_refuted(query(p, ideal, claim=claim))
    failed = {**cert, **on.certificate}
    return gb.VerificationReport(
        engine.claim,
        engine.outcome,
        {"point check": failed, "engine": engine.certificate},
        engine.spairs_processed,
        engine.seconds,
    )

"""Jet-equation generators.

The m-jet space of a hypersurface f = 0 is cut out by the coefficients
f^(0)..f^(m) of the expansion of f at a generic truncated power series.
This module produces those coefficients for the two surfaces under study,
each given by its equation (xy - z^(n+1) and x^2 - y^2*z + z^3), and their
shifted variants, where each coordinate series starts at a prescribed
t-power.  The shifted coefficients are also the jet equations left after
splitting off a ladder of coordinate hyperplanes: the A-series tail regime
reads them so.  One cached entry, ``jet_coeffs(f, m, shifts)``, serves the
plain and the shifted coefficients alike.

Every coefficient is written down by the multinomial theorem, with no
series product: each term of f^(j) is one choice of a weighted composition
per variable family, times its multinomials.  One descent,
``_compositions``, lists those compositions by weight, each with its
factors as monomial pairs, its printed text and its multinomial, and each
weight's list comes in display order (ascending pairs, the order of a
family's block in ``poly._display_place``).  Two readers share it:
``expand_ambient`` builds the coefficient polynomials from the pairs, and
``expand_text``, the ``expand`` command's path, writes each coefficient's
text from the texts, placing every term by its pairs, with no Polynomial
and no per-term factor sort in between.  Because the z compositions come
presorted, each coefficient's rows arrive in sorted runs, and its one sort
merges them.  The paper's closed formula for the shifted coefficients,
with its index sets, and the shift lemma's reindexed coefficients live
with the tests (``tests/references.py``), which hold ``jet_coeffs`` to
both.
``poly.substitute_series``, the general series substitution, stays
bound here as well because the benchmark harness's self-test looks the
name up on this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, lru_cache

from .poly import (  # noqa: F401  (substitute_series: see the docstring)
    Polynomial,
    _check_ambient,
    _join_terms,
    evaluate,
    var_code,
    var_name,
    substitute_series,
    X,
    Y,
    Z,
)

# ---------------------------------------------------------------------------
# surfaces

_X0, _Y0, _Z0 = (Polynomial.variable(var_code(family, 0)) for family in (X, Y, Z))


@cache
def an_surface(n: int) -> Polynomial:
    """The A-series surface equation x0*y0 - z0^(n+1), one object per n, so
    that jet_coeffs finds its entries by identity."""
    if n < 1:
        raise ValueError("A-series surfaces need n >= 1")
    return _X0 * _Y0 - _Z0 ** (n + 1)


@cache
def d4_surface() -> Polynomial:
    """The D4 surface equation x0^2 - y0^2*z0 + z0^3, one object per process."""
    return _X0**2 - _Y0**2 * _Z0 + _Z0**3


# ---------------------------------------------------------------------------
# expansions


def expand_ambient(f: Polynomial, m: int, shifts: tuple[int, int, int] = (0, 0, 0)):
    """Coefficient polynomials of f at the generic jet whose x/y/z series
    start at the given t-powers.  The workhorse behind everything below.

    By the multinomial theorem, a term c*x0^a*y0^b*z0^d of f contributes to
    f^(j) one term per choice of a weighted composition of a over the x
    indices >= p, of b over the y indices >= q and of d over the z indices
    >= r whose weights sum to j: c times the three multinomials times the
    chosen variables.  The family degrees (a, b, d) determine the term of f
    a monomial comes from, so every term is formed exactly once and each
    coefficient is filled by plain assignment.
    """
    terms = _term_buckets(f, m, shifts)
    coefficients: list[dict] = [{} for _ in range(m + 1)]
    for c, *buckets in terms:
        num, den = c.numerator, c.denominator
        made: dict = {}  # numerator -> its Fraction, built once per term of f
        xs, ys, zs = (
            [(w, pairs, mult) for w, bucket in enumerate(b) for pairs, _, mult in bucket]
            for b in buckets
        )
        # x codes rank above y codes above z codes, so the concatenated
        # factors are in descending code order
        for wx, px, mx in xs:
            for wy, py, my in ys:
                if wx + wy > m:
                    break
                pxy = px + py
                nxy = num * mx * my
                for wz, pz, mz in zs:
                    j = wx + wy + wz
                    if j > m:
                        break
                    n = nxy * mz
                    value = made.get(n)
                    if value is None:
                        value = made[n] = Fraction(n, den)
                    coefficients[j][pxy + pz] = value
    return [Polynomial(terms) for terms in coefficients]


def expand_text(f: Polynomial, m: int) -> list[str]:
    """format_polynomial of each coefficient of expand_ambient(f, m), byte
    for byte, with no Polynomial built: a term of f^(j) is written
    magnitude*x*y*z from its compositions' texts and placed by its row's
    first three fields (z pairs, y pairs, x pairs), the first three blocks
    of its display place (poly._display_place), whose w and t blocks are
    empty; they stand in the row itself, not in a tuple of their own, which
    saves a tuple per term.  Each coefficient's rows are sorted and joined
    before the next coefficient's are built.

    For each x and y composition the rows of one z bucket follow in that
    bucket's order, which _compositions makes ascending, so the rows come
    as sorted runs, one per (x, y) choice; the sort stays as the guarantee
    of the order, and on presorted runs Timsort only merges them."""
    terms = _term_buckets(f, m, (0, 0, 0))
    out = []
    for j in range(m + 1):
        rows = []
        for c, bx, by, bz in terms:
            num, den = c.numerator, c.denominator
            prefixes = {}  # numerator -> its _magnitude
            for wx in range(j + 1):
                for px, tx, mx in bx[wx]:
                    for wy in range(j - wx + 1):
                        zs = bz[j - wx - wy]
                        for py, ty, my in by[wy]:
                            txy = tx + ty
                            nxy = num * mx * my
                            for pz, tz, mz in zs:
                                n = nxy * mz
                                prefix = prefixes.get(n)
                                if prefix is None:
                                    prefix = prefixes[n] = _magnitude(n, den)
                                # texts start with "*"; a lone constant 1 has none
                                text = txy + tz
                                rows.append(
                                    (pz, py, px, n < 0, prefix + text if prefix else text[1:] or "1")
                                )
        # the pairs differ between monomials, so the sort never compares past them
        rows.sort()
        out.append(_join_terms(rows))
    return out


def _magnitude(n: int, den: int) -> str:
    """The magnitude of n/den in lowest terms as printed ("3", "1/2"), or ""
    when it is 1."""
    g = math.gcd(n, den)
    n, den = abs(n) // g, den // g
    if den != 1:
        return f"{n}/{den}"
    return "" if n == 1 else str(n)


def _term_buckets(f: Polynomial, m: int, shifts: tuple[int, int, int]) -> list:
    """Each term of f as [coefficient, x buckets, y buckets, z buckets]: per
    family, the _compositions of the term's degree in it over the indices
    from the family's shift, listed once per (family, degree)."""
    if m < 0:
        raise ValueError("series order must be nonnegative")
    if min(shifts) < 0:
        raise ValueError("shifts must be nonnegative")
    _check_ambient(f)
    listed: dict = {}
    terms = []
    for mono, c in f.items():
        exps = dict(mono)
        row = [c]
        for family, start in zip((X, Y, Z), shifts, strict=True):
            offset = var_code(family, 0)
            degree = exps.get(offset, 0)
            buckets = listed.get((family, degree))
            if buckets is None:
                buckets = listed[family, degree] = _compositions(start, degree, m, offset)
            row.append(buckets)
        terms.append(row)
    return terms


@lru_cache(maxsize=None)
def jet_coeffs(
    f: Polynomial, m: int, shifts: tuple[int, int, int] = (0, 0, 0)
) -> tuple[Polynomial, ...]:
    """(f^(0), ..., f^(m)) for the surface equation f, at the jet whose x, y
    and z series start at the t-powers shifts = (p, q, r)."""
    if m < 0:
        raise ValueError("jet order must be nonnegative")
    if max(shifts) > m:
        raise ValueError(f"shift exceeds jet order {m}")
    return tuple(expand_ambient(f, m, shifts))


def t_order(f: Polynomial, point: dict, m: int) -> int | None:
    """The t-adic order of f along the jet point (jet-variable code ->
    value): the first j at which f^(j) of expand_ambient(f, m) is nonzero
    at the point, or None when f^(0..m) all vanish there, which with
    truncated data says only "at least m+1"."""
    for j, c in enumerate(expand_ambient(f, m)):
        if evaluate(c, point):
            return j
    return None


def _compositions(start: int, degree: int, m: int, offset: int = 0) -> list[list]:
    """Weighted compositions of degree, bucketed by weight up to m.

    buckets[w] lists, for each choice of indices start <= i_1 < ... < i_l
    with positive parts d_k summing to degree and weight sum(i_k * d_k) = w,
    the record (pairs, text, multinomial): pairs is ((offset + i_l, d_l),
    ..., (offset + i_1, d_1)), highest index first as in a monomial; text is
    "*v_1^d_1*...*v_l^d_l", lowest index first as printed, each exponent
    written only above 1; the multinomial degree! / (d_1! ... d_l!) is
    carried down the recursion as a product of binomials.  Degree 0 has the
    one empty composition, of weight 0.

    Each bucket lists its records in ascending pairs, which is the order of
    a family's block in poly._display_place: _descend fixes the highest
    index first and takes every choice in ascending order, so the whole
    enumeration ascends in pairs and so does each bucket it fills.
    """
    if m < 0:
        raise ValueError("weight bound must be nonnegative")
    buckets: list[list] = [[] for _ in range(m + 1)]
    if degree == 0:
        buckets[0].append(((), "", 1))
    elif start * degree <= m:
        # pieces[i][d]: v_i^d as a one-pair tuple and as text, made once per
        # call so that the compositions share their pair tuples
        pieces = [
            [None] + [
                (((offset + i, d),), f"*{var_name(offset + i)}" + (f"^{d}" if d > 1 else ""))
                for d in range(1, degree + 1)
                if i * d <= m
            ]
            for i in range(m + 1)
        ]
        _descend(buckets, (), "", pieces, start, m, degree, m, 1)
    return buckets


def _descend(buckets, pairs, text, pieces, start, top, deg_left, weight_left, mult):
    """Extend the composition (pairs, text), whose indices all exceed top,
    by deg_left more parts on the indices start..top, in ascending pairs
    order: first every part on start, then each highest index i > start
    with each part d ascending, followed by the rest below i.  The rest
    needs weight start * rest at least, so spare = weight_left - start *
    deg_left bounds (i - start) * d.  A rest of 1 is one index k below i,
    listed here; a longer rest recurses with top i - 1.  A finished
    composition of weight w = m - left goes to buckets[w], that is
    buckets[-1 - left]."""
    spare = weight_left - start * deg_left
    factor, suffix = pieces[start][deg_left]
    buckets[-1 - spare].append((pairs + factor, suffix + text, mult))
    for i in range(start + 1, min(top, start + spare) + 1):
        at_i = pieces[i]
        for d in range(1, min(deg_left, spare // (i - start)) + 1):
            factor, suffix = at_i[d]
            rest = deg_left - d
            left = weight_left - i * d
            part = mult * math.comb(deg_left, d)
            if rest == 0:
                buckets[-1 - left].append((pairs + factor, suffix + text, part))
            elif rest == 1:
                head, tail = pairs + factor, suffix + text
                for k in range(start, min(i - 1, left) + 1):
                    last, first = pieces[k][1]
                    buckets[k - 1 - left].append((head + last, first + tail, part))
            else:
                _descend(
                    buckets, pairs + factor, suffix + text, pieces, start, i - 1, rest, left, part
                )

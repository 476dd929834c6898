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
per variable family, times its multinomials.  One enumerator lists those
compositions: the weight table, ``_WeightTable``, builds each exact weight
from the lists of lower degree, each composition with its monomial pairs,
its printed text and its multinomial, in ascending pairs (the order of a
family's block in ``poly._display_place``).  ``expand_ambient`` reads one
table per family, started at the family's shift, for the coefficient
polynomials, and through ``jet_coeffs`` so does every verify command.
``expand_text``, the ``expand`` command's path, writes each printed
coefficient from the texts, placing every term by its pairs, with no
Polynomial and no per-term factor sort in between.  It keeps for the whole
call only the lists that later coefficients read again: a term in one
variable family, such as z^(n+1), reads its top-degree list at one weight
only, so that list is built for its coefficient and dropped with it.
Because each list comes presorted, each coefficient's rows arrive in
sorted runs, and its one sort merges them.  The paper's closed formula
for the shifted coefficients, with its index sets, and the shift lemma's
reindexed coefficients live with the tests (``tests/references.py``),
which hold ``jet_coeffs`` to both.
``poly.substitute_series``, the general series substitution, stays
bound here as well because the benchmark harness's self-test looks the
name up on this module.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import cache, lru_cache
from itertools import islice

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

    The terms of f share one _WeightTable per family, started at its shift;
    the records' texts go unread.
    """
    if m < 0:
        raise ValueError("series order must be nonnegative")
    if min(shifts) < 0:
        raise ValueError("shifts must be nonnegative")
    _check_ambient(f)
    tables = [
        _WeightTable(start, var_code(family, 0))
        for family, start in zip((X, Y, Z), shifts, strict=True)
    ]
    coefficients: list[dict] = [{} for _ in range(m + 1)]
    for mono, c in f.items():
        exps = dict(mono)
        num, den = c.numerator, c.denominator
        made: dict = {}  # numerator -> its Fraction, built once per term of f
        xs, ys, zs = (
            [(w, p, mult) for w in range(m + 1) for p, _, mult in t.get(exps.get(t.offset, 0), w)]
            for t in tables
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
    for byte, with no Polynomial built, one coefficient at a time: a term of
    f^(j) is written magnitude*x*y*z from its compositions' texts, read from
    one _WeightTable per family, and placed by its row's first three fields
    (z pairs, y pairs, x pairs), the first three blocks of its display place
    (poly._display_place), whose w and t blocks are empty; they stand in the
    row itself, not in a tuple of their own, which saves a tuple per term.
    Each coefficient's rows are sorted and joined before the next
    coefficient's are built.

    A term of f in one variable family (a constant counts as one in z)
    reads that family's list at weight j only.  A term in several families
    reads, at every j, each family's lists at all weights up to j, so those
    lists are kept as columns indexed by weight.  The tables memoize the
    columns' lists and every degree below a family's top one, which
    building the top degree reads; the one list nothing reads again, the top
    degree of a family when only one-family terms take it, is built for its
    coefficient and never stored.

    Each list is ascending, so for one x and y composition the rows of a z
    list come in order, and the rows arrive as sorted runs, one per (x, y)
    choice; the sort stays as the guarantee of the order, and on presorted
    runs Timsort only merges them."""
    if m < 0:
        raise ValueError("series order must be nonnegative")
    _check_ambient(f)
    tables = [_WeightTable(0, var_code(family, 0)) for family in (X, Y, Z)]
    ones = []  # (c, family, degree) per one-family term
    several = []  # (c, its x, y and z columns) per several-family term
    columns: dict = {}  # (family, degree) -> its lists at weights 0, 1, ...
    for mono, c in f.items():
        exps = dict(mono)
        degrees = [exps.get(table.offset, 0) for table in tables]
        families = [k for k, d in enumerate(degrees) if d]
        if len(families) > 1:
            several.append((c, [columns.setdefault((k, d), []) for k, d in enumerate(degrees)]))
        else:
            k = families[0] if families else 2
            ones.append((c, k, degrees[k]))
    # building a family's list at one degree reads its lists at every degree
    # below, so only the top degree of a family, when no column reads it,
    # is read once: built for its coefficient and never stored
    top = [0, 0, 0]
    for k, d in [*columns, *((k, d) for _, k, d in ones)]:
        top[k] = max(top[k], d)
    singles = [
        (c, k, d, tables[k].build if d == top[k] and (k, d) not in columns else tables[k].get)
        for c, k, d in ones
    ]
    out = []
    for j in range(m + 1):
        for (k, d), column in columns.items():
            column.append(tables[k].get(d, j))
        rows = []
        for c, k, d, read in singles:
            num, den = c.numerator, c.denominator
            prefixes = {}  # numerator -> its _magnitude
            for pairs, text, mult in read(d, j):
                n = num * mult
                prefix = prefixes.get(n)
                if prefix is None:
                    prefix = prefixes[n] = _magnitude(n, den)
                # texts start with "*"; a lone constant 1 has none
                text = prefix + text if prefix else text[1:] or "1"
                if k == 2:
                    rows.append((pairs, (), (), n < 0, text))
                elif k == 1:
                    rows.append(((), pairs, (), n < 0, text))
                else:
                    rows.append(((), (), pairs, n < 0, text))
        for c, (bx, by, bz) in several:
            num, den = c.numerator, c.denominator
            prefixes = {}
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
                                text = txy + tz  # two families: never empty
                                rows.append(
                                    (pz, py, px, n < 0, prefix + text if prefix else text[1:])
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
    value): the first j at which f^(j) of jet_coeffs(f, m) is nonzero at
    the point, or None when f^(0..m) all vanish there, which with truncated
    data says only "at least m+1"."""
    for j, c in enumerate(jet_coeffs(f, m)):
        if evaluate(c, point):
            return j
    return None


class _WeightTable:
    """The weighted compositions of one variable family by exact weight.

    get(r, w) lists the compositions of r over the indices start <= i_1 <
    ... < i_l with positive parts d_k and weight sum(i_k * d_k) = w, as
    records (pairs, text, multinomial): pairs is ((offset + i_l, d_l), ...,
    (offset + i_1, d_1)), highest index first as in a monomial; text is
    "*v_1^d_1*...*v_l^d_l", lowest index first as printed, each exponent
    written only above 1; the multinomial is r! / (d_1! ... d_l!).  Each
    list is in ascending pairs, the order of a family's block in
    poly._display_place.  Degree 0 has the one empty composition, of
    weight 0.

    build(r, w) makes the list from lists of lower degree: first every part
    on start, when start * r = w; then for each highest index i, from the
    least that can reach w with r parts, and each part d ascending, the
    piece v_i^d put before the prefix of get(r - d, w - i*d) whose highest
    index is below i, with the multinomial times C(r, d).  Ascending lists
    make that prefix a bisection and keep the new list ascending.  get
    memoizes what build returns, for lists that are read again; a list read
    once is asked of build and never stored.
    """

    __slots__ = ("start", "offset", "lists", "pieces")

    def __init__(self, start: int, offset: int):
        self.start = start
        self.offset = offset
        self.lists: dict = {}
        self.pieces: dict = {}  # (i, d) -> v_i^d as a one-pair tuple and as text

    def get(self, r: int, w: int) -> list:
        found = self.lists.get((r, w))
        if found is None:
            found = self.lists[r, w] = self.build(r, w)
        return found

    def build(self, r: int, w: int) -> list:
        start = self.start
        spare = w - start * r
        if r == 0 or spare < 0:
            return [((), "", 1)] if r == w == 0 else []
        out = [self._piece(start, r) + (1,)] if spare == 0 else []
        for i in range(max(start + 1, -(-w // r)), start + spare + 1):
            # a record sorts below ((code of v_i,),) exactly when its
            # highest index is below i (the empty composition included)
            cut = (((self.offset + i,),),)
            for d in range(1, min(r, spare // (i - start)) + 1):
                rest = self.get(r - d, w - i * d)
                below = bisect_left(rest, cut)
                if below:
                    head, name = self._piece(i, d)
                    part = math.comb(r, d)
                    out += [
                        (head + pairs, text + name, mult * part)
                        for pairs, text, mult in islice(rest, below)
                    ]
        return out

    def _piece(self, i: int, d: int) -> tuple:
        piece = self.pieces.get((i, d))
        if piece is None:
            code = self.offset + i
            piece = self.pieces[i, d] = (
                ((code, d),),
                f"*{var_name(code)}" + (f"^{d}" if d > 1 else ""),
            )
        return piece

"""Jet-equation generators.

The m-jet space of a hypersurface f = 0 is cut out by the coefficients
f^(0)..f^(m) of the expansion of f at a generic truncated power series.
This module produces those coefficients for the two surfaces under study
(xy - z^(n+1) and x^2 - y^2*z + z^3), their shifted variants where each
coordinate series starts at a prescribed t-power, and the reindexed
polynomials that describe jet equations after splitting off a ladder of
coordinate hyperplanes.

Every coefficient is written down by the multinomial theorem, with no
series product: each term of f^(j) is one choice of a weighted composition
per variable family, times its multinomials.  ``_compositions`` lists those
compositions by weight, and ``expand_ambient`` reads it.  The paper's closed
formula for the shifted coefficients, with its index sets, lives with the
tests (``tests/references.py``), which hold ``jet_coeffs_shifted`` to it.
``poly.substitute_series``, the general series substitution, stays
bound here as well because the benchmark harness's self-test looks the
name up on this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .poly import (  # noqa: F401  (substitute_series: see the docstring)
    Polynomial,
    _check_ambient,
    var_code,
    var_family,
    var_index,
    substitute_series,
    X,
    Y,
    Z,
)

# ---------------------------------------------------------------------------
# surfaces


@dataclass(frozen=True)
class Surface:
    """Either the A-series surface xy - z^(n+1) or the D4 surface."""

    kind: str  # "An" | "D4"
    n: int | None = None

    def __post_init__(self):
        if self.kind == "An":
            if self.n is None or self.n < 1:
                raise ValueError("A-series surfaces need n >= 1")
        elif self.kind == "D4":
            if self.n is not None:
                raise ValueError("the D4 surface takes no parameter")
        else:
            raise ValueError(f"unknown surface kind {self.kind!r}")

    def ambient_polynomial(self) -> Polynomial:
        x0 = Polynomial.variable(var_code(X, 0))
        y0 = Polynomial.variable(var_code(Y, 0))
        z0 = Polynomial.variable(var_code(Z, 0))
        if self.kind == "An":
            return x0 * y0 - z0 ** (self.n + 1)
        return x0**2 - y0**2 * z0 + z0**3


def an_surface(n: int) -> Surface:
    return Surface("An", n)


def d4_surface() -> Surface:
    return Surface("D4")


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
    if m < 0:
        raise ValueError("series order must be nonnegative")
    _check_ambient(f)
    coefficients: list[dict] = [{} for _ in range(m + 1)]
    factors: dict = {}  # (family, degree) -> [(weight, pairs, multinomial)]

    def family_factors(family: str, start: int, degree: int) -> list:
        key = (family, degree)
        got = factors.get(key)
        if got is None:
            buckets = _compositions(max(start, 0), degree, m, var_code(family, 0))
            got = factors[key] = [
                (w, pairs, mult) for w, bucket in enumerate(buckets) for pairs, mult in bucket
            ]
        return got

    for mono, c in f.items():
        num, den = c.numerator, c.denominator
        made: dict = {}  # numerator -> its Fraction, built once per term of f
        exps = dict(mono)
        xs, ys, zs = (
            family_factors(family, start, exps.get(var_code(family, 0), 0))
            for family, start in zip((X, Y, Z), shifts, strict=True)
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


@lru_cache(maxsize=None)
def jet_coeffs(surface: Surface, m: int) -> tuple[Polynomial, ...]:
    """(f^(0), ..., f^(m)) for the surface equation."""
    if m < 0:
        raise ValueError("jet order must be nonnegative")
    return tuple(expand_ambient(surface.ambient_polynomial(), m))


@lru_cache(maxsize=None)
def jet_coeffs_shifted(
    surface: Surface, m: int, p: int, q: int, r: int
) -> tuple[Polynomial, ...]:
    """Coefficients of f at the jet with x starting at t^p, y at t^q, z at t^r."""
    if min(p, q, r) < 0:
        raise ValueError("shifts must be nonnegative")
    if max(p, q, r) > m:
        raise ValueError(f"shift exceeds jet order {m}")
    return tuple(expand_ambient(surface.ambient_polynomial(), m, (p, q, r)))


def _compositions(start: int, degree: int, m: int, offset: int = 0) -> list[list]:
    """Weighted compositions of degree, bucketed by weight up to m.

    buckets[w] lists, for each choice of indices start <= i_1 < ... < i_l
    with positive parts d_k summing to degree and weight sum(i_k * d_k) = w,
    the pair (((offset + i_l, d_l), ..., (offset + i_1, d_1)), multinomial),
    highest index first as in a monomial, with the multinomial
    degree! / (d_1! ... d_l!) carried down the recursion as a product of
    binomials.  Degree 0 has the one empty composition, of weight 0.
    """
    if m < 0:
        raise ValueError("weight bound must be nonnegative")
    buckets: list[list] = [[] for _ in range(m + 1)]
    if degree == 0:
        buckets[0].append(((), 1))
    else:
        _descend(buckets, [], offset, start, degree, m, 1)
    return buckets


def _descend(buckets, chosen, offset, i_min, deg_left, weight_left, mult):
    """Extend the composition in chosen by each index i >= i_min and part d
    that leave room for the rest: i * deg_left <= weight_left bounds i, and
    the deg_left - d parts still to come sit on indices above i, so
    (i + 1) * (deg_left - d) <= weight_left - i * d bounds d from below.
    A finished composition of weight w = m - weight_left goes to buckets[w],
    that is buckets[-1 - weight_left]."""
    for i in range(i_min, weight_left // deg_left + 1):
        chosen.append(None)
        for d in range(max(1, (i + 1) * deg_left - weight_left), deg_left + 1):
            chosen[-1] = (offset + i, d)
            left = weight_left - i * d
            part = mult * math.comb(deg_left, d)
            if d == deg_left:
                buckets[-1 - left].append((tuple(chosen[::-1]), part))
            else:
                _descend(buckets, chosen, offset, i + 1, deg_left - d, left, part)
        chosen.pop()


# ---------------------------------------------------------------------------
# reindexed coefficients


def g_shift(n: int, l: int, e: int, j: int) -> Polynomial:
    """f^(j) of the A-series surface with variables moved to x_(l+k),
    y_(e(n+1)-l+k), z_(e+k); the residual jet equation after splitting a
    coordinate ladder off the shifted equations."""
    hi = e * (n + 1)
    if not 0 <= l <= hi:
        raise ValueError(f"shift l={l} outside 0..{hi}")
    if j < 0:
        raise ValueError("coefficient index must be nonnegative")
    base = jet_coeffs(an_surface(n), j)[j]
    offsets = {X: l, Y: hi - l, Z: e}

    def remap(code: int) -> int:
        family = var_family(code)
        return var_code(family, var_index(code) + offsets[family])

    return base.reindex(remap)

"""Differential tests against sympy, an independent implementation.

On random small ideals and on the presolved jet ideals the verifiers
build, both must return the same reduced Groebner basis, element for
element, under grevlex; on random ideals with an auxiliary slot w and on
the elimination inputs of the D4 component ideals, under the elimination
order of w, which is sympy's product order (grevlex on w, then grevlex on
the rest).  On the A_2 and D_4 surfaces, and on a shifted D_4 chart, the jet
expansion must equal sympy's truncated power series product."""

import random
from fractions import Fraction

import pytest

from jetfibers import an, d4
from jetfibers.jets import an_surface, d4_surface, expand_ambient
from jetfibers import groebner as gb
from jetfibers.groebner import (
    GREVLEX_ORDER,
    Ideal,
    _fresh_aux,
    buchberger,
    elimination_order,
    restrict_to_residual,
)
from jetfibers.poly import AUX, X, Polynomial, var_code, var_family, var_name

sympy = pytest.importorskip("sympy")

# the engine ranks higher variable codes first; sympy ranks gens left to right
CODES = sorted((var_code(f, 0) for f in "xyz"), reverse=True)
W0 = var_code(AUX, 0)


def _random_poly(rng, codes=CODES) -> Polynomial:
    while True:
        terms = [
            (
                [(c, rng.randint(0, 2)) for c in codes],
                Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2)),
            )
            for _ in range(rng.randint(1, 3))
        ]
        p = Polynomial.from_terms(terms)
        if p:
            return p


def _to_sympy(p: Polynomial, codes):
    gens = [sympy.Symbol(var_name(c)) for c in codes]
    sym = dict(zip(codes, gens))
    expr = sympy.Integer(0)
    for mono, coeff in p.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for code, exp in mono:
            term *= sym[code] ** exp
        expr += term
    return sympy.Poly(expr, *gens, domain=sympy.QQ)


def _sympy_order(order):
    """sympy's name for the order: grevlex, or for the elimination order of
    w, the first gen, the product of grevlex on w and grevlex on the rest."""
    if order.eliminate is None:
        return "grevlex"
    from sympy.polys.orderings import ProductOrder, grevlex

    return ProductOrder((grevlex, lambda m: m[:1]), (grevlex, lambda m: m[1:]))


def _assert_matches_sympy(gens, order, codes):
    ours = [_to_sympy(g, codes) for g in buchberger(Ideal(gens), order).polys]
    theirs = sympy.groebner(
        [_to_sympy(g, codes).as_expr() for g in gens],
        *[sympy.Symbol(var_name(c)) for c in codes],
        order=_sympy_order(order),
        domain=sympy.QQ,
    )
    assert ours == list(theirs.polys), [str(g) for g in gens]


@pytest.mark.parametrize(
    "order, sympy_order",
    [(GREVLEX_ORDER, "grevlex"), (elimination_order(W0), "elimination")],
)
def test_buchberger_matches_sympy_groebner(order, sympy_order):
    rng = random.Random(8144)
    codes = CODES if order.eliminate is None else [order.eliminate] + CODES
    for _ in range(60):
        gens = [_random_poly(rng, codes) for _ in range(rng.randint(1, 3))]
        _assert_matches_sympy(gens, order, codes)


def test_elimination_inputs_of_d4_components_match_sympy(monkeypatch):
    # every input the engine eliminates w from while it builds the D4
    # component ideals at m=5 by saturation, and intersects them pairwise
    inputs = []
    eliminate = gb._eliminate_aux

    def recorded(gens, w):
        inputs.append((tuple(gens), w))
        return eliminate(gens, w)

    monkeypatch.setattr(gb, "_eliminate_aux", recorded)
    fam = d4.d4_ideals(5)
    components = [fam.component_ideal(i) for i in (1, 2, 3)]
    for a, b in zip(components, components[1:]):
        gb.ideal_intersect_elim(a, b)
    assert len(inputs) == 5
    for gens, w in inputs:
        codes = sorted(frozenset().union(*(g.variables() for g in gens)), reverse=True)
        assert codes[0] == w
        _assert_matches_sympy(gens, elimination_order(w), codes)


def _jet_ideals():
    """The presolved chart sums J_i+J_j of the D4 coordinate lemma, with the
    radical-trick ideal of its x2 query, and one presolved A_n pair ideal."""
    for m in (5, 6, 7):
        fam = d4.d4_ideals(m)
        for i, j in d4.CHART_PAIRS:
            pair = fam.j[i] + fam.j[j]
            residual, eliminated = pair.presolved()
            residual.label = f"J{i}+J{j}(m{m})/presolved"
            yield residual
            x2 = restrict_to_residual(Polynomial.variable(var_code(X, 2)), eliminated)
            w = _fresh_aux(x2, *pair.generators)
            yield Ideal(
                residual.generators + (Polynomial.one() - Polynomial.variable(w) * x2,),
                label=f"J{i}+J{j}(m{m})/presolved+(1-w*x2)",
            )
    residual, _ = an.pair_ideal(2, 5, 1, 2).presolved()
    residual.label = "J(n2,m5;1,2)/presolved"
    yield residual


@pytest.mark.parametrize("ideal", list(_jet_ideals()), ids=lambda i: i.label)
def test_presolved_jet_ideals_match_sympy_groebner(ideal):
    codes = sorted(frozenset().union(*(g.variables() for g in ideal.generators)), reverse=True)
    _assert_matches_sympy(ideal.generators, GREVLEX_ORDER, codes)


@pytest.mark.parametrize(
    "surface, shifts",
    [(an_surface(2), (0, 0, 0)), (d4_surface(), (0, 0, 0)), (d4_surface(), (2, 1, 2))],
    ids=["A2", "D4", "D4-chart-2,1,2"],
)
def test_expand_ambient_matches_sympy_truncated_series(surface, shifts):
    from sympy.polys.ring_series import rs_mul, rs_pow
    from sympy.polys.rings import ring

    m = 15
    names = ["t"] + [f"{fam}{i}" for fam in "xyz" for i in range(m + 1)]
    R, t, *jet = ring(names, sympy.QQ)
    gen = dict(zip(names[1:], jet))

    def to_ring(p: Polynomial):
        out = R.zero
        for mono, coeff in p.items():
            term = R(sympy.QQ(coeff.numerator, coeff.denominator))
            for code, exp in mono:
                term *= gen[var_name(code)] ** exp
            out += term
        return out

    # the generic jet: each series starts at its shift
    series = {
        fam: sum((gen[f"{fam}{i}"] * t**i for i in range(start, m + 1)), R.zero)
        for fam, start in zip("xyz", shifts)
    }
    f = surface.ambient_polynomial()
    theirs = R.zero
    for mono, coeff in f.items():
        term = R(sympy.QQ(coeff.numerator, coeff.denominator))
        for code, exp in mono:
            term = rs_mul(term, rs_pow(series[var_family(code)], exp, t, m + 1), t, m + 1)
        theirs += term

    coefficients = expand_ambient(f, m, shifts)
    assert len(coefficients) == m + 1
    assert sum((to_ring(c) * t**k for k, c in enumerate(coefficients)), R.zero) == theirs

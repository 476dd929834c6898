"""Differential test of the Groebner engine against sympy, an independent
implementation: on random small ideals both must return the same reduced
basis, element for element."""

import random
from fractions import Fraction

import pytest

from jetfibers.groebner import GREVLEX_ORDER, LEX_ORDER, Ideal, buchberger
from jetfibers.poly import Polynomial, var_code, var_name

sympy = pytest.importorskip("sympy")

# the engine ranks higher variable codes first; sympy ranks gens left to right
CODES = sorted((var_code(f, 0) for f in "xyz"), reverse=True)
GENS = [sympy.Symbol(var_name(c)) for c in CODES]


def _random_poly(rng) -> Polynomial:
    while True:
        terms = [
            (
                [(c, rng.randint(0, 2)) for c in CODES],
                Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2)),
            )
            for _ in range(rng.randint(1, 3))
        ]
        p = Polynomial.from_terms(terms)
        if p:
            return p


def _to_sympy(p: Polynomial):
    sym = dict(zip(CODES, GENS))
    expr = sympy.Integer(0)
    for mono, coeff in p.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for code, exp in mono:
            term *= sym[code] ** exp
        expr += term
    return sympy.Poly(expr, *GENS, domain=sympy.QQ)


@pytest.mark.parametrize(
    "order, sympy_order", [(GREVLEX_ORDER, "grevlex"), (LEX_ORDER, "lex")]
)
def test_buchberger_matches_sympy_groebner(order, sympy_order):
    rng = random.Random(8144)
    for _ in range(60):
        gens = [_random_poly(rng) for _ in range(rng.randint(1, 3))]
        ours = [_to_sympy(g) for g in buchberger(Ideal(gens), order).polys]
        theirs = sympy.groebner(
            [_to_sympy(g).as_expr() for g in gens],
            *GENS,
            order=sympy_order,
            domain=sympy.QQ,
        )
        assert ours == list(theirs.polys), [str(g) for g in gens]

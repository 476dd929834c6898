from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import example, given, strategies as st

from jetfibers.jets import t_order
from jetfibers.poly import (
    T_CODE,
    Polynomial,
    PolynomialParseError,
    evaluate,
    format_polynomial,
    jet_variables,
    linear_substitute,
    parse_polynomial,
    substitute_series,
    var_code,
    var_family,
    var_index,
    var_name,
)
from jetfibers.poly import _display_place, mono_from_pairs


def P(text: str) -> Polynomial:
    return parse_polynomial(text)


def var(family: str, index: int) -> Polynomial:
    return Polynomial.variable(var_code(family, index))


# ---------------------------------------------------------------------------
# variables


def test_variable_order_families():
    # aux above x above y above z
    assert var_code("w", 0) > var_code("x", 99)
    assert var_code("x", 0) > var_code("y", 99)
    assert var_code("y", 0) > var_code("z", 99)


def test_variable_order_within_family():
    assert var_code("x", 3) > var_code("x", 2)


def test_variable_roundtrip():
    for fam in "xyzw":
        for idx in (0, 1, 7, 123):
            code = var_code(fam, idx)
            assert var_family(code) == fam
            assert var_index(code) == idx
            assert var_name(code) == f"{fam}{idx}"


def test_jet_variables_count():
    assert len(jet_variables(4)) == 15


def test_each_variable_is_one_shared_polynomial():
    # like zero and one, so generator tuples built apart compare by identity
    assert var("x", 3) is var("x", 3)
    assert var("x", 3) == P("x3") and str(var("y", 0)) == "y0"


# ---------------------------------------------------------------------------
# arithmetic


def test_additive_inverse():
    assert var("x", 0) + (-var("x", 0)) == Polynomial.zero()


def test_coefficient_merge():
    prod = var("x", 0) * var("y", 0)
    assert prod + prod == 2 * prod


def test_sum_of_jet_coefficients():
    # f^(0) + f^(1) for the quadric
    expected = P("x0*y0 - z0^2 + x1*y0 + x0*y1 - 2*z0*z1")
    assert P("x0*y0 - z0^2") + P("x1*y0 + x0*y1 - 2*z0*z1") == expected


def test_difference_of_squares():
    assert (var("x", 0) + var("y", 0)) * (var("x", 0) - var("y", 0)) == P("x0^2 - y0^2")


def test_zero_absorbs():
    assert Polynomial.zero() * P("x0*y1 - 3*z2") == Polynomial.zero()


def test_cube_of_variable():
    assert var("z", 1) * var("z", 1) * var("z", 1) == P("z1^3")


def test_scalar_division():
    assert P("2*x0") / 2 == var("x", 0)
    assert P("x0") / Fraction(1, 4) == P("4*x0")


_CODES = [var_code(f, i) for f in "xyz" for i in range(3)] + [var_code("w", 0)]


def _polys(max_terms=4):
    mono = st.lists(
        st.tuples(st.sampled_from(_CODES), st.integers(1, 3)), max_size=3
    )
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    return st.lists(st.tuples(mono, coeff), max_size=max_terms).map(
        Polynomial.from_terms
    )


@given(_polys(), _polys(), _polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(_polys())
def test_no_zero_terms_stored(a):
    assert all(coeff for _, coeff in a.items())
    assert a - a == Polynomial.zero()


@given(_polys())
def test_parse_print_roundtrip(a):
    assert parse_polynomial(format_polynomial(a)) == a


# ---------------------------------------------------------------------------
# textual form


def test_display_matches_worked_example():
    # the expansion coefficients print in the documented order
    assert str(P("x1*y0 + x0*y1 - 2*z0*z1")) == "x1*y0 + x0*y1 - 2*z0*z1"
    assert str(P("x2*y0 + x1*y1 + x0*y2 - z1^2 - 2*z0*z2")) == (
        "x2*y0 + x1*y1 + x0*y2 - z1^2 - 2*z0*z2"
    )
    assert str(P("x0^2 - y0^2*z0 + z0^3")) == "x0^2 - y0^2*z0 + z0^3"


# the documented display ranking of a term's factors, written out here
# rather than taken from the module: families t > w > x > y > z, and the
# lower index first within a family
_FAMILIES_BY_DISPLAY_RANK = "zyxwt"


def _ref_factor_rank(code):
    return (_FAMILIES_BY_DISPLAY_RANK.index(var_family(code)), -var_index(code))


def _display_term_cmp(a, b) -> int:
    """Reference display comparison: ungraded reverse lex under the display
    ranking (the first variable where the exponents differ decides, the
    smaller exponent ranking higher)."""
    ea = dict(a)
    eb = dict(b)
    for code in sorted(set(ea) | set(eb), key=_ref_factor_rank):
        xa = ea.get(code, 0)
        xb = eb.get(code, 0)
        if xa != xb:
            return 1 if xa < xb else -1
    return 0


# codes of all five families, an index past one digit among them
_DISPLAY_CODES = _CODES + [var_code("w", 1), var_code("x", 11), T_CODE]
_monomials = st.lists(
    st.tuples(st.sampled_from(_DISPLAY_CODES), st.integers(1, 3)), max_size=4
).map(mono_from_pairs)


@given(st.lists(_monomials, max_size=12))
def test_display_key_sorts_as_display_comparison(monos):
    # format_polynomial sorts by _display_place: ascending places are the
    # descending display order; the constant monomial and the prefixes
    # always take part
    monos = monos + [()] + [m[:1] for m in monos]
    expected = sorted(monos, key=cmp_to_key(_display_term_cmp), reverse=True)
    assert sorted(monos, key=_display_place) == expected


_JET_CODES = [var_code(f, i) for f in "xyz" for i in (0, 1, 2, 11)]


@given(st.lists(
    st.lists(st.tuples(st.sampled_from(_JET_CODES), st.integers(1, 3)), max_size=5).map(
        mono_from_pairs
    ),
    max_size=12,
))
def test_family_pairs_sort_as_display_order(monos):
    # jets.expand_text places a jet term by its (z pairs, y pairs, x pairs):
    # ascending on that is descending display order
    monos = monos + [()] + [m[:1] for m in monos]

    def family_pairs(mono):
        return tuple(tuple(p for p in mono if var_family(p[0]) == f) for f in "zyx")

    # that key is the display place with its empty w and t blocks cut off
    assert all(_display_place(m) == family_pairs(m) + ((), ()) for m in monos)
    expected = sorted(monos, key=cmp_to_key(_display_term_cmp), reverse=True)
    assert sorted(monos, key=family_pairs) == expected


def test_display_key_ranks_an_absent_variable_above_any_power():
    z0, w0 = var_code("z", 0), var_code("w", 0)
    for shorter, longer in [
        ((), ((z0, 1),)),
        (((w0, 2),), ((w0, 2), (z0, 1))),
        (((T_CODE, 1),), ((T_CODE, 1), (w0, 3))),
    ]:
        assert _display_term_cmp(shorter, longer) == 1
        assert _display_place(shorter) < _display_place(longer)


def _ref_format(p) -> str:
    """Reference text form: terms in descending _display_term_cmp order, each
    as its coefficient's magnitude (left out when it is 1 and the term has a
    variable) and its factors in descending display rank, joined by "*", a
    factor being name or name^exp; the first term carries a leading "-" when
    negative, the others are joined by " - " or " + "."""
    terms = dict(p.items())
    if not terms:
        return "0"
    text = ""
    for mono in sorted(terms, key=cmp_to_key(_display_term_cmp), reverse=True):
        coeff = terms[mono]
        factors = sorted(mono, key=lambda ce: _ref_factor_rank(ce[0]), reverse=True)
        parts = [var_name(c) if e == 1 else f"{var_name(c)}^{e}" for c, e in factors]
        if abs(coeff) != 1 or not mono:
            parts.insert(0, str(abs(coeff)))
        if text:
            text += " - " if coeff < 0 else " + "
        elif coeff < 0:
            text = "-"
        text += "*".join(parts)
    return text


_display_polys = st.lists(
    st.tuples(
        st.lists(st.tuples(st.sampled_from(_DISPLAY_CODES), st.integers(1, 12)), max_size=4),
        st.fractions(min_value=-20, max_value=20, max_denominator=7),
    ),
    max_size=6,
).map(Polynomial.from_terms)


@given(_display_polys)
@example(P("-w1^2*x11 + 3/2*x0*x2^3 - z0*z10 - 5/3"))
@example(P("-x0 + 1"))
@example(Polynomial.from_terms([([(T_CODE, 2), (var_code("x", 1), 1)], -3), ([(T_CODE, 1)], 1)]))
def test_format_matches_reference_formatter(p):
    assert format_polynomial(p) == _ref_format(p)


def test_display_zero_and_constants():
    assert str(Polynomial.zero()) == "0"
    assert str(Polynomial.constant(Fraction(-3, 7))) == "-3/7"
    assert str(P("3/2*x0")) == "3/2*x0"


def test_parse_rationals_and_powers():
    assert P("1/2*x0^2") == Fraction(1, 2) * var("x", 0) ** 2
    assert P("2x0") == 2 * var("x", 0)  # implicit product
    assert P("w3") == var("w", 3)


def test_parse_errors_carry_positions():
    with pytest.raises(PolynomialParseError) as err:
        parse_polynomial("x0 + @")
    assert err.value.position == 5
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x")  # missing index outside ambient mode
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x0 / 2")
    with pytest.raises(PolynomialParseError):
        parse_polynomial("q0")


@pytest.mark.parametrize(
    "text, position",
    [("x*y-z^\u0665", 6), ("x*y-z^\u00b2", 6), ("x\u0663*y", 1), ("\uff580*y0", 0)],
    ids=["arabic-indic five", "superscript two", "arabic-indic three", "fullwidth x"],
)
def test_parse_takes_ascii_digits_and_letters_only(text, position):
    # str.isdigit and str.isalpha accept other scripts' digits and letters:
    # int() reads an Arabic-Indic five as 5, and fails on a superscript two
    # with no position
    for ambient in (True, False):
        with pytest.raises(PolynomialParseError) as err:
            parse_polynomial(text, ambient=ambient)
        assert err.value.position == position
        expected = f"unexpected character {text[position]!r} (at position {position})"
        assert str(err.value) == expected


def test_ambient_mode():
    assert parse_polynomial("x*y - z^2", ambient=True) == P("x0*y0 - z0^2")
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x1*y0", ambient=True)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("w0", ambient=True)


# ---------------------------------------------------------------------------
# linear substitution


def test_linear_substitute_flip():
    assert linear_substitute(var("y", 3), {var_code("y", 3): -var("y", 3)}) == -var("y", 3)


def test_linear_substitute_rotation_entry():
    image = Fraction(-1, 2) * var("y", 2) - Fraction(1, 2) * var("z", 2)
    assert linear_substitute(var("z", 2), {var_code("z", 2): image}) == P(
        "-1/2*y2 - 1/2*z2"
    )


def test_linear_substitute_identity():
    g = P("-4*y2^2*z2^2 + y1^2*z3^2 + 4*x3^2*z2 - 4*x2*x3*z3")
    assert linear_substitute(g, {}) == g


def test_linear_substitute_rejects_quadratic_images():
    with pytest.raises(ValueError):
        linear_substitute(var("x", 0), {var_code("x", 0): var("x", 0) ** 2})


_SUB_CODES = [var_code(f, i) for f, i in (("x", 1), ("y", 0), ("y", 2), ("z", 1), ("z", 3))]
_sub_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_sub_polys = st.lists(
    st.tuples(
        st.lists(st.tuples(st.sampled_from(_SUB_CODES), st.integers(1, 3)), max_size=3),
        _sub_coeffs,
    ),
    max_size=5,
).map(Polynomial.from_terms)
# rational affine images: a constant term plus up to three linear terms,
# which may name other substituted variables; sometimes the zero image
_affine_images = st.one_of(
    st.just(Polynomial.zero()),
    st.tuples(
        _sub_coeffs, st.lists(st.tuples(st.sampled_from(_SUB_CODES), _sub_coeffs), max_size=3)
    ).map(lambda t: Polynomial.from_terms([((), t[0])] + [([(v, 1)], c) for v, c in t[1]])),
)
_sub_mappings = st.dictionaries(st.sampled_from(_SUB_CODES), _affine_images, max_size=3)


def _sympy_expr(sympy, p: Polynomial):
    return sympy.sympify(format_polynomial(p).replace("^", "**"))


@given(_sub_polys, _sub_mappings)
@example(P("y0*z1^2 - 2/3*y0 + z1"), {var_code("y", 0): P("z1"), var_code("z", 1): P("y0")})
@example(
    P("1/2*y0^3*x1 + 3*y0 - 5/4*x1 + 1"),
    {var_code("y", 0): P("2/3*z1 - 1/5"), var_code("x", 1): Polynomial.zero()},
)
def test_linear_substitute_matches_sympy_simultaneous_subs(p, mapping):
    sympy = pytest.importorskip("sympy")
    swaps = {
        sympy.Symbol(var_name(code)): _sympy_expr(sympy, image)
        for code, image in mapping.items()
    }
    theirs = sympy.expand(_sympy_expr(sympy, p).subs(swaps, simultaneous=True))
    assert sympy.expand(_sympy_expr(sympy, linear_substitute(p, mapping)) - theirs) == 0


# ---------------------------------------------------------------------------
# series substitution


def _generic_series(m):
    return (
        [var("x", i) for i in range(m + 1)],
        [var("y", i) for i in range(m + 1)],
        [var("z", i) for i in range(m + 1)],
    )


def test_substitute_series_quadric():
    f = parse_polynomial("x*y - z^2", ambient=True)
    xs, ys, zs = _generic_series(2)
    coeffs = substitute_series(f, xs, ys, zs, 2)
    assert coeffs == [
        P("x0*y0 - z0^2"),
        P("x1*y0 + x0*y1 - 2*z0*z1"),
        P("x2*y0 + x1*y1 + x0*y2 - z1^2 - 2*z0*z2"),
    ]


def test_substitute_series_zero_point():
    f = parse_polynomial("x^2 - y^2*z + z^3", ambient=True)
    zero = [Polynomial.zero()] * 6
    assert substitute_series(f, zero, zero, zero, 5) == [Polynomial.zero()] * 6


def test_substitute_series_shifted_chart_coefficient():
    # x from t^2, y from t^1, z from t^2: the t^4 coefficient
    f = parse_polynomial("x^2 - y^2*z + z^3", ambient=True)
    m = 5
    zero = Polynomial.zero()
    xs = [zero, zero] + [var("x", i) for i in range(2, m + 1)]
    ys = [zero] + [var("y", i) for i in range(1, m + 1)]
    zs = [zero, zero] + [var("z", i) for i in range(2, m + 1)]
    coeffs = substitute_series(f, xs, ys, zs, m)
    assert coeffs[4] == P("x2^2 - y1^2*z2")


def test_substitute_series_coefficient_independent_of_order():
    f = parse_polynomial("x*y - z^2", ambient=True)
    low = substitute_series(f, *_generic_series(3), 3)
    high = substitute_series(f, *_generic_series(6), 6)
    for j in range(4):
        assert low[j] == high[j]


def test_substitute_series_rejects_non_ambient():
    with pytest.raises(ValueError):
        substitute_series(var("x", 1), *_generic_series(1), 1)
    with pytest.raises(ValueError):
        substitute_series(var("w", 0), *_generic_series(1), 1)


@pytest.mark.parametrize(
    "m, xs, error, match",
    [
        (-1, [], ValueError, "nonnegative"),
        (1, [var("x", 0), 1.5], TypeError, "polynomials or rationals"),
        (1, [var("x", 0)], ValueError, "exactly 2 coefficients"),
        # t in a coefficient would fold into the series' own powers of t
        (1, [Polynomial.variable(T_CODE), var("x", 1)], ValueError, "reserved t slot"),
    ],
    ids=["negative-order", "not-a-polynomial", "wrong-length", "uses-t"],
)
def test_substitute_series_checks_its_inputs(m, xs, error, match):
    f = parse_polynomial("x*y - z^2", ambient=True)
    _, ys, zs = _generic_series(max(m, 0))
    with pytest.raises(error, match=match):
        substitute_series(f, xs, ys, zs, m)


def test_coefficient_uses_bounded_jet_indices():
    f = parse_polynomial("x*y - z^2", ambient=True)
    coeffs = substitute_series(f, *_generic_series(5), 5)
    for j, c in enumerate(coeffs):
        assert all(var_index(code) <= j for code in c.variables())


# ---------------------------------------------------------------------------
# jet points and t-order


def _jet(**series):
    """A jet point, jet-variable code -> value, from index -> value series."""
    return {var_code(f, i): Fraction(v) for f, vs in series.items() for i, v in vs.items()}


def test_t_order_linear():
    gamma = _jet(x={1: 1})
    assert t_order(parse_polynomial("x", ambient=True), gamma, 3) == 1


def test_t_order_vanishing_is_truncation_limited():
    gamma = _jet(y={2: 1})
    f = parse_polynomial("x^2 - y^2*z + z^3", ambient=True)
    assert t_order(f, gamma, 4) is None


def test_t_order_witness_jet():
    gamma = _jet(x={3: -1}, y={2: -1}, z={2: 1})
    f = parse_polynomial("x^2 - y^2*z + z^3", ambient=True)
    assert t_order(f, gamma, 7) == 6


def test_t_order_multiplicative():
    gamma = _jet(x={1: 2}, y={2: 1}, z={1: 1, 2: -1})
    g = parse_polynomial("x*z", ambient=True)
    h = parse_polynomial("y + z^2", ambient=True)
    og, oh = t_order(g, gamma, 9), t_order(h, gamma, 9)
    assert og is not None and oh is not None and og + oh <= 9
    assert t_order(g * h, gamma, 9) == og + oh


def test_evaluate_at_jet_point():
    values = _jet(x={3: -1}, y={2: -1}, z={2: 1})
    assert evaluate(P("8*x3^2*y2 - 8*x3^2*z2"), values) == -16
    assert evaluate(P("x0 + y2"), values) == -1  # x0 is absent: zero


def _evaluate_reference(p: Polynomial, values) -> Fraction:
    """The definition evaluate had before it skipped zero factors early: a
    Fraction default on every lookup and a Fraction sum over every term."""
    total = Fraction(0)
    for mono, coeff in p.items():
        term = coeff
        for code, exp in mono:
            v = values.get(code, Fraction(0))
            if not v:
                term = Fraction(0)
                break
            term = term * v**exp
        total += term
    return total


_point_values = st.dictionaries(
    st.sampled_from(_CODES), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


@given(_polys(max_terms=6), _point_values)
@example(Polynomial.zero(), {})
@example(P("x1^2*y0 - 3/2*z2 + 5"), {var_code("x", 1): 2, var_code("y", 0): Fraction(1, 3)})
def test_evaluate_matches_its_reference_definition(p, values):
    got = evaluate(p, values)
    assert type(got) is Fraction
    assert got == _evaluate_reference(p, values)

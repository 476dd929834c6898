"""The packed series expansion against a dense-tuple reference.

substitute_series expands on packed monomials (one int per monomial, the t
power in the lowest field) with int coefficients wherever the inputs are
whole numbers.  The reference below is the straightforward
expansion on dense exponent tuples with Fraction coefficients: every
product is formed and the ones past t^m are skipped.  Both must give the
same Polynomials, with Fraction coefficients, on random inputs and at the
edges of the packing: a field filled to its last value, a t power past one
byte, and a product landing exactly on t^m.

expand_ambient, the closed formula that expands along the generic jet
without any series product, is held to both: the reference and
substitute_series at the shifted generic series.  jets.t_order, which reads
the closed formula's coefficients at a jet point, is held to the reference
expanded along that point's series.
"""

import gc
from fractions import Fraction
from operator import add

from hypothesis import given, strategies as st

from jetfibers.jets import expand_ambient, t_order
from jetfibers.kernel import impl as _K
from jetfibers.poly import (
    Polynomial,
    T_CODE,
    X,
    Y,
    Z,
    substitute_series,
    var_code,
    var_family,
    var_index,
)

AMBIENT = (var_code(X, 0), var_code(Y, 0), var_code(Z, 0))


def var(family: str, index: int) -> Polynomial:
    return Polynomial.variable(var_code(family, index))

# ---------------------------------------------------------------------------
# dense-tuple reference


def _ref_mul(a, b, m):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            if ma[0] + mb[0] > m:
                continue
            mono = tuple(map(add, ma, mb))
            out[mono] = out.get(mono, 0) + ca * cb
    return {mono: c for mono, c in out.items() if c}


def _ref_expand(f, series, width, m):
    acc = {}
    for mono, coeff in f.items():
        cur = {(0,) * width: coeff}
        for code, exp in mono:
            for _ in range(exp):
                cur = _ref_mul(cur, series[var_family(code)], m)
        for vec, c in cur.items():
            acc[vec] = acc.get(vec, 0) + c
    return {vec: c for vec, c in acc.items() if c}


def _ref_substitute_series(f, xs, ys, zs, m):
    series = {X: xs, Y: ys, Z: zs}
    codes = set()
    for coeffs in series.values():
        for c in coeffs:
            codes |= c.variables()
    ring = (T_CODE,) + tuple(sorted(codes, reverse=True))
    pos = {code: k for k, code in enumerate(ring)}
    dense = {}
    for family, coeffs in series.items():
        dense[family] = {}
        for i, c in enumerate(coeffs):
            for mono, coeff in c.items():
                vec = [0] * len(ring)
                vec[0] = i
                for code, exp in mono:
                    vec[pos[code]] = exp
                dense[family][tuple(vec)] = coeff
    out = [{} for _ in range(m + 1)]
    for vec, coeff in _ref_expand(f, dense, len(ring), m).items():
        mono = tuple((ring[k], vec[k]) for k in range(1, len(ring)) if vec[k])
        out[vec[0]][mono] = coeff
    return [Polynomial(terms) for terms in out]


def _ref_t_order(point, g, m):
    series = {family: {} for family in (X, Y, Z)}
    for code, c in point.items():
        if c:
            series[var_family(code)][(var_index(code),)] = c
    return min((k for (k,) in _ref_expand(g, series, 1, m)), default=None)


def _assert_same_expansion(f, xs, ys, zs, m):
    got = substitute_series(f, xs, ys, zs, m)
    assert got == _ref_substitute_series(f, xs, ys, zs, m)
    # the Polynomial contract: Fraction coefficients, none of them zero
    assert all(type(c) is Fraction and c for p in got for _, c in p.items())
    return got


# ---------------------------------------------------------------------------
# random inputs

_RATIONALS = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))


@st.composite
def _ambient_polys(draw):
    """Ambient f of degree at most 5 with rational coefficients."""
    terms = draw(
        st.lists(
            st.tuples(
                st.tuples(*[st.integers(0, 5)] * 3).filter(lambda e: sum(e) <= 5),
                _RATIONALS,
            ),
            max_size=5,
        )
    )
    return Polynomial.from_terms(
        [(list(zip(AMBIENT, exps)), coeff) for exps, coeff in terms]
    )


@st.composite
def _coefficient(draw, family, i):
    """A series coefficient: the generic jet variable, a non-monic multiple
    of it, a rational constant, or a small nonlinear polynomial."""
    kind = draw(st.sampled_from(["generic", "scaled", "constant", "nonlinear"]))
    v = Polynomial.variable(var_code(family, i))
    if kind == "generic":
        return v
    if kind == "scaled":
        return v * draw(_RATIONALS)
    if kind == "constant":
        return Polynomial.constant(draw(_RATIONALS))
    codes = [var_code(fam, k) for fam in (X, Y, Z) for k in range(3)]
    terms = draw(
        st.lists(
            st.tuples(
                st.lists(st.tuples(st.sampled_from(codes), st.integers(1, 3)), max_size=2),
                _RATIONALS,
            ),
            min_size=1,
            max_size=3,
        )
    )
    return Polynomial.from_terms(terms)


@st.composite
def _series_cases(draw):
    m = draw(st.integers(0, 10))
    shifts = draw(st.tuples(*[st.integers(0, 3)] * 3))
    series = [
        [
            Polynomial.zero() if i < start else draw(_coefficient(family, i))
            for i in range(m + 1)
        ]
        for family, start in zip((X, Y, Z), shifts)
    ]
    return draw(_ambient_polys()), series, m


@given(_series_cases())
def test_packed_expansion_matches_dense_reference(case):
    f, (xs, ys, zs), m = case
    _assert_same_expansion(f, xs, ys, zs, m)


def _generic_series(m, shifts):
    return [
        [
            Polynomial.zero() if i < start else Polynomial.variable(var_code(family, i))
            for i in range(m + 1)
        ]
        for family, start in zip((X, Y, Z), shifts)
    ]


def _assert_closed_formula(f, m, shifts):
    got = expand_ambient(f, m, shifts)
    series = _generic_series(m, shifts)
    assert got == _ref_substitute_series(f, *series, m)
    assert got == substitute_series(f, *series, m)
    assert all(type(c) is Fraction and c for p in got for _, c in p.items())
    return got


# shifts up to 12 start past m, and start * degree passes m well before that
@given(_ambient_polys(), st.integers(0, 10), st.tuples(*[st.integers(0, 12)] * 3))
def test_closed_formula_matches_the_series_substitution(f, m, shifts):
    _assert_closed_formula(f, m, shifts)


def test_closed_formula_edge_polynomials():
    x, y, z = (Polynomial.variable(c) for c in AMBIENT)
    c = Polynomial.constant(Fraction(-3, 4))
    cases = [y**2 * z, c, Polynomial.zero(), x**2 - y**2 * z + z**3, c + 2 * x - y**2 * z]
    for f in cases:
        for m in (0, 1, 4, 7):
            for shifts in ((0, 0, 0), (2, 1, 2), (1, 3, 0), (8, 0, 9)):
                _assert_closed_formula(f, m, shifts)
    # the D4 mixed term: y^2*z at t^3 is the one product y1^2*z1
    expected = _zeros(2) + [var("y", 1) ** 2 * var("z", 1)]
    assert expand_ambient(y**2 * z, 3, (0, 1, 1)) == expected
    assert expand_ambient(c, 3) == [c] + _zeros(2)
    assert expand_ambient(Polynomial.zero(), 3) == _zeros(3)


@st.composite
def _points(draw):
    """(point, m): a value, zero or not, for each jet variable of order m."""
    m = draw(st.integers(0, 10))
    values = st.lists(st.one_of(st.just(0), _RATIONALS), min_size=m + 1, max_size=m + 1)
    return {var_code(f, i): v for f in (X, Y, Z) for i, v in enumerate(draw(values))}, m


@given(_points(), _ambient_polys())
def test_t_order_matches_dense_reference(point_m, g):
    point, m = point_m
    assert t_order(g, point, m) == _ref_t_order(point, g, m)


# ---------------------------------------------------------------------------
# edges of the packing


def _zeros(m):
    return [Polynomial.zero()] * (m + 1)


def test_field_width_edge_exponent_255_and_256():
    # z^3 at z = z1^e*t: the product z1^(3e) fills an 8-bit field at e = 85
    # and needs 16 bits at e = 86
    assert (_K.field_bits(255), _K.field_bits(256)) == (8, 16)
    f = Polynomial.variable(AMBIENT[2]) ** 3
    for e in (85, 86):
        zs = [Polynomial.zero(), var("z", 1) ** e, var("x", 0), Polynomial.zero()]
        got = _assert_same_expansion(f, _zeros(3), _zeros(3), zs, 3)
        assert got[3] == var("z", 1) ** (3 * e)


def test_decoding_full_fields_of_multi_variable_coefficients():
    # the ring is x2 > y1 > z0, so z0 holds the highest slot; cubing
    # y1^85*z0^85 fills two adjacent 8-bit fields with 255 each, and the
    # cross terms leave gaps between the set fields
    assert _K.field_bits(3 * 85) == 8
    x2, y1, z0 = var("x", 2), var("y", 1), var("z", 0)
    x, z = (Polynomial.variable(c) for c in (AMBIENT[0], AMBIENT[2]))
    f = z**3 - Fraction(2, 3) * x * z
    zs = [
        Polynomial.zero(),
        y1**85 * z0**85 - Fraction(3, 2) * x2 * z0**85,
        x2 + z0,
        Polynomial.constant(Fraction(5, 7)),
    ]
    xs = [Polynomial.zero(), x2 * y1**2, Polynomial.zero(), Polynomial.constant(-4)]
    got = _assert_same_expansion(f, xs, _zeros(3), zs, 3)
    assert got[3].coefficient([(var_code(Y, 1), 255), (var_code(Z, 0), 255)]) == 1
    assert got[3].coefficient([(var_code(X, 2), 3), (var_code(Z, 0), 255)]) == Fraction(-27, 8)


def test_t_power_past_one_byte_with_linear_f():
    m = 256
    f = Polynomial.variable(AMBIENT[0]) + 2 * Polynomial.variable(AMBIENT[1])
    xs = [var("x", i) for i in range(m + 1)]
    ys = [var("y", i) for i in range(m + 1)]
    got = _assert_same_expansion(f, xs, ys, _zeros(m), m)
    assert got == [var("x", i) + 2 * var("y", i) for i in range(m + 1)]


def test_t_order_past_one_byte():
    m = 300
    f = Polynomial.variable(AMBIENT[0]) * Polynomial.variable(AMBIENT[1])
    # t^140 * t^150 lands inside the cap; t^250 * t^260 does not
    assert t_order(f, {var_code(X, 140): 1, var_code(Y, 150): 3}, m) == 290
    assert t_order(f, {var_code(X, 250): 1, var_code(Y, 260): 3}, m) is None


def test_product_landing_exactly_on_the_cap():
    # x and y start at t^2: at m = 4 the only surviving product is x2*y2*t^4
    m = 4
    xs = _zeros(1) + [var("x", i) for i in range(2, m + 1)]
    ys = _zeros(1) + [var("y", i) for i in range(2, m + 1)]
    f = Polynomial.variable(AMBIENT[0]) * Polynomial.variable(AMBIENT[1])
    got = _assert_same_expansion(f, xs, ys, _zeros(m), m)
    assert got == _zeros(3) + [var("x", 2) * var("y", 2)]
    point = {var_code(X, 2): 1, var_code(Y, 2): 5}
    assert t_order(f, point, m) == 4
    assert t_order(f, point, m - 1) is None


def test_non_integral_coefficients_stay_exact():
    m = 2
    f = Polynomial.from_terms([([(AMBIENT[0], 1), (AMBIENT[1], 1)], Fraction(1, 3))])
    xs = [Polynomial.constant(Fraction(3, 2)), var("x", 1), Polynomial.zero()]
    ys = [Polynomial.constant(Fraction(1, 2)), Polynomial.constant(2), var("y", 2)]
    got = _assert_same_expansion(f, xs, ys, _zeros(m), m)
    assert got == [
        Polynomial.constant(Fraction(1, 4)),
        1 + Fraction(1, 6) * var("x", 1),
        Fraction(1, 2) * var("y", 2) + Fraction(2, 3) * var("x", 1),
    ]
    point = {var_code(X, 0): Fraction(1, 2), var_code(Y, 0): 2}
    assert t_order(f - Polynomial.constant(Fraction(1, 3)), point, m) is None


def test_expansion_and_t_order_leave_no_cyclic_garbage():
    # the powers of a series die with the expansion that built them, not at
    # the next cyclic collection
    x, y, z = (Polynomial.variable(c) for c in AMBIENT)
    f = x * y - z**5
    point = {var_code(X, 3): -1, var_code(Y, 2): -1, var_code(Z, 2): 1}
    gc.collect()
    gc.disable()
    try:
        expand_ambient(f, 12)
        assert gc.collect() == 0
        t_order(f, point, 7)
        assert gc.collect() == 0
    finally:
        gc.enable()

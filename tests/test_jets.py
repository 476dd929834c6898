import itertools
import tracemalloc
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, strategies as st

from jetfibers.jets import (
    _WeightTable,
    _compositions,
    an_surface,
    d4_surface,
    expand_ambient,
    expand_text,
    jet_coeffs,
)
from jetfibers.poly import (
    X,
    Y,
    Z,
    Polynomial,
    format_polynomial,
    mono_from_pairs,
    parse_polynomial,
    var_code,
    var_family,
    var_index,
    var_name,
)
from references import fpqr_closed, g_shift, lambda_xy, lambda_z, multinomial


def P(text: str) -> Polynomial:
    return parse_polynomial(text)


# ---------------------------------------------------------------------------
# surfaces


def test_surface_equations():
    assert an_surface(2) == P("x0*y0 - z0^3")
    assert d4_surface() == P("x0^2 - y0^2*z0 + z0^3")
    # one object per surface, so jet_coeffs finds its entries by identity
    assert an_surface(2) is an_surface(2)
    assert d4_surface() is d4_surface()


def test_surface_validation():
    with pytest.raises(ValueError):
        an_surface(0)
    with pytest.raises(ValueError):
        an_surface(-1)


# ---------------------------------------------------------------------------
# plain expansions


def test_quadric_order_two():
    e = jet_coeffs(an_surface(1), 2)
    assert list(e) == [
        P("x0*y0 - z0^2"),
        P("x1*y0 + x0*y1 - 2*z0*z1"),
        P("x2*y0 + x1*y1 + x0*y2 - z1^2 - 2*z0*z2"),
    ]


def test_order_zero_coefficients():
    assert jet_coeffs(d4_surface(), 3)[0] == P("x0^2 - y0^2*z0 + z0^3")
    for n in (1, 2, 3, 5):
        assert jet_coeffs(an_surface(n), 2)[0] == P(f"x0*y0 - z0^{n + 1}")


def test_expansion_serializes():
    e = jet_coeffs(an_surface(1), 1)
    assert [str(c) for c in e] == ["x0*y0 - z0^2", "x1*y0 + x0*y1 - 2*z0*z1"]
    assert isinstance(e, tuple) and len(e) == 2


# ---------------------------------------------------------------------------
# shifted expansions


def test_unshifted_equals_plain():
    for n in (1, 3):
        plain = jet_coeffs(an_surface(n), 5)
        shifted = jet_coeffs(an_surface(n), 5, (0, 0, 0))
        assert list(plain) == list(shifted)


def test_shifted_vanishing_regime():
    # below both thresholds every coefficient dies
    n, p, q, r = 2, 2, 2, 1
    e = jet_coeffs(an_surface(n), 6, (p, q, r))
    for j in range(min(p + q, r * (n + 1))):
        assert not e[j]


def test_shifted_chart_coefficients():
    e = jet_coeffs(d4_surface(), 5, (2, 1, 2))
    assert e[4] == P("x2^2 - y1^2*z2")
    assert e[5] == P("2*x2*x3 - 2*y1*y2*z2 - y1^2*z3")


def test_shift_bounds_checked():
    with pytest.raises(ValueError):
        jet_coeffs(an_surface(1), 3, (0, 4, 0))
    with pytest.raises(ValueError):
        jet_coeffs(an_surface(1), 3, (-1, 0, 0))
    with pytest.raises(ValueError):
        jet_coeffs(an_surface(1), -1)


# ---------------------------------------------------------------------------
# index sets


def test_lambda_xy_examples():
    assert lambda_xy(1, 1, 1) == ()
    assert lambda_xy(0, 0, 2) == ((0, 2), (1, 1), (2, 0))
    assert lambda_xy(2, 3, 6) == ((2, 4), (3, 3))


def test_lambda_xy_empty_iff_threshold():
    for p, q, j in itertools.product(range(4), range(4), range(7)):
        assert (len(lambda_xy(p, q, j)) == 0) == (p + q > j)


def test_lambda_z_examples():
    assert lambda_z(0, 0, 2) == (((0,), (3,)),)
    assert lambda_z(1, 2, 1) == (((1,), (2,)),)
    assert lambda_z(2, 3, 1) == ()


@cache
def _compositions_bruteforce(start, degree, w):
    """Every weighted composition of degree over the indices >= start with
    weight w, as (support, parts), found by trying each multiset of degree
    indices from start..w and keeping those that sum to w, with no use of
    _compositions or _WeightTable."""
    found = set()
    for multiset in itertools.combinations_with_replacement(range(start, w + 1), degree):
        if sum(multiset) == w:
            support = tuple(sorted(set(multiset)))
            found.add((support, tuple(multiset.count(i) for i in support)))
    return frozenset(found)


def test_lambda_z_against_bruteforce():
    for r, j, n in itertools.product(range(3), range(7), (1, 2, 3)):
        got = set(lambda_z(r, j, n))
        assert got == _compositions_bruteforce(r, n + 1, j), (r, j, n)


def test_lambda_z_entry_constraints():
    for entry in lambda_z(1, 8, 3):
        support, parts = entry
        assert all(a < b for a, b in zip(support, support[1:]))
        assert support[0] >= 1
        assert sum(parts) == 4 and all(d > 0 for d in parts)
        assert sum(i * d for i, d in zip(support, parts)) == 8


def test_lambda_z_empty_iff_threshold():
    for r, j, n in itertools.product(range(4), range(7), (1, 2)):
        assert (len(lambda_z(r, j, n)) == 0) == (r * (n + 1) > j)


def test_compositions_bucket_lambda_z_and_carry_the_multinomial():
    # one enumerator for every weight up to m: bucket j is lambda_z's entry
    # list at j, each with its multinomial and its factors highest index
    # first (lambda_z reads _compositions, so the entries are held to an
    # independent enumeration in the test below)
    for r, n, m in itertools.product(range(3), (1, 2, 3), range(8)):
        buckets = _compositions(r, n + 1, m, var_code(Z, 0))
        assert len(buckets) == m + 1
        for j, bucket in enumerate(buckets):
            entries = lambda_z(r, j, n)
            assert [
                (tuple(var_index(c) for c, _ in reversed(mono)), tuple(d for _, d in reversed(mono)))
                for mono, _ in bucket
            ] == list(entries), (r, n, m, j)
            assert [mult for _, mult in bucket] == [multinomial(parts) for _, parts in entries]
    assert _compositions(3, 0, 2) == [[((), 1)], [], []]
    assert _compositions(3, 1, 2) == [[], [], []]
    # a degree above m still has its weight-0 compositions at index 0
    assert _compositions(0, 4, 2, var_code(X, 0))[0] == [(((var_code(X, 0), 4),), 1)]


def _expected_compositions(start, degree, w, offset):
    """The brute-force compositions of weight w as (pairs, multinomial),
    their factors highest index first, in ascending pairs."""
    return [
        (pairs, multinomial(tuple(d for _, d in pairs)))
        for pairs in sorted(
            tuple((offset + i, d) for i, d in zip(reversed(support), reversed(parts)))
            for support, parts in _compositions_bruteforce(start, degree, w)
        )
    ]


def test_compositions_buckets_hold_the_bruteforce_compositions():
    # bucket w holds exactly the brute-force compositions of weight w, each
    # with its multinomial; expand_ambient fills dicts, so any order will do
    for start, degree, m in itertools.product(range(4), range(7), range(15)):
        for family in (X, Y, Z):
            offset = var_code(family, 0)
            buckets = _compositions(start, degree, m, offset)
            assert len(buckets) == m + 1
            for w, bucket in enumerate(buckets):
                assert sorted(bucket) == _expected_compositions(start, degree, w, offset), (
                    start, degree, m, w,
                )


def test_compositions_buckets_come_in_display_order():
    # the weight table's list at (degree, w) holds exactly the brute-force
    # compositions of weight w, in ascending pairs, the order of a family's
    # block in poly._display_place, so that expand_text's rows come in
    # sorted runs; each with its multinomial and its text lowest index
    # first, each exponent written only above 1
    cases = [*itertools.product(range(4), range(7), range(15)), (0, 5, 40)]
    for family in (X, Y, Z):
        offset = var_code(family, 0)
        tables = {start: _WeightTable(start, offset) for start in range(4)}
        for start, degree, w in cases:
            table = tables[start]
            expected = [
                (
                    pairs,
                    "".join(
                        f"*{var_name(c)}" + (f"^{d}" if d > 1 else "") for c, d in reversed(pairs)
                    ),
                    mult,
                )
                for pairs, mult in _expected_compositions(start, degree, w, offset)
            ]
            # build makes the list that get stores, from the stored lower degrees
            assert table.build(degree, w) == expected, (family, start, degree, w)
            assert table.get(degree, w) == expected, (family, start, degree, w)
    assert len(_compositions_bruteforce(0, 5, 40)) == 1747


def test_multinomial():
    assert multinomial((3,)) == 1
    assert multinomial((1, 1)) == 2
    assert multinomial((2, 1)) == 3
    assert multinomial((1, 1, 1)) == 6


# ---------------------------------------------------------------------------
# the closed formula


def test_closed_formula_quadric_coefficient():
    assert fpqr_closed(1, 0, 0, 0, 2) == P("x2*y0 + x1*y1 + x0*y2 - z1^2 - 2*z0*z2")


def test_closed_formula_zero_case():
    # both sums empty
    assert not fpqr_closed(2, 2, 2, 1, 2)


def test_closed_formula_pure_z_case():
    # n=3, shifts (j', n-i+1, 1) with j' + (n-i+1) > n+1 at coefficient n+1
    assert fpqr_closed(3, 3, 3, 1, 4) == P("-z1^4")


def test_closed_formula_matches_expansion_small_grid():
    for n in (1, 2):
        for p, q, r in itertools.product(range(3), repeat=3):
            shifted = jet_coeffs(an_surface(n), 6, (p, q, r))
            for j in range(7):
                assert fpqr_closed(n, p, q, r, j) == shifted[j], (n, p, q, r, j)


def test_congruence_modulo_ladder():
    # the difference lies in the coordinate ideal killed by the shift
    from jetfibers.an import Ladder

    for n in (1, 2):
        for p, q, r in itertools.product(range(3), repeat=3):
            killed = set(Ladder(p, q, r).codes())
            plain = jet_coeffs(an_surface(n), 5)
            shifted = jet_coeffs(an_surface(n), 5, (p, q, r))
            for j in range(6):
                diff = plain[j] - shifted[j]
                assert all(
                    any(code in killed for code, _ in mono)
                    for mono, _ in diff.items()
                ), (n, p, q, r, j)


# ---------------------------------------------------------------------------
# reindexed coefficients (the shift lemma's reference, tests/references.py)


def test_g_shift_base_case():
    for n in (1, 2, 4):
        for l in range(n + 2):
            assert g_shift(n, l, 1, 0) == P(f"x{l}*y{n + 1 - l} - z1^{n + 1}")


def test_g_shift_example():
    assert g_shift(2, 1, 1, 1) == P("x2*y2 + x1*y3 - 3*z1^2*z2")


def test_g_shift_avoids_split_variables():
    n, e = 2, 1
    for l in range(e * (n + 1) + 1):
        for j in range(4):
            g = g_shift(n, l, e, j)
            for code in g.variables():
                fam, idx = var_family(code), var_index(code)
                if fam == "x":
                    assert idx >= l
                elif fam == "y":
                    assert idx >= e * (n + 1) - l
                else:
                    assert idx >= e


def test_g_shift_range_checked():
    with pytest.raises(ValueError):
        g_shift(2, 4, 1, 0)
    with pytest.raises(ValueError):
        g_shift(2, -1, 1, 0)


def test_shift_identity():
    # the shifted coefficient at e(n+1)+j equals the reindexed plain one
    for n in (1, 2, 3):
        for e in (1, 2):
            base = e * (n + 1)
            for l in range(base + 1):
                for j in range(5):
                    m = base + j
                    lhs = jet_coeffs(an_surface(n), m, (l, base - l, e))[m]
                    assert lhs == g_shift(n, l, e, j), (n, e, l, j)


def test_expand_ambient_generic_polynomial():
    f = parse_polynomial("x^2 - y^2*z + z^3", ambient=True)
    coeffs = expand_ambient(f, 5, (2, 1, 2))
    assert coeffs[4] == P("x2^2 - y1^2*z2")


@pytest.mark.parametrize(
    "text, m, terms", [("x*y-z^5", 40, 18_199), ("x^2-y^2*z+z^3", 40, 9_114)]
)
def test_expand_ambient_forms_each_term_once(text, m, terms):
    # the choices of one composition per family with total weight <= m, over
    # the terms of f, are exactly as many as the terms of f^(0..m): no two
    # choices meet at one monomial, so no coefficient is ever merged
    f = parse_polynomial(text, ambient=True)
    choices = 0
    for mono, _ in f.items():
        exps = dict(mono)
        sizes = [
            [len(bucket) for bucket in _compositions(0, exps.get(var_code(fam, 0), 0), m)]
            for fam in (X, Y, Z)
        ]
        choices += sum(
            nx * ny * nz
            for wx, nx in enumerate(sizes[0])
            for wy, ny in enumerate(sizes[1][: m + 1 - wx])
            for nz in sizes[2][: m + 1 - wx - wy]
        )
    assert choices == terms == sum(len(c) for c in expand_ambient(f, m))


_AMBIENT_CODES = (var_code(X, 0), var_code(Y, 0), var_code(Z, 0))
_ambient_polys = st.lists(
    st.tuples(
        st.tuples(*[st.integers(0, 3)] * 3),
        st.builds(Fraction, st.integers(1, 7) | st.integers(-7, -1), st.integers(1, 6)),
    ),
    max_size=5,
).map(
    lambda terms: Polynomial.from_terms(
        (mono_from_pairs(zip(_AMBIENT_CODES, exps)), c) for exps, c in terms
    )
)


@given(_ambient_polys, st.integers(0, 12))
@example(P("0"), 3)
@example(parse_polynomial("x - x", ambient=True), 2)
@example(parse_polynomial("5 - 1/3*x^3 - 1/6*y^3*z + z^2", ambient=True), 6)
@example(parse_polynomial("-1 + x*y*z - 2*x^2*z + 1/2*y", ambient=True), 5)
@example(Polynomial.one(), 1)
@example(Polynomial.constant(Fraction(-1)), 0)
def test_expand_text_is_the_formatted_expansion(f, m):
    # the text path writes what the general formatter writes, term for term:
    # negative and reducing coefficients, constants, mixed families, zero
    assert expand_text(f, m) == [format_polynomial(c) for c in expand_ambient(f, m)]


@pytest.mark.parametrize(
    "text",
    [
        "z^7+x",
        "x^3-2*y^4+5/3*z^2",
        "x*y*z-7",
        "1",
        "-2/3",
        # a family's top degree also read by a several-family term, below
        # one, and above a lower one-family degree: the table must keep the
        # lists it reads again
        "z^2+y*z^2",
        "z+x*z^3-y^2",
        "z^3+z^4-x*z",
        "x*y*z+x^2+y^3",
    ],
)
def test_expand_text_is_the_formatted_expansion_to_order_30(text):
    # one-family terms in each of x, y and z, several-family terms,
    # rationals and constants, at every order up to 30; f^(j) does not
    # depend on the order, so the expansion at order m is the first m + 1
    # coefficients of the one at order 30
    f = parse_polynomial(text, ambient=True)
    expected = [format_polynomial(c) for c in expand_ambient(f, 30)]
    for m in range(31):
        assert expand_text(f, m) == expected[: m + 1], m


def test_expand_text_peak_memory():
    # one coefficient at a time: the top-degree z lists of z^5 are built for
    # their coefficient and never stored, so the traced peak stays near the
    # output (1.4 MB); keeping every weight's lists for the call takes 3.9 MB
    f = parse_polynomial("x*y-z^5", ambient=True)
    expand_text(f, 40)  # warm-up, so that first-use caches are not counted
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        expand_text(f, 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6, peak


def test_expand_ambient_rejects_bad_input():
    f = parse_polynomial("x*y-z^5", ambient=True)
    x1 = Polynomial.variable(var_code(X, 1))
    for expand in (expand_ambient, expand_text):
        with pytest.raises(ValueError, match="series order must be nonnegative"):
            expand(f, -1)
        with pytest.raises(ValueError, match=r"not an ambient polynomial \(uses x1\)"):
            expand(f + x1, 3)
        # the order is checked first
        with pytest.raises(ValueError, match="series order"):
            expand(x1, -1)
    for shifts in ((-2, 0, 0), (0, -1, 0), (0, 0, -3)):
        with pytest.raises(ValueError, match="shifts must be nonnegative"):
            expand_ambient(parse_polynomial("x*y - z^3", ambient=True), 3, shifts)

import itertools

import pytest

from jetfibers.jets import (
    _compositions,
    Surface,
    an_surface,
    d4_surface,
    expand_ambient,
    g_shift,
    jet_coeffs,
    jet_coeffs_shifted,
)
from jetfibers.poly import (
    X,
    Y,
    Z,
    Polynomial,
    parse_polynomial,
    var_code,
    var_family,
    var_index,
)
from references import fpqr_closed, lambda_xy, lambda_z, multinomial


def P(text: str) -> Polynomial:
    return parse_polynomial(text)


# ---------------------------------------------------------------------------
# surfaces


def test_surface_equations():
    assert an_surface(2).ambient_polynomial() == P("x0*y0 - z0^3")
    assert d4_surface().ambient_polynomial() == P("x0^2 - y0^2*z0 + z0^3")


def test_surface_validation():
    with pytest.raises(ValueError):
        an_surface(0)
    with pytest.raises(ValueError):
        Surface("D4", n=2)
    with pytest.raises(ValueError):
        Surface("E8")


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
        shifted = jet_coeffs_shifted(an_surface(n), 5, 0, 0, 0)
        assert list(plain) == list(shifted)


def test_shifted_vanishing_regime():
    # below both thresholds every coefficient dies
    n, p, q, r = 2, 2, 2, 1
    e = jet_coeffs_shifted(an_surface(n), 6, p, q, r)
    for j in range(min(p + q, r * (n + 1))):
        assert e[j].is_zero


def test_shifted_chart_coefficients():
    e = jet_coeffs_shifted(d4_surface(), 5, 2, 1, 2)
    assert e[4] == P("x2^2 - y1^2*z2")
    assert e[5] == P("2*x2*x3 - 2*y1*y2*z2 - y1^2*z3")


def test_shift_bounds_checked():
    with pytest.raises(ValueError):
        jet_coeffs_shifted(an_surface(1), 3, 0, 4, 0)
    with pytest.raises(ValueError):
        jet_coeffs_shifted(an_surface(1), 3, -1, 0, 0)


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


def _lambda_z_bruteforce(r, j, n):
    total = n + 1
    found = set()
    indices = range(r, j + 1)
    for size in range(1, total + 1):
        for support in itertools.combinations(indices, size):
            for cuts in itertools.combinations(range(1, total), size - 1):
                parts = tuple(
                    b - a for a, b in zip((0,) + cuts, cuts + (total,))
                )
                if all(d > 0 for d in parts) and sum(
                    i * d for i, d in zip(support, parts)
                ) == j:
                    found.add((support, parts))
    return found


def test_lambda_z_against_bruteforce():
    for r, j, n in itertools.product(range(3), range(7), (1, 2, 3)):
        got = set(lambda_z(r, j, n))
        assert got == _lambda_z_bruteforce(r, j, n), (r, j, n)


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
    # list at j, in the same order, each with its multinomial and its
    # factors highest index first
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
    assert fpqr_closed(2, 2, 2, 1, 2).is_zero


def test_closed_formula_pure_z_case():
    # n=3, shifts (j', n-i+1, 1) with j' + (n-i+1) > n+1 at coefficient n+1
    assert fpqr_closed(3, 3, 3, 1, 4) == P("-z1^4")


def test_closed_formula_matches_expansion_small_grid():
    for n in (1, 2):
        for p, q, r in itertools.product(range(3), repeat=3):
            shifted = jet_coeffs_shifted(an_surface(n), 6, p, q, r)
            for j in range(7):
                assert fpqr_closed(n, p, q, r, j) == shifted[j], (n, p, q, r, j)


def test_congruence_modulo_ladder():
    # the difference lies in the coordinate ideal killed by the shift
    from jetfibers.an import Ladder

    for n in (1, 2):
        for p, q, r in itertools.product(range(3), repeat=3):
            killed = set(Ladder(p, q, r).codes())
            plain = jet_coeffs(an_surface(n), 5)
            shifted = jet_coeffs_shifted(an_surface(n), 5, p, q, r)
            for j in range(6):
                diff = plain[j] - shifted[j]
                assert all(
                    any(code in killed for code, _ in mono)
                    for mono, _ in diff.items()
                ), (n, p, q, r, j)


# ---------------------------------------------------------------------------
# reindexed coefficients


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
                    lhs = jet_coeffs_shifted(an_surface(n), m, l, base - l, e)[m]
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


def test_expand_ambient_rejects_bad_input():
    f = parse_polynomial("x*y-z^5", ambient=True)
    x1 = Polynomial.variable(var_code(X, 1))
    with pytest.raises(ValueError, match="series order must be nonnegative"):
        expand_ambient(f, -1)
    with pytest.raises(ValueError, match=r"not an ambient polynomial \(uses x1\)"):
        expand_ambient(f + x1, 3)
    # the order is checked first
    with pytest.raises(ValueError, match="series order"):
        expand_ambient(x1, -1)

"""Sparse multivariate polynomials with exact rational coefficients.

Everything downstream (jet equations, Groebner computations, certificate
checks) is built on the types here.  A Polynomial's coefficients are
``fractions.Fraction``, so every identity in the package is decided by
exact equality, never by a tolerance.

``substitute_series`` is the general truncated series substitution: any
polynomial coefficients in the x, y and z series.  It and ``t_order``
multiply series on packed monomials, with ``int`` coefficients wherever
the inputs are whole numbers (a non-integral coefficient stays a Fraction,
and mixed arithmetic is exact), and convert back to Fraction when they
build the Polynomials they return.  The jet equations themselves, f at the
generic jet, do not go through it: ``jets.expand_ambient`` writes them down
by the multinomial theorem, and the tests hold the two against each other.

Variables
---------
A variable is a (family, index) pair packed into a single int code:

* families, from lowest to highest rank: ``z`` < ``y`` < ``x`` < ``w``,
  where ``w`` holds auxiliary slots used by radical/saturation tricks;
* within a family a higher jet index is a higher code.

Auxiliary slots sorting above every jet variable is what lets the engine
eliminate a fresh ``w``: its elimination order needs ``w`` to be the
highest-ranked variable of the ring.

Monomials are tuples of (code, exponent) pairs sorted by descending code
with no zero exponents; the empty tuple is the monomial 1.

Printing uses a separate *display* ranking (families ``w > x > y > z`` but
lower index first within a family, terms sorted by ungraded reverse
lexicographic comparison).  That is the one documented textual form; parse
and print round-trip bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .kernel import impl as _K

# ---------------------------------------------------------------------------
# variable codes

_FAMILY_RANK = {"z": 0, "y": 1, "x": 2, "w": 3}
_RANK_TO_FAMILY = ("z", "y", "x", "w", "t")
_INDEX_BITS = 24
_INDEX_MASK = (1 << _INDEX_BITS) - 1

# reserved slot for the series variable t; ranks above every user variable
T_CODE = 4 << _INDEX_BITS

X, Y, Z, AUX = "x", "y", "z", "w"


def var_code(family: str, index: int) -> int:
    """Pack a (family, index) pair into its total-order code."""
    if family not in _FAMILY_RANK:
        raise ValueError(f"unknown variable family {family!r}")
    if index < 0 or index > _INDEX_MASK:
        raise ValueError(f"variable index {index} out of range")
    return (_FAMILY_RANK[family] << _INDEX_BITS) | index


def var_family(code: int) -> str:
    return _RANK_TO_FAMILY[code >> _INDEX_BITS]


def var_index(code: int) -> int:
    return code & _INDEX_MASK


def var_name(code: int) -> str:
    if code == T_CODE:
        return "t"
    return f"{var_family(code)}{var_index(code)}"


def jet_variables(m: int) -> tuple[int, ...]:
    """Codes of x0..xm, y0..ym, z0..zm: the ambient ring of the m-jet space."""
    out = []
    for fam in (X, Y, Z):
        out.extend(var_code(fam, i) for i in range(m + 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# monomials: tuples of (code, exp), descending code, exponents > 0

Monomial = tuple  # tuple[tuple[int, int], ...]

MONO_ONE: Monomial = ()


def mono_from_pairs(pairs) -> Monomial:
    merged: dict[int, int] = {}
    for code, exp in pairs:
        if exp:
            merged[code] = merged.get(code, 0) + exp
    items = sorted(((c, e) for c, e in merged.items() if e), reverse=True)
    for _, e in items:
        if e < 0:
            raise ValueError("negative exponent in monomial")
    return tuple(items)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ca, ea = a[i]
        cb, eb = b[j]
        if ca == cb:
            out.append((ca, ea + eb))
            i += 1
            j += 1
        elif ca > cb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _display_key(code: int):
    # ascending display rank: family low to high, then index high to low
    return (code >> _INDEX_BITS, -(code & _INDEX_MASK))


# ranks after every display rank of a variable
_DISPLAY_KEY_END = len(_RANK_TO_FAMILY) << _INDEX_BITS

_DISPLAY: dict[int, tuple[int, str]] = {}  # code -> (display rank, name)


def _display_entry(code: int) -> tuple[int, str]:
    """The code's display rank, _display_key(code) as one int of the same
    order, and its name; kept in _DISPLAY."""
    family, neg_index = _display_key(code)
    entry = _DISPLAY[code] = ((family << _INDEX_BITS) + _INDEX_MASK + neg_index, var_name(code))
    return entry


def _display_factors(mono: Monomial) -> list:
    """mono's (display rank, name, exponent) triples in ascending display rank."""
    return sorted(
        [(_DISPLAY.get(c) or _display_entry(c)) + (e,) for c, e in mono]
    )


def _factors_key(factors) -> tuple:
    """Sort key of the ungraded reverse-lex display order, from a monomial's
    _display_factors: each variable in ascending display rank, as its rank
    and its negated exponent, then _DISPLAY_KEY_END.  At the first variable
    where two monomials differ, the smaller exponent ranks higher (an absent
    variable has exponent 0, which is why the end marker outranks every
    rank)."""
    return tuple([x for rank, _, e in factors for x in (rank, -e)]) + (_DISPLAY_KEY_END,)


# ---------------------------------------------------------------------------
# polynomials


def _accumulate(terms, out=None) -> dict:
    """Add the (monomial, nonzero coefficient) pairs into out, a new dict by
    default, merging equal monomials and dropping any that cancel."""
    if out is None:
        out = {}
    for mono, c in terms:
        v = out.get(mono)
        if v is None:
            out[mono] = c
        else:
            v = v + c
            if v:
                out[mono] = v
            else:
                del out[mono]
    return out


class Polynomial:
    """Immutable sparse polynomial; the term dict never stores a zero.  Its
    hash is computed on first use and kept."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: dict | None = None):
        # trusted constructor: terms must already be canonical
        object.__setattr__(self, "_terms", terms or {})
        self._hash = None

    # -- builders ----------------------------------------------------------

    @classmethod
    def from_terms(cls, items) -> "Polynomial":
        """Build from (monomial, coefficient) pairs, merging and dropping zeros."""
        if isinstance(items, dict):
            items = items.items()
        pairs = ((mono, Fraction(coeff)) for mono, coeff in items)
        return cls(_accumulate((mono_from_pairs(mono), c) for mono, c in pairs if c))

    @classmethod
    def zero(cls) -> "Polynomial":
        return _ZERO

    @classmethod
    def one(cls) -> "Polynomial":
        return _ONE

    @classmethod
    def constant(cls, c) -> "Polynomial":
        c = Fraction(c)
        return cls({MONO_ONE: c}) if c else _ZERO

    @classmethod
    def variable(cls, code: int) -> "Polynomial":
        return cls({((code, 1),): Fraction(1)})

    # -- inspection --------------------------------------------------------

    def items(self):
        return self._terms.items()

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, mono) -> Fraction:
        return self._terms.get(mono_from_pairs(mono), Fraction(0))

    def total_degree(self) -> int:
        """Largest term degree; 0 for the zero polynomial."""
        if not self._terms:
            return 0
        return max(mono_degree(m) for m in self._terms)

    def variables(self) -> frozenset[int]:
        out = set()
        for mono in self._terms:
            for code, _ in mono:
                out.add(code)
        return frozenset(out)

    def is_variable(self) -> bool:
        """True for c*v with a single variable to the first power."""
        if len(self._terms) != 1:
            return False
        (mono,) = self._terms
        return len(mono) == 1 and mono[0][1] == 1

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        return Polynomial(_accumulate(other._terms.items(), dict(self._terms)))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return _ZERO
            return Polynomial({m: c * v for m, v in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial(
            _accumulate(
                (mono_mul(ma, mb), ca * cb)
                for ma, ca in self._terms.items()
                for mb, cb in other._terms.items()
            )
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, e: int) -> "Polynomial":
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial powers take a nonnegative integer")
        result = _ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- structural maps ----------------------------------------------------

    def reindex(self, code_map) -> "Polynomial":
        """Apply a variable-to-variable map (callable on codes)."""
        return Polynomial(
            _accumulate(
                (mono_from_pairs((code_map(code), e) for code, e in mono), c)
                for mono, c in self._terms.items()
            )
        )

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)})"


_ZERO = Polynomial({})
_ONE = Polynomial({MONO_ONE: Fraction(1)})


def _coerce(value):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    return NotImplemented


# ---------------------------------------------------------------------------
# formatting


def format_polynomial(p: Polynomial) -> str:
    """Canonical textual form; parse_polynomial inverts it bit-exactly."""
    if p.is_zero:
        return "0"
    rows = []
    for mono, coeff in p._terms.items():
        num, den = coeff.numerator, coeff.denominator
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        factors = _display_factors(mono)
        parts = [name if e == 1 else f"{name}^{e}" for _, name, e in reversed(factors)]
        if not parts or mag != "1":
            parts.insert(0, mag)
        rows.append((_factors_key(factors), num < 0, "*".join(parts)))
    # keys differ between monomials, so the sort never compares past them
    rows.sort(reverse=True)
    _, negative, text = rows[0]
    chunks = ["-" + text if negative else text]
    for _, negative, text in rows[1:]:
        chunks.append((" - " if negative else " + ") + text)
    return "".join(chunks)


# ---------------------------------------------------------------------------
# parsing


class PolynomialParseError(ValueError):
    """Parse failure; carries the 0-based offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_NUMBER, _NAME, _OP, _END = "number", "name", "op", "end"


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append((_NUMBER, text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append((_NAME, text[i:j], i))
            i = j
            continue
        if ch in "+-*/^":
            tokens.append((_OP, ch, i))
            i += 1
            continue
        raise PolynomialParseError(f"unexpected character {ch!r}", i)
    tokens.append((_END, "", n))
    return tokens


def parse_polynomial(text: str, *, ambient: bool = False) -> Polynomial:
    """Parse the canonical grammar.

    Variables are x<k>, y<k>, z<k> and w<k> for auxiliary slots; ``^`` takes
    powers, ``*`` between factors is optional, coefficients are integers or
    integer ratios p/q.  With ambient=True only bare x, y, z are accepted
    (they mean jet index 0) and indexed or auxiliary variables are rejected.
    """
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_variable(name: str, at: int) -> int:
        family = name[0]
        digits = name[1:]
        if family not in _FAMILY_RANK:
            raise PolynomialParseError(f"unknown variable {name!r}", at)
        if ambient:
            if family == AUX:
                raise PolynomialParseError("auxiliary variables are not ambient", at)
            if digits:
                raise PolynomialParseError(
                    f"jet-indexed variable {name!r} not allowed here", at
                )
            return var_code(family, 0)
        if not digits:
            raise PolynomialParseError(f"variable {name!r} is missing a jet index", at)
        return var_code(family, int(digits))

    def parse_factor() -> Polynomial:
        kind, value, at = peek()
        if kind == _NUMBER:
            advance()
            num = int(value)
            if peek()[:2] == (_OP, "/"):
                advance()
                dkind, dvalue, dat = peek()
                if dkind != _NUMBER:
                    raise PolynomialParseError("expected integer denominator", dat)
                advance()
                den = int(dvalue)
                if den == 0:
                    raise PolynomialParseError("zero denominator", dat)
                return Polynomial.constant(Fraction(num, den))
            return Polynomial.constant(num)
        if kind == _NAME:
            advance()
            code = parse_variable(value, at)
            if peek()[:2] == (_OP, "^"):
                advance()
                ekind, evalue, eat = peek()
                if ekind != _NUMBER:
                    raise PolynomialParseError("expected integer exponent", eat)
                advance()
                return Polynomial.from_terms([([(code, int(evalue))], 1)])
            return Polynomial.variable(code)
        raise PolynomialParseError(f"expected a factor, found {value or kind!r}", at)

    def parse_term() -> Polynomial:
        result = parse_factor()
        while True:
            kind, value, _ = peek()
            if kind == _OP and value == "*":
                advance()
                result = result * parse_factor()
            elif kind in (_NUMBER, _NAME):
                result = result * parse_factor()
            else:
                return result

    total = Polynomial.zero()
    sign = 1
    kind, value, _ = peek()
    if kind == _OP and value in "+-":
        advance()
        sign = -1 if value == "-" else 1
    total = total + sign * parse_term()
    while True:
        kind, value, at = peek()
        if kind == _END:
            return total
        if kind == _OP and value in "+-":
            advance()
            term = parse_term()
            total = total + (term if value == "+" else -term)
        else:
            raise PolynomialParseError(f"expected '+' or '-', found {value!r}", at)


# ---------------------------------------------------------------------------
# linear substitution


def linear_substitute(p: Polynomial, mapping: dict[int, Polynomial]) -> Polynomial:
    """Substitute variables by polynomials of degree at most one, all at once.

    The substitution is simultaneous: every variable of p in the mapping is
    replaced by its image, and the variables of an image are never
    substituted again, even when the mapping names them too.  Variables
    absent from the mapping are left alone, which makes the identity
    substitution the empty dict.

    The expansion is one pass in int arithmetic over one common
    denominator.  Each image is scaled to int coefficients by d, the lcm of
    the images' denominators, and each power of a scaled image that p needs
    is built once.  A term of p with k substituted factors is expanded into
    one int accumulator, scaled by q*coeff*d^(top-k), where q is the lcm of
    p's denominators and top the largest k; each output coefficient is
    then one Fraction(c, q*d^top).
    """
    d = 1
    for code, image in mapping.items():
        if image.total_degree() > 1:
            raise ValueError(
                f"image of {var_name(code)} has degree {image.total_degree()} > 1"
            )
        for _, c in image.items():
            d = lcm(d, c.denominator)
    scaled = {
        code: {mono: c.numerator * (d // c.denominator) for mono, c in image.items()}
        for code, image in mapping.items()
    }
    q = lcm(*(c.denominator for c in p._terms.values()))
    top = max((sum(e for v, e in mono if v in scaled) for mono in p._terms), default=0)

    powers: dict[tuple[int, int], dict] = {}  # (code, e) -> (d*image)^e as int terms

    def power(code: int, e: int) -> dict:
        got = powers.get((code, e))
        if got is None:
            below = power(code, e - 1) if e > 1 else {MONO_ONE: 1}
            got = powers[code, e] = _int_product(below, scaled[code])
        return got

    acc: dict = {}
    for mono, coeff in p._terms.items():
        fixed = tuple((v, e) for v, e in mono if v not in scaled)
        hit = [(v, e) for v, e in mono if v in scaled]
        k = sum(e for _, e in hit)
        cur = {fixed: coeff.numerator * (q // coeff.denominator) * d ** (top - k)}
        for v, e in hit:
            cur = _int_product(cur, power(v, e))
        for m, c in cur.items():
            acc[m] = acc.get(m, 0) + c
    den = q * d**top
    return Polynomial({m: Fraction(c, den) for m, c in acc.items() if c})


def _int_product(a: dict, b: dict) -> dict:
    """The product of two polynomials held as monomial -> int dicts."""
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = mono_mul(ma, mb)
            out[m] = out.get(m, 0) + ca * cb
    return out


# ---------------------------------------------------------------------------
# jet points and truncated series


def _coeffs(values, m: int, what: str) -> tuple[Fraction, ...]:
    if isinstance(values, dict):
        out = [Fraction(0)] * (m + 1)
        for idx, val in values.items():
            if not 0 <= idx <= m:
                raise ValueError(f"{what} coefficient index {idx} out of range")
            out[idx] = Fraction(val)
        return tuple(out)
    out = tuple(Fraction(v) for v in values)
    if not out:
        return (Fraction(0),) * (m + 1)
    if len(out) != m + 1:
        raise ValueError(f"{what} needs exactly {m + 1} coefficients")
    return out


@dataclass(frozen=True)
class JetPoint:
    """A closed point of the m-jet space of affine 3-space: one truncated
    power series in t per ambient coordinate."""

    xs: tuple[Fraction, ...]
    ys: tuple[Fraction, ...]
    zs: tuple[Fraction, ...]

    def __post_init__(self):
        if not (len(self.xs) == len(self.ys) == len(self.zs)) or not self.xs:
            raise ValueError("coefficient lists must share length m+1 >= 1")

    @classmethod
    def make(cls, m: int, x=(), y=(), z=()) -> "JetPoint":
        return cls(_coeffs(x, m, "x"), _coeffs(y, m, "y"), _coeffs(z, m, "z"))

    @property
    def order(self) -> int:
        return len(self.xs) - 1

    def family(self, family: str) -> tuple[Fraction, ...]:
        return {X: self.xs, Y: self.ys, Z: self.zs}[family]


def _check_ambient(f: Polynomial):
    allowed = {var_code(X, 0), var_code(Y, 0), var_code(Z, 0)}
    bad = f.variables() - allowed
    if bad:
        names = ", ".join(sorted(var_name(c) for c in bad))
        raise ValueError(f"not an ambient polynomial (uses {names})")


def _integral(c):
    """c as an int when it is a whole number, else unchanged: the series
    expansion multiplies ints wherever it can and Fractions only where it must."""
    return c.numerator if c.denominator == 1 else c


def _expand_packed(f: Polynomial, series: dict, mask: int, m: int) -> dict:
    """Packed terms of f(X(t), Y(t), Z(t)) modulo t^(m+1).

    series maps each ambient family to its series on packed monomials whose
    lowest field, selected by mask, holds the power of t.  Powers of a
    series are built once and reused; every product drops t powers above m
    before it forms them.  Each coefficient of f is applied once, when its
    term is added to the sum.
    """
    powers = {family: [s] for family, s in series.items()}  # [k] is s^(k+1)
    acc: dict = {}
    for mono, coeff in f.items():
        cur = {0: 1}  # the monomial 1
        for code, exp in mono:
            family = var_family(code)
            known = powers[family]
            while len(known) < exp:
                known.append(_K.mul_terms(known[-1], series[family], mask, m))
            cur = _K.mul_terms(cur, known[exp - 1], mask, m)
        acc = _K.add_scaled(acc, cur, _integral(coeff))
    return acc


def t_order(point: JetPoint, g: Polynomial):
    """t-adic order of g along the jet, computed modulo t^(m+1).

    Returns None when g vanishes to order > m; with truncated data that is
    all that can be said ("at least m+1").
    """
    _check_ambient(g)
    m = point.order
    # a packed monomial with the t field alone: {k: c} is c*t^k
    series = {
        family: {k: _integral(c) for k, c in enumerate(point.family(family)) if c}
        for family in (X, Y, Z)
    }
    mask = (1 << _K.field_bits(m)) - 1
    return min(_expand_packed(g, series, mask, m), default=None)


def evaluate(p: Polynomial, values: dict[int, Fraction]) -> Fraction:
    """Value of p at a point given as variable-code -> rational; absent
    variables count as zero.  A term stops at its first zero factor, and
    only the terms that survive are summed."""
    total = 0
    get = values.get
    for mono, coeff in p.items():
        for code, exp in mono:
            v = get(code)
            if not v:
                break
            coeff = coeff * (v if exp == 1 else v**exp)
        else:
            total += coeff
    return Fraction(total)


def jet_point_values(pt: JetPoint) -> dict[int, Fraction]:
    """The coordinates of a jet point, keyed by jet-variable code."""
    out = {}
    for fam, coeffs in ((X, pt.xs), (Y, pt.ys), (Z, pt.zs)):
        for i, c in enumerate(coeffs):
            out[var_code(fam, i)] = c
    return out


# ---------------------------------------------------------------------------
# symbolic truncated-series substitution (general series; the jet equations
# come from jets.expand_ambient)


def substitute_series(f: Polynomial, x_coeffs, y_coeffs, z_coeffs, m: int):
    """Expand f(X(t), Y(t), Z(t)) modulo t^(m+1).

    f must be ambient (variables x0, y0, z0 only); each series argument is a
    sequence of m+1 coefficient polynomials.  Returns the list of the m+1
    coefficient polynomials of t^0..t^m.  Work happens on packed monomials
    with an explicit t field so products can drop unneeded high t powers
    before they form them, and on int coefficients wherever the inputs are
    whole numbers; the results are Fraction-valued Polynomials as usual.
    """
    if m < 0:
        raise ValueError("series order must be nonnegative")
    _check_ambient(f)
    series = {}
    for family, coeffs in ((X, x_coeffs), (Y, y_coeffs), (Z, z_coeffs)):
        lifted = [_coerce(c) for c in coeffs]
        if any(c is NotImplemented for c in lifted):
            raise TypeError("series coefficients must be polynomials or rationals")
        if len(lifted) != m + 1:
            raise ValueError(f"{family} series needs exactly {m + 1} coefficients")
        series[family] = lifted

    codes: set[int] = set()
    top = 0  # the largest exponent in any series coefficient
    for lifted in series.values():
        for c in lifted:
            codes.update(c.variables())
            top = max(top, max((e for mono, _ in c.items() for _, e in mono), default=0))
    if T_CODE in codes:
        raise ValueError("series coefficients may not use the reserved t slot")
    # field 0 holds t, field k the k-th code in descending order.  No field
    # of a product carries: t stops at m, and a variable's exponent in a
    # product of at most deg f series terms is at most deg f * top.
    ring = tuple(sorted(codes, reverse=True))
    bits = _K.field_bits(max(m, f.total_degree() * top))
    mask = (1 << bits) - 1
    shift = {code: bits * k for k, code in enumerate(ring, 1)}

    packed_series = {}
    for family, lifted in series.items():
        packed_series[family] = {
            sum(e << shift[code] for code, e in mono) + i: _integral(coeff)
            for i, c in enumerate(lifted)
            for mono, coeff in c.items()
        }

    acc = _expand_packed(f, packed_series, mask, m)

    # read each term's set fields only, lowest slot (highest code) first, so
    # the monomial comes out in descending code order
    buckets: list[dict] = [{} for _ in range(m + 1)]
    for mono, coeff in acc.items():
        pairs = []
        rest = mono >> bits
        slot = 0
        while rest:
            skip = ((rest & -rest).bit_length() - 1) // bits
            rest >>= skip * bits
            slot += skip
            pairs.append((ring[slot], rest & mask))
            rest >>= bits
            slot += 1
        buckets[mono & mask][tuple(pairs)] = (
            coeff if type(coeff) is Fraction else Fraction(coeff)
        )
    return [Polynomial(terms) for terms in buckets]

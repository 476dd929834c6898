"""Sparse multivariate polynomials with exact rational coefficients.

Everything downstream (jet equations, Groebner computations, certificate
checks) is built on the types here.  A Polynomial's coefficients are
``fractions.Fraction``, so every identity in the package is decided by
exact equality, never by a tolerance.

A point, such as a witness jet or a monomial arc, is a dict from variable
code to rational, absent codes zero; ``evaluate`` reads a polynomial there.

``substitute_series`` is the general truncated series substitution: any
polynomial coefficients in the x, y and z series.  It is plain Polynomial
arithmetic with t as the reserved top-ranked variable, so t leads every
monomial that holds it and each product drops the terms past t^m.  Packed
monomials belong to the Groebner kernel alone.  The jet equations
themselves, f at the generic jet, do not go through it:
``jets.expand_ambient`` writes them down by the multinomial theorem, and the
tests hold the two against each other.

Variables
---------
A variable is a (family, index) pair packed into a single int code:

* families, from lowest to highest rank: ``z`` < ``y`` < ``x`` < ``w``,
  where ``w`` holds auxiliary slots used by radical/saturation tricks, and
  the reserved series variable ``t`` above them all;
* within a family a higher jet index is a higher code.

Auxiliary slots sorting above every jet variable is what lets the engine
eliminate a fresh ``w``: its elimination order needs ``w`` to be the
highest-ranked variable of the ring.

Monomials are tuples of (code, exponent) pairs sorted by descending code
with no zero exponents; the empty tuple is the monomial 1.

Printing uses a separate *display* ranking (families ``t > w > x > y > z``
but lower index first within a family, terms sorted by ungraded reverse
lexicographic comparison).  That is the one documented textual form; parse
and print round-trip bit-exactly.  Within a family the display ranking is
the code order reversed, so the descending display order is the ascending
order of ``_display_place``: a monomial's pairs in (z, y, x, w, t) blocks,
each family's pairs as they stand in the monomial.
"""

from __future__ import annotations

import string
from fractions import Fraction
from math import lcm

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


def _display_place(mono: Monomial) -> tuple:
    """Where mono stands in the display order: its pairs split by family into
    the blocks (z, y, x, w, t), each block's pairs as they stand in mono.
    Ascending places are descending display order (see the module
    docstring)."""
    blocks: tuple[list, ...] = ([], [], [], [], [])
    for pair in mono:
        blocks[pair[0] >> _INDEX_BITS].append(pair)
    return tuple(map(tuple, blocks))


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
        """One shared object per code, like zero and one."""
        got = _VARIABLES.get(code)
        if got is None:
            got = _VARIABLES[code] = cls({((code, 1),): Fraction(1)})
        return got

    # -- inspection --------------------------------------------------------

    def items(self):
        return self._terms.items()

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

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)})"


_ZERO = Polynomial({})
_ONE = Polynomial({MONO_ONE: Fraction(1)})
_VARIABLES: dict[int, Polynomial] = {}


def _coerce(value):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    return NotImplemented


# ---------------------------------------------------------------------------
# formatting


def format_polynomial(p: Polynomial) -> str:
    """Canonical textual form; parse_polynomial inverts it bit-exactly.

    Terms stand in ascending _display_place, and a term's factors in
    descending display rank: its place's blocks from t down to z, each block
    reversed so that the lower index comes first.  ``jets.expand_text``
    writes the same order and text for the ``expand`` command straight from
    the compositions; both join their terms in _join_terms."""
    rows = []
    for mono, coeff in p._terms.items():
        num, den = coeff.numerator, coeff.denominator
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        place = _display_place(mono)
        parts = [
            var_name(code) if e == 1 else f"{var_name(code)}^{e}"
            for block in reversed(place)
            for code, e in reversed(block)
        ]
        if not parts or mag != "1":
            parts.insert(0, mag)
        rows.append((place, num < 0, "*".join(parts)))
    # places differ between monomials, so the sort never compares past them
    rows.sort()
    return _join_terms(rows)


def _join_terms(rows: list) -> str:
    """The text of a polynomial from its terms' rows in display order, each
    row ending in (negative, unsigned text), joined by their signs; "0"
    when there is none.  Signs and texts are joined as they stand, with no
    string made per term."""
    if not rows:
        return "0"
    chunks = []
    for row in rows:
        chunks.append(" - " if row[-2] else " + ")
        chunks.append(row[-1])
    chunks[0] = "-" if rows[0][-2] else ""  # no spaces around the leading sign
    return "".join(chunks)


# ---------------------------------------------------------------------------
# parsing


class PolynomialParseError(ValueError):
    """Parse failure; carries the 0-based offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_NUMBER, _NAME, _OP, _END = "number", "name", "op", "end"


# ASCII only: str.isdigit and str.isalpha take other scripts' digits too
_DIGITS = frozenset(string.digits)
_LETTERS = frozenset(string.ascii_letters)


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append((_NUMBER, text[i:j], i))
            i = j
            continue
        if ch in _LETTERS:
            j = i + 1
            while j < n and text[j] in _DIGITS:
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
# point evaluation and truncated-series substitution (general series; the
# jet equations come from jets.expand_ambient)


def _check_ambient(f: Polynomial):
    allowed = {var_code(X, 0), var_code(Y, 0), var_code(Z, 0)}
    bad = f.variables() - allowed
    if bad:
        names = ", ".join(sorted(var_name(c) for c in bad))
        raise ValueError(f"not an ambient polynomial (uses {names})")


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


def substitute_series(f: Polynomial, x_coeffs, y_coeffs, z_coeffs, m: int):
    """Expand f(X(t), Y(t), Z(t)) modulo t^(m+1).

    f must be ambient (variables x0, y0, z0 only); each series argument is a
    sequence of m+1 coefficient polynomials, none of them in t.  Returns the
    list of the m+1 coefficient polynomials of t^0..t^m.  Each series is one
    Polynomial in t, the T_CODE slot, which ranks above every variable and so
    leads every monomial that holds it: a product keeps the monomials that
    sort below t^(m+1), and the power of t is read off each monomial's first
    pair.  Powers of a series are built once and reused.
    """
    if m < 0:
        raise ValueError("series order must be nonnegative")
    _check_ambient(f)
    t = Polynomial.variable(T_CODE)
    series = {}
    for family, coeffs in ((X, x_coeffs), (Y, y_coeffs), (Z, z_coeffs)):
        lifted = [_coerce(c) for c in coeffs]
        if any(c is NotImplemented for c in lifted):
            raise TypeError("series coefficients must be polynomials or rationals")
        if len(lifted) != m + 1:
            raise ValueError(f"{family} series needs exactly {m + 1} coefficients")
        if any(T_CODE in c.variables() for c in lifted):
            raise ValueError("series coefficients may not use the reserved t slot")
        series[var_code(family, 0)] = sum((c * t**i for i, c in enumerate(lifted)), _ZERO)
    cap = ((T_CODE, m + 1),)

    def product(a: Polynomial, b: Polynomial) -> Polynomial:
        return Polynomial({mono: c for mono, c in (a * b).items() if mono < cap})

    powers = {code: [s] for code, s in series.items()}  # [k] is s^(k+1)
    acc = _ZERO
    for mono, coeff in f.items():
        cur = _ONE
        for code, exp in mono:
            known = powers[code]
            while len(known) < exp:
                known.append(product(known[-1], known[0]))
            cur = product(cur, known[exp - 1])
        acc = acc + cur * coeff

    buckets: list[dict] = [{} for _ in range(m + 1)]
    for mono, c in acc.items():
        i = mono[0][1] if mono and mono[0][0] == T_CODE else 0
        buckets[i][mono[1:] if i else mono] = c
    return [Polynomial(terms) for terms in buckets]

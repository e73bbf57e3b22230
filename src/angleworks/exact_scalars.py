"""Exact arithmetic in the ring Q[pi^(1/2), pi^(-1/2)].

Every exact value produced by this package (expected angle sums, expected
face numbers, normalizing constants) lies in the ring of rational
combinations of half-integer powers of pi.  ``PiNumber`` stores such a
value as a sparse map from the doubled exponent ``e`` (meaning
``pi^(e/2)``) to a nonzero coefficient, kept as a reduced pair of ints
``(numerator, denominator)`` with a positive denominator.  Exponents are
kept doubled so that ``sqrt(pi)`` is exactly representable.  A ``Fraction``
is built only where a coefficient leaves the class: ``terms``,
``coefficient`` and ``rational_value``.

Every sum of terms goes through ``linear_combination``: ``+``, ``-``, the
product of two ``PiNumber``s unless both are single terms, the parsers of
the text and JSON forms, and the weighted sums of the engines.  The other
products are not sums: scaling by an int or ``Fraction`` and a product of
two single terms take one cross-cancelled pair product per term, so their
results need no further gcd, and negation flips each numerator.

All arithmetic here is exact; decimal output goes through ``to_decimal``,
which evaluates with guard digits and refuses to print an ambiguously
rounded digit string.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Union

import mpmath

#: Hard cap for ``to_decimal`` requests.
MAX_DECIMAL_DIGITS = 200

_GUARD_DIGITS = 20

Scalar = Union[int, Fraction]


class DomainError(ValueError):
    """A parameter lies outside the mathematical domain of an operation."""


_Pair = tuple[int, int]


def _pair_product(p: _Pair, q: _Pair) -> _Pair:
    """The reduced product of two reduced pairs, cancelled crosswise as
    ``Fraction`` multiplies: no common factor is left to find after it."""
    (n1, d1), (n2, d2) = p, q
    g1, g2 = math.gcd(n1, d2), math.gcd(n2, d1)
    return (n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1)


class PiNumber:
    """An element of Q[pi^(1/2), pi^(-1/2)].

    Immutable; ``terms`` maps the doubled pi-exponent to its coefficient.
    The empty map is zero.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[int, Scalar] | None = None):
        self._terms: dict[int, _Pair] = {}
        for e, c in (terms or {}).items():
            if isinstance(c, float):
                raise TypeError(f"a PiNumber coefficient must be exact, not the float {c!r}")
            if c:
                q = c if isinstance(c, (int, Fraction)) else Fraction(c)
                self._terms[int(e)] = (q.numerator, q.denominator)
        self._hash: int | None = None

    @classmethod
    def _wrap(cls, terms: dict[int, _Pair]) -> "PiNumber":
        """A PiNumber that takes ``terms`` as it is: a new dict from int
        exponents to reduced pairs (numerator nonzero, denominator
        positive), which nothing else holds."""
        x = object.__new__(cls)
        x._terms = terms
        x._hash = None
        return x

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, q: Scalar) -> "PiNumber":
        return cls({0: q})

    @classmethod
    def zero(cls) -> "PiNumber":
        return cls()

    @classmethod
    def one(cls) -> "PiNumber":
        return cls({0: 1})

    @classmethod
    def pi_power(cls, half_exp: int, coeff: Scalar = 1) -> "PiNumber":
        """``coeff * pi^(half_exp/2)``."""
        return cls({half_exp: coeff})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[int, Fraction]:
        return {e: Fraction(n, d) for e, (n, d) in self._terms.items()}

    def support(self) -> tuple[int, ...]:
        """Doubled exponents with nonzero coefficient, ascending."""
        return tuple(sorted(self._terms))

    def coefficient(self, half_exp: int) -> Fraction:
        return Fraction(*self._terms.get(half_exp, (0, 1)))

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return set(self._terms) <= {0}

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise DomainError(f"not a rational number: {self}")
        return self.coefficient(0)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(other) -> "PiNumber | None":
        if isinstance(other, PiNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return PiNumber._wrap({0: (other.numerator, other.denominator)} if other else {})
        return None

    def __add__(self, other) -> "PiNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return linear_combination(((self, 1), (o, 1)))

    __radd__ = __add__

    def __neg__(self) -> "PiNumber":
        return PiNumber._wrap({e: (-n, d) for e, (n, d) in self._terms.items()})

    def __sub__(self, other) -> "PiNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return linear_combination(((self, 1), (o, -1)))

    def __rsub__(self, other) -> "PiNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return linear_combination(((o, 1), (self, -1)))

    def __mul__(self, other) -> "PiNumber":
        if isinstance(other, PiNumber):
            if len(self._terms) == 1 == len(other._terms):
                ((e1, c1),) = self._terms.items()
                ((e2, c2),) = other._terms.items()
                return PiNumber._wrap({e1 + e2: _pair_product(c1, c2)})
            return linear_combination(((self, other),))
        if isinstance(other, (int, Fraction)):
            if not other:
                return PiNumber._wrap({})
            q = (other.numerator, other.denominator)
            return PiNumber._wrap({e: _pair_product(c, q) for e, c in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, p: int) -> "PiNumber":
        if not isinstance(p, int):
            return NotImplemented
        if len(self._terms) == 1:
            ((e, (n, d)),) = self._terms.items()
            if p < 0:
                n, d = (d, n) if n > 0 else (-d, -n)
            return PiNumber._wrap({e * p: (n ** abs(p), d ** abs(p))})
        if p < 0:
            return (self ** (-p)).inverse()
        result = PiNumber.one()
        base = self
        while p:
            if p & 1:
                result = result * base
            base = base * base
            p >>= 1
        return result

    def inverse(self) -> "PiNumber":
        """Inverse of a single-term value; general quotients are rejected."""
        if not self._terms:
            raise ZeroDivisionError("PiNumber division by zero")
        if len(self._terms) != 1:
            raise DomainError(
                "division is only defined for single-term PiNumbers"
            )
        return self ** -1

    def __truediv__(self, other) -> "PiNumber":
        if isinstance(other, PiNumber):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("PiNumber division by zero")
            return self * (1 / Fraction(other))
        return NotImplemented

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self) -> int:
        """A rational value hashes as its ``Fraction``, so that it hashes
        like the int or ``Fraction`` it compares equal to."""
        if self._hash is None:
            if self.is_rational():
                self._hash = hash(self.rational_value())
            else:
                self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- evaluation and text -----------------------------------------------

    def to_float(self) -> float:
        """The value as a float: ``to_mpf`` with 20 surviving digits."""
        return float(self.to_mpf(20))

    def to_mpf(self, digits: int) -> mpmath.mpf:
        """The value with at least ``digits`` significant digits.  Terms of
        opposite sign can cancel many leading digits, so the working
        precision of ``evaluate`` grows until the digits that survive the
        cancellation reach ``digits``."""
        if not self._terms:
            return mpmath.mpf(0)
        top = self._top_exponent()
        dps = digits + 10
        while True:
            value = self.evaluate(dps)
            if value and dps - (top - mpmath.mag(value) * math.log10(2)) >= digits:
                return value
            dps *= 2

    def _top_exponent(self) -> float:
        """The decimal exponent of the largest term, to within a digit."""
        return max(
            (n.bit_length() - d.bit_length()) * math.log10(2)
            + e / 2 * math.log10(math.pi)
            for e, (n, d) in self._terms.items()
        )

    def evaluate(self, dps: int = 30) -> mpmath.mpf:
        """Evaluate at ``dps`` decimal digits of working precision."""
        with mpmath.workdps(dps):
            total = mpmath.mpf(0)
            for e, (n, d) in self._terms.items():
                term = mpmath.mpf(n) / d
                if e:
                    term *= mpmath.power(mpmath.pi, mpmath.mpf(e) / 2)
                total += term
            return +total

    def __str__(self) -> str:
        return format_pinumber(self)

    def __repr__(self) -> str:
        return f"PiNumber({format_pinumber(self)!r})"


PI = PiNumber.pi_power(2)


def linear_combination(pairs: Iterable[tuple[PiNumber, Scalar | PiNumber]]) -> PiNumber:
    """The sum of ``x * w`` over ``pairs``: the one accumulator for exact
    values, behind ``PiNumber``'s own ``+``, ``-`` and ``*`` too.  An int or
    ``Fraction`` weight is the single term pi^0.  Each pi-exponent keeps one
    integer numerator over the lcm of its terms' denominators; products stay
    unreduced, so a term costs one gcd and each exponent one final gcd.  An
    exponent reached by a single term whose weight is +-1 holds a
    coefficient of ``x`` unchanged up to sign, already in lowest terms, and
    skips that gcd."""
    acc: dict[int, tuple[int, int, bool]] = {}  # exponent: (num, den, reduced)
    for x, w in pairs:
        for e2, (n2, d2) in (w._terms.items() if isinstance(w, PiNumber)
                             else ((0, (w.numerator, w.denominator)),)):
            unit = d2 == 1 and n2 in (1, -1)
            for e1, (n1, d1) in x._terms.items():
                e, num, den = e1 + e2, n1 * n2, d1 * d2
                if e in acc:
                    n0, d0, _ = acc[e]
                    g = math.gcd(d0, den)
                    q = den // g  # 1 when den divides d0: then d0 is the lcm
                    acc[e] = (n0 * q + num * (d0 // g), d0 * q, False)
                else:
                    acc[e] = (num, den, unit)
    terms = {}
    for e, (num, den, reduced) in acc.items():
        if num:
            g = 1 if reduced else math.gcd(num, den)
            terms[e] = (num // g, den // g)
    return PiNumber._wrap(terms)


def exact_scaled(x, scale: int = 2) -> int | None:
    """``scale * x`` as an int when ``x`` is an int or Fraction that makes
    it one, else None: the one test that sends a parameter to the exact
    path (half-integers for ``scale=2``) rather than to numeric evaluation.
    A NaN or infinite ``x`` fits neither path and raises ``DomainError``."""
    if isinstance(x, (int, Fraction)):
        y = scale * Fraction(x)
        if y.denominator == 1:
            return int(y)
    elif not math.isfinite(x):
        raise DomainError(f"parameter {x} is not a finite number")
    return None


# -- Gamma at half-integer arguments ---------------------------------------


@lru_cache(maxsize=None)
def gamma_half(t: int) -> PiNumber:
    """Gamma(t/2), exactly, for a positive integer ``t``.

    Even ``t`` gives a pure rational, odd ``t`` a rational multiple of
    sqrt(pi).
    """
    if t <= 0:
        raise DomainError(f"gamma_half requires t >= 1, got {t}")
    if t % 2 == 0:
        return PiNumber.from_rational(math.factorial(t // 2 - 1))
    # Gamma(t/2) = (t-2)!! / 2^((t-1)/2) * sqrt(pi)
    num = 1
    for j in range(1, t - 1, 2):
        num *= j
    return PiNumber.pi_power(1, Fraction(num, 2 ** ((t - 1) // 2)))


@lru_cache(maxsize=None)
def c_beta(twice_beta: int) -> PiNumber:
    """c_beta = Gamma(beta + 3/2) / (sqrt(pi) Gamma(beta + 1)), beta > -1."""
    if twice_beta <= -2:
        raise DomainError(f"c_beta requires beta > -1, got 2*beta={twice_beta}")
    return gamma_half(twice_beta + 3) / (gamma_half(1) * gamma_half(twice_beta + 2))


def c_tilde_beta(twice_beta: int) -> PiNumber:
    """c~_beta = Gamma(beta) / (sqrt(pi) Gamma(beta - 1/2)) = c_(beta - 3/2),
    beta > 1/2."""
    if twice_beta <= 1:
        raise DomainError(
            f"c_tilde_beta requires beta > 1/2, got 2*beta={twice_beta}"
        )
    return c_beta(twice_beta - 3)


def normalizing_constant(d: int, twice_beta: int, family: str) -> PiNumber:
    """Exact density normalizing constant of the d-dimensional law.

    ``family='beta'``: Gamma(d/2 + beta + 1) / (pi^(d/2) Gamma(beta + 1)).
    ``family='betaprime'``: Gamma(beta) / (pi^(d/2) Gamma(beta - d/2)), the
    beta constant at beta - d/2 - 1.
    """
    if d < 1:
        raise DomainError(f"dimension must be positive, got {d}")
    if family == "beta":
        if twice_beta <= -2:
            raise DomainError("beta family requires beta > -1")
        pi_d2 = PiNumber.pi_power(d)
        return gamma_half(d + twice_beta + 2) / (pi_d2 * gamma_half(twice_beta + 2))
    if family == "betaprime":
        if twice_beta <= d:
            raise DomainError("betaprime family requires beta > d/2")
        return normalizing_constant(d, twice_beta - d - 2, "beta")
    raise DomainError(f"unknown family {family!r}")


# -- decimal output ---------------------------------------------------------


def to_decimal(x: PiNumber, digits: int) -> str:
    """Correctly rounded decimal expansion of ``x`` with ``digits`` places.

    Rational values are rounded exactly (ties to even).  Pi-valued terms
    are evaluated at ``digits + 20`` guard digits and the rounding is
    checked to be unambiguous.
    """
    if digits < 1:
        raise DomainError("digits must be positive")
    if digits > MAX_DECIMAL_DIGITS:
        raise DomainError(f"digits capped at {MAX_DECIMAL_DIGITS}")
    scale = 10 ** digits
    if x.is_rational():
        q = x.rational_value() * scale
        scaled = round(q)  # Fraction rounds ties to even
    else:
        # dps counts significant digits: those before the point come first
        dps = digits + _GUARD_DIGITS + 5 + max(0, math.ceil(x._top_exponent()))
        with mpmath.workdps(dps):
            val = x.evaluate(dps) * scale
            nearest = mpmath.nint(val)
            if abs(val - nearest) > mpmath.mpf("0.5") - mpmath.mpf(10) ** (-10):
                raise ArithmeticError(
                    f"ambiguous rounding of {x} at {digits} digits"
                )
            scaled = int(nearest)
    sign = "-" if scaled < 0 else ""
    s = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


# -- canonical text and JSON forms ------------------------------------------
#
# str(int) and int(str) refuse more than 4,300 digits (sys.int_info), and
# exact coefficients grow past that; longer ints are split at a power of ten.

_SPLIT_DIGITS = 4000


def _int_text(n: int) -> str:
    """str(n) for an int of any size."""
    if n < 0:
        return "-" + _int_text(-n)
    if n.bit_length() <= 3 * _SPLIT_DIGITS:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half the digits
    hi, lo = divmod(n, 10**k)
    return _int_text(hi) + _int_text(lo).zfill(k)


def _text_int(text: str) -> int:
    """int(text) for a decimal string of any length."""
    if len(text) <= _SPLIT_DIGITS:
        return int(text)
    if text[0] == "-":
        return -_text_int(text[1:])
    k = len(text) // 2
    return _text_int(text[:k]) * 10 ** (len(text) - k) + _text_int(text[k:])


def _pi_factor_str(e: int) -> str:
    if e == 0:
        return ""
    if e == 2:
        return "pi"
    if e % 2 == 0:
        return f"pi^{e // 2}"
    return f"pi^({e}/2)"


def format_pinumber(x: PiNumber) -> str:
    """Canonical text form: terms ascending by exponent, e.g.
    ``539/288 * pi^-2 - 1/6``."""
    if x.is_zero():
        return "0"
    parts: list[str] = []
    for i, e in enumerate(x.support()):
        n, d = x._terms[e]
        coeff = _int_text(abs(n))
        if d != 1:
            coeff += "/" + _int_text(d)
        pi_part = _pi_factor_str(e)
        body = f"{coeff} * {pi_part}" if pi_part else coeff
        if i == 0:
            parts.append(f"-{body}" if n < 0 else body)
        else:
            parts.append(f"- {body}" if n < 0 else f"+ {body}")
    return " ".join(parts)


_TERM_RE = re.compile(
    r"""^\s*
    (?P<num>\d+)(?:/(?P<den>\d+))?          # coefficient
    (?:\s*\*\s*pi(?:\^(?P<exp>\(?-?\d+(?:/2\)?)?|-?\d+))?)?  # pi factor
    \s*$""",
    re.VERBOSE,
)


def parse_pinumber(text: str) -> PiNumber:
    """Parse the canonical text form back into a PiNumber."""
    s = text.strip()
    if not s:
        raise ValueError(f"cannot parse PiNumber {text!r}")
    if s == "0":
        return PiNumber.zero()
    # split into signed chunks; leading sign optional
    chunks = re.split(r"\s+(?=[+-]\s)", s if s[0] in "+-" else "+ " + s)
    pairs = []
    for chunk in chunks:
        chunk = chunk.strip()
        sign = -1 if chunk.startswith("-") else 1
        body = chunk[1:].strip() if chunk[0] in "+-" else chunk
        m = _TERM_RE.match(body)
        if not m:
            raise ValueError(f"cannot parse PiNumber term {chunk!r}")
        num = _text_int(m.group("num"))
        den = _text_int(m.group("den") or "1")
        if den == 0:
            raise ValueError(f"cannot parse PiNumber {text!r}: zero denominator")
        exp_txt = m.group("exp")
        if "pi" not in body:
            e = 0
        elif exp_txt is None:
            e = 2
        else:
            exp_txt = exp_txt.strip("()")
            if exp_txt.endswith("/2"):
                e = int(exp_txt[:-2])
            else:
                e = 2 * int(exp_txt)
        pairs.append((PiNumber.pi_power(e), sign * Fraction(num, den)))
    return linear_combination(pairs)


def pinumber_to_json(x: PiNumber) -> list[dict[str, str | int]]:
    """JSON form: list of {half_exp, num, den}, ascending by exponent."""
    return [{"half_exp": e, "num": _int_text(x._terms[e][0]), "den": _int_text(x._terms[e][1])}
            for e in x.support()]


def pinumber_from_json(data: Iterable[Mapping]) -> PiNumber:
    return linear_combination(
        (PiNumber.pi_power(int(item["half_exp"])),
         Fraction(_text_int(str(item["num"])), _text_int(str(item["den"]))))
        for item in data
    )

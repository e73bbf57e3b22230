"""Exact power-series arithmetic over rationals.

Two kernels live here.

* The residue kernel works with even power series in y = x^2.  With
  S = sin x / x, every power of sin x is x^a S^a, and the integral of
  sin^a from 0 is x^(a+1) G_a with [y^j] G_a = [y^j] S^a / (a + 1 + 2j).
  So the residue of (int_0^x sin^a)^p / sin^q x is the single coefficient
  [y^N] of G_a^p S^-q, N = (q - p(a+1) - 1) / 2, or zero when that is not a
  nonnegative integer.  Powers of any integer sign come from J.C.P.
  Miller's O(N^2) recurrence, the coefficient from one dot product, and
  the prefixes of S^alpha and G_a are kept per exponent and grown on
  demand, so a row of residues with one denominator builds its S^-q once.
  Each series is a list of integer numerators over one common denominator
  (S over lcm(1, 3, ..., 2n - 1), G_a over that of S^a times
  lcm(a + 1, a + 3, ...)), so the recurrence and the dot product run on
  Python ints and a ``Fraction`` is formed once per coefficient returned.
  ``residue_coefficient`` and ``sinc_coefficient`` are the only entry
  points; the representation stays inside this module.
* ``LaurentSeries`` is a dense coefficient window ``[valuation, order)``;
  ``order is None`` means the series is exactly known at every exponent (a
  Laurent polynomial).  It carries the bivariate ``ugly_coefficient``
  extraction, the independent cross-check route of ``verify``.

Every coefficient returned is a ``Fraction``; pi-factors never enter a
series, they are multiplied in by the callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .exact_scalars import DomainError, PiNumber


@dataclass(frozen=True)
class LaurentSeries:
    valuation: int
    coeffs: tuple[Fraction, ...]
    order: int | None  # exponents >= order are unknown; None = exact

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        return add(self, other)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return add(self, scale(other, -1))

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        return multiply(self, other)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0" + (f" + O(x^{self.order})" if self.order is not None else "")
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"({c})*x^{self.valuation + i}")
        tail = f" + O(x^{self.order})" if self.order is not None else ""
        return " + ".join(parts) + tail


def laurent(
    valuation: int, coeffs: Sequence[Fraction | int], order: int | None = None
) -> LaurentSeries:
    """Normalized constructor: strips leading zeros, pads to the order."""
    cs = [Fraction(c) for c in coeffs]
    if order is not None:
        want = order - valuation
        if want < 0:
            raise ValueError("order must be >= valuation")
        cs = cs[:want] + [Fraction(0)] * (want - len(cs))
    # strip leading zeros
    lead = 0
    while lead < len(cs) and cs[lead] == 0:
        lead += 1
    valuation += lead
    cs = cs[lead:]
    if order is None:
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            valuation = 0
    else:
        if not cs:
            valuation = order
    return LaurentSeries(valuation, tuple(cs), order)


ZERO = laurent(0, [])
ONE = laurent(0, [1])


def monomial(exp: int, coeff: Fraction | int = 1) -> LaurentSeries:
    return laurent(exp, [coeff])


def coefficient(s: LaurentSeries, j: int) -> Fraction:
    """Coefficient of x^j; raises if j is beyond the known window."""
    if s.order is not None and j >= s.order:
        raise DomainError(
            f"coefficient of x^{j} unknown (series truncated at order {s.order})"
        )
    i = j - s.valuation
    if i < 0 or i >= len(s.coeffs):
        return Fraction(0)
    return s.coeffs[i]


def residue(s: LaurentSeries) -> Fraction:
    """Coefficient of x^{-1}; raises if the window does not reach it."""
    if s.order is not None and s.order <= -1:
        raise DomainError(
            "residue not determined: series order must exceed -1 "
            f"(got order {s.order}); increase the truncation order"
        )
    return coefficient(s, -1)


def add(s: LaurentSeries, t: LaurentSeries) -> LaurentSeries:
    if s.order is None and t.order is None:
        order = None
    elif s.order is None:
        order = t.order
    elif t.order is None:
        order = s.order
    else:
        order = min(s.order, t.order)
    val = min(s.valuation, t.valuation)
    top = max(s.valuation + len(s.coeffs), t.valuation + len(t.coeffs))
    if order is not None:
        top = min(max(top, val), order)
    cs = [Fraction(0)] * (top - val)
    for src in (s, t):
        for i, c in enumerate(src.coeffs):
            j = src.valuation + i - val
            if j < len(cs):
                cs[j] += c
    return laurent(val, cs, order)


def scale(s: LaurentSeries, q: Fraction | int) -> LaurentSeries:
    q = Fraction(q)
    if q == 0:
        return laurent(0, [], s.order)
    return laurent(s.valuation, [c * q for c in s.coeffs], s.order)


def _mul_order(s: LaurentSeries, t: LaurentSeries) -> int | None:
    # x^N coefficient of s*t needs all t-coefficients below N - val(s), etc.
    if s.order is None and t.order is None:
        return None
    cands = []
    if t.order is not None:
        cands.append(t.order + s.valuation)
    if s.order is not None:
        cands.append(s.order + t.valuation)
    return min(cands)


def multiply(s: LaurentSeries, t: LaurentSeries) -> LaurentSeries:
    order = _mul_order(s, t)
    if s.is_zero() or t.is_zero():
        return laurent(0, [], order)
    val = s.valuation + t.valuation
    if order is None:
        length = len(s.coeffs) + len(t.coeffs) - 1
    else:
        length = order - val
    cs = [Fraction(0)] * length
    for i, a in enumerate(s.coeffs):
        if a == 0:
            continue
        jmax = min(len(t.coeffs), length - i)
        for j in range(jmax):
            b = t.coeffs[j]
            if b:
                cs[i + j] += a * b
    return laurent(val, cs, order)


def reciprocal(s: LaurentSeries) -> LaurentSeries:
    """1/s to the same relative precision; leading coefficient must exist."""
    if s.is_zero():
        raise DomainError("reciprocal of a series that is zero to its order")
    if s.order is None:
        if len(s.coeffs) == 1:
            return laurent(-s.valuation, [Fraction(1) / s.coeffs[0]])
        raise DomainError(
            "reciprocal of an exact multi-term series is an infinite series; "
            "truncate the input first"
        )
    length = s.order - s.valuation
    a = s.coeffs
    inv0 = Fraction(1) / a[0]
    b = [Fraction(0)] * length
    b[0] = inv0
    for n in range(1, length):
        acc = Fraction(0)
        for i in range(1, min(n, len(a) - 1) + 1):
            ai = a[i]
            if ai:
                acc += ai * b[n - i]
        b[n] = -inv0 * acc
    return laurent(-s.valuation, b, -s.valuation + length)


def int_power(s: LaurentSeries, p: int) -> LaurentSeries:
    """s**p by repeated squaring; negative p goes through the reciprocal."""
    if p == 0:
        return ONE
    if p < 0:
        return int_power(reciprocal(s), -p)
    result: LaurentSeries | None = None
    base = s
    while p:
        if p & 1:
            result = base if result is None else multiply(result, base)
        p >>= 1
        if p:
            base = multiply(base, base)
    assert result is not None
    return result


def antiderivative_from_zero(s: LaurentSeries) -> LaurentSeries:
    """Termwise antiderivative vanishing at 0; input must have valuation >= 0."""
    if not s.is_zero() and s.valuation < 0:
        raise DomainError(
            "antiderivative of a series with negative valuation leaves the ring"
        )
    order = None if s.order is None else s.order + 1
    val = max(s.valuation, 0) + 1
    cs = [c / (s.valuation + i + 1) for i, c in enumerate(s.coeffs)]
    return laurent(s.valuation + 1 if s.coeffs else val, cs, order)


def derivative(s: LaurentSeries) -> LaurentSeries:
    order = None if s.order is None else s.order - 1
    cs = [c * (s.valuation + i) for i, c in enumerate(s.coeffs)]
    return laurent(s.valuation - 1, cs, order)


@lru_cache(maxsize=None)
def _sin_series(order: int) -> LaurentSeries:
    cs = []
    for j in range(max(order, 0)):
        if j % 2 == 1:
            cs.append(Fraction((-1) ** ((j - 1) // 2), math.factorial(j)))
        else:
            cs.append(Fraction(0))
    return laurent(0, cs, order)


@lru_cache(maxsize=None)
def _cos_series(order: int) -> LaurentSeries:
    cs = []
    for j in range(max(order, 0)):
        if j % 2 == 0:
            cs.append(Fraction((-1) ** (j // 2), math.factorial(j)))
        else:
            cs.append(Fraction(0))
    return laurent(0, cs, order)


@lru_cache(maxsize=None)
def sin_power(a: int, order: int) -> LaurentSeries:
    """Taylor series of (sin x)^a truncated at the given order."""
    if a < 0:
        raise DomainError("sin_power needs a >= 0; use int_power for negatives")
    if order <= a:
        raise DomainError(f"order must exceed a (got order={order}, a={a})")
    if a == 0:
        return laurent(0, [1], order)
    rel = order - a
    base = _sin_series(1 + rel)
    return int_power(base, a)


@lru_cache(maxsize=None)
def cos_power(a: int, order: int) -> LaurentSeries:
    """Taylor series of (cos x)^a truncated at the given order."""
    if a < 0:
        raise DomainError("cos_power needs a >= 0; use int_power for negatives")
    if a == 0:
        return laurent(0, [1], order)
    return int_power(_cos_series(order), a)


# -- even power series in y = x^2 ------------------------------------------------
#
# An even series f(x) = sum_k f_k x^(2k) is held as its even derivatives at
# 0, F_k = (2k)! f_k.  That scaling keeps the denominators small (for
# (x / sin x)^q a few digits where f_k has hundreds).  The F_k are kept as
# integer numerators over one common denominator, so the recurrences run on
# Python ints and a Fraction is formed once per coefficient read.


class _EvenSeries:
    """A prefix F_0 .. F_(n-1) of an even series in even-derivative form:
    F_k = nums[k] / den."""

    __slots__ = ("nums", "den")

    def __init__(self) -> None:
        self.nums: list[int] = []
        self.den = 1

    def rescale(self, factor: int) -> None:
        """The same values over den * factor."""
        if factor != 1:
            self.nums[:] = [c * factor for c in self.nums]
            self.den *= factor


@lru_cache(maxsize=None)
def _even_binomials(k: int) -> tuple[int, ...]:
    """C(2k, 2j) for j = 0..k."""
    row = [1]
    c = 1
    for i in range(2 * k):
        c = c * (2 * k - i) // (i + 1)
        if i % 2:
            row.append(c)
    return tuple(row)


def _miller_extend(f: _EvenSeries, alpha: int, out: _EvenSeries, n: int) -> _EvenSeries:
    """Extend ``out``, a prefix of the series f^alpha, in place to n
    coefficients and return it.

    J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): with P = f^alpha
    and F_0 != 0, P_k = sum_{j=1..k} ((alpha+1) j - k) C(2k, 2j) F_j P_{k-j}
    / (k F_0).  It holds for every integer alpha and needs only
    F_0 .. F_{n-1}, so a prefix can be extended later without recomputing it.
    The common denominator of f cancels, so P_k = X / (den k f_0) with the
    integer X = sum ((alpha+1) j - k) C(2k, 2j) f_j p_{k-j}; when k f_0 does
    not divide X, the prefix moves to a denominator that many times larger.
    This also makes the recurrence blind to a rescaling of f between calls.
    """
    fs, ps = f.nums, out.nums
    if not ps:
        p0 = Fraction(fs[0], f.den) ** alpha
        ps.append(p0.numerator)
        out.den = p0.denominator
    a1 = alpha + 1
    for k in range(len(ps), n):
        row = _even_binomials(k)
        x = sum((a1 * j - k) * row[j] * fs[j] * ps[k - j] for j in range(1, k + 1))
        d = k * fs[0]
        g = math.gcd(x, d)
        out.rescale(d // g)
        ps.append(x // g)
    return out


def _even_product_coefficient(f: _EvenSeries, g: _EvenSeries, n: int) -> Fraction:
    """[x^(2n)] of f * g."""
    row = _even_binomials(n)
    fs, gs = f.nums, g.nums
    dot = sum(row[i] * fs[i] * gs[n - i] for i in range(n + 1))
    return Fraction(dot, f.den * g.den * math.factorial(2 * n))


def _grow(series: _EvenSeries, n: int, den: int, term) -> None:
    """Extend ``series`` to n numerators over ``den``, a multiple of its
    denominator; ``term(j)`` is numerator j over ``den``."""
    series.rescale(den // series.den)
    series.nums.extend(term(j) for j in range(len(series.nums), n))


@lru_cache(maxsize=None)
def _sinc_prefix(alpha: int) -> _EvenSeries:
    return _EvenSeries()


def _sinc_power(alpha: int, n: int) -> _EvenSeries:
    """At least the first n coefficients of (sin x / x)^alpha, for any
    integer alpha.  S = sin x / x has F_j = (-1)^j / (2j + 1), held over
    lcm(1, 3, ..., 2n - 1).

    The series is shared by every caller with this alpha and grows in place;
    read it, never modify it.
    """
    out = _sinc_prefix(alpha)
    if len(out.nums) < n:
        if alpha == 1:
            L = math.lcm(*range(1, 2 * n, 2))
            _grow(out, n, L, lambda j: (-1) ** j * L // (2 * j + 1))
        else:
            _miller_extend(_sinc_power(1, n), alpha, out, n)
    return out


def sinc_coefficient(alpha: int, k: int) -> Fraction:
    """[x^(2k)] (sin x / x)^alpha, read from the shared prefix."""
    s = _sinc_power(alpha, k + 1)
    return Fraction(s.nums[k], s.den * math.factorial(2 * k))


@lru_cache(maxsize=None)
def _sin_integral_prefix(a: int) -> _EvenSeries:
    return _EvenSeries()


def _sin_integral_series(a: int, n: int) -> _EvenSeries:
    """At least the first n coefficients of G_a, a >= 0, where
    int_0^x sin^a = x^(a+1) G_a(x); shared and grown like ``_sinc_power``.
    F_j of G_a is that of S^a over (a + 1 + 2j), so G_a is held over the
    denominator of S^a times lcm(a + 1, a + 3, ..., a + 2n - 1); both
    factors only ever grow by whole multiples, so the old denominator
    divides the new one."""
    out = _sin_integral_prefix(a)
    if len(out.nums) < n:
        s = _sinc_power(a, n)
        L = math.lcm(*range(a + 1, a + 2 * n, 2))
        _grow(out, n, s.den * L, lambda j: s.nums[j] * (L // (a + 1 + 2 * j)))
    return out


def residue_coefficient(a: int, p: int, q: int, n: int) -> Fraction:
    """[y^n] of G_a^p S^-q, y = x^2: the residue of (int_0^x sin^a)^p /
    sin^q x when n = (q - p(a+1) - 1) / 2, as one integer dot product."""
    if p == 0:
        return sinc_coefficient(-q, n)
    num = _miller_extend(_sin_integral_series(a, n + 1), p, _EvenSeries(), n + 1)
    return _even_product_coefficient(num, _sinc_power(-q, n + 1), n)


# -- Bernoulli numbers -------------------------------------------------------


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (convention B_1 = -1/2), exact."""
    if n < 0:
        raise DomainError("Bernoulli index must be nonnegative")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * bernoulli(j)
    return -acc / (n + 1)


# -- the "ugly" bivariate coefficient extraction -----------------------------


def ugly_coefficient(
    G: LaurentSeries,
    c: PiNumber,
    M: int,
    a: int,
    variant: str,
) -> PiNumber:
    """[u^a x^{-1}] of sin(u*c*G(x)) / (tan(u/2) (sin x)^M)  (sin_over_tan)
    or of cos(u*c*G(x)) / (cot(u/2) (sin x)^M)  (cos_over_cot).

    The u-side is closed form: expanding the sine/cosine as a finite sum of
    powers of u*c*G and the co/tangent through the Bernoulli generating
    functions, the u^a coefficient is a Bernoulli-weighted sum over the
    power j, each term carrying the rational residue of G^j (sin x)^{-M}.
    ``G`` must carry enough known terms to resolve every residue.
    """
    if M < 1:
        raise DomainError("M must be a positive integer")
    if G.is_zero() or G.valuation < 1:
        raise DomainError("G must have valuation >= 1")
    if variant == "sin_over_tan":
        if a % 2 != 0:
            raise DomainError("sin_over_tan variant requires even a")
        js = range(1, a + 2, 2)
    elif variant == "cos_over_cot":
        if a % 2 != 1:
            raise DomainError("cos_over_cot variant requires odd a")
        js = range(0, a, 2)
    else:
        raise DomainError(f"unknown variant {variant!r}")

    # shared denominator (sin x)^{-M}, built to cover the smallest j
    rel_needed = M - js[0] * G.valuation + 3
    inv_sin_M = int_power(_sin_series(1 + max(rel_needed, 3)), -M)

    total = PiNumber.zero()
    for j in js:
        two_n = a + 1 - j
        B = bernoulli(two_n)
        if variant == "sin_over_tan":
            # sin(uw) -> (-1)^((j-1)/2) w^j/j!; cot(u/2) -> 2 (-1)^n B_{2n} u^{2n-1}/(2n)!
            sign = (-1) ** ((j - 1) // 2) * (-1) ** (two_n // 2)
            weight = Fraction(2 * sign, math.factorial(two_n) * math.factorial(j)) * B
        else:
            # cos(uw) -> (-1)^(j/2) w^j/j!; tan(u/2) -> 2 (-1)^(n-1) (2^{2n}-1) B_{2n} u^{2n-1}/(2n)!
            sign = (-1) ** (j // 2) * (-1) ** (two_n // 2 - 1)
            weight = (
                Fraction(2 * sign * (2 ** two_n - 1), math.factorial(two_n) * math.factorial(j))
                * B
            )
        if weight == 0:
            continue
        res = residue(multiply(int_power(G, j), inv_sin_M)) if j else residue(inv_sin_M)
        if res == 0:
            continue
        total = total + (c ** j) * (weight * res)
    return total

"""The truncated Laurent arithmetic in x that the residue routes once ran
on, kept as an independent arithmetic reference.

``LaurentSeries`` is a dense coefficient window ``[valuation, order)``;
``order is None`` means the series is exactly known at every exponent (a
Laurent polynomial).  The tests check ``series_kernel.residue_rational``,
``polytope_engine.x_over_sin_coeff``, ``verify.sin_cos_residue`` and
the bivariate ``verify.ugly_coefficient`` against it:
``ugly_coefficient_reference`` is the bivariate extraction on a
``LaurentSeries`` G.  This module holds no tests of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from angleworks.exact_scalars import DomainError, PiNumber
from angleworks.series_kernel import bernoulli


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


def ugly_coefficient_reference(
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

"""Exact power-series arithmetic over rationals: the residue kernel.

The kernel works with even power series in y = x^2.  With S = sin x / x,
every power of sin x is x^a S^a, and the integral of sin^a from 0 is
x^(a+1) G_a with [y^j] G_a = [y^j] S^a / (a + 1 + 2j).  So the residue of
(int_0^x sin^a)^p / sin^q x is the single coefficient [y^N] of G_a^p S^-q,
N = (q - p(a+1) - 1) / 2, or zero when that is not a nonnegative integer.
Powers of any integer sign come from J.C.P. Miller's O(N^2) recurrence, the
coefficient from one dot product, and the prefixes of S^alpha, cos^alpha and
G_a are kept per exponent and grown on demand, so a row of residues with one
denominator builds its S^-q once.  Each series is a list of integer
numerators over one common denominator (S over lcm(1, 3, ..., 2n - 1), G_a
over that of S^a times lcm(a + 1, a + 3, ...)), so the recurrence and the
dot product run on Python ints and a ``Fraction`` is formed once per
coefficient returned.  ``residue_coefficient``, ``sinc_coefficient`` and
``sin_cos_residue`` are the only entry points; the representation stays
inside this module.

Every coefficient returned is a ``Fraction``; pi-factors never enter a
series, they are multiplied in by the callers.  The module also holds the
Bernoulli numbers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact_scalars import DomainError


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


@lru_cache(maxsize=None)
def _cos_prefix(alpha: int) -> _EvenSeries:
    return _EvenSeries()


def _cos_power(alpha: int, n: int) -> _EvenSeries:
    """At least the first n coefficients of (cos x)^alpha, for any integer
    alpha; cos x has F_j = (-1)^j over 1.  Shared and grown like
    ``_sinc_power``."""
    out = _cos_prefix(alpha)
    if len(out.nums) < n:
        if alpha == 1:
            _grow(out, n, 1, lambda j: (-1) ** j)
        else:
            _miller_extend(_cos_power(1, n), alpha, out, n)
    return out


def sin_cos_residue(p: int, q: int) -> Fraction:
    """[x^-1] 1 / (sin^p x cos^q x) for odd p >= 1 and any integer q: the
    coefficient [y^((p-1)/2)] of S^-p cos^-q, as one integer dot product."""
    if p < 1 or p % 2 == 0:
        raise DomainError(f"sin_cos_residue needs an odd p >= 1, got p={p}")
    n = (p - 1) // 2
    return _even_product_coefficient(_sinc_power(-p, n + 1), _cos_power(-q, n + 1), n)


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

"""Exact power-series arithmetic over rationals: the residue kernel.

Every exact formula comes down to the residue of (int_0^x sin^a)^p / sin^q x.
The kernel takes it in the variable s = sin x, which keeps residues because
ds/dx = 1 at 0.  There the integral becomes

    H(s) = int_0^s t^a (1 - t^2)^(-1/2) dt = s^(a+1) h_a(s^2),
    [y^j] h_a = C(2j, j) / (4^j (a + 1 + 2j)),

and dx = ds / sqrt(1 - s^2) = dH / s^a.  So for p != -1

    Res H^p s^-q dx = Res s^-(q+a) H^p dH = Res s^-(q+a) d(H^(p+1)) / (p+1)
                    = (q + a) / (p + 1) Res H^(p+1) s^-(q+a+1) ds
                    = (q + a) / (p + 1) [y^N] h_a^(p+1),

integrating by parts, with N = (q - p(a+1) - 1) / 2 (the residue is zero
when that is not a nonnegative integer).  At p = -1 the residue is
[y^N] h_a^-1 (1 - y)^(-1/2), one dot product with the central binomials.
The series are held in z = y / 4, where [z^j] h_a(4z) = C(2j, j) / (a + 1 + 2j)
and (1 - 4z)^(-1/2) = sum C(2j, j) z^j, so [y^N] = 4^-N [z^N].  Powers of any
integer sign come from J.C.P. Miller's O(N^2) recurrence.  One cache keeps a
prefix of h_a^P per (a, P), grown on demand: the residues of a Voronoi or
Poisson f-vector, which share one a, build each h_a^P once, and P = 1 is h_a
itself.  Each prefix is a list of integer numerators over one common
denominator (h_a over lcm(a + 1, a + 3, ..., a + 2n - 1)), so the recurrence
runs on Python ints and a ``Fraction`` is formed once per coefficient
returned.  ``residue_coefficient`` and ``sin_cos_residue`` are the only entry
points; the representation stays inside this module.

Every coefficient returned is a ``Fraction``; pi-factors never enter a
series, they are multiplied in by the callers.  The module also holds the
Bernoulli numbers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact_scalars import DomainError


# -- power series in z = s^2 / 4 ----------------------------------------------


class _Series:
    """A prefix f_0 .. f_(n-1) of a power series: f_k = nums[k] / den."""

    __slots__ = ("nums", "den")

    def __init__(self) -> None:
        self.nums: list[int] = []
        self.den = 1

    def rescale(self, factor: int) -> None:
        """The same values over den * factor."""
        if factor != 1:
            self.nums[:] = [c * factor for c in self.nums]
            self.den *= factor


def _miller_extend(f: _Series, alpha: int, out: _Series, n: int) -> _Series:
    """Extend ``out``, a prefix of the series f^alpha, in place to n
    coefficients and return it.

    J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): with P = f^alpha
    and f_0 != 0, P_k = sum_{j=1..k} ((alpha+1) j - k) f_j P_{k-j} / (k f_0).
    It holds for every integer alpha and needs only f_0 .. f_{n-1}, so a
    prefix can be extended later without recomputing it.  The common
    denominator of f cancels, so P_k = X / (den k f_0) with the integer
    X = sum ((alpha+1) j - k) f_j p_{k-j}; when k f_0 does not divide X, the
    prefix moves to a denominator that many times larger.  This also makes
    the recurrence blind to a rescaling of f between calls.
    """
    fs, ps = f.nums, out.nums
    if not ps:
        p0 = Fraction(fs[0], f.den) ** alpha
        ps.append(p0.numerator)
        out.den = p0.denominator
    a1 = alpha + 1
    for k in range(len(ps), n):
        x = sum((a1 * j - k) * fs[j] * ps[k - j] for j in range(1, k + 1))
        d = k * fs[0]
        g = math.gcd(x, d)
        out.rescale(d // g)
        ps.append(x // g)
    return out


@lru_cache(maxsize=None)
def _prefix(a: int, alpha: int) -> _Series:
    return _Series()


def _power(a: int, alpha: int, n: int) -> _Series:
    """At least the first n coefficients in z of h_a(4z)^alpha, for any
    integer alpha, where int_0^s t^a (1 - t^2)^(-1/2) dt = s^(a+1) h_a(s^2).

    alpha = 1 is grown from the closed form, every other exponent by
    Miller's recurrence from that.  The series is shared by every caller
    with this a and exponent and grows in place; read it, never modify it.
    """
    out = _prefix(a, alpha)
    if len(out.nums) >= n:
        return out
    if alpha != 1:
        return _miller_extend(_power(a, 1, n), alpha, out, n)
    # over lcm(a + 1, ..., a + 2n - 1), a multiple of the old denominator
    L = math.lcm(*range(a + 1, a + 2 * n, 2))
    out.rescale(L // out.den)
    out.nums.extend(math.comb(2 * j, j) * (L // (a + 1 + 2 * j)) for j in range(len(out.nums), n))
    return out


def residue_coefficient(a: int, p: int, q: int, n: int) -> Fraction:
    """The residue of (int_0^x sin^a)^p / sin^q x when
    n = (q - p(a+1) - 1) / 2: (q + a) / (p + 1) [y^n] h_a^(p+1), or the
    dot product [y^n] h_a^-1 (1 - y)^(-1/2) at p = -1, with y = 4z."""
    if p != -1:
        h = _power(a, p + 1, n + 1)
        return Fraction((q + a) * h.nums[n], (p + 1) * h.den * 4**n)
    # (1 - 4z)^(-1/2) = sum C(2j, j) z^j
    h = _power(a, -1, n + 1)
    dot = sum(math.comb(2 * j, j) * h.nums[n - j] for j in range(n + 1))
    return Fraction(dot, h.den * 4**n)


def sin_cos_residue(p: int, q: int) -> Fraction:
    """[x^-1] 1 / (sin^p x cos^q x) for odd p >= 1 and any integer q.

    In s = sin x this is [s^(p-1)] (1 - s^2)^(-(q+1)/2) =
    (-1)^n C(-(q+1)/2, n), n = (p - 1) / 2, that is
    (q+1)(q+3)...(q+2n-1) / (2^n n!)."""
    if p < 1 or p % 2 == 0:
        raise DomainError(f"sin_cos_residue needs an odd p >= 1, got p={p}")
    n = (p - 1) // 2
    return Fraction(math.prod(range(q + 1, q + 2 * n, 2)), 2**n * math.factorial(n))


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

"""Exact power-series arithmetic over rationals: the residue kernel.

Every exact formula comes down to the residue of (int_0^x sin^a)^p / sin^q x.
The kernel takes it in the variable s = sin x, which keeps residues because
ds/dx = 1 at 0.  There the integral becomes

    H(s) = int_0^s t^a (1 - t^2)^(-1/2) dt = s^(a+1) h_a(s^2),
    [y^j] h_a = C(2j, j) / (4^j (a + 1 + 2j)),

and dx = ds / sqrt(1 - s^2) = dH / s^a.  So for p >= 0

    Res H^p s^-q dx = Res s^-(q+a) H^p dH = Res s^-(q+a) d(H^(p+1)) / (p+1)
                    = (q + a) / (p + 1) Res H^(p+1) s^-(q+a+1) ds
                    = (q + a) / (p + 1) [y^N] h_a^(p+1),

integrating by parts, with N = (q - p(a+1) - 1) / 2 (the residue is zero
when that is not a nonnegative integer).  The series are held in z = y / 4,
where [z^j] h_a(4z) = C(2j, j) / (a + 1 + 2j) and
(1 - 4z)^(-1/2) = sum C(2j, j) z^j, so [y^N] = 4^-N [z^N].  Differentiating
H gives (a + 1) h_a + 2y h_a' = (1 - y)^(-1/2), so u = h_a^P satisfies
2y u' + P(a+1) u = P (1 - y)^(-1/2) h_a^(P-1): each power is one
convolution of the power below it with the central binomials.  One cache
keeps a prefix of h_a^P per (a, P), grown on demand: the residues of a
Voronoi or Poisson f-vector, which share one a, build each h_a^P once, and
P = 1 is h_a itself.  Each prefix is a list of integer numerators over one
common denominator (h_a over lcm(a + 1, a + 3, ..., a + 2n - 1)), so the
convolutions run on Python ints and a ``Fraction`` is formed once per
coefficient returned.  ``residue_coefficient`` and ``sin_cos_residue`` are
the only entry points; the representation stays inside this module.

Every coefficient returned is a ``Fraction``; pi-factors never enter a
series, they are multiplied in by the callers.  The module also holds the
Bernoulli numbers.
"""

from __future__ import annotations

import math
import operator
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


@lru_cache(maxsize=None)
def _prefix(a: int, P: int) -> _Series:
    return _Series()


def _power(a: int, P: int, n: int) -> _Series:
    """At least the first n coefficients in z of h_a(4z)^P, P >= 1, where
    int_0^s t^a (1 - t^2)^(-1/2) dt = s^(a+1) h_a(s^2).

    h_a is grown from its closed form, then h_a^2 .. h_a^P in turn, each
    from the one below it: with u = h_a^m and v = h_a^(m-1),
    u_k = m sum_j C(2j, j) v_(k-j) / (2k + m(a+1)).  When u.den does not
    hold u_k, u moves to the least denominator that does; ``v.den`` is read
    at each step, so a v rescaled since ``u`` last grew stays correct.  The
    series are shared by every caller with this a and power and grow in
    place; read them, never modify them.
    """
    out = _prefix(a, P)
    if len(out.nums) >= n:
        return out
    v = _prefix(a, 1)
    if len(v.nums) < n:
        # over lcm(a + 1, ..., a + 2n - 1), a multiple of the old denominator
        L = math.lcm(*range(a + 1, a + 2 * n, 2))
        v.rescale(L // v.den)
        v.nums.extend(math.comb(2 * j, j) * (L // (a + 1 + 2 * j)) for j in range(len(v.nums), n))
    central = [math.comb(2 * j, j) for j in range(n)]
    for m in range(2, P + 1):
        u = _prefix(a, m)
        for k in range(len(u.nums), n):
            x = m * u.den * sum(map(operator.mul, central[: k + 1], v.nums[k::-1]))
            d = v.den * (2 * k + m * (a + 1))
            g = math.gcd(x, d)
            u.rescale(d // g)
            u.nums.append(x // g)
        v = u
    return out


def residue_coefficient(a: int, p: int, q: int) -> Fraction:
    """The residue of (int_0^x sin^a)^p / sin^q x for a, p >= 0:
    (q + a) / (p + 1) [y^N] h_a^(p+1) with y = 4z and
    N = (q - p(a+1) - 1) / 2, zero unless N is a nonnegative integer."""
    if a < 0 or p < 0:
        raise DomainError(f"residue_coefficient needs a, p >= 0, got a={a}, p={p}")
    twice_N = q - p * (a + 1) - 1
    if twice_N < 0 or twice_N % 2:
        return Fraction(0)
    N = twice_N // 2
    h = _power(a, p + 1, N + 1)
    return Fraction((q + a) * h.nums[N], (p + 1) * h.den * 4**N)


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

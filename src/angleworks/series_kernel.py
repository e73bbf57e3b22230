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
(1 - 4z)^(-1/2) = sum C(2j, j) z^j, so [y^N] = 4^-N [z^N].

Each power is grown from the one below it by a two-term recurrence.  Pair
A_j = h_a(4z)^j with B_j = (1 - 4z)^(-1/2) A_j.  Differentiating H gives
(a + 1) h_a + 2y h_a' = (1 - y)^(-1/2), and from it, with c = 2k + j(a+1)
and primes marking the coefficients of A_(j-1) and B_(j-1),

    a_k = j b'_k / c,    b_k = (j a'_k + 4 (c - 1) b_(k-1)) / c,

from the seeds A_0 = 1 and B_0 = sum C(2k, k) z^k.  So each coefficient
costs a few products, whatever its index, and h_a itself is A_1.  One
cache keeps the prefixes of the pair per (a, j), grown on demand: the
residues of a Voronoi or Poisson f-vector, which share one a, build each
h_a^j once.  A pair is two lists of integer numerators over one common
denominator, the least that holds its A prefix, so the recurrence runs on
Python ints and a ``Fraction`` is formed once per coefficient returned.
``residue_rational`` is the only entry point; the representation stays
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


# -- power series in z = s^2 / 4 ----------------------------------------------


class _Pair:
    """Prefixes of A_j = h_a(4z)^j and B_j = (1 - 4z)^(-1/2) A_j over one
    denominator: a_k = A[k] / den and b_k = B[k] / den."""

    def __init__(self) -> None:
        self.A: list[int] = []
        self.B: list[int] = []
        self.den = 1


@lru_cache(maxsize=None)
def _pair(a: int, j: int) -> _Pair:
    return _Pair()


def _power(a: int, P: int, n: int) -> _Pair:
    """A pair whose A holds at least the first n coefficients in z of
    h_a(4z)^P, P >= 1, where int_0^s t^a (1 - t^2)^(-1/2) dt = s^(a+1) h_a(s^2).

    Coefficient k of A_j needs coefficient k of B_(j-1), and coefficient k
    of B_j needs coefficient k of A_(j-1) and coefficient k - 1 of B_j, so
    the pairs j < P and A_P grow to n in turn.  Each growth of A_j moves the
    pair to the least denominator that holds the new coefficients, with
    one rescale; that denominator also holds B_j = B_0 A_j, whose
    coefficients are integer combinations of those of A_j, so B_j grows by
    exact integer division.  The pairs are shared by every caller with this
    a and grow in place; read them, never modify them.
    """
    out = _pair(a, P)
    if len(out.A) >= n:
        return out
    lo = _pair(a, 0)
    lo.A.extend(int(k == 0) for k in range(len(lo.A), n))
    lo.B.extend(math.comb(2 * k, k) for k in range(len(lo.B), n))
    for j in range(1, P + 1):
        hi = _pair(a, j)
        new = [(j * lo.B[k], (2 * k + j * (a + 1)) * lo.den) for k in range(len(hi.A), n)]
        den = math.lcm(hi.den, *(d // math.gcd(x, d) for x, d in new))
        if den != hi.den:
            f = den // hi.den
            hi.A[:] = [x * f for x in hi.A]
            hi.B[:] = [x * f for x in hi.B]
            hi.den = den
        hi.A.extend(x * den // d for x, d in new)
        for k in range(len(hi.B), n if j < P else 0):
            c = 2 * k + j * (a + 1)
            x = j * lo.A[k] * den + (4 * (c - 1) * hi.B[k - 1] * lo.den if k else 0)
            hi.B.append(x // (c * lo.den))
        lo = hi
    return out


@lru_cache(maxsize=None)
def residue_rational(a: int, p: int, q: int) -> Fraction:
    """The rational residue behind every exact formula of the package:
    [x^-1] (int_0^x sin^a)^p / sin^q x for a, p >= 0 and q >= 1.

    It is (q + a) / (p + 1) [y^N] h_a^(p+1) with y = 4z and
    N = (q - p(a+1) - 1) / 2, zero unless N is a nonnegative integer."""
    if a < 0 or p < 0 or q < 1:
        raise DomainError(f"invalid residue parameters a={a}, p={p}, q={q}")
    twice_N = q - p * (a + 1) - 1
    if twice_N < 0 or twice_N % 2:
        return Fraction(0)
    N = twice_N // 2
    h = _power(a, p + 1, N + 1)
    return Fraction((q + a) * h.A[N], (p + 1) * h.den * 4**N)


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

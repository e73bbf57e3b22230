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

Each power is grown from the one two below it by a two-term recurrence.
Differentiating H gives (a + 1) h_a + 2y h_a' = (1 - y)^(-1/2), so with
A_j = h_a(4z)^j and B_j = (1 - 4z)^(-1/2) A_j, in z,

    2z A_j' + j(a + 1) A_j = j B_(j-1),
    (1 - 4z) (2z B_j' + j(a + 1) B_j) = 4z B_j + j A_(j-1).

Coefficient k of the first reads c a_k = j b_k with c = 2k + j(a + 1),
where b marks B_(j-1); coefficient k of the second, for B_(j-1), reads
c' b_k = (j - 1) a''_k + 4 (c' - 1) b_(k-1) with c' = c - (a + 1), where
a'' marks A_(j-2).  Putting b_k = c a_k / j and b_(k-1) = (c - 2) a_(k-1) / j
into the second eliminates B:

    a_k = (4 (c' - 1)(c - 2) a_(k-1) + j (j - 1) a''_k) / (c c'),

from the seeds A_0 = 1 and a_0 = 1 / (a + 1) for A_1 = h_a, whose later
coefficients C(2k, k) / (a + 1 + 2k) the recurrence gives at j = 1.  So each
coefficient costs a few products, whatever its index, and A_P reads only
the powers P - 2, P - 4, ... of its own parity.  One cache keeps a prefix
of each A_j per (a, j), grown on demand: the residues of a Voronoi or
Poisson f-vector, which share one a, build each h_a^j once.  A prefix is a
list of integer numerators over one common denominator, a multiple of that
of A_(j-2), so the recurrence runs on Python ints and a ``Fraction`` is
formed once per coefficient returned.  ``residue_rational`` is the only
entry point; the representation stays inside this module.

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
    """A prefix of A_j = h_a(4z)^j as integer numerators over one
    denominator: a_k = A[k] / den."""

    def __init__(self) -> None:
        self.A: list[int] = []
        self.den = 1


@lru_cache(maxsize=None)
def _pair(a: int, j: int) -> _Pair:
    return _Pair()


def _power(a: int, P: int, n: int) -> _Pair:
    """A pair that holds at least the first n coefficients in z of
    h_a(4z)^P, P >= 1, where int_0^s t^a (1 - t^2)^(-1/2) dt = s^(a+1) h_a(s^2).

    Coefficient k of A_j reads coefficient k of A_(j-2) and coefficient
    k - 1 of A_j, so only the chain P, P - 2, ... grows: the loop walks down
    from P to the first power whose lower neighbour already holds n
    coefficients, or to a seed, and then grows each power of the chain in
    turn.  A growth first moves A_j's denominator D to a multiple of
    A_(j-2)'s.  Coefficient k is then x / (D c c') for an integer x; with
    g = gcd(x, c c'), the numerator x / g is prime to m = c c' / g, so the
    least common multiple of D and the coefficient's denominator is D m.
    The prefix is rescaled by the product of these m once per growth, not
    once per coefficient, which leaves the same integers.  The pairs are
    shared by every caller with this a and grow in place; read them, never
    modify them.
    """
    out = _pair(a, P)
    if len(out.A) >= n:
        return out
    j = P
    while j > 1 and len(_pair(a, j - 2).A) < n:
        j -= 2
    if j < 2:  # the seed A_0 = 1, which A_1 reads with weight j (j - 1) = 0
        one = _pair(a, 0)
        one.A.extend(int(k == 0) for k in range(len(one.A), n))
    for j in range(j or 2, P + 1, 2):
        hi = _pair(a, j)
        lo = _pair(a, max(j - 2, 0))
        A, k0 = hi.A, len(hi.A)
        den = hi.den * (lo.den // math.gcd(hi.den, lo.den))
        r = j * (j - 1) * (den // lo.den)
        prev = A[-1] * (den // hi.den) if A else 0
        steps = []  # m of each new coefficient, stored over D as it stood then
        for k in range(k0, n):
            c = 2 * k + j * (a + 1)
            c1 = c - (a + 1)
            x = r * lo.A[k] + 4 * (c1 - 1) * (c - 2) * prev
            cc = c * c1
            if not cc:  # the seed [z^0] h_a = 1 / (a + 1)
                x, cc = den, a + 1
            g = math.gcd(x, cc)
            m = cc // g
            if m > 1:
                den *= m
                r *= m
            prev = x // g
            A.append(prev)
            steps.append(m)
        f = 1
        for k in range(n - 1, k0 - 1, -1):
            if f > 1:
                A[k] *= f
            f *= steps[k - k0]
        f = den // hi.den
        if f > 1:
            A[:k0] = [y * f for y in A[:k0]]
        hi.den = den
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

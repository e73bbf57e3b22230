"""Exact closed-form integration of trigonometric polynomials.

Every expected external angle sum of a beta or beta' simplex with an
integer concentration parameter is a kernel integral over [-pi/2, pi/2] of
cos^c x * F(x)^r, F(x) the integral of cos^f from -pi/2 to x, with one
route per parity of f, both on integer lists.

* Odd f: F = Q(1) + Q(sin x), Q(t) the integral of (1 - s^2)^((f-1)/2)
  from 0 to t, so F^r is a polynomial in sin x (one chain of
  ``angle_engine.integer_power`` per f, which beta and beta' share) and
  the kernel one ``angle_engine.sin_cos_dot``.
* Even f: u = x + pi/2 turns cos x into sin u and F into
  G(u) = (a0 u + S(u)) / D, S a sine polynomial, so
  G^r = sum_i C(r, i) (a0 u)^(r-i) S^i / D^r.  The lists sin^c S^i, each
  one product-to-sum step from the one before, meet the moments of
  u^j cos(mu) and u^j sin(mu) over [0, pi], polynomials in pi; each power
  of pi is summed over one common denominator.

Each beta' quantity is its beta counterpart with both cosine exponents
lowered by a shift s = 1 (s = 0 for beta) and c~_beta = c_(beta - 3/2), so
one shifted body serves both families.

The kernel serves the external angle sums of simplices with many points,
n > alpha + 3.  For n <= alpha + 3 they are solved from the inversion
relations with the exact internal rows, and the kernel stays as their
cross-check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .angle_engine import integer_power, internal_row, sin_cos_dot
from .exact_scalars import DomainError, PiNumber, c_beta, linear_combination


@lru_cache(maxsize=None)
def _sin_power(c: int) -> list[int]:
    """sin^c u as numerators over 2^c: entry m is the coefficient of cos(mu)
    for even c, of sin(mu) for odd c."""
    out = [0] * (c + 1)
    for i in range((c + 1) // 2):
        out[c - 2 * i] = (-1) ** (c // 2 + i) * 2 * math.comb(c, i)
    if c % 2 == 0:
        out[0] = math.comb(c, c // 2)
    return out


@lru_cache(maxsize=None)
def _G_parts(f: int) -> tuple[int, int, list[int]]:
    """(a0, D, S) with G(u), the integral of sin^f from 0 to u, equal to
    (a0 u + S(u)) / D for even f; entry m of S multiplies sin(mu)."""
    E = math.lcm(*range(2, f + 1, 2))
    S = [0] * (f + 1)
    for i in range(f // 2):
        S[f - 2 * i] = (-1) ** (f // 2 + i) * 2 * math.comb(f, i) * E // (f - 2 * i)
    a0 = math.comb(f, f // 2) * E
    g = math.gcd(a0, 2**f * E, *S)
    return a0 // g, 2**f * E // g, [s // g for s in S]


def _times_sin(s: list[int], b: list[int], b_sin: bool) -> list[int]:
    """2 s b by the product-to-sum rules, for a sine list s (entry m
    multiplies sin(mu)) and b a sine list if ``b_sin``, else a cosine list:
    a cosine list, or a sine list with entry 0 kept 0."""
    nb, out = len(b), [0] * (len(s) + len(b) - 1)
    sign = -1 if b_sin else 1  # at m1 + m2; minus it at m2 - m1 >= 0
    for m1, x in enumerate(s):
        if x:
            up = sign * x
            out[m1:m1 + nb] = [o + up * y for o, y in zip(out[m1:], b)]
            out[:max(0, nb - m1)] = [o - up * y for o, y in zip(out, b[m1:])]
            k = min(m1, nb)
            out[m1 - k + 1:m1 + 1] = [o + x * y for o, y in zip(out[m1 - k + 1:], reversed(b[:k]))]
    if not b_sin:
        out[0] = 0
    return out


@lru_cache(maxsize=None)
def _cos_F_integral(cos_exponent: int, f_exponent: int, r: int) -> PiNumber:
    """The one external-angle kernel: the integral over [-pi/2, pi/2] of
    cos^cos_exponent * F^r, F the integral of cos^f_exponent from -pi/2.
    Cached: beta and beta' rows share kernels, and the alpha = 0 row of
    every n reads (0, 0, r).

    Even f: R_i = r!/i! (2 a0)^(r-i) 2^i sin^c S^i over 2^c; each
    frequency m has the parity of c, sigma = (-1)^c.  The moment
    of u^j cos(mu) (odd k) or u^j sin(mu) (even k) over [0, pi] sums
    e_k j!/(j-k)! (-1)^ceil(k/2) pi^(j-k) / m^(k+1) over k <= j, e_k = -sigma
    (k < j) or 1 - sigma (k = j).  With j = r - i, p = j - k and
    C(r, i) j!/(j-k)! = r!/(i! p!), pi^p / p! takes e_k times
    (-1)^ceil((N-i)/2) R_i[m] / m^(N-i+1) from each i <= N = r - p: per m a
    running sum B(N) = -B(N-2) - t_(N-1) + t_N over the N of the parity of
    c + 1, t_i = m^(i-i0) R_i[m] from the first i0 that reaches m."""
    c, f = cos_exponent, f_exponent
    if min(c, f) < 0:
        raise DomainError("powers must be nonnegative")
    if f % 2:  # (L F)^r, L = lcm(1, 3, ..., f), as a polynomial in sin x
        L, h = math.lcm(*range(1, f + 1, 2)), f // 2
        base = [0] * (f + 1)  # L Q(t), then L Q(1) at t^0
        for i in range(h + 1):
            base[2 * i + 1] = (-1) ** i * math.comb(h, i) * L // (2 * i + 1)
        base[0] = sum(base)
        return sin_cos_dot(integer_power(tuple(base), r)[::2], c, L**r)
    a0, D, S = _G_parts(f)
    top = r if f else 0  # S = 0 for f = 0
    P, R, w = _sin_power(c), [], math.factorial(r) * (2 * a0) ** r
    for i in range(top + 1):
        if i:
            P = _times_sin(S, P, (c + i) % 2 == 0)
            w //= 2 * a0 * i
        R.append([w * v for v in P])
    nums, dens = [0] * (r + 2), [1] * (r + 2)  # per power of pi
    for m in range(2 - c % 2, len(R[-1]), 2):
        i0 = max(0, -((c - m) // f)) if f else 0
        t, pw = [0] * (r + 2), 1  # t[i + 1] = t_i
        for i in range(i0, top + 1):
            t[i + 1] = pw * R[i][m]
            pw *= m
        first = i0 + (i0 + c + 1) % 2
        B, dm = 0, m ** (first + 1 - i0)
        for N in range(first, r + 1, 2):
            B = -B - t[N] + t[N + 1]
            if B:
                p = r - N
                g = math.gcd(dens[p], dm)
                nums[p] = nums[p] * (dm // g) + B * (dens[p] // g)
                dens[p] *= dm // g
            dm *= m * m
    sigma, common = (-1) ** c, D**r * 2 ** (c + r)
    terms = {}
    for p in range((r - c + 1) % 2, r + 2, 2):
        t0 = R[r + 1 - p][0] if r + 1 - p <= top else 0  # frequency 0
        n = t0 * dens[p] + ((1 - sigma) if p == 0 else -sigma) * nums[p]
        terms[2 * p] = Fraction(n, dens[p] * math.factorial(p) * common)
    return PiNumber(terms)


# -- external-angle quantities ----------------------------------------------


def external_lB(nu: Fraction | int, kappa: Fraction | int, alpha: int, shift: int) -> PiNumber:
    """alpha^r/r! times the integral over [-pi/2, pi/2] of
    cos^(alpha*kappa - shift) F^r, F the integral of cos^(alpha - shift),
    r = nu - kappa: b{nu, kappa} for shift 0, the beta'-side b~{nu, kappa}
    for shift 1."""
    nu, kappa = Fraction(nu), Fraction(kappa)
    r = nu - kappa
    if r.denominator != 1:
        raise DomainError("nu - kappa must be an integer")
    r = int(r)
    if r < 0:
        return PiNumber.zero()
    ak = alpha * kappa
    if ak.denominator != 1 or ak < shift:
        kind = "positive" if shift else "nonnegative"
        raise DomainError(
            f"alpha*kappa must be a {kind} integer for the exact path, got {ak}"
        )
    raw = _cos_F_integral(int(ak) - shift, alpha - shift, r)
    return raw * Fraction(alpha**r, math.factorial(r))


@lru_cache(maxsize=None)
def external_bI_fourier(n: int, k: int, alpha: int, shift: int) -> PiNumber:
    """C(n, k) c_beta(alpha k - 1 - shift) c_beta(alpha - 1 - shift)^r
    (arguments doubled) times the kernel at cos^(alpha k - shift), F of
    cos^(alpha - shift), r = n - k: bold-I for shift 0, bold-I~ for shift 1.

    The primary route for n > alpha + 3, and for n <= alpha + 3 the
    cross-check that ``verify`` holds the inversion row against."""
    r = n - k
    raw = _cos_F_integral(alpha * k - shift, alpha - shift, r)
    return math.comb(n, k) * c_beta(alpha * k - 1 - shift) * c_beta(alpha - 1 - shift) ** r * raw


@lru_cache(maxsize=None)
def _inversion_row(n: int, alpha: int, shift: int) -> tuple[PiNumber, ...]:
    """bold-I_{n,1..n} (shift 0) or bold-I~_{n,1..n} (shift 1) from the
    inversion relations sum_{m=k..n} (-1)^m I_{n,m} J_{m,k} = 0, k < n, by
    back-substitution from I_{n,n} = 1.  Each row J_{m,.} is read at the
    same alpha, ``internal_row(m, alpha, shift)``, which is the row at
    2 beta_m = alpha - m + 1 (beta) or alpha + m - 1 (beta'); the beta rows
    exist for n <= alpha + 3."""
    row = [PiNumber.one()] * (n + 1)
    for k in range(n - 1, 0, -1):
        row[k] = linear_combination(
            (row[m] if (m - k) % 2 else -row[m], internal_row(m, alpha, shift)[k - 1][0])
            for m in range(k + 1, n + 1)
        )
    return tuple(row[1:])


def _external_entry(n: int, k: int, alpha: int, shift: int) -> PiNumber:
    """Checked bold-I or bold-I~: the inversion row for n <= alpha + 3 (its
    back-substitution builds the internal rows of every m <= n, which is
    cheap only there), the Fourier kernel beyond."""
    if not isinstance(alpha, int):
        raise DomainError(f"exact external angles need an integer alpha, got {alpha!r}")
    if not 1 <= k <= n:
        raise DomainError("need 1 <= k <= n")
    if alpha < shift:
        raise DomainError(f"exact external angles need integer alpha >= {shift}")
    if n <= alpha + 3:
        return _inversion_row(n, alpha, shift)[k - 1]
    return external_bI_fourier(n, k, alpha, shift)


def external_bI(n: int, k: int, alpha: int) -> PiNumber:
    """Expected external angle sum of the beta simplex (bold-I_{n,k}(alpha)),
    exact for integer alpha >= 0."""
    return _external_entry(n, k, alpha, 0)


def external_bI_tilde(n: int, k: int, alpha: int) -> PiNumber:
    """Expected external angle sum of the beta' simplex (bold-I~_{n,k}(alpha)),
    exact for integer alpha >= 1."""
    return _external_entry(n, k, alpha, 1)

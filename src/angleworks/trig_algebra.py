"""Exact closed-form integration of trigonometric polynomials.

Every expected external angle sum of a beta or beta' simplex with an
integer concentration parameter is a kernel integral over [-pi/2, pi/2] of
cos^c x * F(x)^r, F(x) the integral of cos^f from -pi/2 to x.  The
substitution u = x + pi/2 turns cos x into sin u and F into
G(u) = integral_0^u sin^f, so the kernel is the integral over [0, pi] of
sin^c(u) G(u)^r.  In u every term q * u^j * cos(mu) (or sin) has a
rational q: sin^f u is linearised by the binomial formula and G is c0 u
plus a sine polynomial (even f) or a constant minus a cosine polynomial
(odd f).  Products stay rational by the product-to-sum identities, and
they run on integer numerators over one common denominator.  pi enters
only at the end, through the moments integral_0^pi u^j cos(mu) du and
integral_0^pi u^j sin(mu) du, which are polynomials in pi.

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

from .angle_engine import internal_row
from .exact_scalars import DomainError, PiNumber, c_beta, linear_combination

Key = tuple[int, int, str]  # (u-power j, frequency m, "cos" | "sin")
Terms = dict[Key, int]  # numerators of coeff * u^j * cos(mu) or sin(mu)
Scaled = tuple[Terms, int]  # (numerators, their one common denominator)


def _product(a: Terms, b: Terms) -> Terms:
    """The numerators of 2 a b by the product-to-sum rules (doubled so that
    they stay integers), frequencies kept nonnegative."""
    out: Terms = {}
    get = out.get
    for (j1, m1, k1), c1 in a.items():
        for (j2, m2, k2), c2 in b.items():
            j = j1 + j2
            c = c1 * c2
            if k1 == k2:
                if k1 == "cos" and (m1 == 0 or m2 == 0):
                    key = (j, m1 + m2, "cos")
                    out[key] = get(key, 0) + 2 * c
                    continue
                key = (j, abs(m1 - m2), "cos")
                out[key] = get(key, 0) + c
                key = (j, m1 + m2, "cos")
                out[key] = get(key, 0) + (c if k1 == "cos" else -c)
                continue
            ms, mc = (m1, m2) if k1 == "sin" else (m2, m1)
            if mc == 0:
                key = (j, ms, "sin")
                out[key] = get(key, 0) + 2 * c
                continue
            key = (j, ms + mc, "sin")
            out[key] = get(key, 0) + c
            if ms != mc:
                key = (j, abs(ms - mc), "sin")
                out[key] = get(key, 0) + (c if ms > mc else -c)
    return {key: c for key, c in out.items() if c}


def _reduced(terms: Terms, den: int) -> Scaled:
    g = math.gcd(den, *terms.values())
    return {key: c // g for key, c in terms.items()}, den // g


@lru_cache(maxsize=None)
def _sin_power(f: int) -> Scaled:
    """sin^f u linearised by the binomial formula over the denominator 2^f:
    cosines at frequencies f, f - 2, ..., 0 for even f, sines for odd f."""
    if f < 0:
        raise DomainError("sin power must be nonnegative")
    kind = "cos" if f % 2 == 0 else "sin"
    terms = {
        (0, f - 2 * i, kind): (-1) ** (f // 2 + i) * 2 * math.comb(f, i)
        for i in range((f + 1) // 2)
    }
    if f % 2 == 0:
        terms[(0, 0, "cos")] = math.comb(f, f // 2)
    return terms, 2**f


def _G(f: int) -> Scaled:
    """G(u), the integral of sin^f from 0 to u: c0 u plus a sine polynomial
    for even f, a constant minus a cosine polynomial for odd f."""
    sin_f, den = _sin_power(f)
    L = math.lcm(*range(1, f + 1))
    G: Terms = {}
    for (_, m, kind), c in sin_f.items():
        if m == 0:
            G[(1, 0, "cos")] = c * L
        elif kind == "cos":
            G[(0, m, "sin")] = c * L // m
        else:
            G[(0, m, "cos")] = -c * L // m
            G[(0, 0, "cos")] = G.get((0, 0, "cos"), 0) + c * L // m
    return _reduced(G, den * L)


@lru_cache(maxsize=None)
def _G_powers(f: int) -> list[Scaled]:
    return [({(0, 0, "cos"): 1}, 1)]


def _G_power(f: int, r: int) -> Scaled:
    """G^r for G = ``_G(f)``.  The powers of one f are kept in one list,
    each built from the one before it; the beta' F~ of alpha is G of
    alpha - 1, so both families share it."""
    powers = _G_powers(f)
    if len(powers) <= r:
        b, db = _G(f)
        while len(powers) <= r:
            a, da = powers[-1]
            powers.append(_reduced(_product(a, b), 2 * da * db))
    return powers[r]


@lru_cache(maxsize=None)
def _moment(j: int, m: int, kind: str) -> dict[int, int]:
    """m^(j+1) times the integral of u^j cos(mu) or u^j sin(mu) over
    [0, pi] (m >= 1), as {power of pi: integer}, by integration by parts."""
    if kind == "cos":  # [u^j sin(mu) / m] vanishes at 0 and pi
        if j == 0:
            return {}
        return {p: -j * q for p, q in _moment(j - 1, m, "sin").items()}
    sign = (-1) ** m
    if j == 0:
        return {0: 1 - sign} if sign < 0 else {}
    out = {p: j * q for p, q in _moment(j - 1, m, "cos").items()}
    out[j] = out.get(j, 0) - sign * m**j
    return {p: q for p, q in out.items() if q}


@lru_cache(maxsize=None)
def _cos_F_integral(cos_exponent: int, f_exponent: int, r: int) -> PiNumber:
    """The one external-angle kernel: the integral over [-pi/2, pi/2] of
    cos^cos_exponent * F^r, F the integral of cos^f_exponent from -pi/2.

    In u = x + pi/2 it is the integral over [0, pi] of sin^cos_exponent * G^r.
    The terms of each frequency m are summed as integers over m^(J+1), J the
    highest power of u, so a Fraction is formed once per (m, power of pi).
    Cached: beta and beta' rows can share a kernel, and the alpha = 0 rows
    of every n ask for the same (0, 0, r)."""
    (s, ds), (g, dg) = _sin_power(cos_exponent), _G_power(f_exponent, r)
    terms = _product(s, g)
    J = max(j for j, _, _ in terms)
    total: dict[int, Fraction] = {}  # power of pi -> coefficient
    by_m: dict[int, dict[int, int]] = {}
    for (j, m, kind), c in terms.items():
        if m == 0:  # only cosines have frequency 0
            total[j + 1] = total.get(j + 1, 0) + Fraction(c, j + 1)
            continue
        acc = by_m.setdefault(m, {})
        c *= m ** (J - j)
        for p, q in _moment(j, m, kind).items():
            acc[p] = acc.get(p, 0) + c * q
    for m, acc in by_m.items():
        for p, q in acc.items():
            total[p] = total.get(p, 0) + Fraction(q, m ** (J + 1))
    den = 2 * ds * dg
    return PiNumber({2 * p: q / den for p, q in total.items()})


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

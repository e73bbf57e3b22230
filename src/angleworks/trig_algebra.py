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

The module also holds the tangent-polynomial route for the one parity case
whose internal angles are not reachable by residues.  There the powers of
the tangent polynomial T are integer numerators over L^j, L = lcm(1, 3,
..., alpha), and each moment is one integer dot product against the
ratios I(p + 2) / I(p) = (p + 1) / (q - p - 1) of the integrals of
sin^p cos^(q-p), so a ``PiNumber`` is formed once per moment.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact_scalars import DomainError, PiNumber, c_beta, gamma_half

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


def _cos_F_integral(cos_exponent: int, f_exponent: int, r: int) -> PiNumber:
    """The one external-angle kernel: the integral over [-pi/2, pi/2] of
    cos^cos_exponent * F^r, F the integral of cos^f_exponent from -pi/2.

    In u = x + pi/2 it is the integral over [0, pi] of sin^cos_exponent * G^r.
    The terms of each frequency m are summed as integers over m^(J+1), J the
    highest power of u, so a Fraction is formed once per (m, power of pi)."""
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


def _external_lB(nu, kappa, alpha: int, shift: int) -> PiNumber:
    """alpha^r/r! times the kernel at cos^(alpha*kappa - shift), F of
    cos^(alpha - shift), r = nu - kappa: b{nu, kappa} for shift 0,
    b~{nu, kappa} for shift 1."""
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


def external_lB(nu: Fraction | int, kappa: Fraction | int, alpha: int) -> PiNumber:
    """The quantity b{nu, kappa} = alpha^(nu-kappa)/(nu-kappa)! *
    integral of cos^(alpha*kappa) F^(nu-kappa) over [-pi/2, pi/2]."""
    return _external_lB(nu, kappa, alpha, 0)


def external_lB_tilde(nu: Fraction | int, kappa: Fraction | int, alpha: int) -> PiNumber:
    """The beta'-side quantity b~{nu, kappa} with integrand
    cos^(alpha*kappa - 1) F~^(nu-kappa), F~ the integral of cos^(alpha-1)."""
    return _external_lB(nu, kappa, alpha, 1)


@lru_cache(maxsize=None)
def _external_bI(n: int, k: int, alpha: int, shift: int) -> PiNumber:
    """C(n, k) c_beta(alpha k - 1 - shift) c_beta(alpha - 1 - shift)^r
    (arguments doubled) times the kernel at cos^(alpha k - shift), F of
    cos^(alpha - shift), r = n - k: bold-I for shift 0, bold-I~ for shift 1."""
    r = n - k
    raw = _cos_F_integral(alpha * k - shift, alpha - shift, r)
    return math.comb(n, k) * c_beta(alpha * k - 1 - shift) * c_beta(alpha - 1 - shift) ** r * raw


def external_bI(n: int, k: int, alpha: int) -> PiNumber:
    """Expected external angle sum of the beta simplex (bold-I_{n,k}(alpha)),
    exact for integer alpha >= 0."""
    if not 1 <= k <= n:
        raise DomainError("need 1 <= k <= n")
    if alpha < 0:
        raise DomainError("exact external angles need integer alpha >= 0")
    return _external_bI(n, k, alpha, 0)


def external_bI_tilde(n: int, k: int, alpha: int) -> PiNumber:
    """Expected external angle sum of the beta' simplex (bold-I~_{n,k}(alpha)),
    exact for integer alpha >= 1."""
    if not 1 <= k <= n:
        raise DomainError("need 1 <= k <= n")
    if alpha < 1:
        raise DomainError("betaprime external angles need integer alpha >= 1")
    return _external_bI(n, k, alpha, 1)


# -- tangent-polynomial route (internal angles, alpha odd / n even) ----------


def inner_tan_antiderivative(alpha: int) -> dict[int, Fraction]:
    """The odd polynomial T with  integral_0^x (cos y)^(-alpha-1) dy = T(tan x),
    for odd alpha (so the integrand is an even power of sec), as
    {power of tan x: coefficient}."""
    if alpha < 1 or alpha % 2 == 0:
        raise DomainError(
            "inner tangent antiderivative needs odd alpha (even alpha is logarithmic)"
        )
    s = (alpha + 1) // 2  # integrand = sec^{2s} = (1+t^2)^{s-1} dt
    return {2 * i + 1: Fraction(math.comb(s - 1, i), 2 * i + 1) for i in range(s)}


@lru_cache(maxsize=None)
def _tan_powers(alpha: int) -> list[list[int]]:
    return [[1]]


def _tan_power(alpha: int, j: int) -> list[int]:
    """T^j, T = inner_tan_antiderivative(alpha), as integer numerators over
    L^j, L = lcm(1, 3, ..., alpha): entry i is the coefficient of
    tan^(j + 2i) x (T is odd, so T^j has only powers of the parity of j).

    The powers of one alpha are kept in one list, each built from the one
    before it, and shared by every k and n."""
    powers = _tan_powers(alpha)
    if len(powers) <= j:
        L = math.lcm(*range(1, alpha + 1, 2))
        T = [int(c * L) for c in inner_tan_antiderivative(alpha).values()]
        while len(powers) <= j:
            prev = powers[-1]
            nxt = [0] * (len(prev) + len(T) - 1)
            for i, c in enumerate(prev):
                for l, t in enumerate(T):
                    nxt[i + l] += c * t
            powers.append(nxt)
    return powers[j]


@lru_cache(maxsize=None)
def _tan_moment(alpha: int, q: int, j: int) -> PiNumber:
    """The integral over [-pi/2, pi/2] of (c T(tan x))^j cos^q x, with
    c = c_beta(alpha - 1): term j of every entry of a case-iii row.

    With I(p) the integral of sin^p cos^(q-p), it is c^j sum_p t_p I(p) over
    the coefficients t_p of T^j.  I(p) vanishes for odd p, and for even p
    I(p + 2) = I(p) (p + 1) / (q - p - 1), so I(p) = I(0) w_p / W with
    integers w_p and W = (q - 1)(q - 3)...: the sum is one integer dot
    product times I(0)."""
    nums = _tan_power(alpha, j)
    top = j + 2 * (len(nums) - 1)  # the highest power of tan
    if top > q:
        raise DomainError("tangent power exceeds available cosine power")
    if j % 2:  # only odd powers of tan
        return PiNumber.zero()
    # w[i] = (1 * 3 * ... * (2i - 1)) * ((q - 2i - 1) * ... * (q - top + 1))
    heads, tails = [1], [1]
    for e in range(0, top, 2):
        heads.append(heads[-1] * (e + 1))
        tails.append(tails[-1] * (q - top + e + 1))
    tails.reverse()
    dot = sum(c * heads[j // 2 + i] * tails[j // 2 + i] for i, c in enumerate(nums))
    L = math.lcm(*range(1, alpha + 1, 2))
    ratio = Fraction(dot, L**j * tails[0])
    return (c_beta(alpha - 1) ** j) * (sin_cos_integral(0, q) * ratio)


@lru_cache(maxsize=None)
def sin_cos_integral(p: int, q: int) -> PiNumber:
    """Exact integral of sin^p cos^q over [-pi/2, pi/2] (p, q >= 0)."""
    if p < 0 or q < 0:
        raise DomainError("powers must be nonnegative")
    if p % 2 == 1:
        return PiNumber.zero()
    return gamma_half(p + 1) * gamma_half(q + 1) / gamma_half(p + q + 2)


def bJ_exact_case_iii(n: int, k: int, alpha: int) -> PiNumber:
    """Exact bold-J_{n,k}((alpha-n+1)/2) for odd alpha and even n.

    Expands (1/2 + i c T(tan x))^(n-k) binomially; odd powers of tan
    integrate to zero against cos^(alpha n + 1), which is exactly the
    cancellation of the imaginary part.  The surviving even powers reduce
    to Beta-function values in Q[pi^(1/2), pi^(-1/2)].
    """
    if n % 2 != 0 or alpha % 2 != 1:
        raise DomainError("this route needs even n and odd alpha")
    if alpha < max(n - 3, 1):
        raise DomainError(f"alpha >= n-3 required (alpha={alpha}, n={n})")
    if not 1 <= k <= n:
        raise DomainError("need 1 <= k <= n")
    m = n - k
    real = PiNumber.zero()
    imag = PiNumber.zero()
    for j in range(m + 1):
        weight = Fraction(math.comb(m, j), 2 ** (m - j))
        contrib = _tan_moment(alpha, alpha * n + 1, j) * weight
        if j % 2 == 0:
            real = real + Fraction((-1) ** (j // 2)) * contrib
        else:
            imag = imag + Fraction((-1) ** ((j - 1) // 2)) * contrib
    if not imag.is_zero():
        raise ArithmeticError(
            f"imaginary part failed to cancel for (n={n}, k={k}, alpha={alpha})"
        )
    return math.comb(n, k) * c_beta(alpha * n) * real

"""The rational external-angle kernel that ``trig_algebra`` ran before it
took one route per parity of f, kept as an exact reference.

It works in u = x + pi/2 on 2-D dicts keyed by (power of u, frequency,
"cos" | "sin"): sin^c u and G(u), the integral of sin^f from 0 to u, as
integer numerators over one denominator, the powers G^r by the
product-to-sum rules term by term, and the moments of u^j cos(mu) and
u^j sin(mu) over [0, pi] by integration by parts.  The tests check
``trig_algebra._cos_F_integral`` against ``cos_F_integral_reference``, and
``moment`` against quadrature.  This module holds no tests of its own.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from angleworks.exact_scalars import DomainError, PiNumber

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
def moment(j: int, m: int, kind: str) -> dict[int, int]:
    """m^(j+1) times the integral of u^j cos(mu) or u^j sin(mu) over
    [0, pi] (m >= 1), as {power of pi: integer}, by integration by parts."""
    if kind == "cos":  # [u^j sin(mu) / m] vanishes at 0 and pi
        if j == 0:
            return {}
        return {p: -j * q for p, q in moment(j - 1, m, "sin").items()}
    sign = (-1) ** m
    if j == 0:
        return {0: 1 - sign} if sign < 0 else {}
    out = {p: j * q for p, q in moment(j - 1, m, "cos").items()}
    out[j] = out.get(j, 0) - sign * m**j
    return {p: q for p, q in out.items() if q}


@lru_cache(maxsize=None)
def cos_F_integral_reference(cos_exponent: int, f_exponent: int, r: int) -> PiNumber:
    """The external-angle kernel: the integral over [-pi/2, pi/2] of
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
        for p, q in moment(j, m, kind).items():
            acc[p] = acc.get(p, 0) + c * q
    for m, acc in by_m.items():
        for p, q in acc.items():
            total[p] = total.get(p, 0) + Fraction(q, m ** (J + 1))
    den = 2 * ds * dg
    return PiNumber({2 * p: q / den for p, q in total.items()})

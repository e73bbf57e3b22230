"""Expected f-vectors of the random polytope families and the Reitzner
constants.

The primary computational route for every family is the parity-restricted
sum  E f_{k-1} = 2 * sum over m of (external angle sum) * (internal angle
sum): it has no parity gaps.  The direct residue formulas are kept as
independent cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import mpmath

from . import quadrature, trig_algebra
from .angle_engine import (
    angle_table,
    bJ_exact,
    fill_row,
    relations_hold,
    residue_rational,
)
from .exact_scalars import DomainError, PiNumber, c_beta, exact_scaled, gamma_half
from .series_kernel import sinc_coefficient

#: provenance of a sum of terms: the tag of its least direct term
_PROV_RANK = {"closed": 0, "residue": 1, "tan_algebra": 2, "fill": 3, "numeric": 4}


@dataclass
class FVector:
    """Expected f-vector (f_0 .. f_{d-1}) with per-entry provenance."""

    d: int
    model: str  # poisson | zerocell | voronoi | beta | betaprime
    params: dict
    entries: tuple

    def value(self, ell: int):
        return self.entries[ell][0]

    def provenance(self, ell: int) -> str:
        return self.entries[ell][1]

    def values(self) -> tuple:
        return tuple(v for v, _ in self.entries)


# -- Poisson polytope ---------------------------------------------------------


@lru_cache(maxsize=None)
def poisson_weight_inf(m: int, alpha: int) -> PiNumber:
    """The limiting external weight: c~_{(alpha m+1)/2} / c~_{(alpha+1)/2}^m
    * alpha^{m-1} / m, with c~_beta = c_(beta - 3/2)."""
    return c_beta(alpha * m - 2) / c_beta(alpha - 2) ** m * Fraction(alpha ** (m - 1), m)


def _parity_sum(d: int, external, internal, zero) -> tuple:
    """The entries E f_{k-1}, k = 1..d, of a simplicial f-vector:
    2 * sum over k <= m <= d with m = d (mod 2) of external(m) * z_k, where
    z = internal(m) is the angle row of the m-vertex simplex (entries of
    (value, provenance)).  ``zero`` is the additive zero of the values."""
    terms = {m: (external(m), internal(m)) for m in range(d, 0, -2)}
    entries = []
    for k in range(1, d + 1):
        total, tags = zero, []
        for m in range(k, d + 1):
            if (d - m) % 2 == 0:
                ext, row = terms[m]
                total = total + ext * row[k - 1][0]
                tags.append(row[k - 1][1])
        entries.append((2 * total, max(tags, key=_PROV_RANK.__getitem__)))
    return tuple(entries)


def poisson_polytope_fvector(d: int, alpha) -> FVector:
    """Expected f-vector of the convex hull of the power-law Poisson process;
    exact for integer alpha >= 1, numeric otherwise."""
    if d < 1:
        raise DomainError("d >= 1 required")
    a = exact_scaled(alpha, 1)
    if a is not None:
        if a < 1:
            raise DomainError("alpha >= 1 required for the exact path")
        entries = _parity_sum(
            d,
            lambda m: poisson_weight_inf(m, a),
            lambda m: angle_table("betaprime", m, Fraction(a + m - 1, 2)).entries,
            PiNumber.zero(),
        )
        return FVector(d, "poisson", {"alpha": a}, entries)
    a = float(alpha)
    if a <= 0:
        raise DomainError("alpha > 0 required")
    ctil = quadrature.c_beta_float((a - 2) / 2)
    entries = []
    for k in range(1, d + 1):
        val = (
            2.0
            * a ** (k - 1)
            * math.factorial(d)
            / math.factorial(k)
            * ctil ** (-k)
            * quadrature.a_tilde_numeric(d, k, a)
        )
        entries.append((val, "numeric"))
    return FVector(d, "poisson", {"alpha": a}, tuple(entries))


def poisson_residue_entry(d: int, k: int, alpha: int) -> PiNumber:
    """Direct residue form of E f_{k-1} (valid when alpha*k is even);
    used as a cross-check of the summed route."""
    if (alpha * k) % 2 != 0:
        raise DomainError("residue form requires alpha*k even")
    pref = (gamma_half(1) * gamma_half(alpha) / gamma_half(alpha + 1)) ** k
    res = residue_rational(alpha - 1, d - k, alpha * d + 1)
    return Fraction(alpha**d * math.comb(d, k)) * pref * res


# -- Poisson zero cell --------------------------------------------------------


def x_over_sin_coeff(power: int, j: int) -> Fraction:
    """[x^j] (x / sin x)^power."""
    if j < 0 or j % 2:
        return Fraction(0)
    return sinc_coefficient(-power, j // 2)


def zero_cell_entry_even(d: int, ell: int) -> PiNumber:
    """E f_ell of the zero cell for even d - ell:  pi^(d-ell) * C(d,ell) *
    [x^(d-ell)] (x/sin x)^(d+1)."""
    if (d - ell) % 2 != 0:
        raise DomainError("this form needs even d - ell")
    m = d - ell
    return PiNumber.pi_power(2 * m, math.comb(d, ell) * x_over_sin_coeff(d + 1, m))


def parity_product_coeff(d: int, m: int) -> Fraction:
    """[x^m] prod (1 + j^2 x^2) over 0 < j < d of parity opposite to d."""
    poly = [Fraction(1)]
    for j in range(1, d):
        if j % 2 != d % 2:
            # multiply by (1 + j^2 x^2)
            nxt = poly + [Fraction(0), Fraction(0)]
            for i, c in enumerate(poly):
                nxt[i + 2] += c * j * j
            poly = nxt
    return poly[m] if m < len(poly) else Fraction(0)


def zero_cell_entry_product(d: int, ell: int) -> PiNumber:
    """Independent product-formula form of E f_ell (even d - ell):
    pi^(d-ell)/(d-ell)! * [x^(d-ell)] prod (1 + j^2 x^2) over j < d of
    opposite parity."""
    if (d - ell) % 2 != 0:
        raise DomainError("this form needs even d - ell")
    m = d - ell
    return PiNumber.pi_power(2 * m, parity_product_coeff(d, m) / math.factorial(m))


def zero_cell_fvector(d: int) -> FVector:
    """Complete exact expected f-vector of the Poisson zero cell."""
    if d < 1:
        raise DomainError("d >= 1 required")
    # dual (simplicial) vector z_k = E f_{d-k}, z_0 = 1
    row = fill_row(
        PiNumber.one(), d,
        lambda k: zero_cell_entry_even(d, d - k) if k % 2 == 0 else None,
    )
    return FVector(d, "zerocell", {}, tuple(row[d - ell - 1] for ell in range(d)))


# -- typical Poisson-Voronoi cell ----------------------------------------------


def typical_voronoi_fvector(d: int) -> FVector:
    """Expected f-vector of the typical Poisson-Voronoi cell, via duality
    with the Poisson polytope at alpha = d."""
    pp = poisson_polytope_fvector(d, d)
    entries = tuple(pp.entries[d - ell - 1] for ell in range(d))
    return FVector(d, "voronoi", {}, entries)


def face_intensity(d: int, j: int) -> PiNumber:
    """Intensity of j-faces of the Poisson-Voronoi tessellation:
    E f_j(V_d) / (d - j + 1), with E f_d = 1."""
    if not 0 <= j <= d:
        raise DomainError("need 0 <= j <= d")
    if j == d:
        return PiNumber.one()
    fv = typical_voronoi_fvector(d)
    return fv.value(j) * Fraction(1, d - j + 1)


# -- beta and beta' polytopes ---------------------------------------------------


def beta_polytope_fvector(n: int, d: int, beta) -> FVector:
    """Expected f-vector of the convex hull of n i.i.d. beta points in R^d;
    exact for half-integer beta >= -1, numeric for real beta."""
    if d < 1 or n < d + 1:
        raise DomainError("need d >= 1 and n >= d+1")
    tb = exact_scaled(beta)
    if tb is not None:
        b = Fraction(beta)
        if b < -1:
            raise DomainError("beta >= -1 required")
        alpha = tb + d
        if alpha < 0:
            raise DomainError(
                "the d=1 sphere case (beta=-1) is atomic; no f-vector formula"
            )
        entries = _parity_sum(
            d,
            lambda m: trig_algebra.external_bI(n, m, alpha),
            lambda m: angle_table("beta", m, Fraction(alpha - m + 1, 2)).entries,
            PiNumber.zero(),
        )
        return FVector(d, "beta", {"n": n, "beta": b}, entries)
    b = float(beta)
    if b < -1:
        raise DomainError("beta >= -1 required")
    alpha = 2.0 * b + d
    entries = _parity_sum(
        d,
        lambda m: quadrature.I_numeric(n, m, alpha),
        lambda m: angle_table("beta", m, (alpha - m + 1) / 2).entries,
        0.0,
    )
    return FVector(d, "beta", {"n": n, "beta": b}, entries)


def betaprime_polytope_fvector(n: int, d: int, beta) -> FVector:
    """Expected f-vector of the convex hull of n i.i.d. beta' points in R^d;
    exact for half-integer beta with alpha = 2*beta - d a positive integer."""
    if d < 1 or n < d + 1:
        raise DomainError("need d >= 1 and n >= d+1")
    tb = exact_scaled(beta)
    if tb is not None and tb - d >= 1:
        alpha = tb - d
        entries = _parity_sum(
            d,
            lambda m: trig_algebra.external_bI_tilde(n, m, alpha),
            lambda m: angle_table("betaprime", m, Fraction(alpha + m - 1, 2)).entries,
            PiNumber.zero(),
        )
        return FVector(d, "betaprime", {"n": n, "beta": Fraction(beta)}, entries)
    b = float(beta)
    alpha = 2.0 * b - d
    if alpha <= 0:
        raise DomainError("beta > d/2 required")
    if alpha <= 1:
        raise DomainError(f"numeric path needs alpha = 2*beta - d > 1, got {alpha}")
    entries = _parity_sum(
        d,
        lambda m: quadrature.I_tilde_numeric(n, m, alpha),
        lambda m: angle_table("betaprime", m, (alpha + m - 1) / 2).entries,
        0.0,
    )
    return FVector(d, "betaprime", {"n": n, "beta": b}, entries)


# -- consistency relations -------------------------------------------------------


def euler_relation_holds(fv: FVector) -> bool:
    """Euler relation sum (-1)^ell f_ell = 1 - (-1)^d: exact for exact
    entries, to 1e-8 for numeric ones."""
    want = 1 - (-1) ** fv.d
    values = fv.values()
    if all(isinstance(v, PiNumber) for v in values):
        total = sum((Fraction((-1) ** l) * v for l, v in enumerate(values)), PiNumber.zero())
        return total == PiNumber.from_rational(want)
    return abs(sum((-1) ** l * v for l, v in enumerate(values)) - want) < 1e-8


def dehn_sommerville_holds(fv: FVector) -> bool:
    """All Dehn-Sommerville relations, exactly, on the vector (z_0..z_d) of
    the simplicial f-vector: directly for the simplicial models, through the
    dual for the simple ones."""
    values = list(fv.values())
    if fv.model in ("zerocell", "voronoi"):
        values.reverse()
    return relations_hold([PiNumber.one()] + values)


# -- Reitzner constants -----------------------------------------------------------


@dataclass(frozen=True)
class ReitznerConstant:
    """A Reitzner constant: float value, the exact internal-angle factor it
    contains, and (when the whole constant stays in the pi-ring) its exact
    value."""

    value: float
    angle_factor: PiNumber
    exact: Optional[PiNumber] = None


_MP_DPS = 60


def reitzner_ball(d: int, k: int) -> ReitznerConstant:
    """C_{d,k}: the face-number growth constant of uniform random polytopes
    in a smooth convex body, normalized to the ball."""
    if not 0 <= k <= d - 1:
        raise DomainError("need 0 <= k <= d-1")
    J = bJ_exact(d, k + 1, 1)
    with mpmath.workdps(_MP_DPS):
        dd = mpmath.mpf(d)
        pref = (
            2
            * mpmath.power(mpmath.pi, dd * (dd - 1) / (2 * (dd + 1)))
            / mpmath.factorial(d + 1)
            * mpmath.gamma(1 + dd * dd / 2)
            * mpmath.gamma((dd * dd + 1) / (dd + 1))
            / mpmath.gamma((dd * dd + 1) / 2)
            * mpmath.power(dd + 1, (dd * dd + 1) / (dd + 1))
            * mpmath.power(
                mpmath.gamma((dd + 1) / 2) / mpmath.gamma(1 + dd / 2),
                (dd * dd + 1) / (dd + 1),
            )
        )
        value = float(pref * J.evaluate(_MP_DPS))
    return ReitznerConstant(value, J)


def reitzner_ball_residue(d: int, k: int) -> float:
    """Residue form of C_{d,k}; valid when d is odd or both d, d-k even."""
    if not (d % 2 == 1 or (d % 2 == 0 and (d - k) % 2 == 0)):
        raise DomainError("parity conditions of the residue form not met")
    res = residue_rational(d, d - k - 1, d * d + 2)
    with mpmath.workdps(_MP_DPS):
        dd = mpmath.mpf(d)
        pref = (
            (dd * dd + 1)
            / mpmath.factorial(d)
            * mpmath.power(dd + 1, (dd * dd - dd) / (dd + 1))
            * math.comb(d, k + 1)
            * mpmath.gamma((dd * dd + 1) / (dd + 1))
            * mpmath.power(
                mpmath.sqrt(mpmath.pi) * mpmath.gamma((dd + 1) / 2) / mpmath.gamma((dd + 2) / 2),
                k + mpmath.mpf(2) / (dd + 1),
            )
        )
        return float(pref * mpmath.mpf(res.numerator) / res.denominator)


def reitzner_sphere(d: int, k: int) -> ReitznerConstant:
    """C*_{d,k}: the per-point face-number constant of random inscribed
    polytopes; lies in the pi-ring, so the exact value is returned too."""
    if d < 2 or not 0 <= k <= d - 1:
        raise DomainError("need d >= 2 and 0 <= k <= d-1")
    J = bJ_exact(d, k + 1, -1)
    pref = (
        PiNumber.pi_power(d - 2, Fraction(2**d, d * (d - 1) ** 2))
        * gamma_half(2 + d * (d - 2))
        / gamma_half((d - 1) ** 2)
        * (gamma_half(d + 1) / gamma_half(d)) ** (d - 1)
    )
    exact = pref * J
    return ReitznerConstant(float(exact.evaluate(_MP_DPS)), J, exact)


def reitzner_sphere_residue(d: int, k: int) -> PiNumber:
    """Residue form of C*_{d,k}; valid when d is odd or both d, d-k even.

    Prefactor re-derived from the angle form: (d-1)^(d-1)/d * C(d, k+1) *
    (sqrt(pi) Gamma((d-1)/2) / Gamma(d/2))^k; reproduces C*_{d,0} = 1 and
    C*_{3,2} = 2.
    """
    if not (d % 2 == 1 or (d % 2 == 0 and (d - k) % 2 == 0)):
        raise DomainError("parity conditions of the residue form not met")
    res = residue_rational(d - 2, d - k - 1, d * d - 2 * d + 2)
    pref = Fraction((d - 1) ** (d - 1) * math.comb(d, k + 1), d) * (
        gamma_half(1) * gamma_half(d - 1) / gamma_half(d)
    ) ** k
    return pref * res

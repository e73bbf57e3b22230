"""Expected f-vectors of the random polytope families and the Reitzner
constants.

The primary computational route for every family is the parity-restricted
sum  E f_{k-1} = 2 * sum over m of (external angle sum) * (internal angle
sum): it has no parity gaps.  The direct residue forms of the Poisson
entries and the Reitzner constants, the zero cell's product formula and the
Euler and Dehn-Sommerville predicates live in ``verify`` as its
cross-checks.

An exact beta or beta' hull of n points at alpha reads its external sums
from the inversion relations when n <= alpha + 3, so it needs only exact
internal rows, and from the Fourier kernel of ``trig_algebra`` when it has
more points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import mpmath

from . import quadrature, trig_algebra
from .angle_engine import bJ_exact, fill_row, internal_row
from .exact_scalars import DomainError, PiNumber, c_beta, exact_scaled, gamma_half, linear_combination
from .series_kernel import residue_rational

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


def _parity_sum(d: int, external, alpha, s: int) -> tuple:
    """The entries E f_{k-1}, k = 1..d, of a simplicial f-vector:
    2 * sum over k <= m <= d with m = d (mod 2) of external(m) * z_k, where
    z = ``internal_row(m, alpha, s)`` is the angle row of the m-vertex
    simplex at the f-vector's own alpha: exact sums for an int alpha, float
    sums otherwise."""
    terms = {m: (external(m), internal_row(m, alpha, s)) for m in range(d, 0, -2)}
    exact = isinstance(alpha, int)
    entries = []
    for k in range(1, d + 1):
        used = [terms[m] for m in range(k + (d - k) % 2, d + 1, 2)]
        pairs = [(ext, row[k - 1][0]) for ext, row in used]
        tag = max((row[k - 1][1] for _, row in used), key=_PROV_RANK.__getitem__)
        total = linear_combination(pairs) if exact else sum(x * z for x, z in pairs)
        entries.append((2 * total, tag))
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
        entries = _parity_sum(d, lambda m: poisson_weight_inf(m, a), a, 1)
        return FVector(d, "poisson", {"alpha": a}, entries)
    a = float(alpha)
    if a <= 0:
        raise DomainError("alpha > 0 required")
    ctil = quadrature.c_beta_float((a - 2) / 2)
    row = quadrature.a_row(d, range(1, d + 1), a, 1)
    entries = tuple(
        (2.0 * a ** (k - 1) * math.factorial(d) / math.factorial(k) * ctil ** (-k) * v,
         "numeric")
        for k, v in zip(range(1, d + 1), row)
    )
    return FVector(d, "poisson", {"alpha": a}, entries)


# -- Poisson zero cell --------------------------------------------------------


def x_over_sin_coeff(power: int, j: int) -> Fraction:
    """[x^j] (x / sin x)^power: the residue of x^(power-j-1) / sin^power x,
    the case a = 0 of the residue kernel (int_0^x sin^0 = x), for
    j < power."""
    if power < 1 or j >= power:
        raise DomainError(f"x_over_sin_coeff needs j < power and power >= 1, got {power}, {j}")
    return residue_rational(0, power - j - 1, power)


def zero_cell_entry_even(d: int, ell: int) -> PiNumber:
    """E f_ell of the zero cell for even d - ell:  pi^(d-ell) * C(d,ell) *
    [x^(d-ell)] (x/sin x)^(d+1)."""
    if (d - ell) % 2 != 0:
        raise DomainError("this form needs even d - ell")
    m = d - ell
    return PiNumber.pi_power(2 * m, math.comb(d, ell) * x_over_sin_coeff(d + 1, m))


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
    b = Fraction(beta) if tb is not None else float(beta)
    if b < -1:
        raise DomainError("beta >= -1 required")
    alpha = tb + d if tb is not None else 2.0 * b + d
    return _hull_fvector("beta", n, d, b, alpha)


def betaprime_polytope_fvector(n: int, d: int, beta) -> FVector:
    """Expected f-vector of the convex hull of n i.i.d. beta' points in R^d;
    exact for half-integer beta with alpha = 2*beta - d a positive integer."""
    if d < 1 or n < d + 1:
        raise DomainError("need d >= 1 and n >= d+1")
    tb = exact_scaled(beta)
    if tb is not None and tb - d >= 1:
        return _hull_fvector("betaprime", n, d, Fraction(beta), tb - d)
    b = float(beta)
    alpha = 2.0 * b - d
    if alpha <= 0:
        raise DomainError("beta > d/2 required")
    if alpha <= 1:
        raise DomainError(f"numeric path needs alpha = 2*beta - d > 1, got {alpha}")
    return _hull_fvector("betaprime", n, d, b, alpha)


def _hull_fvector(model: str, n: int, d: int, beta, alpha) -> FVector:
    """The beta (shift s = 0) or beta' (s = 1) hull f-vector at
    alpha = 2 beta + d or 2 beta - d: exact for an int alpha, numeric for a
    float one.  Every m-vertex internal row is read at this same alpha,
    which is the row at beta_m = (alpha - m + 1)/2 or (alpha + m - 1)/2.
    Only the beta hull at d = 1, beta = -1 reaches alpha <= -1."""
    if alpha <= -1:
        raise DomainError("the d=1 sphere case (beta=-1) is atomic; no f-vector formula")
    s = 0 if model == "beta" else 1
    ms = range(d, 0, -2)
    if isinstance(alpha, int):
        bI = trig_algebra.external_bI_tilde if s else trig_algebra.external_bI
        external = {m: bI(n, m, alpha) for m in ms}
    else:
        external = dict(zip(ms, quadrature.I_row(n, ms, alpha, s)))
    entries = _parity_sum(d, external.__getitem__, alpha, s)
    return FVector(d, model, {"n": n, "beta": beta}, entries)


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
        value = float(_reitzner_ball_prefactor(d) * J.to_mpf(_MP_DPS))
    return ReitznerConstant(value, J)


@lru_cache(maxsize=None)
def _reitzner_ball_prefactor(d: int) -> mpmath.mpf:
    """The d-only factor of every C_{d,k}, at ``_MP_DPS`` digits."""
    with mpmath.workdps(_MP_DPS):
        dd = mpmath.mpf(d)
        return (
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
    return ReitznerConstant(float(exact.to_mpf(_MP_DPS)), J, exact)

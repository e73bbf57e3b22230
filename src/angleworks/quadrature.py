"""Numerical evaluation of the real-line integral formulas.

Everything here reduces to one kernel:

    integral over R of  cosh(u)^(-P) * (c0 + w * Psi(u))^r du,
    Psi(u) = integral_0^u cosh(v)^E dv,

with ``w`` purely imaginary for the angle formulas and real for the
external-angle quantities (whose finite-interval integrals are mapped to
the line by x = arcsin tanh u).  Each beta' quantity is the beta one with
the inner cosine exponent lowered by s = 1 and c~_beta = c_(beta - 3/2), so
one body per pair takes the shift s.  Panels of Gauss-Legendre nodes resolve
the cosh^(-P) peak at the origin; the inner cumulative integral is
evaluated once per node against memoized panel-boundary anchors; the
truncation horizon is solved from the integrand's exponential decay.

Magnitudes are handled in log space, so very large P and growing inner
integrals cannot overflow.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exact_scalars import DomainError


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_error_estimate: float
    evaluations: int


@lru_cache(maxsize=None)
def _nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _log_cosh(t: np.ndarray) -> np.ndarray:
    a = np.abs(t)
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


def _horizon(P: float, E: float, r: int, amp: float) -> float:
    """Smallest U (by scanning) with integrand magnitude below ~e^-42."""
    target = 42.0 + r * math.log1p(amp)

    def decay(u: float) -> float:
        growth = max(E, 0.0) * r * u
        return P * (abs(u) + math.log1p(math.exp(-2 * abs(u))) - math.log(2.0)) - growth

    u = 1.0
    while decay(u) < target:
        u *= 1.4
        if u > 900.0:
            raise DomainError(
                f"tail bound unreachable (P={P}, E={E}, r={r}); integral diverges "
                "or decays too slowly"
            )
    return u


def _psi_at(t: np.ndarray, anchors: np.ndarray, psi_anchor: np.ndarray,
            idx: np.ndarray, E: float, n_inner: int) -> np.ndarray:
    """Psi(t) = psi_anchor[idx] + integral_{anchors[idx]}^{t} cosh^E, t >= 0."""
    xi, wi = _nodes(n_inner)
    a = anchors[idx]
    half = (t - a) / 2.0
    mid = (t + a) / 2.0
    sub = mid[..., None] + half[..., None] * xi  # (..., n_inner)
    vals = np.exp(E * _log_cosh(sub))
    return psi_anchor[idx] + half * (vals @ wi)


def _kernel_once(P: float, E: float, c0: complex, w: complex, r: int,
                 U: float, n_out: int, n_inner: int) -> tuple[complex, int]:
    width = min(0.6, 3.0 / math.sqrt(P + 1.0))
    m = max(4, min(1200, math.ceil(U / width)))
    bounds = np.linspace(0.0, U, m + 1)
    # cumulative Psi at panel boundaries
    xi, wi = _nodes(n_inner)
    a, b = bounds[:-1], bounds[1:]
    half_b = (b - a) / 2.0
    mid_b = (b + a) / 2.0
    sub = mid_b[:, None] + half_b[:, None] * xi
    panel_ints = half_b * (np.exp(E * _log_cosh(sub)) @ wi)
    psi_bounds = np.concatenate([[0.0], np.cumsum(panel_ints)])

    x, wt = _nodes(n_out)
    half = (b - a) / 2.0
    nodes = mid_b[:, None] + half[:, None] * x  # (panels, n_out)
    idx = np.repeat(np.arange(m)[:, None], n_out, axis=1)
    psi = _psi_at(nodes, bounds, psi_bounds, idx, E, n_inner)

    logch = _log_cosh(nodes)
    z_plus = (c0 + w * psi).astype(complex)
    z_minus = (c0 - w * psi).astype(complex)
    # clamp away from 0 so the tail's log cannot produce -inf (exp is ~0 there)
    z_plus = np.where(np.abs(z_plus) < 1e-280, 1e-280, z_plus)
    z_minus = np.where(np.abs(z_minus) < 1e-280, 1e-280, z_minus)
    if r == 0:
        f = 2.0 * np.exp(-P * logch)
    else:
        f = np.exp(r * np.log(z_plus) - P * logch) + np.exp(r * np.log(z_minus) - P * logch)
    integral = np.sum((f * wt) * half[:, None])
    evals = nodes.size * (1 + n_inner) + sub.size
    return complex(integral), evals


def cosh_kernel(P: float, E: float, c0: complex, w: complex, r: int) -> QuadResult:
    """The generic line integral; see the module docstring."""
    if r < 0:
        raise DomainError("power r must be nonnegative")
    if not (math.isfinite(P) and math.isfinite(E)):
        raise DomainError(f"kernel exponents out of float range (P={P}, E={E})")
    amp = abs(w) * (1.0 / max(E, 0.5)) if r else 0.0
    U = _horizon(P, E, r, amp)
    v1, e1 = _kernel_once(P, E, c0, w, r, U, 24, 16)
    v2, e2 = _kernel_once(P, E, c0, w, r, U, 40, 24)
    err = abs(v2 - v1) + math.exp(-40.0)
    if not (cmath.isfinite(v2) and math.isfinite(err)):
        raise DomainError(f"integral out of float range (P={P}, E={E}, r={r})")
    im = abs(v2.imag)
    re = v2.real
    if im > 1e-10 * max(abs(re), 1e-300):
        raise ArithmeticError(
            f"imaginary part failed to cancel: Re={re}, Im={im}"
        )
    return QuadResult(re, err, e1 + e2)


def _gamma(x: float) -> float:
    """Gamma(x), or a DomainError where it leaves the float range."""
    try:
        return math.gamma(x)
    except (OverflowError, ValueError):
        raise DomainError(f"Gamma({x}) is not a finite float") from None


def c_beta_float(beta: float) -> float:
    """c_beta as a float, for real beta > -1."""
    return _gamma(beta + 1.5) / (math.sqrt(math.pi) * _gamma(beta + 1.0))


def outer_integral(n: int, k: int, alpha: float, family: str) -> QuadResult:
    """bold-J_{n,k} (beta family) or bold-J~_{n,k} (betaprime family) by
    quadrature of the cosh-form integral, real part with checked imaginary
    cancellation."""
    if not 1 <= k <= n:
        raise DomainError("need 1 <= k <= n")
    if family not in ("beta", "betaprime"):
        raise DomainError(f"unknown family {family!r}")
    s = 0 if family == "beta" else 1
    if s == 0 and alpha < n - 3 - 1e-12:
        raise DomainError(f"beta family needs alpha >= n-3, got {alpha}")
    if s == 1 and alpha * n <= 1.0:
        raise DomainError(f"betaprime family needs alpha*n > 1, got {alpha * n}")
    ci = c_beta_float((alpha - 1.0 - s) / 2.0)
    res = cosh_kernel(alpha * n + (2.0 - 3 * s), alpha - s, 0.5, 1j * ci, n - k)
    pref = math.comb(n, k) * c_beta_float((alpha * n - 3 * s) / 2.0)
    return QuadResult(pref * res.value, pref * res.abs_error_estimate, res.evaluations)


# -- numeric external/internal quantities for non-integer parameters ----------


def _half_cos_integral(p: float) -> float:
    """Half the integral of cos^p over [-pi/2, pi/2], F(0) for F of cos^p."""
    return math.sqrt(math.pi) * _gamma((p + 1) / 2) / (2 * _gamma(p / 2 + 1))


def _lA_numeric(nu: float, kappa: float, alpha: float, shift: int) -> float:
    """a[nu, kappa] (shift 0) or a~[nu, kappa] (shift 1) by quadrature."""
    r_f = nu - kappa
    r = round(r_f)
    if abs(r_f - r) > 1e-9 or r < 0:
        raise DomainError("nu - kappa must be a nonnegative integer")
    if shift == 0 and alpha * kappa <= 0:
        raise DomainError("a[nu, kappa] requires alpha*kappa > 0")
    F0 = _half_cos_integral(alpha - shift)
    res = cosh_kernel(alpha * nu + shift, alpha - shift, F0, 1j, r)
    return alpha ** (r + 1) / math.factorial(r) / (2 * math.pi) * res.value


def a_numeric(nu: float, kappa: float, alpha: float) -> float:
    """a[nu, kappa] by quadrature; needs alpha*kappa > 0 and nu-kappa in N0."""
    return _lA_numeric(nu, kappa, alpha, 0)


def a_tilde_numeric(nu: float, kappa: float, alpha: float) -> float:
    """a~[nu, kappa] by quadrature."""
    return _lA_numeric(nu, kappa, alpha, 1)


def _I_numeric(n: int, k: int, alpha: float, shift: int) -> float:
    """bold-I_{n,k} (shift 0) or bold-I~_{n,k} (shift 1): the kernel on
    F of cos^(alpha - shift) against cos^(alpha k - shift), mapped to the
    line by x = arcsin tanh u."""
    if not 1 <= k <= n:
        raise DomainError("need 1 <= k <= n")
    if alpha * k <= shift - 1:
        raise DomainError(f"bold-I needs alpha*k > {shift - 1}, got {alpha * k}")
    r = n - k
    F0 = _half_cos_integral(alpha - shift)
    res = cosh_kernel(alpha * k + (1 - shift), -(alpha + (1 - shift)), F0, 1.0, r)
    return (
        math.comb(n, k)
        * c_beta_float((alpha * k - 1 - shift) / 2)
        * c_beta_float((alpha - 1 - shift) / 2) ** r
        * res.value
    )


def I_numeric(n: int, k: int, alpha: float) -> float:
    """bold-I_{n,k}(alpha) as a float, real alpha > -1/k."""
    return _I_numeric(n, k, alpha, 0)


def I_tilde_numeric(n: int, k: int, alpha: float) -> float:
    """bold-I~_{n,k}(alpha) as a float, real alpha > 0 with alpha*k >= 1."""
    return _I_numeric(n, k, alpha, 1)

"""Numerical evaluation of the real-line integral formulas.

Everything here reduces to one kernel:

    integral over R of  cosh(u)^(-P) * (c0 + w * Psi(u))^r du,
    Psi(u) = integral_0^u cosh(v)^E dv,

with ``w`` purely imaginary for the angle formulas and real for the
external-angle quantities (whose finite-interval integrals are mapped to
the line by x = arcsin tanh u).  Each beta' quantity is the beta one with
the inner cosine exponent lowered by s = 1 and c~_beta = c_(beta - 3/2), so
one body per pair takes the shift s.

Psi is odd, so the line integral is the half-line one of f = z+^r + z-^r
with z+- = c0 +- w Psi, which is real: for imaginary w, z- = conj(z+) and
f = 2 |z+|^r cos(r arg z+); for real w, z+- are real.  Magnitudes are handled
in log space, so very large P and growing Psi cannot overflow.

Panels of Gauss-Legendre nodes resolve the cosh^(-P) peak at the origin,
and the truncation horizon is solved from the integrand's exponential
decay.  Psi on the nodes costs one cosh^E per node: the panel anchors are
the running sum of the panel integrals, and inside a panel a cumulative
Legendre integration matrix (spectral integration, Greengard 1991) carries
Psi from the anchor to each node.  One call serves a whole row: every
(P, r) pair that shares (E, c0, w) is integrated on the same panels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exact_scalars import DomainError


@dataclass(frozen=True)
class QuadRow:
    """One kernel call: a value and an error bound for each (P, r) pair,
    and the integrand evaluations the row took."""

    values: tuple[float, ...]
    errors: tuple[float, ...]
    evaluations: int

    @property
    def abs_error_estimate(self) -> float:
        return max(self.errors)


@lru_cache(maxsize=None)
def _rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes x and weights on [-1, 1], and the matrix S with
    (S @ f(x))_i = integral_{-1}^{x_i} of the degree < n interpolant of f."""
    leg = np.polynomial.legendre  # NumPy loads it here, on first use, not at import
    x, w = leg.leggauss(n)
    # values -> Legendre coefficients by the discrete orthogonality of the rule
    to_coeffs = leg.legvander(x, n - 1).T * w * (np.arange(n) + 0.5)[:, None]
    S = leg.legvander(x, n) @ leg.legint(to_coeffs, lbnd=-1, axis=0)
    return x, w, S


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


def _kernel_once(P: np.ndarray, r: np.ndarray, E: float, c0: float, w: complex,
                 U: float, width: float, n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The half-line integral of f on [0, U] for every pair (P[i], r[i]) with
    an n-point rule per panel, and the integral of a bound on |f|."""
    x, wt, S = _rule(n)
    m = max(4, min(1200, math.ceil(U / width)))
    bounds = np.linspace(0.0, U, m + 1)
    half = (bounds[1:] - bounds[:-1]) / 2.0
    nodes = ((bounds[1:] + bounds[:-1]) / 2.0)[:, None] + half[:, None] * x
    logch = _log_cosh(nodes)
    g = np.exp(E * logch)  # cosh^E on the nodes, (panels, n)
    anchors = np.concatenate([[0.0], np.cumsum(half * (g @ wt))[:-1]])
    psi = anchors[:, None] + half[:, None] * (g @ S.T)
    f, mag = _integrand(P[:, None, None], r[:, None, None], c0, w, psi, logch)
    return (f @ wt) @ half, (mag @ wt) @ half, nodes.size * (1 + len(P))


def _integrand(P: np.ndarray, r: np.ndarray, c0: float, w: complex,
               psi: np.ndarray, logch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f = (z+^r + z-^r) cosh^(-P) with z+- = c0 +- w psi, and a bound on
    |f| (the magnitude factor), from real logs; P and r broadcast against
    the nodes.  The clamp keeps each log finite where |z| vanishes."""
    if w.imag:  # z- = conj(z+): f = 2 |z+|^r cos(r arg z+)
        y = w.imag * psi
        log_mod = np.log(np.maximum(np.hypot(c0, y), 1e-280))
        mag = 2.0 * np.exp(r * log_mod - P * logch)
        return mag * np.cos(r * np.arctan2(y, c0)), mag
    f = mag = 0.0
    for z in (c0 + w.real * psi, c0 - w.real * psi):
        part = np.exp(r * np.log(np.maximum(np.abs(z), 1e-280)) - P * logch)
        mag = mag + part
        f = f + np.where((z < 0) & (r % 2 == 1), -part, part)
    return f, mag


def cosh_kernel(pairs, E: float, c0: float, w: complex) -> QuadRow:
    """The generic line integral (see the module docstring) for every
    (P, r) pair of a row that shares E, c0 and w.  The row shares the
    horizon of its slowest-decaying entry and the panel width of its
    largest P.  The error bound of each value is the change from a 24- to
    a 40-point rule, a 128-ulp share of the integral of |f| for rounding,
    and the truncated tail."""
    c0, w = complex(c0), complex(w)
    if c0.imag or (w.real and w.imag):
        raise DomainError(f"kernel needs a real c0 and a real or imaginary w (c0={c0}, w={w})")
    if any(r < 0 for _, r in pairs):
        raise DomainError("power r must be nonnegative")
    if not all(math.isfinite(p) for p, _ in pairs) or not math.isfinite(E):
        raise DomainError(f"kernel exponents out of float range (pairs={pairs}, E={E})")
    amp = abs(w) / max(E, 0.5)
    U = max(_horizon(p, E, r, amp if r else 0.0) for p, r in pairs)
    P = np.array([p for p, _ in pairs], dtype=float)
    r = np.array([r for _, r in pairs], dtype=int)
    width = min(0.6, 3.0 / math.sqrt(P.max() + 1.0))
    v1, _, e1 = _kernel_once(P, r, E, c0.real, w, U, width, 24)
    v2, mag, e2 = _kernel_once(P, r, E, c0.real, w, U, width, 40)
    err = np.abs(v2 - v1) + 128 * np.finfo(float).eps * mag + math.exp(-40.0)
    if not (np.isfinite(v2).all() and np.isfinite(err).all()):
        raise DomainError(f"integral out of float range (pairs={pairs}, E={E})")
    return QuadRow(tuple(v2.tolist()), tuple(err.tolist()), e1 + e2)


def _gamma(x: float) -> float:
    """Gamma(x), or a DomainError where it leaves the float range."""
    try:
        g = math.gamma(x)
    except (OverflowError, ValueError):
        g = math.inf
    if not math.isfinite(g):
        raise DomainError(f"Gamma({x}) is not a finite float")
    return g


def c_beta_float(beta: float) -> float:
    """c_beta as a float, for real beta > -1."""
    return _gamma(beta + 1.5) / (math.sqrt(math.pi) * _gamma(beta + 1.0))


def outer_row(n: int, ks, alpha: float, s: int) -> QuadRow:
    """bold-J_{n,k} (s = 0) or bold-J~_{n,k} (s = 1) for each k of ``ks``
    by one kernel call on the cosh-form integral, with the values and error
    bounds scaled to the angle sums."""
    if not all(1 <= k <= n for k in ks):
        raise DomainError("need 1 <= k <= n")
    if s == 0 and alpha < n - 3 - 1e-12:
        raise DomainError(f"beta family needs alpha >= n-3, got {alpha}")
    if s == 1 and alpha * n <= 1.0:
        raise DomainError(f"betaprime family needs alpha*n > 1, got {alpha * n}")
    ci = c_beta_float((alpha - 1.0 - s) / 2.0)
    P = alpha * n + (2.0 - 3 * s)
    row = cosh_kernel([(P, n - k) for k in ks], alpha - s, 0.5, 1j * ci)
    outer = c_beta_float((alpha * n - 3 * s) / 2.0)
    scales = [math.comb(n, k) * outer for k in ks]
    return QuadRow(
        tuple(c * v for c, v in zip(scales, row.values)),
        tuple(c * e for c, e in zip(scales, row.errors)),
        row.evaluations,
    )


# -- numeric external/internal quantities for non-integer parameters ----------


def _half_cos_integral(p: float) -> float:
    """Half the integral of cos^p over [-pi/2, pi/2], F(0) for F of cos^p."""
    return math.sqrt(math.pi) * _gamma((p + 1) / 2) / (2 * _gamma(p / 2 + 1))


def a_row(nu: float, kappas, alpha: float, shift: int) -> tuple[float, ...]:
    """a[nu, kappa] (shift 0) or a~[nu, kappa] (shift 1) for each kappa of
    ``kappas``, by one kernel call; nu - kappa must be in N0, and shift 0
    needs alpha*kappa > 0."""
    rs = []
    for kappa in kappas:
        r_f = nu - kappa
        r = round(r_f)
        if abs(r_f - r) > 1e-9 or r < 0:
            raise DomainError("nu - kappa must be a nonnegative integer")
        if shift == 0 and alpha * kappa <= 0:
            raise DomainError("a[nu, kappa] requires alpha*kappa > 0")
        rs.append(r)
    F0 = _half_cos_integral(alpha - shift)
    row = cosh_kernel([(alpha * nu + shift, r) for r in rs], alpha - shift, F0, 1j)
    return tuple(
        alpha ** (r + 1) / math.factorial(r) / (2 * math.pi) * v
        for r, v in zip(rs, row.values)
    )


def I_row(n: int, ks, alpha: float, shift: int) -> tuple[float, ...]:
    """bold-I_{n,k}(alpha) (shift 0) or bold-I~_{n,k}(alpha) (shift 1) for
    each k of ``ks``, by one kernel call: the kernel on F of
    cos^(alpha - shift) against cos^(alpha k - shift), mapped to the line
    by x = arcsin tanh u.  Needs alpha*k > shift - 1."""
    for k in ks:
        if not 1 <= k <= n:
            raise DomainError("need 1 <= k <= n")
        if alpha * k <= shift - 1:
            raise DomainError(f"bold-I needs alpha*k > {shift - 1}, got {alpha * k}")
    F0 = _half_cos_integral(alpha - shift)
    row = cosh_kernel(
        [(alpha * k + (1 - shift), n - k) for k in ks], -(alpha + (1 - shift)), F0, 1.0
    )
    inner = c_beta_float((alpha - 1 - shift) / 2)
    return tuple(
        math.comb(n, k) * c_beta_float((alpha * k - 1 - shift) / 2) * inner ** (n - k) * v
        for k, v in zip(ks, row.values)
    )

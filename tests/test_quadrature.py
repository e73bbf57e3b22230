import math

import mpmath
import numpy as np
import pytest

from angleworks.angle_engine import bJ_exact, bJtilde_exact
from angleworks.exact_scalars import DomainError
from angleworks.quadrature import (
    QuadResult,
    a_numeric,
    a_tilde_numeric,
    b_numeric,
    b_tilde_numeric,
    c_beta_float,
    cosh_kernel,
    outer_integral,
)


def inner_cumulative(alpha: float, u: float) -> float:
    """Reference: integral_0^u cosh(v)^alpha dv by panelwise Gauss-Legendre."""
    if u == 0.0:
        return 0.0
    sign = 1.0 if u > 0 else -1.0
    t = abs(u)
    m = max(2, math.ceil(t / 0.5))
    bounds = np.linspace(0.0, t, m + 1)
    xi, wi = np.polynomial.legendre.leggauss(32)
    a, b = bounds[:-1], bounds[1:]
    half = (b - a) / 2.0
    mid = (b + a) / 2.0
    sub = mid[:, None] + half[:, None] * xi
    log_cosh = np.abs(sub) + np.log1p(np.exp(-2.0 * np.abs(sub))) - math.log(2.0)
    return sign * float(np.sum(half * (np.exp(alpha * log_cosh) @ wi)))


def test_inner_cumulative_examples():
    assert inner_cumulative(3.2, 0.0) == 0.0
    assert abs(inner_cumulative(0.0, 2.5) - 2.5) < 1e-13
    assert abs(inner_cumulative(1.0, 1.0) - math.sinh(1.0)) < 1e-13
    assert abs(inner_cumulative(1.0, -1.0) + math.sinh(1.0)) < 1e-13


def test_outer_integral_examples():
    r = outer_integral(4, 1, 1.0, "beta")
    assert isinstance(r, QuadResult)
    assert abs(r.value - 0.125) < 1e-10
    assert r.abs_error_estimate < 1e-10
    assert r.evaluations > 0
    assert abs(outer_integral(3, 3, 2.7, "beta").value - 1.0) < 1e-10
    exact = bJ_exact(5, 1, 0).to_float()
    assert abs(outer_integral(5, 1, 4.0, "beta").value - exact) < 1e-10
    exact = bJtilde_exact(4, 2, 5).to_float()
    assert abs(outer_integral(4, 2, 2.0, "betaprime").value - exact) < 1e-10


def test_outer_integral_validation():
    with pytest.raises(DomainError):
        outer_integral(6, 1, 1.0, "beta")  # alpha < n-3
    with pytest.raises(DomainError):
        outer_integral(3, 1, 0.2, "betaprime")  # alpha * n <= 1
    with pytest.raises(DomainError):
        outer_integral(3, 1, 1.0, "gauss")


def test_horizon_doubling_stability():
    # doubling the truncation horizon changes nothing beyond the estimate
    import angleworks.quadrature as Q

    cases = [
        (4, 1, 1.0, "beta"), (5, 2, 2.5, "beta"), (4, 3, 1.3, "beta"),
        (3, 1, 2.0, "betaprime"), (5, 4, 1.7, "betaprime"),
        (6, 2, 3.5, "beta"), (4, 4, 6.0, "beta"), (2, 1, 4.0, "betaprime"),
        (7, 3, 4.2, "beta"), (6, 5, 2.2, "betaprime"),
    ]
    orig = Q._horizon
    base = [outer_integral(*c) for c in cases]
    try:
        Q._horizon = lambda *a, **k: 2.0 * orig(*a, **k)
        doubled = [outer_integral(*c) for c in cases]
    finally:
        Q._horizon = orig
    for b, d in zip(base, doubled):
        assert abs(b.value - d.value) <= max(b.abs_error_estimate, 1e-12)


def test_half_line_symmetry():
    # the integrand pairs u and -u into conjugates: the real part is even,
    # so the kernel equals twice the half-line integral of the even part
    mpmath.mp.dps = 30
    alpha, n, k = 1.6, 4, 2
    P, E = alpha * n + 2, alpha
    ci = c_beta_float((alpha - 1) / 2)
    kern = cosh_kernel(P, E, 0.5, 1j * ci, n - k)

    def even_part(u):
        u = float(u)
        psi = inner_cumulative(alpha, u)
        val = (0.5 + 1j * ci * psi) ** (n - k) * math.cosh(u) ** (-P)
        return val.real

    half = mpmath.quad(even_part, [0, 2, 5, 12])
    assert abs(kern.value - 2 * float(half)) < 1e-9


def test_against_independent_double_quadrature():
    # non-integer parameters vs a direct mpmath evaluation of the cosh form
    mpmath.mp.dps = 25
    n, k, alpha = 4, 2, 1.7
    c_inner = math.gamma((alpha - 1) / 2 + 1.5) / (
        math.sqrt(math.pi) * math.gamma((alpha - 1) / 2 + 1)
    )
    c_outer = math.gamma(alpha * n / 2 + 1.5) / (
        math.sqrt(math.pi) * math.gamma(alpha * n / 2 + 1)
    )

    def integrand(u):
        inner = mpmath.quad(lambda v: mpmath.cosh(v) ** alpha, [0, u])
        return (
            mpmath.cosh(u) ** (-(alpha * n + 2))
            * (mpmath.mpf(1) / 2 + 1j * c_inner * inner) ** (n - k)
        )

    ref = math.comb(n, k) * c_outer * complex(
        mpmath.quad(integrand, [-10, -3, 0, 3, 10])
    ).real
    got = outer_integral(n, k, alpha, "beta").value
    assert abs(got - ref) < 1e-9


def test_b_and_a_numeric_consistency():
    # numeric b{n,k} matches the exact Fourier value
    from angleworks.trig_algebra import external_lB, external_lB_tilde

    for alpha in (1, 2, 3):
        for n in range(1, 5):
            for k in range(1, n + 1):
                assert abs(b_numeric(n, k, alpha) - external_lB(n, k, alpha).to_float()) < 1e-11
                assert abs(
                    b_tilde_numeric(n, k, alpha) - external_lB_tilde(n, k, alpha).to_float()
                ) < 1e-11
    # numeric a[nu,kappa] matches the residue value on admissible parities
    from angleworks.angle_engine import lA_residue, lA_tilde_residue

    for alpha in (1, 2, 3):
        for knum in range(1, 5):
            for r in range(0, 3):
                nunum = knum + alpha * r
                if (knum + r) % 2 == 1:
                    exact = lA_residue(nunum, knum, alpha).to_float()
                    got = a_numeric(nunum / alpha, knum / alpha, alpha)
                    assert abs(got - exact) < 1e-11
                if knum % 2 == 0:
                    exact = lA_tilde_residue(nunum, knum, alpha).to_float()
                    got = a_tilde_numeric(nunum / alpha, knum / alpha, alpha)
                    assert abs(got - exact) < 1e-11

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from numpy.polynomial import legendre

from angleworks.angle_engine import angle_table, bJ_exact, bJtilde_exact
from angleworks.exact_scalars import DomainError
from angleworks.quadrature import I_row, QuadRow, a_row, c_beta_float, cosh_kernel, outer_row


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
    r = outer_row(4, (1,), 1.0, 0)
    assert isinstance(r, QuadRow)
    assert abs(r.values[0] - 0.125) < 1e-10
    assert r.abs_error_estimate < 1e-10
    assert r.evaluations > 0
    assert abs(outer_row(3, (3,), 2.7, 0).values[0] - 1.0) < 1e-10
    # J~_{n,n} = 1 by quadrature; angle_table returns the closed 1.0 there
    assert abs(outer_row(5, (5,), 2 * 3.4 - 5 + 1, 1).values[0] - 1.0) < 1e-10
    exact = bJ_exact(5, 1, 0).to_float()
    assert abs(outer_row(5, (1,), 4.0, 0).values[0] - exact) < 1e-10
    exact = bJtilde_exact(4, 2, 5).to_float()
    assert abs(outer_row(4, (2,), 2.0, 1).values[0] - exact) < 1e-10


def test_outer_integral_validation():
    with pytest.raises(DomainError):
        outer_row(6, (1,), 1.0, 0)  # alpha < n-3
    with pytest.raises(DomainError):
        outer_row(3, (1,), 0.2, 1)  # alpha * n <= 1
    with pytest.raises(DomainError, match="unknown family 'gauss'"):
        angle_table("gauss", 4, 0.3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NumPy's overflow notes on the way
def test_non_finite_integral_is_a_domain_error():
    # finite exponents, but (c0 + w Psi)^r overflows: no NaN may come back
    with pytest.raises(DomainError):
        cosh_kernel([(10.0, 5)], 1.0, 0.5, 1e300)


def test_horizon_doubling_stability():
    # doubling the truncation horizon changes nothing beyond the estimate
    import angleworks.quadrature as Q

    cases = [
        (4, 1, 1.0, 0), (5, 2, 2.5, 0), (4, 3, 1.3, 0), (3, 1, 2.0, 1), (5, 4, 1.7, 1),
        (6, 2, 3.5, 0), (4, 4, 6.0, 0), (2, 1, 4.0, 1), (7, 3, 4.2, 0), (6, 5, 2.2, 1),
    ]
    orig = Q._horizon
    base = [outer_row(n, (k,), alpha, s) for n, k, alpha, s in cases]
    try:
        Q._horizon = lambda *a, **k: 2.0 * orig(*a, **k)
        doubled = [outer_row(n, (k,), alpha, s) for n, k, alpha, s in cases]
    finally:
        Q._horizon = orig
    for b, d in zip(base, doubled):
        assert abs(b.values[0] - d.values[0]) <= max(b.abs_error_estimate, 1e-12)


def test_half_line_symmetry():
    # the integrand pairs u and -u into conjugates: the real part is even,
    # so the kernel equals twice the half-line integral of the even part
    mpmath.mp.dps = 30
    alpha, n, k = 1.6, 4, 2
    P, E = alpha * n + 2, alpha
    ci = c_beta_float((alpha - 1) / 2)
    (kern,) = cosh_kernel([(P, n - k)], E, 0.5, 1j * ci).values

    def even_part(u):
        u = float(u)
        psi = inner_cumulative(alpha, u)
        val = (0.5 + 1j * ci * psi) ** (n - k) * math.cosh(u) ** (-P)
        return val.real

    half = mpmath.quad(even_part, [0, 2, 5, 12])
    assert abs(kern - 2 * float(half)) < 1e-9


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
        # Psi(u) = integral_0^u cosh^alpha in closed form (t = sinh v):
        # the integral_0^sinh(u) of (1 + t^2)^((alpha-1)/2) dt
        s = mpmath.sinh(u)
        inner = s * mpmath.hyp2f1(0.5, (1 - alpha) / 2, 1.5, -s * s)
        return (
            mpmath.cosh(u) ** (-(alpha * n + 2))
            * (mpmath.mpf(1) / 2 + 1j * c_inner * inner) ** (n - k)
        )

    ref = math.comb(n, k) * c_outer * complex(
        mpmath.quad(integrand, [-10, -3, 0, 3, 10])
    ).real
    (got,) = outer_row(n, (k,), alpha, 0).values
    assert abs(got - ref) < 1e-9


def test_b_and_a_numeric_consistency():
    # numeric bold-I_{n,k} matches the exact external angle sum
    from angleworks.trig_algebra import external_bI, external_bI_tilde

    for alpha in (1, 2, 3):
        for n in range(1, 5):
            for k in range(1, n + 1):
                (got,) = I_row(n, (k,), alpha, 0)
                assert abs(got - external_bI(n, k, alpha).to_float()) < 1e-11
                (got,) = I_row(n, (k,), alpha, 1)
                assert abs(got - external_bI_tilde(n, k, alpha).to_float()) < 1e-11
    # numeric a[nu,kappa] matches the residue value on admissible parities
    from angleworks.verify import lA_residue

    for alpha in (1, 2, 3):
        for knum in range(1, 5):
            for r in range(0, 3):
                nunum = knum + alpha * r
                if (knum + r) % 2 == 1:
                    exact = lA_residue(nunum, knum, alpha, 0).to_float()
                    (got,) = a_row(nunum / alpha, (knum / alpha,), alpha, 0)
                    assert abs(got - exact) < 1e-11
                if knum % 2 == 0:
                    exact = lA_residue(nunum, knum, alpha, 1).to_float()
                    (got,) = a_row(nunum / alpha, (knum / alpha,), alpha, 1)
                    assert abs(got - exact) < 1e-11


@pytest.mark.parametrize("n", [2, 5, 24, 40])
def test_integration_matrix_integrates_legendre_polynomials(n):
    # S carries the values of P_j on the nodes to its integral from -1 to
    # each node, exactly up to rounding for every degree j < n
    import angleworks.quadrature as Q

    x, _, S = Q._rule(n)
    for j in range(n):
        unit = np.eye(n)[j]
        want = legendre.legval(x, legendre.legint(unit, lbnd=-1))
        assert np.max(np.abs(S @ legendre.legval(x, unit) - want)) <= 1e-13


def test_row_call_equals_one_pair_calls():
    # a row shares one horizon and one panel width; each entry agrees with
    # its own call to 1e-14 relative, or, where the entry is a small
    # difference of large terms, within the rounding share of its bound
    def agree(row_value, one):
        return abs(row_value - one) <= 1e-14 * abs(one)

    for s, n, alpha in ((0, 7, 5.3), (0, 12, 16.4), (1, 9, 1.7), (1, 12, 3.3)):
        ks = range(1, n - 1)
        row = outer_row(n, ks, alpha, s)
        for k, v in zip(ks, row.values):
            one = outer_row(n, (k,), alpha, s)
            (w,) = one.values
            assert agree(v, w) or abs(v - w) <= one.abs_error_estimate / 4
            assert row.evaluations > one.evaluations
    for n, alpha in ((5, 1.3), (8, 2.6), (7, 4.2)):
        ms = range(n, 0, -2)
        for s in (0, 1):
            assert all(agree(v, I_row(n, (m,), alpha, s)[0])
                       for m, v in zip(ms, I_row(n, ms, alpha, s)))
        ks = range(1, n + 1)
        assert all(agree(v, a_row(n, (k,), alpha, 1)[0])
                   for k, v in zip(ks, a_row(n, ks, alpha, 1)))


def _complex_integrand(P, r, c0, w, psi, logch):
    """The kernel's integrand in complex logs and exponentials, as it was
    evaluated before the real form; the reference of the next test."""
    terms = []
    for z in ((c0 + w * psi).astype(complex), (c0 - w * psi).astype(complex)):
        z = np.where(np.abs(z) < 1e-280, 1e-280, z)
        terms.append(np.exp(r * np.log(z) - P * logch))
    return (terms[0] + terms[1]).real, np.abs(terms[0]) + np.abs(terms[1])


@pytest.mark.parametrize("E, c0, w", [
    (1.7, 0.5, 0.9j), (4.2, 0.5, 0.3j), (0.6, 0.8, 1j),  # the angle formulas
    (-2.7, 0.9, 1.0), (-4.1, 0.6, 1.0), (-1.5, 0.7, 0.4),  # the external ones
])
def test_real_integrand_equals_complex_form(E, c0, w, monkeypatch):
    import angleworks.quadrature as Q

    pairs = [(P, r) for P in (1.3, 2.9, 6.1) for r in range(6)]
    pairs = [(P + max(E, 0.0) * r, r) for P, r in pairs]  # every integral converges
    real = cosh_kernel(pairs, E, c0, w)
    monkeypatch.setattr(Q, "_integrand", _complex_integrand)
    ref = cosh_kernel(pairs, E, c0, w)
    for got, want in zip(real.values, ref.values):
        assert abs(got - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("c0, w", [(0.5 + 0.1j, 1j), (0.5, 1 + 1j), (1j, 1.0)])
def test_kernel_needs_real_c0_and_real_or_imaginary_w(c0, w):
    with pytest.raises(DomainError, match="real c0"):
        cosh_kernel([(4.0, 2)], 1.0, c0, w)


def test_error_bound_covers_half_integer_grid():
    # the numeric path forced at every half-integer beta of a grid, where the
    # exact value is known: the true error never exceeds the reported bound
    checked = 0
    for s, family in enumerate(("beta", "betaprime")):
        for n in range(4, 13):
            ks = range(1, n - 1)  # J_{n,n-1} and J_{n,n} are closed forms
            for tb in range(-2, 6) if family == "beta" else range(n, n + 8):
                alpha = tb + n - 1 if family == "beta" else tb - n + 1
                exact = angle_table(family, n, Fraction(tb, 2))
                row = outer_row(n, ks, float(alpha), s)
                for k, v, e in zip(ks, row.values, row.errors):
                    assert abs(v - exact.value(k).to_float()) <= e
                    checked += 1
    assert checked == 864

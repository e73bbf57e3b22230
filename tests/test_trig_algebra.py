import functools
import math
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from angleworks.exact_scalars import DomainError, PiNumber
from angleworks.trig_algebra import (
    FourierPoly,
    _tan_power,
    bJ_exact_case_iii,
    cos_power_fourier,
    external_bI,
    external_bI_tilde,
    external_lB,
    external_lB_tilde,
    fourier_antiderivative,
    inner_tan_antiderivative,
    integrate_symmetric,
    sin_cos_integral,
)

PI = PiNumber.pi_power(2)
HALF_PI = PiNumber.pi_power(2, F(1, 2))


def test_cos_power_examples():
    assert cos_power_fourier(0).terms == FourierPoly.constant(1).terms
    p2 = cos_power_fourier(2)
    assert p2.terms[(0, 0, "cos")] == PiNumber.from_rational(F(1, 2))
    assert p2.terms[(0, 2, "cos")] == PiNumber.from_rational(F(1, 2))
    p3 = cos_power_fourier(3)
    assert p3.terms[(0, 1, "cos")] == PiNumber.from_rational(F(3, 4))
    assert p3.terms[(0, 3, "cos")] == PiNumber.from_rational(F(1, 4))


def test_fourier_antiderivative_examples():
    # integral of 1 from -pi/2: x + pi/2
    a = fourier_antiderivative(FourierPoly.constant(1))
    assert a.terms[(1, 0, "cos")] == PiNumber.one()
    assert a.terms[(0, 0, "cos")] == HALF_PI
    # integral of cos: sin x + 1
    b = fourier_antiderivative(FourierPoly.wave(1, "cos"))
    assert b.terms[(0, 1, "sin")] == PiNumber.one()
    assert b.terms[(0, 0, "cos")] == PiNumber.one()
    # integral of cos^2: x/2 + sin(2x)/4 + pi/4
    c = fourier_antiderivative(cos_power_fourier(2))
    assert c.terms[(1, 0, "cos")] == PiNumber.from_rational(F(1, 2))
    assert c.terms[(0, 2, "sin")] == PiNumber.from_rational(F(1, 4))
    assert c.terms[(0, 0, "cos")] == PiNumber.pi_power(2, F(1, 4))


def test_integrate_symmetric_examples():
    assert integrate_symmetric(cos_power_fourier(2)) == HALF_PI
    x_cos = FourierPoly({(1, 1, "cos"): PiNumber.one()})
    assert integrate_symmetric(x_cos).is_zero()
    x_sin = FourierPoly({(1, 1, "sin"): PiNumber.one()})
    assert integrate_symmetric(x_sin) == PiNumber.from_rational(2)


@functools.lru_cache(maxsize=None)
def _float(c: PiNumber) -> float:
    return c.to_float()


def _evaluate_float(p: FourierPoly, x: float) -> float:
    """Float reference evaluation of a FourierPoly, term by term."""
    total = 0.0
    for (j, m, kind), c in p.terms.items():
        w = math.cos(m * x) if kind == "cos" else math.sin(m * x)
        total += _float(c) * x**j * w
    return total


def _random_fourier(rng, max_j=2, max_m=3):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        j = rng.randint(0, max_j)
        m = rng.randint(0, max_m)
        kind = rng.choice(["cos", "sin"]) if m else "cos"
        terms[(j, m, kind)] = PiNumber.from_rational(
            F(rng.randint(-9, 9), rng.randint(1, 5))
        )
    return FourierPoly(terms)


def test_products_against_numeric_quadrature():
    rng = random.Random(2024)
    mpmath.mp.dps = 30
    for _ in range(100):
        p, q = _random_fourier(rng), _random_fourier(rng)
        exact = integrate_symmetric(p * q)

        def f(x, p=p, q=q):
            return _evaluate_float(p, float(x)) * _evaluate_float(q, float(x))

        num = mpmath.quad(f, [-mpmath.pi / 2, 0, mpmath.pi / 2])
        ex = exact.to_float()
        assert abs(ex - float(num)) <= 1e-10 * max(1.0, abs(ex))


def test_odd_fourier_integrates_to_zero():
    rng = random.Random(3)
    for _ in range(40):
        # x-odd combinations: x^odd * cos, x^even * sin
        terms = {}
        for _ in range(rng.randint(1, 4)):
            m = rng.randint(0, 3)
            if rng.random() < 0.5:
                terms[(2 * rng.randint(0, 1) + 1, m, "cos")] = PiNumber.from_rational(
                    F(rng.randint(-5, 5), rng.randint(1, 4))
                )
            elif m:
                terms[(2 * rng.randint(0, 1), m, "sin")] = PiNumber.from_rational(
                    F(rng.randint(-5, 5), rng.randint(1, 4))
                )
        assert integrate_symmetric(FourierPoly(terms)).is_zero()


def test_external_lB_closed_forms():
    # b{kappa,kappa} = sqrt(pi) Gamma((ak+1)/2) / Gamma((ak+2)/2)
    from angleworks.exact_scalars import gamma_half

    for alpha, kappa in [(2, 1), (2, 2), (1, 2), (3, 2), (4, 1)]:
        ak = alpha * kappa
        want = gamma_half(1) * gamma_half(ak + 1) / gamma_half(ak + 2)
        assert external_lB(kappa, kappa, alpha) == want
    # b{kappa+1,kappa} for alpha=2, a*kappa=2: (alpha/2)*(pi/2)*(pi/2) = pi^2/4
    assert external_lB(2, 1, 2) == PiNumber.pi_power(4, F(1, 4))
    # negative nu-kappa vanishes
    assert external_lB(1, 3, 2).is_zero()


def test_external_lB_non_integer_power_rejected():
    # non-integer alpha*kappa falls outside the Fourier algebra; the
    # quadrature module owns that case
    import angleworks.quadrature as Q

    with pytest.raises(DomainError):
        external_lB(F(7, 2), F(3, 2), 1)
    exact = external_lB(4, 2, 3).to_float()
    assert abs(Q.b_numeric(3.5, 1.5, 1.0) - Q.b_numeric(3.5, 1.5, 1.0)) == 0
    assert abs(Q.b_numeric(4, 2, 3) - exact) < 1e-11


def test_external_bI_examples():
    for n in range(1, 7):
        assert external_bI(n, n, 3) == PiNumber.one()
    for alpha in range(0, 7):
        assert external_bI(2, 1, alpha) == PiNumber.one()
    for alpha in range(0, 9):
        assert external_bI(3, 1, alpha) == PiNumber.one()


def test_external_bI_positivity():
    for n in range(1, 9):
        for k in range(1, n + 1):
            for alpha in range(0, 7):
                v = external_bI(n, k, alpha).to_float()
                assert 0 < v <= math.comb(n, k) + 1e-12


def test_external_bI_tilde_examples():
    for n in range(1, 7):
        assert external_bI_tilde(n, n, 2) == PiNumber.one()
    assert external_bI_tilde(2, 1, 2) == PiNumber.one()
    for alpha in range(1, 7):
        assert external_bI_tilde(3, 1, alpha) == PiNumber.one()


def test_lB_tilde_alpha2_closed_form():
    # at alpha=2 the Gamma(k)-rescaled b~{n,k} collapses to the combinatorial
    # closed form 2^(2n-1) (n-1)! / ((n-k)! (n+k-1)!)
    for n in range(1, 7):
        for k in range(1, n + 1):
            script = F(2 ** (2 * n - 1) * math.factorial(n - 1),
                       math.factorial(n - k) * math.factorial(n + k - 1))
            want = math.factorial(k - 1) * script
            assert external_lB_tilde(n, k, 2) == PiNumber.from_rational(want)


def test_inner_tan_antiderivative():
    assert inner_tan_antiderivative(1).as_dict() == {1: F(1)}
    assert inner_tan_antiderivative(3).as_dict() == {1: F(1), 3: F(1, 3)}
    assert inner_tan_antiderivative(5).as_dict() == {1: F(1), 3: F(2, 3), 5: F(1, 5)}
    with pytest.raises(DomainError):
        inner_tan_antiderivative(2)


def _poly_power(p: dict[int, F], j: int) -> dict[int, F]:
    """Reference: p^j by j products from scratch."""
    out = {0: F(1)}
    for _ in range(j):
        nxt: dict[int, F] = {}
        for e1, c1 in out.items():
            for e2, c2 in p.items():
                nxt[e1 + e2] = nxt.get(e1 + e2, F(0)) + c1 * c2
        out = nxt
    return out


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 8).map(lambda i: 2 * i + 1), st.integers(0, 12))
def test_cached_tan_powers_match_naive_product(alpha, j):
    # the cache of one alpha is read and grown in whatever order the examples come
    T = inner_tan_antiderivative(alpha).as_dict()
    assert _tan_power(alpha, j) == _poly_power(T, j)


def test_sin_cos_integral():
    assert sin_cos_integral(1, 4).is_zero()
    assert sin_cos_integral(0, 0) == PI
    assert sin_cos_integral(2, 3) == PiNumber.from_rational(F(4, 15))


def test_case_iii_examples():
    assert bJ_exact_case_iii(4, 1, 1) == PiNumber.from_rational(F(1, 8))
    assert bJ_exact_case_iii(4, 1, 3) == PiNumber.from_rational(F(401, 2560))
    for alpha in (1, 3, 5):
        assert bJ_exact_case_iii(4, 4, alpha) == PiNumber.one()
    assert bJ_exact_case_iii(4, 3, 1) == PiNumber.from_rational(2)


def test_case_iii_admissible_grid_runs_clean():
    # the imaginary part must cancel exactly on every admissible case
    for n in (4, 6, 8):
        for alpha in range(max(n - 3, 1), n + 3, 2):
            for k in range(1, n + 1):
                bJ_exact_case_iii(n, k, alpha)


def test_case_iii_validation():
    with pytest.raises(DomainError):
        bJ_exact_case_iii(5, 1, 3)  # odd n
    with pytest.raises(DomainError):
        bJ_exact_case_iii(4, 1, 2)  # even alpha
    with pytest.raises(DomainError):
        bJ_exact_case_iii(8, 1, 3)  # alpha < n-3

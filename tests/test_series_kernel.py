import math
import random
from fractions import Fraction as F

import pytest

from angleworks.exact_scalars import DomainError, PiNumber, c_beta, c_tilde_beta
from angleworks.angle_engine import bJ_exact, bJtilde_exact
from angleworks.series_kernel import (
    ONE,
    antiderivative_from_zero,
    bernoulli,
    coefficient,
    cos_power,
    derivative,
    int_power,
    laurent,
    monomial,
    multiply,
    residue,
    sin_power,
    ugly_coefficient,
)


def test_sin_power_examples():
    s = sin_power(1, 6)
    assert s.valuation == 1
    assert coefficient(s, 1) == 1
    assert coefficient(s, 3) == F(-1, 6)
    assert coefficient(s, 5) == F(1, 120)
    assert sin_power(0, 5) == laurent(0, [1], 5)
    s2 = sin_power(2, 7)
    assert (s2.valuation, coefficient(s2, 2), coefficient(s2, 4), coefficient(s2, 6)) == (
        2,
        F(1),
        F(-1, 3),
        F(2, 45),
    )


def test_multiply_examples():
    x = monomial(1)
    xinv = monomial(-1)
    assert multiply(x, xinv) == ONE
    one_plus = laurent(0, [1, 1])
    one_minus = laurent(0, [1, -1])
    assert multiply(one_plus, one_minus) == laurent(0, [1, 0, -1])


@pytest.mark.parametrize("a", range(0, 7))
@pytest.mark.parametrize("b", range(0, 7))
def test_sin_power_multiplicative(a, b):
    order = a + b + 8
    prod = multiply(sin_power(a, order), sin_power(b, order + a))
    direct = sin_power(a + b, prod.order)
    assert prod == direct


def test_int_power_examples():
    assert int_power(monomial(1), -1) == monomial(-1)
    sq = int_power(laurent(0, [1, 1]), 2)
    assert sq == laurent(0, [1, 2, 1])
    # residue workflow: (sin x)^-3 (cos x)^-3 has residue 2
    r = residue(multiply(int_power(sin_power(1, 8), -3), int_power(cos_power(1, 9), -3)))
    assert r == 2


def test_int_power_inverse_property():
    rng = random.Random(99)
    for p in range(1, 7):
        coeffs = [F(1)] + [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(9)]
        s = laurent(0, coeffs, 10)
        prod = multiply(int_power(s, p), int_power(s, -p))
        assert prod.valuation == prod.order or all(
            c == (1 if i == 0 else 0) for i, c in enumerate(prod.coeffs)
        )
        assert coefficient(prod, 0) == 1


def test_reciprocal_errors():
    with pytest.raises(DomainError):
        int_power(laurent(0, [], 5), -1)  # zero to its order
    with pytest.raises(DomainError):
        int_power(laurent(0, [1, 1]), -1)  # exact multi-term series


def test_antiderivative_examples():
    assert antiderivative_from_zero(ONE) == laurent(1, [1])
    a = antiderivative_from_zero(sin_power(1, 6))
    assert (coefficient(a, 2), coefficient(a, 4), coefficient(a, 6)) == (
        F(1, 2),
        F(-1, 24),
        F(1, 720),
    )
    b = antiderivative_from_zero(sin_power(2, 7))
    assert (coefficient(b, 3), coefficient(b, 5)) == (F(1, 3), F(-1, 15))
    with pytest.raises(DomainError):
        antiderivative_from_zero(monomial(-1))


def test_antiderivative_then_derivative_round_trip():
    rng = random.Random(5)
    for _ in range(20):
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)]
        s = laurent(0, coeffs, 8)
        back = derivative(antiderivative_from_zero(s))
        for j in range(8):
            assert coefficient(back, j) == coefficient(s, j)


def test_residue_examples():
    assert residue(monomial(-1)) == 1
    assert residue(laurent(0, [3, 1], 5)) == 0
    with pytest.raises(DomainError):
        residue(laurent(-5, [1], -3))  # order <= -1: undetermined


def test_residue_of_derivative_vanishes():
    rng = random.Random(12)
    for _ in range(25):
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(10)]
        s = laurent(-4, coeffs, 6)
        assert residue(derivative(s)) == 0


def test_coefficient_examples():
    xs3 = multiply(monomial(3), int_power(sin_power(1, 7), -3))  # (x/sin x)^3
    assert coefficient(xs3, 2) == F(1, 2)
    assert coefficient(ONE, 0) == 1
    with pytest.raises(DomainError):
        coefficient(laurent(0, [1], 3), 7)


def test_x_over_sin_fifth_vs_product_formula():
    # [x^4](x/sin x)^5 two ways: direct series vs the parity product
    # prod_{j in {1,3}} (1 + j^2 x^2) coefficient identity at d=4
    xs5 = multiply(monomial(5), int_power(sin_power(1, 9), -5))
    direct = coefficient(xs5, 4)
    # product (1+x^2)(1+9x^2) => x^4 coefficient 9; identity divides by d!/(d-m)!
    prod_coeff = F(9)
    assert direct == prod_coeff * F(math.factorial(0), math.factorial(4))
    assert direct == F(3, 8)


def test_bernoulli_values():
    assert [bernoulli(i) for i in range(9)] == [
        F(1),
        F(-1, 2),
        F(1, 6),
        F(0),
        F(-1, 30),
        F(0),
        F(1, 42),
        F(0),
        F(-1, 30),
    ]


def test_ugly_coefficient_a0_odd_m_vanishes():
    # a = 0 keeps only j=1, n=0: 2*c*Res[G / sin^M]; odd M with even inner
    # power makes the integrand even, so the residue is 0
    G = antiderivative_from_zero(sin_power(2, 14))
    assert ugly_coefficient(G, PiNumber.one(), 11, 0, "sin_over_tan").is_zero()


def test_ugly_coefficient_reproduces_golden_value():
    # n=5, k=1, alpha=2 route of the even/even parity formula
    G = antiderivative_from_zero(sin_power(2, 18))
    val = ugly_coefficient(G, c_beta(1), 12, 4, "sin_over_tan")
    full = F(math.factorial(5)) * PiNumber.pi_power(2) * c_beta(10) * val
    assert full == bJ_exact(5, 1, -2)
    assert full == PiNumber({-4: F(539, 288), 0: F(-1, 6)})


def test_ugly_coefficient_tilde_cross_method():
    # alpha=1, n=3, k=1: odd-n sin/tan variant vs the Bernoulli-fill value
    G = laurent(1, [1])  # integral of sin^0 = x, exact
    val = ugly_coefficient(G, c_tilde_beta(2), 2, 2, "sin_over_tan")
    full = -F(math.factorial(3)) * PiNumber.pi_power(2) * c_tilde_beta(3) * val
    assert full == bJtilde_exact(3, 1, 3)


def test_ugly_coefficient_validation():
    G = antiderivative_from_zero(sin_power(2, 12))
    with pytest.raises(DomainError):
        ugly_coefficient(G, PiNumber.one(), 8, 3, "sin_over_tan")  # odd a
    with pytest.raises(DomainError):
        ugly_coefficient(G, PiNumber.one(), 8, 2, "cos_over_cot")  # even a
    with pytest.raises(DomainError):
        ugly_coefficient(laurent(0, [1], 4), PiNumber.one(), 8, 2, "sin_over_tan")
    # insufficient order to resolve the residue
    with pytest.raises(DomainError):
        ugly_coefficient(antiderivative_from_zero(sin_power(2, 6)), PiNumber.one(), 30, 2, "sin_over_tan")


def test_zero_series_propagates():
    z = laurent(0, [], 6)
    assert multiply(z, sin_power(1, 6)).is_zero()
    assert int_power(z, 3).is_zero()
    assert antiderivative_from_zero(z).is_zero()

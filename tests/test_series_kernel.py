import math
import random
from fractions import Fraction
from fractions import Fraction as F
from functools import lru_cache
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from angleworks import series_kernel
from angleworks.exact_scalars import DomainError, PiNumber, c_beta, c_tilde_beta
from angleworks.angle_engine import bJ_exact, bJtilde_exact
from angleworks.polytope_engine import x_over_sin_coeff
from angleworks.series_kernel import bernoulli, residue_rational
from angleworks.verify import sin_cos_residue, ugly_coefficient
from laurent_reference import (
    ONE,
    antiderivative_from_zero,
    coefficient,
    cos_power,
    derivative,
    int_power,
    laurent,
    monomial,
    multiply,
    residue,
    sin_power,
    ugly_coefficient_reference,
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
    assert ugly_coefficient(2, PiNumber.one(), 11, 0, "sin_over_tan").is_zero()


def test_ugly_coefficient_reproduces_golden_value():
    # n=5, k=1, alpha=2 route of the even/even parity formula
    val = ugly_coefficient(2, c_beta(1), 12, 4, "sin_over_tan")
    full = F(math.factorial(5)) * PiNumber.pi_power(2) * c_beta(10) * val
    assert full == bJ_exact(5, 1, -2)
    assert full == PiNumber({-4: F(539, 288), 0: F(-1, 6)})


def test_ugly_coefficient_tilde_cross_method():
    # alpha=1, n=3, k=1: odd-n sin/tan variant vs the Bernoulli-fill value;
    # s = 0 is G = x, the integral of sin^0
    val = ugly_coefficient(0, c_tilde_beta(2), 2, 2, "sin_over_tan")
    full = -F(math.factorial(3)) * PiNumber.pi_power(2) * c_tilde_beta(3) * val
    assert full == bJtilde_exact(3, 1, 3)


def test_ugly_coefficient_validation():
    for s, M, a, variant in [
        (2, 8, 3, "sin_over_tan"),  # odd a
        (2, 8, 2, "cos_over_cot"),  # even a
        (2, 8, 2, "tan_over_sin"),  # unknown variant
        (2, 0, 2, "sin_over_tan"),  # M < 1
        (-1, 8, 2, "sin_over_tan"),  # s < 0
    ]:
        with pytest.raises(DomainError):
            ugly_coefficient(s, PiNumber.one(), M, a, variant)


def test_ugly_coefficient_reference_validation():
    # what only a truncated Laurent G can get wrong: a valuation below 1,
    # and too few known terms to resolve a residue
    with pytest.raises(DomainError):
        ugly_coefficient_reference(laurent(0, [1], 4), PiNumber.one(), 8, 2, "sin_over_tan")
    with pytest.raises(DomainError):
        G = antiderivative_from_zero(sin_power(2, 6))
        ugly_coefficient_reference(G, PiNumber.one(), 30, 2, "sin_over_tan")


@st.composite
def _ugly_specs(draw):
    """(s, M, a, variant) with s <= 6, M <= 30, a <= 8 and a of the
    variant's parity."""
    variant = draw(st.sampled_from(["sin_over_tan", "cos_over_cot"]))
    odd = variant == "cos_over_cot"
    a = 2 * draw(st.integers(0, 4 - odd)) + odd
    return draw(st.integers(0, 6)), draw(st.integers(1, 30)), a, variant


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_ugly_specs())
def test_ugly_coefficient_matches_laurent_reference(spec):
    s, M, a, variant = spec
    if s == 0:
        G = laurent(1, [1])
    else:
        # M + 3 known terms of G past its valuation resolve every residue
        G = antiderivative_from_zero(sin_power(s, s + M + 3))
    c = PiNumber({-1: F(2, 3), 2: F(-5)})
    assert ugly_coefficient(s, c, M, a, variant) == ugly_coefficient_reference(G, c, M, a, variant)


def test_sin_cos_residue_matches_laurent_reference():
    # every odd p < 40 and -6 <= q < 30; 1 / cos^q x steps up by one factor
    # of sec x per q
    for p in range(1, 40, 2):
        num = int_power(sin_power(1, p + 2), -p)
        cos = cos_power(1, p + 1)
        sec, cos_q = int_power(cos, -1), int_power(cos, 6)
        for q in range(-6, 30):
            assert sin_cos_residue(p, q) == residue(multiply(num, cos_q)), (p, q)
            cos_q = multiply(cos_q, sec)


@pytest.mark.parametrize("p", [0, 2, -1, -3])
def test_sin_cos_residue_needs_odd_positive_p(p):
    with pytest.raises(DomainError):
        sin_cos_residue(p, 3)


def test_zero_series_propagates():
    z = laurent(0, [], 6)
    assert multiply(z, sin_power(1, 6)).is_zero()
    assert int_power(z, 3).is_zero()
    assert antiderivative_from_zero(z).is_zero()


# -- reference: the residue kernel in y = x^2 and even-derivative form, on
# Fraction coefficients, as it was before the kernel moved to s = sin x -----


def _miller_extend_reference(
    f: Sequence[Fraction], alpha: int, out: list[Fraction], n: int
) -> list[Fraction]:
    """Extend ``out``, a prefix of the series f^alpha, in place to n
    coefficients and return it; both series in even-derivative form.

    J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): with P = f^alpha
    and f_0 != 0, P_k = sum_{j=1..k} ((alpha+1) j - k) C(2k, 2j) f_j P_{k-j}
    / (k f_0).  It holds for every integer alpha and needs only
    f_0 .. f_{n-1}, so a prefix can be extended later without recomputing it.
    """
    if not out:
        out.append(f[0] ** alpha)
    inv0 = 1 / f[0]
    a1 = alpha + 1
    for k in range(len(out), n):
        terms = (
            (a1 * j - k) * math.comb(2 * k, 2 * j) * (f[j] * out[k - j]) for j in range(1, k + 1)
        )
        out.append(sum(terms, Fraction(0)) * inv0 / k)
    return out


def _even_product_coefficient_reference(f: Sequence[Fraction], g: Sequence[Fraction], n: int) -> Fraction:
    """[x^(2n)] of f * g for f, g in even-derivative form."""
    terms = (math.comb(2 * n, 2 * i) * (f[i] * g[n - i]) for i in range(n + 1))
    return sum(terms, Fraction(0)) / math.factorial(2 * n)


@lru_cache(maxsize=None)
def _sinc_prefix_reference(alpha: int) -> list[Fraction]:
    return []


def _sinc_power_reference(alpha: int, n: int) -> list[Fraction]:
    """At least the first n even-derivative coefficients of
    (sin x / x)^alpha, for any integer alpha.

    The list is shared by every caller with this alpha and grows in place;
    read it, never modify it.
    """
    out = _sinc_prefix_reference(alpha)
    if len(out) < n:
        if alpha == 1:
            out.extend(Fraction((-1) ** j, 2 * j + 1) for j in range(len(out), n))
        else:
            _miller_extend_reference(_sinc_power_reference(1, n), alpha, out, n)
    return out


def _sinc_coefficient_reference(alpha: int, k: int) -> Fraction:
    """[x^(2k)] (sin x / x)^alpha, read from the shared prefix."""
    return _sinc_power_reference(alpha, k + 1)[k] / math.factorial(2 * k)


@lru_cache(maxsize=None)
def _sin_integral_prefix_reference(a: int) -> list[Fraction]:
    return []


def _sin_integral_series_reference(a: int, n: int) -> list[Fraction]:
    """At least the first n even-derivative coefficients of G_a, a >= 0,
    where int_0^x sin^a = x^(a+1) G_a(x); shared and grown like
    ``sinc_power``."""
    out = _sin_integral_prefix_reference(a)
    if len(out) < n:
        s = _sinc_power_reference(a, n)
        out.extend(s[j] / (a + 1 + 2 * j) for j in range(len(out), n))
    return out


def _residue_rational_reference(a: int, p: int, q: int) -> Fraction:
    """[x^-1] (int_0^x sin^a)^p / sin^q x, the body of ``residue_rational``
    on the Fraction kernel."""
    val = p * (a + 1) - q
    if val >= 0 or val % 2 == 0:
        return Fraction(0)
    N = (-1 - val) // 2
    if p == 0:
        return _sinc_coefficient_reference(-q, N)
    num = _miller_extend_reference(_sin_integral_series_reference(a, N + 1), p, [], N + 1)
    return _even_product_coefficient_reference(num, _sinc_power_reference(-q, N + 1), N)


@st.composite
def _residue_specs(draw):
    """(a, p, q) with a <= 15, q <= 240, mostly with a nonzero residue:
    q = p (a + 1) + 2N + 1 for a drawn N, and now and then any q."""
    a = draw(st.integers(0, 15))
    p = draw(st.integers(0, min(12, 239 // (a + 1))))
    if draw(st.integers(0, 5)) == 0:
        return a, p, draw(st.integers(1, 240))
    N = draw(st.integers(0, (239 - p * (a + 1)) // 2))
    return a, p, p * (a + 1) + 2 * N + 1


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_residue_specs())
def test_residue_matches_fraction_reference(spec):
    # rows far past the reach of the Laurent reference of test_angle_engine;
    # the shared prefixes grow in whatever order the examples come
    value = residue_rational(*spec)
    assert type(value) is F
    assert value == _residue_rational_reference(*spec)


@st.composite
def _power_and_half_index(draw):
    """(power, k) with 1 <= power <= 240 and 2k < power."""
    power = draw(st.integers(1, 240))
    return power, draw(st.integers(0, (power - 1) // 2))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_power_and_half_index())
def test_x_over_sin_coeff_matches_fraction_reference(spec):
    # [x^(2k)] (x / sin x)^power, read as the negative power -power of
    # sin x / x
    power, k = spec
    assert x_over_sin_coeff(power, 2 * k) == _sinc_coefficient_reference(-power, k)


@pytest.mark.parametrize("power, j", [(3, 3), (3, 4), (1, 1), (0, -2), (-2, 0)])
def test_x_over_sin_coeff_needs_j_below_a_positive_power(power, j):
    with pytest.raises(DomainError):
        x_over_sin_coeff(power, j)


@pytest.mark.parametrize("a, p", [(0, -1), (3, -4), (-1, 2)])
def test_residue_coefficient_needs_nonnegative_a_and_p(a, p):
    with pytest.raises(DomainError):
        residue_rational(a, p, 5)


def _cos_power_reference(alpha: int, n: int) -> list[Fraction]:
    """The first n even-derivative coefficients of (cos x)^alpha."""
    return _miller_extend_reference([Fraction((-1) ** j) for j in range(n)], alpha, [], n)


def test_sin_cos_residue_matches_fraction_reference():
    # p up to 89, past the reach of the Laurent reference above
    for n in (1, 2, 3, 7, 8, 20, 45):
        for q in (-4, 3, 17):
            expected = _even_product_coefficient_reference(
                _sinc_power_reference(1 - 2 * n, n), _cos_power_reference(-q, n), n - 1
            )
            assert sin_cos_residue(2 * n - 1, q) == expected


def test_prefixes_grown_in_steps_match_reference():
    # one cache holds the pair A_j = h_a^j, B_j = (1 - y)^(-1/2) h_a^j per
    # (a, j) over one denominator, and coefficient k of a pair reads
    # coefficient k of the pair below it.  Growing a pair can move it to a
    # larger denominator, which rescales both of its lists, so the pairs
    # above it must stay valid, and a pair grown later must read the
    # current denominator of the one below
    def check(a, p, Ns):
        # the residues that read [y^N] h_a^(p+1), past the cache of
        # residue_rational, which would hide the kernel
        for N in Ns:
            q = p * (a + 1) + 2 * N + 1
            assert residue_rational.__wrapped__(a, p, q) == _residue_rational_reference(a, p, q), (a, p, N)

    # x_over_sin_coeff reads residue_rational too
    residue_rational.cache_clear()
    series_kernel._pair.cache_clear()
    h3_dens = set()
    for n in (1, 2, 3, 7, 8, 20, 45):
        for power in (31, 5):
            if 2 * n - 2 < power:
                want = _sinc_coefficient_reference(-power, n - 1)
                assert x_over_sin_coeff(power, 2 * n - 2) == want
        for a, p in ((3, 5), (3, 2), (3, 1), (0, 2)):
            check(a, p, [n - 1])
        h3_dens.add(series_kernel._pair(3, 1).den)
    # h_3 itself was rescaled between the steps that extended h_3^2 .. h_3^6
    assert len(h3_dens) > 1

    # for odd a the denominators stay small; for even a they grow with n
    series_kernel._pair.cache_clear()
    check(4, 7, range(10))  # high powers first: h_4^8, and every pair below
    den = series_kernel._pair(4, 1).den
    check(4, 0, range(30))  # then a low one: h_4 alone to 30 coefficients
    check(4, 1, range(30))  # and h_4^2, from B_1, which was still at 10
    assert series_kernel._pair(4, 1).den != den
    check(4, 7, range(10, 40))  # then the high ones again, over the rescaled pairs
    assert len(series_kernel._pair(4, 8).A) == 40
    assert len(series_kernel._pair(4, 7).B) == 40

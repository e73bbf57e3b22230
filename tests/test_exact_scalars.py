import math
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from angleworks.angle_engine import angle_table, bJ_exact
from angleworks.exact_scalars import (
    DomainError,
    PiNumber,
    c_beta,
    c_tilde_beta,
    exact_scaled,
    format_pinumber,
    gamma_half,
    normalizing_constant,
    parse_pinumber,
    pinumber_from_json,
    pinumber_to_json,
    to_decimal,
)
from angleworks.polytope_engine import (
    beta_polytope_fvector,
    betaprime_polytope_fvector,
    poisson_polytope_fvector,
)


def test_gamma_half_examples():
    assert gamma_half(1) == PiNumber.pi_power(1)  # Gamma(1/2) = sqrt(pi)
    assert gamma_half(4) == PiNumber.one()  # Gamma(2) = 1
    assert gamma_half(5) == PiNumber.pi_power(1, F(3, 4))  # Gamma(5/2)


def test_gamma_half_functional_equation():
    for t in range(1, 101):
        assert gamma_half(t + 2) == F(t, 2) * gamma_half(t)


def test_gamma_half_domain():
    with pytest.raises(DomainError):
        gamma_half(0)
    with pytest.raises(DomainError):
        gamma_half(-3)


def test_c_beta_examples():
    assert c_beta(0) == PiNumber.from_rational(F(1, 2))
    assert c_beta(1) == PiNumber.pi_power(-2, 2)  # 2/pi
    assert c_beta(-1) == PiNumber.pi_power(-2)  # 1/pi
    with pytest.raises(DomainError):
        c_beta(-2)


def test_c_beta_matches_gamma_quotient():
    # c_beta = Gamma(beta + 3/2) / (sqrt(pi) Gamma(beta + 1)) directly
    for tb in range(-1, 21):
        direct = gamma_half(tb + 3) / (gamma_half(1) * gamma_half(tb + 2))
        assert c_beta(tb) == direct


def test_c_families_reflection_identity():
    # c~_{beta + 3/2} = c_beta: both equal Gamma(beta+3/2)/(sqrt(pi) Gamma(beta+1))
    for tb in range(-1, 21):
        assert c_tilde_beta(tb + 3) == c_beta(tb)


def test_c_tilde_beta_examples():
    assert c_tilde_beta(2) == PiNumber.pi_power(-2)  # beta = 1
    assert c_tilde_beta(3) == PiNumber.from_rational(F(1, 2))  # beta = 3/2
    assert c_tilde_beta(4) == PiNumber.pi_power(-2, 2)  # beta = 2
    with pytest.raises(DomainError):
        c_tilde_beta(1)


def test_normalizing_constant_examples():
    assert normalizing_constant(1, 0, "beta") == c_beta(0)
    assert normalizing_constant(2, 0, "beta") == PiNumber.pi_power(-2)
    assert normalizing_constant(3, 4, "betaprime") == PiNumber.pi_power(-4)
    with pytest.raises(DomainError):
        normalizing_constant(3, 3, "betaprime")
    with pytest.raises(DomainError):
        normalizing_constant(2, -3, "beta")


def _random_pinumber(rng):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        e = rng.randint(-6, 6)
        terms[e] = F(rng.randint(-40, 40), rng.randint(1, 23))
    return PiNumber(terms)


def test_ring_laws_random_triples():
    rng = random.Random(20240811)
    for _ in range(200):
        a, b, c = (_random_pinumber(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_zero_and_normalization():
    assert PiNumber({2: F(0)}).is_zero()
    assert (PiNumber({2: 1}) - PiNumber({2: 1})).is_zero()
    assert PiNumber({0: F(1, 3), 2: 0}).is_rational()


def test_division_monomials_only():
    pi = PiNumber.pi_power(2)
    assert PiNumber.pi_power(4) / pi == pi
    assert pi ** -2 == PiNumber.pi_power(-4)
    mixed = PiNumber({0: 1, 2: 1})
    with pytest.raises(DomainError):
        _ = pi / mixed
    with pytest.raises(DomainError):
        mixed.inverse()


def test_to_decimal_examples():
    assert to_decimal(PiNumber.from_rational(F(1, 2)), 5) == "0.50000"
    assert to_decimal(PiNumber.zero(), 5) == "0.00000"
    # pi^-2 * 539/288 - 1/6 = 0.0229587429972918708... (50+ digit oracle)
    x = PiNumber({-4: F(539, 288), 0: F(-1, 6)})
    assert to_decimal(x, 6) == "0.022959"
    assert to_decimal(x, 12) == "0.022958742997"


def test_to_decimal_negative_and_cap():
    assert to_decimal(PiNumber.from_rational(F(-1, 8)), 3) == "-0.125"
    # the digits before the point count against the working precision too
    assert to_decimal(PiNumber.pi_power(1, 10**25), 3) == "17724538509055160272981674.833"
    with pytest.raises(DomainError):
        to_decimal(PiNumber.one(), 201)


def test_to_decimal_rounding_stability():
    x = PiNumber({-4: F(1692197, 846720), 0: F(-1, 6)})
    d30 = to_decimal(x, 30)
    d60 = to_decimal(x, 60)
    assert d60.startswith(d30[:-1])  # 30-digit rounding consistent with 60


def test_canonical_text():
    x = PiNumber({-4: F(539, 288), 0: F(-1, 6)})
    assert format_pinumber(x) == "539/288 * pi^-2 - 1/6"
    assert format_pinumber(PiNumber.zero()) == "0"
    assert format_pinumber(PiNumber.pi_power(4, F(96, 35))) == "96/35 * pi^2"
    assert format_pinumber(PiNumber({0: 2, 4: F(48, 35)})) == "2 + 48/35 * pi^2"
    assert format_pinumber(PiNumber.pi_power(1)) == "1 * pi^(1/2)"
    assert format_pinumber(PiNumber.pi_power(2)) == "1 * pi"


def test_text_round_trip():
    rng = random.Random(7)
    samples = [
        PiNumber({-4: F(539, 288), 0: F(-1, 6)}),
        PiNumber.zero(),
        PiNumber.pi_power(-1, F(-3, 7)),
        PiNumber({0: 2, 4: F(48, 35)}),
    ] + [_random_pinumber(rng) for _ in range(50)]
    for x in samples:
        assert parse_pinumber(format_pinumber(x)) == x


@pytest.mark.parametrize("text", ["", "   ", "1/0", "1/2 - 3/0 * pi"])
def test_parse_pinumber_rejects_empty_text_and_zero_denominators(text):
    with pytest.raises(ValueError, match="cannot parse PiNumber"):
        parse_pinumber(text)


_COEFFICIENTS = st.builds(F, st.integers(-10**40, 10**40), st.integers(1, 10**20))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.integers(-16, 16), _COEFFICIENTS, max_size=7))
def test_text_and_json_round_trip_property(terms):
    x = PiNumber(terms)
    assert parse_pinumber(format_pinumber(x)) == x
    assert pinumber_from_json(pinumber_to_json(x)) == x


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.integers(-16, 16), _COEFFICIENTS, min_size=1, max_size=5),
       st.integers(1, 80))
def test_to_decimal_against_mpmath(terms, digits):
    # the printed value is within half a unit of the last place of the value
    # evaluated by mpmath with more digits than any cancellation can take
    x = PiNumber(terms)
    text = to_decimal(x, digits)
    assert len(text.split(".")[1]) == digits
    with mpmath.workdps(digits + 200):
        value = mpmath.fsum(
            mpmath.mpf(c.numerator) / c.denominator * mpmath.pi ** (mpmath.mpf(e) / 2)
            for e, c in x.terms.items()
        )
        assert abs(mpmath.mpf(text) - value) <= mpmath.mpf(10) ** -digits / 2


def test_json_round_trip():
    x = PiNumber({-4: F(539, 288), 0: F(-1, 6), 1: F(2, 3)})
    data = pinumber_to_json(x)
    assert all(set(d) == {"half_exp", "num", "den"} for d in data)
    assert pinumber_from_json(data) == x


def test_to_float_survives_cancellation():
    # the terms of this value cancel about eight leading digits
    x = bJ_exact(14, 2, -1)
    ref = x.evaluate(60)
    assert abs(x.to_float() - ref) <= 1e-15 * abs(ref)
    assert PiNumber.zero().to_float() == 0.0
    assert PiNumber.pi_power(2).to_float() == math.pi


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: exact_scaled(v),
        lambda v: angle_table("beta", 4, v),
        lambda v: angle_table("betaprime", 4, v),
        lambda v: beta_polytope_fvector(5, 3, v),
        lambda v: betaprime_polytope_fvector(5, 3, v),
        lambda v: poisson_polytope_fvector(3, v),
    ],
    ids=["exact_scaled", "angle_table-beta", "angle_table-betaprime", "beta_polytope",
         "betaprime_polytope", "poisson_polytope"],
)
def test_non_finite_parameter_is_a_domain_error(call, value):
    with pytest.raises(DomainError):
        call(value)

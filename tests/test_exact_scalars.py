import math
import random
import sys
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
    linear_combination,
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


@pytest.mark.parametrize("d", range(1, 9))
def test_betaprime_constant_is_the_explicit_formula(d):
    # Gamma(beta) / (pi^(d/2) Gamma(beta - d/2)), written out, against the
    # beta constant at beta - d/2 - 1 that the library evaluates
    for twice_beta in (d + 1, d + 2, d + 3, d + 6, d + 11):
        explicit = gamma_half(twice_beta) / (PiNumber.pi_power(d) * gamma_half(twice_beta - d))
        assert normalizing_constant(d, twice_beta, "betaprime") == explicit


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


@pytest.mark.parametrize("divide", [
    lambda: PiNumber.one() / PiNumber.zero(),
    lambda: PiNumber.pi_power(2) / PiNumber.zero(),
    lambda: PiNumber.zero() ** -1,
    lambda: PiNumber.zero().inverse(),
    lambda: PiNumber.one() / 0,
    lambda: PiNumber.one() / F(0),
], ids=["one_by_zero", "pi_by_zero", "zero_pow_minus_one", "zero_inverse", "by_int_zero",
        "by_fraction_zero"])
def test_division_by_zero_is_a_zero_division_error(divide):
    with pytest.raises(ZeroDivisionError, match="PiNumber division by zero"):
        divide()


def test_rational_values_hash_like_the_numbers_they_equal():
    assert PiNumber.one() == 1
    assert {PiNumber.one(), 1} == {1}
    assert len({PiNumber.zero(), 0, F(0)}) == 1
    assert hash(PiNumber.from_rational(F(-7, 3))) == hash(F(-7, 3))
    assert {PiNumber.from_rational(F(1, 2)): "half"}[F(1, 2)] == "half"


# reference ring operations on plain {exponent: Fraction} dicts
def _ref_sum(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, F(0)) + sign * c
    return {e: c for e, c in out.items() if c}


def _ref_product(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, F(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _stored(x):
    """The terms of ``x`` after checking how it stores them: int exponents
    to pairs of ints, each a nonzero numerator over a positive denominator
    in lowest terms.  ``terms`` builds ``Fraction``s, which would reduce a
    pair that is not, so the check reads the pairs themselves."""
    for e, (n, d) in x._terms.items():
        assert type(e) is int and type(n) is int and type(d) is int
        assert n and d > 0 and math.gcd(n, d) == 1
    return x.terms


_SMALL_COEFFICIENTS = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
_TERMS = st.dictionaries(st.integers(-6, 6), _SMALL_COEFFICIENTS, max_size=4)
_RATIONALS = st.one_of(st.integers(-5, 5), _SMALL_COEFFICIENTS)
# denominators that share factors (2, 3, 4, 6, 12) and that are coprime to them
_MIXED_DENOMINATORS = st.sampled_from([1, 2, 3, 4, 6, 12, 5, 7, 143])
_MIXED_COEFFICIENTS = st.builds(F, st.integers(-30, 30), _MIXED_DENOMINATORS)
_MIXED_VALUES = st.dictionaries(st.integers(-6, 6), _MIXED_COEFFICIENTS, max_size=4).map(PiNumber)
_WEIGHTS = st.one_of(st.integers(-5, 5), _MIXED_COEFFICIENTS, _MIXED_VALUES)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_MIXED_VALUES, _MIXED_VALUES, _RATIONALS)
def test_ring_operations_match_a_fraction_reference(x, y, q):
    a, b = x.terms, y.terms
    rq = {0: F(q)} if q else {}
    assert _stored(x + y) == _ref_sum(a, b)
    assert _stored(x - y) == _ref_sum(a, b, -1)
    assert _stored(x * y) == _ref_product(a, b)
    assert _stored(-x) == _ref_sum({}, a, -1)
    assert _stored(x + q) == _stored(q + x) == _ref_sum(a, rq)
    assert _stored(x - q) == _ref_sum(a, rq, -1)
    assert _stored(q - x) == _ref_sum(rq, a, -1)
    assert _stored(x * q) == _stored(q * x) == _ref_product(a, rq)
    if q:
        assert _stored(x / q) == _ref_product(a, {0: 1 / F(q)})
    if x.is_rational():
        assert hash(x) == hash(x.rational_value())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(-6, 6), _SMALL_COEFFICIENTS.filter(bool), st.integers(-3, 6))
def test_single_term_powers_match_repeated_products(e, c, p):
    x = PiNumber({e: c})
    factor = {e: c} if p >= 0 else {-e: 1 / c}
    want = {0: F(1)}
    for _ in range(abs(p)):
        want = _ref_product(want, factor)
    assert _stored(x**p) == want
    if p < 0:
        assert _stored(x.inverse()) == factor


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_TERMS.filter(lambda t: sum(1 for c in t.values() if c) != 1), st.integers(0, 4))
def test_powers_of_other_values_match_repeated_products(terms, p):
    x = PiNumber(terms)
    want = {0: F(1)}
    for _ in range(p):
        want = _ref_product(want, x.terms)
    assert _stored(x**p) == want


_NONZERO = _MIXED_COEFFICIENTS.filter(bool)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_MIXED_VALUES, _MIXED_VALUES, st.one_of(st.integers(-6, 6), _MIXED_COEFFICIENTS),
       st.tuples(st.integers(-6, 6), _NONZERO), st.tuples(st.integers(-6, 6), _NONZERO))
def test_every_ring_operation_stores_reduced_pairs(x, y, q, m1, m2):
    # with the tests above and below, which check the stored pairs through
    # ``_stored`` too, this covers every ring operation; q takes zero and
    # negative weights, and 2 over the even denominators of x, where a
    # skipped gcd would leave a pair unreduced
    a, b, rq = x.terms, y.terms, ({0: F(q)} if q else {})
    t1, t2 = dict([m1]), dict([m2])
    u, v = PiNumber(t1), PiNumber(t2)  # single terms
    one_over_v = {-m2[0]: 1 / m2[1]}
    zero = PiNumber.zero()
    cases = [
        (x * F(q), _ref_product(a, rq)), (x * zero, {}), (x * u, _ref_product(a, t1)),
        (u * v, _ref_product(t1, t2)), (u * -v, _ref_sum({}, _ref_product(t1, t2), -1)),
        (u * q, _ref_product(t1, rq)), (x / v, _ref_product(a, one_over_v)),
        (u / v, _ref_product(t1, one_over_v)),
        (linear_combination([(x, 1), (y, -1), (u, F(-1))]), _fold([(x, 1), (y, -1), (u, -1)])),
        (linear_combination([(x, q)]), _ref_product(a, rq)),
        (linear_combination([(x, q), (y, v), (u, -q)]), _fold([(x, q), (y, v), (u, -q)])),
        (linear_combination([(x, zero), (u, y)]), _ref_product(t1, b)),
        (parse_pinumber(format_pinumber(x)), a), (pinumber_from_json(pinumber_to_json(x)), a),
    ]
    for got, want in cases:
        assert _stored(got) == want
    assert hash(PiNumber.from_rational(q)) == hash(q) == hash(F(q))


@pytest.mark.parametrize("w", [2, -2, F(2), F(-4, 3), PiNumber.from_rational(2),
                               PiNumber.pi_power(2, -2)])
def test_a_single_term_of_a_non_unit_weight_is_reduced(w):
    # the one term of pi^0 that reaches its exponent is 3/4 * w: reduced only
    # by the kernel's final gcd
    got = linear_combination([(PiNumber.from_rational(F(3, 4)), w)])
    want = _fold([(PiNumber.from_rational(F(3, 4)), w)])
    assert _stored(got) == want


def _fold(pairs):
    """The sum of ``x * w`` by the reference operations on dicts: ``PiNumber``'s
    own ``+`` and ``*`` call ``linear_combination``, so they cannot check it."""
    total = {}
    for x, w in pairs:
        total = _ref_sum(total, _ref_product(x.terms, w.terms if isinstance(w, PiNumber) else {0: F(w)}))
    return total


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(_MIXED_VALUES, _WEIGHTS), max_size=6))
def test_linear_combination_matches_a_fold_of_ring_operations(pairs):
    want = _fold(pairs)
    assert _stored(linear_combination(pair for pair in pairs)) == want
    # cancellation: of every term, and of one pi-exponent at a time
    assert _stored(linear_combination(pairs + [(x, -w) for x, w in pairs])) == {}
    for e, c in want.items():
        rest = linear_combination(pairs + [(PiNumber({e: c}), -1)])
        assert _stored(rest) == {f: d for f, d in want.items() if f != e}


def test_linear_combination_of_nothing_is_zero():
    assert linear_combination([]).is_zero()
    assert linear_combination(iter(())).is_zero()
    pi = PiNumber.pi_power(2)
    assert linear_combination([(pi, 0), (pi, F(0)), (pi, PiNumber.zero())]).is_zero()


@pytest.mark.parametrize("t", [1, 2, 3, 8, 13])
def test_cached_gamma_values_survive_a_caller_mutating_terms(t):
    for fn, arg in ((gamma_half, t), (c_beta, t - 2)):
        before = fn(arg)
        text = format_pinumber(before)
        mutated = before.terms
        mutated.clear()
        mutated[5] = F(1)
        assert fn(arg) is before
        assert format_pinumber(fn(arg)) == text

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


def test_text_forms_of_any_size():
    # CPython limits str(int) and int(str) to 4,300 digits by default; the
    # text and JSON forms take longer ints, and write the digits that str()
    # writes with the limit off
    rng = random.Random(11)
    samples = []
    for digits in (4299, 4301, 9000, 30011):
        num = rng.randrange(10 ** (digits - 1), 10**digits)
        den = rng.randrange(1, 10**digits) | 1
        samples.append(PiNumber({-3: F(-num, den), 2: F(num + 1, 7), 0: F(5, den)}))
    texts = [(format_pinumber(x), pinumber_to_json(x)) for x in samples]
    for x, (text, data) in zip(samples, texts):
        assert parse_pinumber(text) == x
        assert pinumber_from_json(data) == x
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for x, (text, data) in zip(samples, texts):
            c = x.coefficient(-3)
            assert text.startswith(f"-{-c.numerator}/{c.denominator} * pi^(-3/2) + ")
            assert data[0] == {"half_exp": -3, "num": str(c.numerator), "den": str(c.denominator)}
    finally:
        sys.set_int_max_str_digits(limit)


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

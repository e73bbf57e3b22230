import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from angleworks.angle_engine import (
    _bJ_row,
    angle_table,
    bJ_exact,
    bJtilde_exact,
    bernoulli_fill,
    fill_row,
    integer_power,
    internal_row,
)
from angleworks.exact_scalars import DomainError, PiNumber, c_tilde_beta, gamma_half
from angleworks.series_kernel import residue_rational
from angleworks.trig_algebra import external_bI, external_bI_tilde
from angleworks.verify import (
    ParityError,
    lA_residue,
    p_alpha_k_value,
    relations_hold,
    rm_value,
)
from laurent_reference import (
    ONE,
    LaurentSeries,
    antiderivative_from_zero,
    int_power,
    multiply,
    residue,
    sin_power,
)

GOLDEN_5_1_M1 = PiNumber({-4: F(539, 288), 0: F(-1, 6)})
GOLDEN_5_1_0 = PiNumber({-4: F(1692197, 846720), 0: F(-1, 6)})


def _residue_rational_laurent(a: int, p: int, q: int) -> F:
    """Reference: the residue from full Laurent series in x."""
    if a < 0 or p < 0 or q < 1:
        raise DomainError(f"invalid residue parameters a={a}, p={p}, q={q}")
    val = p * (a + 1) - q
    if val > -1:
        return F(0)
    rel = (-1) - val + 2  # reach x^{-1} plus two safety terms
    if p == 0:
        num: LaurentSeries = ONE
    else:
        num = int_power(antiderivative_from_zero(sin_power(a, a + rel)), p)
    den = int_power(sin_power(1, 1 + rel), -q)
    return residue(multiply(num, den))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 12), st.integers(0, 8), st.integers(1, 80))
def test_residue_rational_matches_laurent_reference(a, p, q):
    value = residue_rational(a, p, q)
    assert type(value) is F
    assert value == _residue_rational_laurent(a, p, q)


def _naive_power(base: tuple[int, ...], j: int) -> list[int]:
    out = [1]
    for _ in range(j):
        nxt = [0] * (len(out) + len(base) - 1)
        for i, x in enumerate(out):
            for l, b in enumerate(base):
                nxt[i + l] += x * b
        out = nxt
    return out


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(-40, 40) | st.just(0), min_size=1, max_size=6).map(tuple),
    st.lists(st.integers(0, 12), min_size=3, max_size=3).map(sorted),
)
def test_integer_power_matches_naive_product(base, js):
    # the chain of one base is shared and grows in place: read a high power,
    # then a low one from the grown chain, then a higher one that grows it again
    low, high, higher = js
    for j in (high, low, higher):
        assert integer_power(base, j) == _naive_power(base, j)


def test_residue_rational_examples():
    # the triangle value forced by J_{3,2} = 3/2: a=1, p=1, q=5
    assert residue_rational(1, 1, 5) == F(3, 8)
    assert residue_rational(2, 1, 10) == F(64, 315)
    # valuation above -1 means no residue
    assert residue_rational(3, 2, 5) == 0
    # parity-inadmissible specs vanish (remark after the a-residue formula)
    assert residue_rational(2, 2, 8) == 0


def test_bJ_residue_examples():
    assert bJ_exact(4, 3, -1) == PiNumber.from_rational(2)  # n/2
    assert bJ_exact(5, 5, -1) == PiNumber.one()


def test_bJ_residue_feeds_fill_to_golden():
    z = [PiNumber.zero(), None, bJ_exact(5, 2, -2), None, bJ_exact(5, 4, -2), None]
    filled = bernoulli_fill(z)
    assert filled[1] == GOLDEN_5_1_M1
    assert filled[5] == PiNumber.one()  # boundary comes out automatically
    assert filled[4] == PiNumber.from_rational(F(5, 2))  # sigma_{n-1} = n/2
    assert filled[3] == bJ_exact(5, 3, -2)


def test_bJtilde_residue_examples():
    assert bJtilde_exact(4, 2, 5) == PiNumber.from_rational(F(6, 5))
    assert bJtilde_exact(3, 2, 3) == PiNumber.from_rational(F(3, 2))
    assert bJtilde_exact(6, 6, 7) == PiNumber.one()


def test_bernoulli_fill_triangle():
    z = [PiNumber.zero(), None, PiNumber.from_rational(F(3, 2)), PiNumber.one()]
    filled = bernoulli_fill(z)
    assert filled[1] == PiNumber.from_rational(F(1, 2))


def test_bernoulli_fill_zero_vector():
    z = [PiNumber.zero(), None, PiNumber.zero(), None, PiNumber.zero()]
    assert all(v.is_zero() for v in bernoulli_fill(z))


def test_bernoulli_fill_requires_opposite_class():
    # filling z_4 (even codimension) needs z_3, which is itself unknown
    with pytest.raises(DomainError):
        bernoulli_fill([PiNumber.zero(), None, PiNumber.one(), None, None])


def test_poincare_fill_table():
    known = {2: bJ_exact(5, 2, -2), 4: bJ_exact(5, 4, -2)}
    row = fill_row(PiNumber.zero(), 5, known.get)
    assert row[0] == (GOLDEN_5_1_M1, "fill")
    assert row[1] == (known[2], "residue")
    assert row[4] == (PiNumber.one(), "fill")


def test_bJ_exact_golden_values():
    assert bJ_exact(4, 1, -2) == PiNumber.from_rational(F(1, 8))
    assert bJ_exact(5, 1, -2) == GOLDEN_5_1_M1
    assert bJ_exact(4, 1, 0) == PiNumber.from_rational(F(401, 2560))
    assert bJ_exact(5, 1, 0) == GOLDEN_5_1_0
    assert bJ_exact(3, 1, 7) == PiNumber.from_rational(F(1, 2))


def test_bJ_exact_boundary_rows():
    for n in range(2, 9):
        for tb in (-2, -1, 0, 1, 2):
            if tb + n - 1 < max(n - 3, 0) and n > 3:
                continue
            assert bJ_exact(n, n, tb) == PiNumber.one()
            assert bJ_exact(n, n - 1, tb) == PiNumber.from_rational(F(n, 2))


def test_bJ_exact_validation():
    with pytest.raises(DomainError):
        bJ_exact(7, 1, -3)  # beta = -3/2 < -1
    with pytest.raises(DomainError):
        bJ_exact(4, 1, -3)  # beta < -1
    with pytest.raises(DomainError):
        bJ_exact(4, 5, 0)


def test_bJtilde_exact_examples():
    for n in range(1, 8):
        assert bJtilde_exact(n, n, n + 2) == PiNumber.one()
    assert bJtilde_exact(4, 2, 5) == PiNumber.from_rational(F(6, 5))
    assert bJtilde_exact(3, 2, 3) == PiNumber.from_rational(F(3, 2))
    with pytest.raises(DomainError):
        bJtilde_exact(4, 1, 3)  # alpha = 0


def test_bJtilde_fill_consistency():
    # odd-alpha rows fill odd k from even k; z_n = 1 must reproduce itself
    for n in range(2, 9):
        for alpha in (1, 3):
            row = [bJtilde_exact(n, k, alpha + n - 1) for k in range(1, n + 1)]
            assert row[-1] == PiNumber.one()
            assert row[-2] == PiNumber.from_rational(F(n, 2))


def test_poincare_relations_exact_tables():
    for n in range(2, 11):
        rows = []
        for alpha in range(max(n - 3, 0), max(n - 3, 0) + 3):
            rows.append([bJ_exact(n, k, alpha - n + 1) for k in range(1, n + 1)])
        for alpha in (1, 2, 3):
            rows.append([bJtilde_exact(n, k, alpha + n - 1) for k in range(1, n + 1)])
        for row in rows:
            z = [PiNumber.zero()] + row
            for m in range(n + 1):
                acc = PiNumber.zero()
                for k in range(m, n + 1):
                    acc = acc + F((-1) ** k * math.comb(k, m)) * z[k]
                assert acc == F((-1) ** n) * z[m]


def test_inversion_relations_sample():
    for n, alpha in ((4, 2), (5, 3), (6, 4), (7, 5)):
        for k in range(1, n):
            acc = PiNumber.zero()
            for m in range(k, n + 1):
                acc = acc + F((-1) ** m) * external_bI(n, m, alpha) * bJ_exact(
                    m, k, alpha - m + 1
                )
            assert acc.is_zero()
            acc = PiNumber.zero()
            for m in range(k, n + 1):
                acc = acc + F((-1) ** m) * external_bI_tilde(n, m, alpha) * bJtilde_exact(
                    m, k, alpha + m - 1
                )
            assert acc.is_zero()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["beta", "betaprime"]), st.integers(2, 14), st.integers(0, 6))
def test_relations_hold_on_random_exact_rows(family, n, step):
    # every admissible half-integer: beta >= -1 with alpha = 2 beta + n - 1
    # >= n - 3, or beta' with alpha = 2 beta - n + 1 >= 1
    twice_beta = (-2 if family == "beta" else n) + step
    row = angle_table(family, n, F(twice_beta, 2))
    assert relations_hold([PiNumber.zero()] + [v for v, _ in row.entries])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["beta", "betaprime"]), st.integers(2, 9), st.integers(0, 4), st.data())
def test_inversion_identity_on_random_parameters(family, n, step, data):
    # sum_m (-1)^m I_{n,m}(alpha) J_{m,k} = 0 for k < n
    k = data.draw(st.integers(1, n - 1))
    if family == "beta":
        alpha = max(n - 3, 0) + step
        terms = (external_bI(n, m, alpha) * bJ_exact(m, k, alpha - m + 1) for m in range(k, n + 1))
    else:
        alpha = 1 + step
        terms = (
            external_bI_tilde(n, m, alpha) * bJtilde_exact(m, k, alpha + m - 1)
            for m in range(k, n + 1)
        )
    acc = PiNumber.zero()
    for m, term in zip(range(k, n + 1), terms):
        acc = acc + F((-1) ** m) * term
    assert acc.is_zero()


def test_bJ_numeric_examples():
    assert abs(angle_table("beta", 4, -1.0).value(1) - 0.125) < 1e-10
    assert abs(angle_table("beta", 5, 0.0).value(1) - GOLDEN_5_1_0.to_float()) < 1e-10
    with pytest.raises(DomainError):
        angle_table("beta", 4, -1.5)
    with pytest.raises(DomainError):
        angle_table("betaprime", 4, 1.5)


@pytest.mark.parametrize("family, n, k, beta", [
    pytest.param("beta", 4, 1, math.nan, id="bJ_numeric-4-1-nan"),
    pytest.param("beta", 4, 1, math.inf, id="bJ_numeric-4-1-inf"),
    pytest.param("betaprime", 4, 2, math.inf, id="bJtilde_numeric-4-2-inf"),
    pytest.param("betaprime", 4, 2, math.nan, id="bJtilde_numeric-4-2-nan"),
])
def test_numeric_non_finite_beta_is_a_domain_error(family, n, k, beta):
    with pytest.raises(DomainError):
        angle_table(family, n, beta).value(k)


def test_numeric_beta_with_infinite_gamma_is_a_domain_error():
    # math.gamma(inf) returns inf without raising; the error must name Gamma
    with pytest.raises(DomainError, match="Gamma"):
        angle_table("beta", 4, 1e308)


@pytest.mark.parametrize("family, beta", [
    ("beta", 0.3), ("beta", -0.9), ("beta", 2.7), ("betaprime", 0.2), ("betaprime", 1.3),
])
def test_numeric_rows_use_closed_last_entries(family, beta):
    # J_{n,n} = 1 and J_{n,n-1} = n/2 exactly, not to quadrature accuracy
    for n in range(2, 9):
        b = beta + (n - 1) / 2 if family == "betaprime" else beta
        t = angle_table(family, n, b)
        assert t.value(n) == 1.0
        assert t.value(n - 1) == n / 2
        assert {t.provenance(k) for k in range(1, n + 1)} == {"numeric"}
    with pytest.raises(DomainError):
        angle_table("beta", 2, -1.5)
    with pytest.raises(DomainError):
        angle_table("betaprime", 2, 0.5)



@pytest.mark.parametrize("family, beta", [
    ("beta", -1.0), ("beta", 0.3), ("beta", 4.1),
    ("betaprime", 1.01), ("betaprime", 1.1), ("betaprime", 1.17), ("betaprime", 2.6),
])
def test_numeric_triangle_row_is_closed(family, beta):
    # a triangle's angles sum to pi, so J_{3,1} = 1/2 for every parameter,
    # also at betaprime beta in (1, 7/6], where alpha*n <= 1 and the
    # quadrature does not apply
    t = angle_table(family, 3, beta)
    assert [t.value(k) for k in (1, 2, 3)] == [0.5, 1.5, 1.0]
    assert {t.provenance(k) for k in (1, 2, 3)} == {"numeric"}


@pytest.mark.parametrize("n, beta", [(4, 1.55), (4, 1.625), (5, 2.05), (7, 3.05)])
def test_numeric_betaprime_domain_is_named(n, beta):
    # admissible (beta > (n-1)/2) but alpha*n <= 1, outside the quadrature
    with pytest.raises(DomainError, match=r"beta > \(n-1\)/2 \+ 1/\(2n\)"):
        angle_table("betaprime", n, beta)


def test_lA_residue_diagonals():
    for alpha in (1, 2, 3, 4, 5):
        for knum in range(1, 7):
            if (alpha * knum) % 2 == 1:
                got = lA_residue(alpha * knum, alpha * knum, alpha, 0)
                want = F(alpha, 2) * gamma_half(alpha * knum) / (
                    gamma_half(1) * gamma_half(alpha * knum + 1)
                )
                assert got == want
            else:
                got = lA_residue(alpha * knum, alpha * knum, alpha, 1)
                assert got == F(1, knum) * c_tilde_beta(alpha * knum + 1)


def test_lA_parity_error_exact_case():
    with pytest.raises(ParityError):
        lA_residue(6, 2, 2, 0)
    with pytest.raises(ParityError):
        lA_residue(5, 3, 1, 1)


def test_rm_values():
    for n in range(3, 11):
        assert rm_value(0, n) == 1
        assert rm_value(1, n) == F(n * n + n + 2, 2 * (n + 3))
    assert rm_value(1, 5) == 2


def test_p_alpha_k_values():
    for n in range(4, 11):
        assert p_alpha_k_value(1, 4, n) == F(n - 1, 6)
    for n in range(1, 9):
        assert p_alpha_k_value(2, 1, n) == 1
    with pytest.raises(ParityError):
        p_alpha_k_value(1, 3, 5)


def test_angle_table_exact_and_numeric():
    t = angle_table("beta", 5, F(-1))
    assert t.value(1) == GOLDEN_5_1_M1
    assert t.provenance(5) in ("residue", "fill")
    tn = angle_table("beta", 5, -1.0)
    assert tn.provenance(1) == "numeric"
    assert abs(tn.value(1) - GOLDEN_5_1_M1.to_float()) < 1e-9
    tt = angle_table("betaprime", 4, F(5, 2))
    assert tt.value(2) == PiNumber.from_rational(F(6, 5))


def test_provenance_tags_follow_dispatch_rule():
    # alpha even: residue on odd n-k, fill on even; alpha odd/odd: all residue;
    # alpha odd, n even: tangent algebra
    t = angle_table("beta", 6, F(0))  # alpha = 5, n even
    assert all(t.provenance(k) == "tan_algebra" for k in range(1, 7))
    t = angle_table("beta", 5, F(0))  # alpha = 4 even
    provs = [t.provenance(k) for k in range(1, 6)]
    assert provs == ["fill", "residue", "fill", "residue", "fill"]
    t = angle_table("beta", 5, F(-1, 2))  # alpha = 3, n odd
    assert all(t.provenance(k) == "residue" for k in range(1, 6))
    # beta': alpha*k even is a residue, the rest is filled
    t = angle_table("betaprime", 5, F(3))  # alpha = 2 even
    assert all(t.provenance(k) == "residue" for k in range(1, 6))
    t = angle_table("betaprime", 5, F(5, 2))  # alpha = 1 odd
    provs = [t.provenance(k) for k in range(1, 6)]
    assert provs == ["fill", "residue", "fill", "residue", "fill"]
    # closed rows: beta n <= 3 even where alpha = 2 beta + n - 1 < 0, beta' n = 1
    for n in (1, 2, 3):
        t = angle_table("beta", n, F(-1))
        assert all(t.provenance(k) == "closed" for k in range(1, n + 1))
    t = angle_table("betaprime", 1, F(1, 2))
    assert t.provenance(1) == "closed" and t.value(1) == PiNumber.one()
    # an exact beta' row needs alpha = 2 beta - n + 1 >= 1, also at n = 1
    for n, beta in ((4, F(3, 2)), (1, F(0))):
        with pytest.raises(DomainError):
            angle_table("betaprime", n, beta)


# -- internal_row: every row keyed by (n, alpha, s) ---------------------------


def _twice_beta(n, alpha, shift):
    """2 beta of the row at alpha: alpha - n + 1 or alpha + n - 1."""
    return alpha + n - 1 if shift else alpha - n + 1


@st.composite
def _exact_rows(draw, min_n=1):
    """(n, alpha, shift) of an exact row, alpha up to 12 past the least one
    (beyond the alphas of ``verify``'s suites)."""
    shift = draw(st.sampled_from((0, 1)))
    n = draw(st.integers(min_n, 12))
    low = 1 if shift else n - 3
    return n, draw(st.integers(low, low + 12)), shift


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_exact_rows())
def test_internal_row_is_the_row_of_every_beta_entry_point(case):
    n, alpha, shift = case
    row = internal_row(n, alpha, shift)
    tb = _twice_beta(n, alpha, shift)
    assert angle_table("betaprime" if shift else "beta", n, F(tb, 2)).entries == row
    single = bJtilde_exact if shift else bJ_exact
    assert [single(n, k, tb) for k in range(1, n + 1)] == [v for v, _ in row]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_exact_rows(min_n=2))
def test_internal_rows_satisfy_the_poincare_relations(case):
    row = internal_row(*case)
    assert relations_hold([PiNumber.zero()] + [v for v, _ in row])


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(_exact_rows())
def test_beta_and_alpha_reads_share_one_cached_row(case):
    n, alpha, shift = case
    _bJ_row.cache_clear()
    single = bJtilde_exact if shift else bJ_exact
    single(n, 1, _twice_beta(n, alpha, shift))
    assert _bJ_row.cache_info().currsize == 1
    internal_row(n, alpha, shift)
    info = _bJ_row.cache_info()
    assert (info.currsize, info.hits) == (1, 1)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((0, 1)), st.integers(1, 12), st.integers(0, 64))
def test_float_alpha_rows_equal_angle_table_on_a_dyadic_grid(shift, n, eighths):
    # alpha = n - 3 + j/8 (beta >= -1) or 1/2 + j/8 (alpha*n >= 2, clear of
    # the beta' tail band): beta and alpha are both exact floats
    alpha = F(n - 3 if shift == 0 else F(1, 2)) + F(eighths, 8)
    beta = float(F(_twice_beta(n, alpha, shift), 2))
    table = angle_table("betaprime" if shift else "beta", n, beta)
    assert internal_row(n, float(alpha), shift) == table.entries


def _message(call) -> str:
    with pytest.raises(DomainError) as info:
        call()
    return str(info.value)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((0, 1)), st.integers(1, 12), st.integers(0, 20), st.booleans())
def test_out_of_domain_alpha_raises_the_beta_message(shift, n, depth, numeric):
    # alpha < n - 3 (beta < -1) or alpha <= 0 (beta <= (n-1)/2), depth steps
    # past the bound, in whole steps or in quarter steps on the float path
    step = F(1, 4) if numeric else 1
    alpha = -step * depth if shift else n - 3 - step * (depth + 1)
    beta = F(_twice_beta(n, alpha, shift), 2)
    if numeric:
        alpha, beta = float(alpha), float(beta)
    want = "beta > (n-1)/2 required" if shift else "beta >= -1 required"
    family = "betaprime" if shift else "beta"
    assert _message(lambda: internal_row(n, alpha, shift)) == want
    assert _message(lambda: angle_table(family, n, beta)) == want


@pytest.mark.parametrize("n", [4, 5, 7, 12])
@pytest.mark.parametrize("quarters", [1, 2, 3])
def test_numeric_betaprime_alpha_below_one_over_n_is_named(n, quarters):
    # 0 < alpha*n <= 1: admissible, outside the quadrature
    alpha = quarters / (4 * n)
    want = _message(lambda: angle_table("betaprime", n, (alpha + n - 1) / 2))
    assert want.startswith("the numeric betaprime path needs beta > (n-1)/2 + 1/(2n)")
    assert _message(lambda: internal_row(n, alpha, 1)) == want


def test_internal_row_needs_a_positive_n():
    for shift in (0, 1):
        assert _message(lambda: internal_row(0, 2, shift)) == "n must be positive"
        assert _message(lambda: internal_row(0, 2.5, shift)) == "n must be positive"


def test_float_betaprime_bound_is_exact_down_to_tiny_beta():
    # beta' at n = 1 needs beta > 0: alpha = 2 beta, not (2 beta - 1) + 1 = 0
    assert angle_table("betaprime", 1, 1e-20).entries == ((1.0, "numeric"),)
    assert internal_row(1, 2e-20, 1) == ((1.0, "numeric"),)

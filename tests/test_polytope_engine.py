import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from angleworks.exact_scalars import DomainError, PiNumber
from angleworks.polytope_engine import (
    beta_polytope_fvector,
    betaprime_polytope_fvector,
    dehn_sommerville_holds,
    euler_relation_holds,
    face_intensity,
    poisson_polytope_fvector,
    poisson_residue_entry,
    reitzner_ball,
    reitzner_ball_residue,
    reitzner_sphere,
    reitzner_sphere_residue,
    typical_voronoi_fvector,
    x_over_sin_coeff,
    zero_cell_entry_even,
    zero_cell_entry_product,
    zero_cell_fvector,
)
from angleworks.verify import ugly_coefficient
from laurent_reference import coefficient, int_power, sin_power

PI2 = PiNumber.pi_power(4)


def _rat(q):
    return PiNumber.from_rational(q)


def test_poisson_polytope_examples():
    fv = poisson_polytope_fvector(3, 2)
    assert fv.values() == (_rat(12), _rat(30), _rat(20))
    assert poisson_polytope_fvector(1, 4).values() == (_rat(2),)
    # duality with the zero cell: f_1(Pi_{2,1}) = E f_0(Z_2) = pi^2/2
    fv = poisson_polytope_fvector(2, 1)
    assert fv.value(1) == PiNumber.pi_power(4, F(1, 2))
    assert fv.value(1) == zero_cell_fvector(2).value(0)


def test_poisson_alpha2_is_A063007():
    for d in range(1, 11):
        fv = poisson_polytope_fvector(d, 2)
        for k in range(1, d + 1):
            assert fv.value(k - 1) == _rat(math.comb(d, k) * math.comb(d + k, k))


def test_poisson_numeric_path_matches_exact():
    fv_exact = poisson_polytope_fvector(3, 2)
    fv_num = poisson_polytope_fvector(3, 2.0)
    for ell in range(3):
        assert fv_num.provenance(ell) == "numeric"
        assert abs(fv_num.value(ell) - fv_exact.value(ell).to_float()) < 1e-8


def test_poisson_residue_cross_check():
    for d in range(1, 8):
        for alpha in (1, 2, 3, 4):
            fv = poisson_polytope_fvector(d, alpha)
            for k in range(1, d + 1):
                if (alpha * k) % 2 == 0:
                    assert poisson_residue_entry(d, k, alpha) == fv.value(k - 1)


def test_zero_cell_examples():
    fv = zero_cell_fvector(2)
    assert fv.values() == (PiNumber.pi_power(4, F(1, 2)),) * 2
    assert zero_cell_fvector(3).value(1) == PiNumber.pi_power(4, 2)
    assert euler_relation_holds(fv)


def test_zero_cell_product_equals_coefficient_form():
    for d in range(1, 13):
        for ell in range(d):
            if (d - ell) % 2 == 0:
                assert zero_cell_entry_even(d, ell) == zero_cell_entry_product(d, ell)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 20), st.integers(0, 30))
def test_x_over_sin_coeff_matches_laurent_power(power, j):
    # [x^j] (x / sin x)^power = [x^(j - power)] (sin x)^-power
    want = coefficient(int_power(sin_power(1, j + 3), -power), j - power)
    assert x_over_sin_coeff(power, j) == want


def test_curious_combinatorial_identity():
    from angleworks.polytope_engine import parity_product_coeff

    for d in range(1, 13):
        for m in range(0, d + 1, 2):
            lhs = F(math.factorial(d), math.factorial(d - m)) * x_over_sin_coeff(d + 1, m)
            assert lhs == parity_product_coeff(d, m)


def test_zero_cell_ugly_display_matches_fill():
    # the odd-codimension entries by the bivariate coefficient route, with
    # G = x (s = 0)
    inv_pi = PiNumber.pi_power(-2)
    for d in (3, 4, 5, 6):
        fv = zero_cell_fvector(d)
        for ell in range(d):
            if (d - ell) % 2 == 0:
                continue
            if d % 2 == 1:
                val = ugly_coefficient(0, inv_pi, d + 1, ell, "sin_over_tan")
                sign = (-1) ** (ell // 2)
            else:
                val = ugly_coefficient(0, inv_pi, d + 1, ell, "cos_over_cot")
                sign = (-1) ** ((ell - 1) // 2)
            pref = F(sign * math.factorial(d), math.factorial(d - ell))
            assert pref * PiNumber.pi_power(2 * d) * val == fv.value(ell)


def test_voronoi_examples():
    assert typical_voronoi_fvector(2).values() == (_rat(6), _rat(6))
    fv = typical_voronoi_fvector(3)
    assert fv.values() == (
        PiNumber.pi_power(4, F(96, 35)),
        PiNumber.pi_power(4, F(144, 35)),
        PiNumber({0: 2, 4: F(48, 35)}),
    )
    assert typical_voronoi_fvector(1).values() == (_rat(2),)


def test_voronoi_residue_cross_check():
    for d in range(1, 8):
        fv = typical_voronoi_fvector(d)
        for k in range(1, d + 1):
            if (d * k) % 2 == 0:
                assert poisson_residue_entry(d, k, d) == fv.value(d - k)


def test_voronoi_arithmetic_forms():
    from angleworks.verify import voronoi_form_ok

    for d in range(1, 11):
        assert voronoi_form_ok(d)


def test_face_intensity_examples():
    assert face_intensity(2, 0) == _rat(2)
    assert face_intensity(2, 2) == PiNumber.one()
    assert face_intensity(3, 1) == PiNumber.pi_power(4, F(48, 35))


def test_beta_polytope_simplex_case():
    for d in (1, 2, 3, 4):
        fv = beta_polytope_fvector(d + 1, d, F(1, 2))
        for k in range(1, d + 1):
            assert fv.value(k - 1) == _rat(math.comb(d + 1, k))


def test_beta_polytope_sylvester():
    fv = beta_polytope_fvector(4, 2, F(0))
    expect = PiNumber({0: 4, -4: F(-35, 12)})
    assert fv.values() == (expect, expect)


def test_beta_polytope_facet_ridge_ratio():
    for d in (2, 3, 4, 5):
        for n in (d + 1, d + 2, d + 4):
            for tb in (-2, -1, 0, 1):
                fv = beta_polytope_fvector(n, d, F(tb, 2))
                if d >= 2:
                    assert fv.value(d - 2) == F(d, 2) * fv.value(d - 1)


def test_beta_polytope_numeric_path():
    fv = beta_polytope_fvector(5, 2, 0.25)
    assert fv.provenance(0) == "numeric"
    ex = beta_polytope_fvector(5, 2, F(1, 2))
    num = beta_polytope_fvector(5, 2, 0.5)
    for ell in range(2):
        assert abs(num.value(ell) - ex.value(ell).to_float()) < 1e-8


def test_betaprime_polytope_examples():
    for d in (1, 2, 3):
        fv = betaprime_polytope_fvector(d + 1, d, F(d + 2, 2))
        for k in range(1, d + 1):
            assert fv.value(k - 1) == _rat(math.comb(d + 1, k))
    fv = betaprime_polytope_fvector(4, 2, F(3, 2))  # alpha = 1 half-sphere model
    assert fv.value(0) == fv.value(1)  # planar polygon
    assert euler_relation_holds(fv)
    for d in (2, 3, 4):
        fv = betaprime_polytope_fvector(d + 3, d, F(d + 3, 2))
        assert fv.value(d - 2) == F(d, 2) * fv.value(d - 1)


def test_betaprime_numeric_path():
    ex = betaprime_polytope_fvector(4, 2, F(5, 2))
    num = betaprime_polytope_fvector(4, 2, 2.5)
    for ell in range(2):
        assert abs(num.value(ell) - ex.value(ell).to_float()) < 1e-8


def test_polytope_domain_errors():
    with pytest.raises(DomainError):
        beta_polytope_fvector(3, 3, F(0))  # n < d+1
    with pytest.raises(DomainError):
        beta_polytope_fvector(4, 2, F(-3, 2))
    with pytest.raises(DomainError):
        betaprime_polytope_fvector(4, 2, F(1, 2))  # beta <= d/2
    with pytest.raises(DomainError):
        poisson_polytope_fvector(3, 0)


def test_euler_and_dehn_sommerville_all_models():
    for d in range(1, 11):
        assert euler_relation_holds(typical_voronoi_fvector(d))
        assert dehn_sommerville_holds(typical_voronoi_fvector(d))
        assert euler_relation_holds(zero_cell_fvector(d))
        assert dehn_sommerville_holds(zero_cell_fvector(d))
        for alpha in (1, 2, 3):
            fv = poisson_polytope_fvector(d, alpha)
            assert euler_relation_holds(fv) and dehn_sommerville_holds(fv)
        fv = beta_polytope_fvector(d + 2, d, F(0))
        assert euler_relation_holds(fv) and dehn_sommerville_holds(fv)
        fv = betaprime_polytope_fvector(d + 2, d, F(d + 2, 2))
        assert euler_relation_holds(fv) and dehn_sommerville_holds(fv)


@st.composite
def _exact_fvectors(draw):
    model = draw(st.sampled_from(["voronoi", "zerocell", "poisson", "beta", "betaprime"]))
    if model == "voronoi":
        return typical_voronoi_fvector(draw(st.integers(1, 12)))
    if model == "zerocell":
        return zero_cell_fvector(draw(st.integers(1, 14)))
    if model == "poisson":
        return poisson_polytope_fvector(draw(st.integers(1, 10)), draw(st.integers(1, 6)))
    d = draw(st.integers(1, 8))
    n = d + draw(st.integers(1, 4))
    if model == "beta":
        return beta_polytope_fvector(n, d, F(draw(st.integers(-2 if d > 1 else 0, 3)), 2))
    return betaprime_polytope_fvector(n, d, F(d + draw(st.integers(1, 5)), 2))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_exact_fvectors())
def test_dehn_sommerville_on_random_exact_fvectors(fv):
    assert dehn_sommerville_holds(fv)
    assert euler_relation_holds(fv)


def test_all_entries_positive():
    for d in range(1, 9):
        for fv in (typical_voronoi_fvector(d), zero_cell_fvector(d),
                   poisson_polytope_fvector(d, 3)):
            assert all(v.to_float() > 0 for v in fv.values())


def test_reitzner_sphere_examples():
    for d in range(2, 9):
        assert reitzner_sphere(d, 0).exact == PiNumber.one()
    assert reitzner_sphere(2, 1).exact == PiNumber.one()  # polygon: f_1 = f_0
    assert reitzner_sphere(3, 2).exact == _rat(2)  # 2n - 4 facets
    assert reitzner_sphere(3, 1).exact == _rat(3)  # 3n - 6 edges


def test_reitzner_ratios():
    for d in range(3, 9):
        cb = reitzner_ball(d, d - 2).value, reitzner_ball(d, d - 1).value
        assert abs(cb[0] - d / 2 * cb[1]) <= 1e-10 * cb[0]
        cs = reitzner_sphere(d, d - 2).value, reitzner_sphere(d, d - 1).value
        assert abs(cs[0] - d / 2 * cs[1]) <= 1e-10 * cs[0]
        # the sphere family is exact: verify the ratio exactly as well
        assert reitzner_sphere(d, d - 2).exact == F(d, 2) * reitzner_sphere(d, d - 1).exact


def test_reitzner_residue_forms():
    for d in range(2, 8):
        for k in range(0, d):
            if d % 2 == 1 or (d - k) % 2 == 0:
                direct = reitzner_ball(d, k).value
                assert abs(reitzner_ball_residue(d, k) - direct) <= 1e-9 * direct
                assert reitzner_sphere_residue(d, k) == reitzner_sphere(d, k).exact


def test_reitzner_positive():
    for d in range(2, 8):
        for k in range(0, d):
            assert reitzner_ball(d, k).value > 0
            assert reitzner_sphere(d, k).value > 0


def test_reitzner_renyi_sulanke_disk():
    # d=2: the limit constant for the disk equals Gamma(5/3) (2/3)^(1/3)
    # * 2 pi^(2/3)  (affine surface area 2 pi, volume pi)
    want = math.gamma(5 / 3) * (2 / 3) ** (1 / 3) * 2 * math.pi ** (2 / 3)
    for k in (0, 1):
        assert abs(reitzner_ball(2, k).value - want) < 1e-10 * want

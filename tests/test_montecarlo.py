import math
from fractions import Fraction as F

import numpy as np
import pytest
import scipy.stats

from angleworks.angle_engine import bJtilde_exact
from angleworks.exact_scalars import DomainError
from angleworks.montecarlo import (
    _rng,
    _sample_beta,
    _sample_betaprime,
    convex_hull_2d,
    mc_angle_sum,
    mc_beta_hull_2d,
    mc_voronoi_2d,
    sample_beta_point,
    sample_betaprime_point,
)
from angleworks.polytope_engine import beta_polytope_fvector

KS_1PCT = 1.63  # asymptotic 1% critical value of sqrt(n) * D_n


def test_sample_beta_point_shapes_and_norms():
    rng = _rng(1)
    p = sample_beta_point(3, 0.5, rng)
    assert p.shape == (3,) and np.linalg.norm(p) < 1.0
    q = sample_beta_point(4, -1.0, rng)
    assert abs(np.linalg.norm(q) - 1.0) < 1e-12


def test_beta_radial_moments():
    rng = _rng(7)
    pts = _sample_beta(2, 0.0, 100_000, rng)
    r2 = np.sum(pts * pts, axis=1)
    # E r^2 = (d/2)/(d/2 + beta + 1) = 1/2
    se = np.std(r2, ddof=1) / math.sqrt(len(r2))
    assert abs(np.mean(r2) - 0.5) < 4 * se
    # d=1, beta=0 is uniform on [-1, 1]
    pts1 = _sample_beta(1, 0.0, 100_000, rng)
    se1 = np.std(pts1, ddof=1) / math.sqrt(pts1.size)
    assert abs(np.mean(pts1)) < 4 * se1


def test_beta_radial_ks():
    rng = _rng(11)
    pts = _sample_beta(3, 1.5, 100_000, rng)
    r2 = np.sum(pts * pts, axis=1)
    stat = scipy.stats.kstest(r2, scipy.stats.beta(1.5, 2.5).cdf).statistic
    assert stat * math.sqrt(len(r2)) < KS_1PCT


def test_betaprime_radial_law():
    rng = _rng(13)
    pts = _sample_betaprime(2, 3.0, 100_000, rng)
    r2 = np.sum(pts * pts, axis=1)
    # r^2/(1+r^2) ~ Beta(d/2, beta-d/2) = Beta(1, 2): mean 1/3
    t = r2 / (1 + r2)
    se = np.std(t, ddof=1) / math.sqrt(len(t))
    assert abs(np.mean(t) - 1 / 3) < 4 * se
    stat = scipy.stats.kstest(t, scipy.stats.beta(1.0, 2.0).cdf).statistic
    assert stat * math.sqrt(len(t)) < KS_1PCT
    # symmetry of the direction
    assert np.all(np.abs(np.mean(pts, axis=0)) < 4 * np.std(pts, axis=0) / math.sqrt(len(pts)))


def test_sampler_domain_errors():
    rng = _rng(0)
    with pytest.raises(DomainError):
        sample_beta_point(2, -1.5, rng)
    with pytest.raises(DomainError):
        sample_betaprime_point(2, 1.0, rng)


def test_estimators_reproducible():
    a = mc_angle_sum("beta", 4, 2, 0.0, simplices=50, directions=64, seed=5)
    b = mc_angle_sum("beta", 4, 2, 0.0, simplices=50, directions=64, seed=5)
    assert a == b
    h1 = mc_beta_hull_2d(5, 0.5, trials=500, seed=9)
    h2 = mc_beta_hull_2d(5, 0.5, trials=500, seed=9)
    assert h1 == h2
    v1 = mc_voronoi_2d(6.0, trials=200, seed=3)
    v2 = mc_voronoi_2d(6.0, trials=200, seed=3)
    assert v1 == v2


def test_mc_angle_triangle():
    est = mc_angle_sum("beta", 3, 1, 0.0, simplices=300, directions=256, seed=21)
    assert est.agrees(0.5)
    assert est.stderr > 0


def test_mc_angle_full_face_is_one():
    est = mc_angle_sum("beta", 4, 4, 1.0, simplices=20, directions=32, seed=2)
    assert est.mean == 1.0 and est.stderr == 0.0


def test_mc_angle_golden_value():
    est = mc_angle_sum("beta", 4, 1, -1.0, simplices=600, directions=256, seed=17)
    assert est.agrees(0.125)


def test_mc_angle_betaprime():
    est = mc_angle_sum("betaprime", 4, 2, 2.5, simplices=500, directions=256, seed=23)
    assert est.agrees(bJtilde_exact(4, 2, 5).to_float())


def test_mc_angle_validation():
    with pytest.raises(DomainError):
        mc_angle_sum("beta", 8, 1, 0.0)
    with pytest.raises(DomainError):
        mc_angle_sum("gauss", 4, 1, 0.0)


def test_convex_hull_square_and_collinear():
    sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
    assert len(convex_hull_2d(sq)) == 4
    with_collinear = np.array([[0, 0], [2, 0], [1, 0], [2, 2], [0, 2]])
    assert len(convex_hull_2d(with_collinear)) == 4


def test_mc_hull_triangle_exact():
    est = mc_beta_hull_2d(3, 1.0, trials=200, seed=1)
    assert est.mean == 3.0 and est.stderr == 0.0


def test_mc_hull_sylvester():
    est = mc_beta_hull_2d(4, 0.0, trials=20000, seed=42)
    assert est.agrees(4 - 35 / (12 * math.pi**2))


def test_mc_hull_sphere_case():
    # beta = -1: n points on the circle are all extreme
    est = mc_beta_hull_2d(5, -1.0, trials=300, seed=4)
    assert est.mean == 5.0
    exact = beta_polytope_fvector(5, 2, F(-1)).value(0)
    assert exact.to_float() == pytest.approx(5.0)


def test_mc_voronoi_mean_six():
    est = mc_voronoi_2d(6.0, trials=4000, seed=12)
    assert est.agrees(6.0)
    assert est.trials == 4000


def test_mc_voronoi_window_invariance():
    # the cell law does not depend on the observation window
    a = mc_voronoi_2d(5.0, trials=2500, seed=31)
    b = mc_voronoi_2d(8.0, trials=2500, seed=77)
    joint = math.hypot(a.stderr, b.stderr)
    assert abs(a.mean - b.mean) <= 4 * joint

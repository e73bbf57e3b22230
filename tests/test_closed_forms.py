"""Closed forms for the f_0 of the typical Poisson-Voronoi cell and of the
zero cell, built only from ``gamma_half``: no angle, residue or kernel of
the engine enters them."""

import math
from fractions import Fraction

import pytest

from angleworks.exact_scalars import PiNumber, gamma_half
from angleworks.polytope_engine import typical_voronoi_fvector, zero_cell_fvector

DIMENSIONS = [*range(1, 13), 20]


def moller_voronoi_f0(d: int) -> PiNumber:
    """E f_0 of the typical Poisson-Voronoi cell in R^d (Moller 1989):
    2^(d+1) pi^((d-1)/2) / d^2 * Gamma((d^2+1)/2) / Gamma(d^2/2)
    * (Gamma(d/2+1) / Gamma((d+1)/2))^d."""
    ratio = gamma_half(d * d + 1) / gamma_half(d * d)
    return (PiNumber.pi_power(d - 1, 2 ** (d + 1)) / (d * d) * ratio
            * (gamma_half(d + 2) / gamma_half(d + 1)) ** d)


def zero_cell_f0(d: int) -> PiNumber:
    """E f_0 of the zero cell of the isotropic Poisson hyperplane
    tessellation in R^d: d! kappa_d^2 / 2^d, with kappa_d = pi^(d/2) /
    Gamma(d/2+1) the volume of the unit ball (Schneider-Weil 2008)."""
    kappa = PiNumber.pi_power(d) / gamma_half(d + 2)
    return kappa * kappa * math.factorial(d) / 2 ** d


@pytest.mark.parametrize("d", DIMENSIONS)
def test_voronoi_f0_equals_moller(d):
    assert typical_voronoi_fvector(d).value(0) == moller_voronoi_f0(d)


@pytest.mark.parametrize("d", DIMENSIONS)
def test_zero_cell_f0_equals_closed_form(d):
    assert zero_cell_fvector(d).value(0) == zero_cell_f0(d)


def test_closed_forms_at_known_values():
    # a segment has two vertices; a planar Voronoi cell has six on average,
    # a planar zero cell pi^2/2 and a spatial Voronoi cell 96 pi^2/35
    assert moller_voronoi_f0(1) == zero_cell_f0(1) == 2
    assert moller_voronoi_f0(2) == 6
    assert zero_cell_f0(2) == PiNumber.pi_power(4, Fraction(1, 2))
    assert moller_voronoi_f0(3) == PiNumber.pi_power(4, Fraction(96, 35))

"""angleworks: exact expected angles of random simplices and expected
f-vectors of random polytopes, with a Monte Carlo verification oracle."""

from .exact_scalars import (
    DomainError,
    PiNumber,
    c_beta,
    c_tilde_beta,
    format_pinumber,
    gamma_half,
    normalizing_constant,
    parse_pinumber,
    pinumber_from_json,
    pinumber_to_json,
    to_decimal,
)
from .series_kernel import residue_rational
from .angle_engine import (
    AngleTable,
    angle_table,
    bJ_exact,
    bJtilde_exact,
    bernoulli_fill,
    fill_row,
)
from .polytope_engine import (
    FVector,
    ReitznerConstant,
    beta_polytope_fvector,
    betaprime_polytope_fvector,
    face_intensity,
    poisson_polytope_fvector,
    reitzner_ball,
    reitzner_sphere,
    typical_voronoi_fvector,
    zero_cell_fvector,
)
from .montecarlo import (
    McEstimate,
    mc_angle_sum,
    mc_beta_hull_2d,
    mc_voronoi_2d,
    sample_beta_point,
    sample_betaprime_point,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

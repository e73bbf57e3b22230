"""An independent oracle for the beta and beta' hull f-vectors: Qhull
(``scipy.spatial.ConvexHull``) counts the faces of seeded random hulls, and
the mean count must lie within four standard errors of the exact value."""

from fractions import Fraction as F

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from angleworks.montecarlo import _rng, _sample_beta, _sample_betaprime, _summarize
from angleworks.polytope_engine import beta_polytope_fvector, betaprime_polytope_fvector

_FAMILIES = {
    "beta": (_sample_beta, beta_polytope_fvector),
    "betaprime": (_sample_betaprime, betaprime_polytope_fvector),
}


def _f0_f1(pts: np.ndarray) -> tuple[int, int]:
    """Vertices and edges of the hull of points in general position: the
    hull is simplicial, so every edge joins two vertices of one facet."""
    facets = ConvexHull(pts).simplices
    i, j = np.triu_indices(facets.shape[1], 1)
    lo = np.minimum(facets[:, i], facets[:, j])
    hi = np.maximum(facets[:, i], facets[:, j])
    return len(np.unique(facets)), len(np.unique(lo * len(pts) + hi))


@pytest.mark.parametrize(
    "family, n, d, beta, trials",
    [
        ("beta", 14, 3, F(0), 1000),
        ("beta", 10, 3, F(-1), 200),  # on the sphere every point is a vertex
        ("betaprime", 14, 3, F(2), 1000),
        ("beta", 16, 4, F(-1, 2), 1000),
        ("beta", 12, 4, F(-1), 400),
        ("betaprime", 10, 4, F(5, 2), 1000),
    ],
)
def test_hull_fvector_matches_qhull_counts(family, n, d, beta, trials):
    sample, fvector = _FAMILIES[family]
    seed = 100 * d + n
    pts = sample(d, float(beta), trials * n, _rng(seed)).reshape(trials, n, d)
    counts = np.array([_f0_f1(p) for p in pts], dtype=float)
    exact = fvector(n, d, beta)
    for ell in (0, 1):
        z = _summarize(counts[:, ell], seed).z(exact.value(ell).to_float())
        assert z <= 4.0, (ell, z)

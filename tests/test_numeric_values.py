"""Numeric-path values pinned to 1e-13 relative.

The values were recorded from the separate beta and beta' quadrature
formulas before both families were served by one formula with the inner
cosine exponent lowered by s = 1 for beta'.  The shared formula reorders a
few float operations, so the last bits may move, but no more than that.
"""

import pytest

from angleworks import (
    angle_table,
    beta_polytope_fvector,
    betaprime_polytope_fvector,
    poisson_polytope_fvector,
)
from angleworks.quadrature import a_numeric, a_tilde_numeric

PINNED = [
    ("angles beta n=6 beta=0.3",
     lambda: [v for v, _ in angle_table("beta", 6, 0.3).entries],
     [0.00705464199833717, 0.24967533130248223, 1.4852413786082905,
      3.242620689304143, 3.0, 1.0]),
    ("angles betaprime n=6 beta=4.1",
     lambda: [v for v, _ in angle_table("betaprime", 6, 4.1).entries],
     [0.01945041340710801, 0.331178226632311, 1.6234556264504072,
      3.311727813225204, 3.0, 1.0]),
    ("poisson d=4 alpha=1.5",
     lambda: poisson_polytope_fvector(4, 1.5).values(),
     [16.23760564062899, 68.40097675229157, 104.32674222332514, 52.163371111662556]),
    ("beta polytope (6, 4, 0.3)",
     lambda: beta_polytope_fvector(6, 4, 0.3).values(),
     [5.987754449047987, 14.514280296947572, 17.05305169579917, 8.526525847899585]),
    ("betaprime polytope (6, 4, 3.3)",
     lambda: betaprime_polytope_fvector(6, 4, 3.3).values(),
     [5.957648706850242, 14.316849819789342, 16.7184022258782, 8.3592011129391]),
    ("a_numeric",
     lambda: [a_numeric(*p) for p in ((2.5, 0.5, 1.5), (3.0, 1.0, 2.7), (1.25, 1.25, 0.8))],
     [-0.07929369049994248, 0.34057479277339925, 0.39999999999999997]),
    ("a_tilde_numeric",
     lambda: [a_tilde_numeric(*p) for p in ((2.5, 0.5, 1.5), (3.0, 1.0, 2.7), (1.25, 1.25, 0.8))],
     [0.36888709416863635, 0.7218413719357578, 0.2546479089470325]),
]


@pytest.mark.parametrize("compute, want", [p[1:] for p in PINNED], ids=[p[0] for p in PINNED])
def test_numeric_value_pinned(compute, want):
    got = list(compute())
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-13, abs=0)

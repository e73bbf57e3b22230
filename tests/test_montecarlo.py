import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from angleworks.angle_engine import bJtilde_exact
from angleworks import montecarlo
from angleworks.exact_scalars import DomainError
from angleworks.montecarlo import (
    _HULL_CELLS,
    McEstimate,
    _hull_vertex_counts,
    _rng,
    _sample_beta,
    _sample_betaprime,
    _summarize,
    mc_angle_sum,
    mc_beta_hull_2d,
    mc_voronoi_2d,
    sample_beta_point,
    sample_betaprime_point,
)
from angleworks.polytope_engine import beta_polytope_fvector
from mc_dump import MC_DIGEST, dump_text

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


@pytest.mark.parametrize("d", [0, -1])
@pytest.mark.parametrize(
    "sampler, beta", [(sample_beta_point, 0.0), (sample_beta_point, -1.0), (sample_betaprime_point, 1.0)]
)
def test_dimension_below_one_is_a_domain_error(sampler, beta, d):
    # before this check NumPy raised on some of these and the beta' sampler
    # returned an empty point; the check comes before any draw
    rng = _rng(3)
    state = rng.bit_generator.state
    with pytest.raises(DomainError):
        sampler(d, beta, rng)
    assert rng.bit_generator.state == state


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
    # a single point is its own only face, in either family
    assert mc_angle_sum("beta", 1, 1, 0.0, simplices=3).mean == 1.0
    assert mc_angle_sum("betaprime", 1, 1, 1.0, simplices=3).mean == 1.0


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
    # k = n needs no draws, but beta is still checked against the family
    with pytest.raises(DomainError):
        mc_angle_sum("betaprime", 4, 4, 1.5)
    with pytest.raises(DomainError):
        mc_angle_sum("beta", 3, 3, -2.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: mc_angle_sum("beta", 3, 1, 0.0, simplices=0),
        lambda: mc_angle_sum("beta", 3, 1, 0.0, simplices=-5),
        lambda: mc_angle_sum("beta", 3, 3, 0.0, simplices=0),
        lambda: mc_angle_sum("betaprime", 4, 2, 3.0, directions=0),
        lambda: mc_angle_sum("beta", 4, 2, 0.0, directions=-1),
        lambda: mc_beta_hull_2d(4, 0.0, trials=0),
        lambda: mc_beta_hull_2d(4, 0.0, trials=-3),
        lambda: mc_voronoi_2d(trials=0),
        lambda: mc_voronoi_2d(trials=-2),
        lambda: mc_voronoi_2d(0.0),
        lambda: mc_voronoi_2d(-6.0),
        lambda: mc_voronoi_2d(math.inf),
        lambda: mc_voronoi_2d(math.nan),
    ],
    ids=[
        "angle-simplices-0", "angle-simplices-neg", "angle-k=n-simplices-0",
        "angle-directions-0", "angle-directions-neg", "hull-trials-0", "hull-trials-neg",
        "voronoi-trials-0", "voronoi-trials-neg", "voronoi-window-0", "voronoi-window-neg",
        "voronoi-window-inf", "voronoi-window-nan",
    ],
)
def test_empty_or_invalid_sample_sizes_are_domain_errors(call):
    # an empty sample has no mean: before these guards it returned nan (with
    # a RuntimeWarning), a NumPy ValueError, or a mean of 0 for an empty window
    with pytest.raises(DomainError):
        call()


_BETA_ENTRY_POINTS = {
    "sample_beta_point": lambda beta, rng: sample_beta_point(2, beta, rng),
    "sample_betaprime_point": lambda beta, rng: sample_betaprime_point(2, beta, rng),
    "mc_beta_hull_2d": lambda beta, rng: mc_beta_hull_2d(4, beta, trials=10),
    "mc_angle_sum-beta": lambda beta, rng: mc_angle_sum("beta", 3, 1, beta, simplices=4),
    "mc_angle_sum-betaprime": lambda beta, rng: mc_angle_sum("betaprime", 3, 1, beta, simplices=4),
}


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", sorted(_BETA_ENTRY_POINTS))
def test_non_finite_beta_is_a_domain_error(entry, beta):
    # NaN passes every range check; the finiteness check comes before any
    # draw, so the stream is untouched
    rng = _rng(3)
    state = rng.bit_generator.state
    with pytest.raises(DomainError):
        _BETA_ENTRY_POINTS[entry](beta, rng)
    assert rng.bit_generator.state == state


def test_convex_hull_square_and_collinear():
    sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
    assert _hull_vertex_counts(sq[None])[0] == 4
    with_collinear = np.array([[0, 0], [2, 0], [1, 0], [2, 2], [0, 2]])
    assert _hull_vertex_counts(with_collinear[None])[0] == 4


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


# -- reference: the per-simplex estimators the batched module replaced -----------
#
# Moved here verbatim (bar the names of the public entry points) as the
# reference of the batched angle kernel and the blocked planar code: on the
# same seed both must give equal estimates.


def _cone_fractions(pts: np.ndarray, k: int, dirs: np.ndarray) -> float:
    """Sum over k-subsets of the fraction of directions inside the tangent
    cone at the subset's centroid."""
    n, d = pts.shape
    if k == n:
        return 1.0
    total = 0.0
    for subset in itertools.combinations(range(n), k):
        rest = [i for i in range(n) if i not in subset]
        z = pts[list(subset)].mean(axis=0)
        G = (pts[rest] - z).T  # (d, n-k)
        if k > 1:
            V = (pts[list(subset)] - z).T  # (d, k), rank k-1
            u, s, _ = np.linalg.svd(V, full_matrices=False)
            basis = u[:, s > 1e-12 * max(s[0], 1e-300)]
            G = G - basis @ (basis.T @ G)
            U = dirs.T - basis @ (basis.T @ dirs.T)
        else:
            U = dirs.T
        lam = np.linalg.solve(G.T @ G, G.T @ U)  # (n-k, ndirs)
        feasible = np.all(lam >= 0, axis=0)
        total += float(np.mean(feasible))
    return total


def _mc_angle_sum_reference(
    family: str,
    n: int,
    k: int,
    beta: float,
    simplices: int = 400,
    directions: int = 256,
    seed: int = 0,
) -> McEstimate:
    """Estimate the expected internal angle sum bold-J_{n,k}(beta) (or the
    beta' analogue) by direction sampling against tangent cones."""
    if n > 7:
        raise DomainError("angle Monte Carlo is capped at n <= 7")
    if not 1 <= k <= n:
        raise DomainError("need 1 <= k <= n")
    if family not in ("beta", "betaprime"):
        raise DomainError(f"unknown family {family!r}")
    rng = _rng(seed)
    d = n - 1
    samples = np.empty(simplices)
    for t in range(simplices):
        for attempt in range(64):
            if family == "beta":
                pts = _sample_beta(d, beta, n, rng)
            else:
                pts = _sample_betaprime(d, beta, n, rng)
            edges = pts[1:] - pts[0]
            if abs(np.linalg.det(edges)) > montecarlo._DET_EPS:
                break
        else:
            raise RuntimeError("could not sample a nondegenerate simplex")
        dirs = rng.standard_normal((directions, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        samples[t] = _cone_fractions(pts, k, dirs)
    return _summarize(samples, seed)


def _convex_hull_2d_reference(pts: np.ndarray) -> np.ndarray:
    """Vertices of the convex hull, counterclockwise (monotone chain)."""
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    p = pts[order]

    def build(points) -> list:
        chain: list = []
        for q in points:
            while len(chain) >= 2:
                o, a = chain[-2], chain[-1]
                if (a[0] - o[0]) * (q[1] - o[1]) - (a[1] - o[1]) * (q[0] - o[0]) <= 0:
                    chain.pop()
                else:
                    break
            chain.append(q)
        return chain

    lower = build(p)
    upper = build(p[::-1])
    return np.array(lower[:-1] + upper[:-1])


def _mc_beta_hull_2d_reference(
    n: int, beta: float, trials: int = 10000, seed: int = 0
) -> McEstimate:
    """Empirical expected vertex count of the planar beta polytope."""
    if n < 3:
        raise DomainError("need n >= 3")
    rng = _rng(seed)
    samples = np.empty(trials)
    for t in range(trials):
        pts = _sample_beta(2, beta, n, rng)
        samples[t] = len(_convex_hull_2d_reference(pts))
    return _summarize(samples, seed)


def _clip_halfplane(poly: list, p: np.ndarray) -> list:
    """Clip a convex polygon by { x : <x, p> <= |p|^2 / 2 }."""
    c = 0.5 * float(p @ p)
    out: list = []
    m = len(poly)
    vals = [float(v @ p) - c for v in poly]
    for i in range(m):
        j = (i + 1) % m
        vi, vj = vals[i], vals[j]
        if vi <= 0:
            out.append(poly[i])
        if (vi < 0 < vj) or (vj < 0 < vi):
            t = vi / (vi - vj)
            out.append(poly[i] + t * (poly[j] - poly[i]))
    return out


def _voronoi_cell_vertices(rng: np.random.Generator, radius: float) -> int:
    R = radius
    for _ in range(8):
        area = math.pi * R * R
        N = rng.poisson(area)
        r = R * np.sqrt(rng.random(N))
        th = 2.0 * math.pi * rng.random(N)
        pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
        pts = pts[np.argsort(np.linalg.norm(pts, axis=1))]
        poly = [
            np.array([-R, -R]),
            np.array([R, -R]),
            np.array([R, R]),
            np.array([-R, R]),
        ]
        for p in pts:
            maxnorm = max(float(np.linalg.norm(v)) for v in poly)
            if float(np.linalg.norm(p)) / 2.0 > maxnorm:
                break
            poly = _clip_halfplane(poly, p)
        maxnorm = max(float(np.linalg.norm(v)) for v in poly)
        if maxnorm <= R / 2.0:
            # drop duplicate vertices created by grazing clips
            verts = [v for i, v in enumerate(poly)
                     if np.linalg.norm(v - poly[(i + 1) % len(poly)]) > 1e-9]
            return len(verts)
        R *= 2.0
    raise RuntimeError("window-overflow retries exhausted")


def _mc_voronoi_2d_reference(
    window_radius: float = 6.0, trials: int = 5000, seed: int = 0
) -> McEstimate:
    """Empirical expected vertex count of the typical planar Poisson-Voronoi
    cell (exact mean is 6)."""
    rng = _rng(seed)
    samples = np.empty(trials)
    for t in range(trials):
        samples[t] = _voronoi_cell_vertices(rng, window_radius)
    return _summarize(samples, seed)


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("family", ["beta", "betaprime"])
def test_batched_angle_sum_equals_reference(family, n):
    betas = (-1.0, 0.0, 1.5) if family == "beta" else ((n - 1) / 2 + 0.25, n / 2 + 1.0)
    simplices = 12 if n >= 6 else 24
    for k in range(1, n + 1):
        for seed in range(3):
            args = (family, n, k, betas[seed % len(betas)])
            kw = dict(simplices=simplices, directions=32, seed=100 * n + 10 * k + seed)
            assert mc_angle_sum(*args, **kw) == _mc_angle_sum_reference(*args, **kw), (args, kw)


@pytest.mark.parametrize("simplices", [1, 63, 64, 65, 129])
def test_batched_angle_sum_block_edges(simplices):
    for args in (("beta", 4, 2, 0.0), ("betaprime", 3, 1, 2.0), ("beta", 5, 3, -1.0)):
        kw = dict(simplices=simplices, directions=16, seed=simplices)
        assert mc_angle_sum(*args, **kw) == _mc_angle_sum_reference(*args, **kw), (args, kw)


@pytest.mark.parametrize(
    "n, beta, seed", [(3, 0.0, 0), (4, -1.0, 1), (5, 0.5, 2), (6, 2.0, 3), (8, -0.5, 4)]
)
def test_scalar_hull_equals_reference(n, beta, seed):
    kw = dict(trials=300, seed=seed)
    assert mc_beta_hull_2d(n, beta, **kw) == _mc_beta_hull_2d_reference(n, beta, **kw)
    pts = _sample_beta(2, beta, 20, _rng(seed))
    assert _hull_vertex_counts(pts[None])[0] == len(_convex_hull_2d_reference(pts))


# window 1 is too small for most cells, so it exercises the window doubling;
# an int window exercises the float conversion of the starting square; at
# window 60 one attempt draws more uniforms than a chunk holds
@pytest.mark.parametrize("window, seed", [(1.0, 0), (2, 1), (6.0, 2), (8.0, 3), (60.0, 4)])
def test_scalar_voronoi_equals_reference(window, seed):
    kw = dict(trials=100, seed=seed)
    assert mc_voronoi_2d(window, **kw) == _mc_voronoi_2d_reference(window, **kw)


def _reference_voronoi_samples(window, trials: int, seed: int) -> np.ndarray:
    rng = _rng(seed)
    return np.array([_voronoi_cell_vertices(rng, window) for _ in range(trials)], dtype=float)


# the first t trials of a sample are those of any longer sample of the same
# seed, so one reference run serves every sample size; window 1 is too small
# for nearly every cell, so attempts in a window twice as wide fill its blocks
@pytest.mark.parametrize("window, seed", [(1.0, 5), (2, 6), (6.0, 7)])
def test_blocked_voronoi_equals_reference_at_block_edges(window, seed):
    block = montecarlo._VORONOI_BLOCK
    samples = _reference_voronoi_samples(window, 2 * block + 1, seed)
    for trials in (1, block - 1, block, block + 1, 2 * block + 1):
        assert mc_voronoi_2d(window, trials=trials, seed=seed) == _summarize(
            samples[:trials], seed
        ), trials


class _Drawn:
    """Stands in for the generator of one Voronoi attempt: hands out a
    fixed point count, then fixed uniforms in the order they are asked for."""

    def __init__(self, n: int, u: np.ndarray):
        self.n, self.u = n, u

    def poisson(self, lam: float) -> int:
        return self.n

    def random(self, size: int) -> np.ndarray:
        out, self.u = self.u[:size], self.u[size:]
        return out


def test_cell_past_the_nearest_point_cap_goes_on_with_all_its_points():
    # 100 points on a circle, evenly spaced and each a little farther out
    # than the one before: every one of them clips the cell, a 100-gon, so
    # the clipping reads past the cap of nearest points and outgrows the
    # vertex rows it starts with
    n = 100
    u = np.concatenate([0.36 + 1e-7 * np.arange(n), (np.arange(n) + 0.5) / n])
    expected = _voronoi_cell_vertices(_Drawn(n, u), 1.0)
    assert expected == n
    R, counts, offsets = np.array([1.0]), np.array([n]), np.array([0])
    capped = np.empty((2, 1, montecarlo._VORONOI_NEAR + montecarlo._AHEAD))
    montecarlo._voronoi_rows(R, counts, u, offsets, capped)
    assert montecarlo._clip_cells(R, counts, capped)[2][0]
    full = np.empty((2, 1, n + montecarlo._AHEAD))
    montecarlo._voronoi_rows(R, counts, u, offsets, full)
    vertices, kept, unfinished = montecarlo._clip_cells(R, counts, full)
    assert (vertices[0], kept[0], unfinished[0]) == (n, True, False)


def test_attempts_past_the_cap_are_drawn_again_and_clipped_whole(monkeypatch):
    # with a cap of 6 nearest points, most attempts read past it
    monkeypatch.setattr(montecarlo, "_VORONOI_NEAR", 6)
    trials = montecarlo._VORONOI_BLOCK + 1
    samples = _reference_voronoi_samples(6.0, trials, 9)
    assert mc_voronoi_2d(6.0, trials=trials, seed=9) == _summarize(samples, 9)


@pytest.mark.parametrize(
    "guess",
    [lambda u, n: True, lambda u, n: False, lambda u, n: n % 2 == 0],
    ids=["kept", "redrawn", "parity"],
)
def test_wrong_guesses_change_no_draw(monkeypatch, guess):
    # a wrong guess of an attempt's outcome cuts its block there and draws
    # on from just after it, so the estimate is the reference's whatever
    # the guesses
    monkeypatch.setattr(montecarlo, "_fits", guess)
    samples = _reference_voronoi_samples(2, 40, 4)
    assert mc_voronoi_2d(2, trials=40, seed=4) == _summarize(samples, 4)


def test_voronoi_window_retries_end_after_eight_attempts():
    # windows of 0.001 to 0.128 hold no point at all, so no cell fits
    with pytest.raises(RuntimeError, match="window-overflow retries exhausted"):
        mc_voronoi_2d(0.001, trials=3)


@pytest.mark.parametrize(
    "n, beta", [(4, 0.5), (7, -1.0), (20, 0.0), (40, 1.0), (4, -1.0), (20, -1.0)]
)
def test_blocked_hull_equals_reference_at_block_edges(n, beta):
    block = max(1, _HULL_CELLS // n**2)
    for trials in sorted({1, block - 1, block, block + 1} - {0}):
        kw = dict(trials=trials, seed=trials)
        assert mc_beta_hull_2d(n, beta, **kw) == _mc_beta_hull_2d_reference(n, beta, **kw), kw


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(3, 12),
    seed=st.integers(0, 2**32 - 1),
    beta=st.sampled_from([-1.0, 0.0, 0.5, 3.0]),
    grid=st.integers(1, 4),
)
def test_hull_vertex_count_equals_monotone_chain(n, seed, beta, grid):
    # points of the law, and distinct points of a small integer grid, where
    # collinear points are common and every cross product is exact
    rng = _rng(seed)
    drawn = _sample_beta(2, beta, n, rng)
    cells = rng.choice((2 * grid + 1) ** 2, size=min(n, (2 * grid + 1) ** 2), replace=False)
    on_grid = np.column_stack(np.divmod(cells, 2 * grid + 1)).astype(float) - grid
    for pts in (drawn, on_grid):
        assert _hull_vertex_counts(pts[None])[0] == len(_convex_hull_2d_reference(pts)), pts


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "call, samples",
    [
        (lambda: mc_beta_hull_2d(4, 0.0, trials=100_000), 100_000),
        (lambda: mc_angle_sum("beta", 5, 2, 0.0, simplices=2000), 2000),
        (lambda: mc_voronoi_2d(6.0, trials=5000), 5000),
    ],
    ids=["hull", "angle", "voronoi"],
)
def test_estimator_memory_does_not_grow_with_the_sample(call, samples):
    # beyond the float64 samples array, the working arrays are bounded by the
    # block sizes: (n, n, block) cross products for the hull, (block,
    # directions, d) directions for the angles, the (block, nearest points)
    # table and one chunk of uniforms for the Voronoi cells; one point set
    # per trial kept for the whole sample would already pass the limit
    assert _traced_peak(call) - 8 * samples < 4 * 2**20


def test_rejected_simplex_redraws_the_block_one_at_a_time(monkeypatch):
    # with the threshold at the median |det| of the law, about half the
    # simplices are redrawn, so nearly every block is drawn again one simplex
    # at a time, and the estimate moves off the unpatched one
    args, kw = ("beta", 4, 2, 0.0), dict(simplices=70, directions=16, seed=8)
    plain = mc_angle_sum(*args, **kw)
    rng = _rng(1)
    dets = [abs(np.linalg.det(np.diff(_sample_beta(3, 0.0, 4, rng), axis=0))) for _ in range(400)]
    monkeypatch.setattr(montecarlo, "_DET_EPS", float(np.median(dets)))
    redrawn = mc_angle_sum(*args, **kw)
    assert redrawn == _mc_angle_sum_reference(*args, **kw)
    assert redrawn != plain


def test_mc_dump_digest():
    assert hashlib.sha256(dump_text().encode()).hexdigest() == MC_DIGEST


@pytest.mark.parametrize(
    "n, k, beta, seed",
    [(3, 1, beta, seed) for beta in (1.02, 1.05, 1.12) for seed in range(4)]
    + [(n, n - 1, (n - 1) / 2 + 0.05, n) for n in (4, 5, 7)],
)
def test_betaprime_next_to_the_lower_end_is_accurate(n, k, beta, seed):
    # far vertices lie at radii past 1e8, with cone weights far below 1e-9;
    # the closed test w >= 0 still resolves them.  The angles of every
    # triangle sum to half the full angle, and the tangent cone at a facet
    # is a half-space, so J_{3,1} = 1/2 and J_{n,n-1} = n/2 for every law
    target = 0.5 if k == 1 else n / 2
    est = mc_angle_sum("betaprime", n, k, beta, simplices=400, directions=64, seed=seed)
    assert est.agrees(target), est


@pytest.mark.parametrize("n", [3, 5, 7])
def test_betaprime_past_the_float_range_is_refused(n):
    # at beta' = (n - 1)/2 + 0.001 about half of the gamma draws in the
    # radial law underflow to 0, so squared radii are infinite; redrawing
    # them would change the law, so the estimator refuses
    with pytest.raises(DomainError, match="too close to d/2 .* for floats"):
        mc_angle_sum("betaprime", n, 1, (n - 1) / 2 + 0.001, simplices=400, directions=64)


def test_cone_weight_past_the_float_range_is_refused():
    # finite points whose edge determinant passes the degeneracy check, but
    # whose weights overflow: NaN weights would fail w >= 0 for every
    # direction and count it outside every cone
    pts = np.array([[[0.0, 0, 0], [1e154, 0, 0], [0, 1e154, 0], [0, 0, 1e-310]]])
    assert abs(np.linalg.det(pts[0, 1:] - pts[0, 0])) > montecarlo._DET_EPS
    dirs = np.array([[[0.0, 0, 1], [1.0, 0, 0]]])
    with pytest.raises(DomainError, match="too close to d/2 .* for floats"):
        montecarlo._cone_fraction_sum(pts, 1, dirs)


@pytest.mark.parametrize("n", range(3, 8))
def test_cone_test_does_not_depend_on_scale(n):
    # scaling by a power of two is exact in floats, and the closed test
    # w >= 0 sees the same signs; an absolute tolerance would not
    rng = _rng(n)
    pts = _sample_beta(n - 1, 0.0, 16 * n, rng).reshape(16, n, n - 1)
    dirs = rng.standard_normal((16, 32, n - 1))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    for k in range(1, n):
        plain = montecarlo._cone_fraction_sum(pts, k, dirs)
        scaled = montecarlo._cone_fraction_sum(pts * 2.0**40, k, dirs)
        assert np.array_equal(plain, scaled), k

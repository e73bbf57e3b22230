"""Seeded Monte Carlo oracle for angle sums and planar f-vectors.

All estimators draw from ``numpy.random.Generator(PCG64(seed))`` and run
trials in a fixed order, so results are bit-reproducible from
``(seed, trials)`` regardless of the host.

The internal-angle estimator samples directions on the sphere and tests
membership in the tangent cone at a face centroid.  A direction u of a
simplex with vertices p_i is u = sum_i w_i p_i with sum_i w_i = 0 in one
way, and u lies in the cone at a face iff w_r >= 0 for every vertex r off
the face -- the closed-form resolution of the feasibility LP.  The simplices
and their directions are drawn one simplex at a time, in the order the seed
fixes, and put on their law, checked and tested a block at a time: one
stacked inverse of the (n, n) matrices with rows [p_i, 1] gives the weights
of every direction of the block, for every face at once.  The hull
estimator draws its trials one at a time too and counts their hull
vertices a block at a time, from the signs of cross products.  The planar
estimators use only elementwise float arithmetic, which does not depend on
the BLAS build.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .exact_scalars import DomainError


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    trials: int
    seed: int

    def z(self, target: float) -> float:
        """|mean - target| in standard errors; an estimate without spread
        must equal the target (z = 0) or fails (z = inf)."""
        if self.mean == target:
            return 0.0
        if self.stderr == 0.0:
            return math.inf
        return abs(self.mean - target) / self.stderr

    def agrees(self, target: float, sigmas: float = 4.0) -> bool:
        return self.z(target) <= sigmas


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _check_count(name: str, value: int) -> None:
    # an empty sample has no mean, and NumPy would return nan with a warning
    if value < 1:
        raise DomainError(f"{name} must be at least 1, got {value}")


def _summarize(samples: np.ndarray, seed: int) -> McEstimate:
    n = len(samples)
    mean = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return McEstimate(mean, stderr, n, seed)


# -- samplers -----------------------------------------------------------------
#
# A point of either law is a uniform direction (a normalised standard normal
# vector) scaled by a radius drawn after it; on the sphere (beta = -1) the
# radius is 1 and takes no draw.  Each law's check returns its radial draw, so
# the batched estimators can draw point sets row by row in the order
# one-at-a-time draws use and put them on the law once per block.


def sample_beta_point(d: int, beta: float, rng: np.random.Generator) -> np.ndarray:
    """One point from the d-dimensional beta law (uniform sphere at beta=-1)."""
    return _sample_beta(d, beta, 1, rng)[0]


def sample_betaprime_point(d: int, beta: float, rng: np.random.Generator) -> np.ndarray:
    """One point from the d-dimensional beta' law (radial law r^2 ~
    beta-prime(d/2, beta - d/2))."""
    return _sample_betaprime(d, beta, 1, rng)[0]


def _check_finite(beta: float) -> None:
    # NaN passes every range test and an infinite beta reaches NumPy, so both
    # are refused before the first draw
    if not math.isfinite(beta):
        raise DomainError(f"beta must be a finite number, got {beta}")


def _beta_radius2(d: int, beta: float):
    """Check beta against the beta law; return its radial draw, a function
    of ``(size, rng)`` giving ``size`` squared radii."""
    _check_finite(beta)
    if beta < -1:
        raise DomainError("beta >= -1 required")
    if beta == -1:
        return lambda size, rng: np.ones(size)
    return lambda size, rng: rng.beta(d / 2.0, beta + 1.0, size)


def _betaprime_radius2(d: int, beta: float):
    """Check beta against the beta' law; return its radial draw, a function
    of ``(size, rng)`` giving ``size`` squared radii, which raises
    DomainError where one is not a finite float."""
    _check_finite(beta)
    if beta <= d / 2.0:
        raise DomainError("beta > d/2 required")

    def draw(size: int, rng: np.random.Generator) -> np.ndarray:
        g1 = rng.gamma(d / 2.0, 1.0, size)
        g2 = rng.gamma(beta - d / 2.0, 1.0, size)
        with np.errstate(divide="ignore", over="ignore"):
            r2 = g1 / g2
        # a gamma draw of a small shape underflows to 0; redrawing such a
        # point would change the law the sample is taken from
        if not np.isfinite(r2).all():
            raise DomainError(
                f"beta' = {beta} is too close to d/2 = {d / 2} for floats: "
                "a squared radius is not finite"
            )
        return r2

    return draw


def _on_law(g: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Points of the law from standard normals ``g`` (normalised in place
    along the last axis) and squared radii ``r2``."""
    g /= np.linalg.norm(g, axis=-1, keepdims=True)
    return g * np.sqrt(r2)[..., None]


def _draw(d: int, radius2, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` points of the d-dimensional law whose squared radii
    ``radius2`` draws."""
    if d < 1:
        raise DomainError(f"dimension must be at least 1, got {d}")
    g = rng.standard_normal((size, d))
    return _on_law(g, radius2(size, rng))


def _sample_beta(d: int, beta: float, size: int, rng: np.random.Generator) -> np.ndarray:
    return _draw(d, _beta_radius2(d, beta), size, rng)


def _sample_betaprime(
    d: int, beta: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    return _draw(d, _betaprime_radius2(d, beta), size, rng)


# -- internal angle sums -------------------------------------------------------

_BLOCK = 64  # simplices per batched solve; bounds the (block, directions, d) arrays
_DET_EPS = 1e-12  # a simplex whose edge determinant is no larger is redrawn


def _cone_fraction_sum(pts: np.ndarray, k: int, dirs: np.ndarray) -> np.ndarray:
    """For each simplex, the sum over k-subsets of its vertices (k < n) of the
    fraction of its directions inside the tangent cone at the subset's
    centroid.  ``pts`` is (S, n, d) and ``dirs`` is (S, directions, d).

    A direction u is u = sum_i w_i p_i with sum_i w_i = 0 in one way.  The
    cone at a face is spanned by p_r - centroid, r off the face, and the
    face's own span; writing u in those generators leaves the weights w_r
    unchanged, so u is inside iff w_r >= 0 for every r off the face.  The
    test is closed and has no tolerance, so it does not depend on the
    simplex's scale."""
    size, n, d = pts.shape
    # [p_i, 1] are the rows of m; (u, 0) = w m gives w = u inv(m)[:d]
    m = np.ones((size, n, n))
    m[:, :, :d] = pts
    w = dirs @ np.linalg.inv(m)[:, :d]  # (S, directions, n)
    if not np.isfinite(w).all():
        # only beta' points reach radii whose inverse leaves the float range
        raise DomainError(
            f"beta' is too close to d/2 = {d / 2} for floats: a cone weight is not finite"
        )
    inside = w >= 0
    rest = np.array([[i for i in range(n) if i not in s]
                     for s in itertools.combinations(range(n), k)])
    in_cone = inside[:, :, rest[:, 0]]  # (S, directions, subsets)
    for column in rest.T[1:]:
        in_cone &= inside[:, :, column]
    # sum the subsets' fractions in subset order, as one at a time would
    return np.cumsum(np.mean(in_cone, axis=1), axis=1)[:, -1]


def _draw_simplex(d: int, radius2, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points of the law, redrawn until their simplex is nondegenerate."""
    for _ in range(64):
        p = _draw(d, radius2, n, rng)
        if abs(np.linalg.det(p[1:] - p[0])) > _DET_EPS:
            return p
    raise RuntimeError("could not sample a nondegenerate simplex")


def mc_angle_sum(
    family: str,
    n: int,
    k: int,
    beta: float,
    simplices: int = 400,
    directions: int = 256,
    seed: int = 0,
) -> McEstimate:
    """Estimate the expected internal angle sum bold-J_{n,k}(beta) (or the
    beta' analogue) by direction sampling against tangent cones.

    Raises DomainError where a drawn beta' simplex leaves the float range,
    for beta' within about 0.02 of (n - 1)/2."""
    if n > 7:
        raise DomainError("angle Monte Carlo is capped at n <= 7")
    if not 1 <= k <= n:
        raise DomainError("need 1 <= k <= n")
    if family not in ("beta", "betaprime"):
        raise DomainError(f"unknown family {family!r}")
    _check_count("simplices", simplices)
    _check_count("directions", directions)
    d = n - 1
    radius2 = (_beta_radius2 if family == "beta" else _betaprime_radius2)(d, beta)
    if k == n:
        # a simplex is its own only n-face, so every sample is 1
        return _summarize(np.ones(simplices), seed)
    rng = _rng(seed)
    samples = np.empty(simplices)
    g = np.empty((_BLOCK, n, d))
    r2 = np.empty((_BLOCK, n))
    dirs = np.empty((_BLOCK, directions, d))
    for start in range(0, simplices, _BLOCK):
        size = min(_BLOCK, simplices - start)
        state = rng.bit_generator.state
        for b in range(size):
            rng.standard_normal(out=g[b])
            r2[b] = radius2(n, rng)
            rng.standard_normal(out=dirs[b])
        pts = _on_law(g[:size], r2[:size])
        if not np.all(np.abs(np.linalg.det(pts[:, 1:] - pts[:, :1])) > _DET_EPS):
            # a degenerate simplex is redrawn before its directions, so the
            # block is drawn again one simplex at a time
            rng.bit_generator.state = state
            for b in range(size):
                pts[b] = _draw_simplex(d, radius2, n, rng)
                rng.standard_normal(out=dirs[b])
        u = dirs[:size]
        u /= np.linalg.norm(u, axis=2, keepdims=True)
        samples[start : start + size] = _cone_fraction_sum(pts, k, u)
    return _summarize(samples, seed)


# -- planar convex hulls --------------------------------------------------------

_HULL_CELLS = 1 << 13  # trials per hull block times n^2, the size of its working arrays


def _hull_vertex_counts(pts: np.ndarray) -> np.ndarray:
    """The number of convex hull vertices of each of a block of planar point
    sets, ``pts`` (B, n, 2) with distinct points; points inside a hull edge
    are not vertices.

    i -> j is a counterclockwise hull edge iff every other point is strictly
    left of it or inside the segment [p_i, p_j]; a hull has as many edges as
    vertices."""
    size, n = pts.shape[:2]
    # the block axis goes last, so that NumPy's inner loops run over it
    x, y = pts[..., 0].T, pts[..., 1].T
    dx = x[None, :, :] - x[:, None, :]  # dx[i, j] = x_j - x_i
    dy = y[None, :, :] - y[:, None, :]
    edges = np.ones(dx.shape, dtype=bool)
    for l in range(n):
        # (p_j - p_i) x (p_l - p_i), indexed [i, j]: exactly 0 where l is i
        # or j (the ends of the edge) and where i = j, 3n - 2 entries a trial
        cross = dx * dy[:, l : l + 1] - dy * dx[:, l : l + 1]
        inside = cross > 0
        inside[l] = inside[:, l] = True
        if np.count_nonzero(cross == 0) > (3 * n - 2) * size:
            # p_l is on the line of some p_i, p_j
            along = dx * dx[:, l : l + 1] + dy * dy[:, l : l + 1]
            inside |= (cross == 0) & (along > 0) & (along < dx * dx + dy * dy)
        edges &= inside
    return np.count_nonzero(edges, axis=(0, 1))


def mc_beta_hull_2d(
    n: int, beta: float, trials: int = 10000, seed: int = 0
) -> McEstimate:
    """Empirical expected vertex count of the planar beta polytope.

    The vertex count costs O(n^3) per trial (every point against every
    candidate edge); from about n = 16 on, that is slower than a monotone
    chain's O(n log n) per trial would be."""
    if n < 3:
        raise DomainError("need n >= 3")
    _check_count("trials", trials)
    radius2 = _beta_radius2(2, beta)
    rng = _rng(seed)
    samples = np.empty(trials)
    block = min(trials, max(1, _HULL_CELLS // n**2))
    g = np.empty((block, n, 2))
    r2 = np.empty((block, n))
    for start in range(0, trials, block):
        size = min(block, trials - start)
        # each trial draws its normals and then its radii, as one-at-a-time
        # draws do
        for t in range(size):
            rng.standard_normal(out=g[t])
            r2[t] = radius2(n, rng)
        pts = _on_law(g[:size], r2[:size])
        samples[start : start + size] = _hull_vertex_counts(pts)
    return _summarize(samples, seed)


# -- typical planar Voronoi cell -------------------------------------------------


def _norm(v: tuple) -> float:
    return math.sqrt(v[0] * v[0] + v[1] * v[1])


def _radius(poly: list) -> float:
    """The largest vertex norm (sqrt is monotone, so one sqrt suffices)."""
    return math.sqrt(max(x * x + y * y for x, y in poly))


def _clip_halfplane(poly: list, px: float, py: float, c: float) -> list:
    """Clip a convex polygon, a list of (x, y) pairs, by
    { x : <x, p> <= c }, c = |p|^2 / 2; a polygon already inside is
    returned as it is."""
    vals = [x * px + y * py - c for x, y in poly]
    if max(vals) <= 0:
        return poly
    out: list = []
    for (xi, yi), vi, (xj, yj), vj in zip(poly, vals, poly[1:] + poly[:1], vals[1:] + vals[:1]):
        if vi <= 0:
            out.append((xi, yi))
        if (vi < 0 < vj) or (vj < 0 < vi):
            t = vi / (vi - vj)
            out.append((xi + t * (xj - xi), yi + t * (yj - yi)))
    return out


def _by_distance(r: np.ndarray, th: np.ndarray):
    """The points of polar coordinates (r, th) in order of distance from the
    origin, as (x, y, |p|/2, |p|^2/2); converted a few at a time, since a
    cell is usually settled by its first dozen or so neighbours."""
    order = np.argsort(r)
    for start in range(0, len(order), 32):
        i = order[start : start + 32]
        x, y = r[i] * np.cos(th[i]), r[i] * np.sin(th[i])
        s = x * x + y * y
        yield from zip(x.tolist(), y.tolist(), (np.sqrt(s) / 2.0).tolist(), (0.5 * s).tolist())


def _voronoi_cell_vertices(rng: np.random.Generator, radius: float) -> int:
    R = float(radius)
    for _ in range(8):
        area = math.pi * R * R
        N = rng.poisson(area)
        r = R * np.sqrt(rng.random(N))
        th = 2.0 * math.pi * rng.random(N)
        poly = [(-R, -R), (R, -R), (R, R), (-R, R)]
        reach = _radius(poly)
        for px, py, half, c in _by_distance(r, th):
            # no point further than twice the cell's radius can clip it
            if half > reach:
                break
            clipped = _clip_halfplane(poly, px, py, c)
            if clipped is not poly:
                poly, reach = clipped, _radius(clipped)
        if reach <= R / 2.0:
            # drop duplicate vertices created by grazing clips
            nxt = poly[1:] + poly[:1]
            return sum(_norm((v[0] - w[0], v[1] - w[1])) > 1e-9 for v, w in zip(poly, nxt))
        R *= 2.0
    raise RuntimeError("window-overflow retries exhausted")


def mc_voronoi_2d(
    window_radius: float = 6.0, trials: int = 5000, seed: int = 0
) -> McEstimate:
    """Empirical expected vertex count of the typical planar Poisson-Voronoi
    cell (exact mean is 6)."""
    if not (math.isfinite(window_radius) and window_radius > 0):
        raise DomainError(f"window radius must be positive and finite, got {window_radius}")
    _check_count("trials", trials)
    rng = _rng(seed)
    samples = np.empty(trials)
    for t in range(trials):
        samples[t] = _voronoi_cell_vertices(rng, window_radius)
    return _summarize(samples, seed)

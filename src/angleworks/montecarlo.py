"""Seeded Monte Carlo oracle for angle sums and planar f-vectors.

All estimators draw from ``numpy.random.Generator(PCG64(seed))`` and run
trials in a fixed order, so results are bit-reproducible from
``(seed, trials)`` regardless of the host.

The internal-angle estimator samples directions on the sphere and tests
membership in the tangent cone at a face centroid.  After projecting out
the face's tangent space the cone is simplicial (its generators are the
projected non-face vertices), so membership is a nonnegativity check on the
least-squares coordinates of a direction in those generators -- the
closed-form resolution of the feasibility LP.  The simplices are drawn one
at a time, in the order the seed fixes, and tested in blocks: per face
subset, one stacked SVD gives the face bases of the whole block and one
stacked solve (G^T G)^-1 G^T turns every direction of every simplex into
its coordinates.  The planar estimators work on Python floats, whose
arithmetic does not depend on the BLAS build.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .exact_scalars import DomainError

_FEAS_EPS = 1e-9


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


def sample_beta_point(d: int, beta: float, rng: np.random.Generator) -> np.ndarray:
    """One point from the d-dimensional beta law (uniform sphere at beta=-1)."""
    return _sample_beta(d, beta, 1, rng)[0]


def _check_finite(beta: float) -> None:
    # NaN passes every range test and an infinite beta reaches NumPy, so both
    # are refused before the first draw
    if not math.isfinite(beta):
        raise DomainError(f"beta must be a finite number, got {beta}")


def _sample_beta(d: int, beta: float, size: int, rng: np.random.Generator) -> np.ndarray:
    _check_finite(beta)
    if beta < -1:
        raise DomainError("beta >= -1 required")
    g = rng.standard_normal((size, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    if beta == -1:
        return g
    r2 = rng.beta(d / 2.0, beta + 1.0, size)
    return g * np.sqrt(r2)[:, None]


def sample_betaprime_point(d: int, beta: float, rng: np.random.Generator) -> np.ndarray:
    """One point from the d-dimensional beta' law (radial law r^2 ~
    beta-prime(d/2, beta - d/2))."""
    return _sample_betaprime(d, beta, 1, rng)[0]


def _sample_betaprime(
    d: int, beta: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    _check_finite(beta)
    if beta <= d / 2.0:
        raise DomainError("beta > d/2 required")
    g = rng.standard_normal((size, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    g1 = rng.gamma(d / 2.0, 1.0, size)
    g2 = rng.gamma(beta - d / 2.0, 1.0, size)
    return g * np.sqrt(g1 / g2)[:, None]


# -- internal angle sums -------------------------------------------------------

_BLOCK = 64  # simplices per batched solve; bounds the (block, directions, d) arrays


def _cone_fraction_sums(pts: np.ndarray, k: int, dirs: np.ndarray) -> np.ndarray:
    """For each simplex, the sum over k-subsets of its vertices (k < n) of the
    fraction of its directions inside the tangent cone at the subset's
    centroid.  ``pts`` is (S, n, d) and ``dirs`` is (S, directions, d)."""
    n = pts.shape[1]
    total = np.zeros(len(pts))
    for subset in itertools.combinations(range(n), k):
        face = list(subset)
        rest = [i for i in range(n) if i not in subset]
        z = pts[:, face].mean(axis=1, keepdims=True)
        G = pts[:, rest] - z  # (S, n-k, d): the generators, one per row
        if k > 1:
            V = (pts[:, face] - z).transpose(0, 2, 1)  # (S, d, k), rank k-1
            u, s, _ = np.linalg.svd(V, full_matrices=False)
            # zero the columns of negligible singular values instead of
            # dropping them, so every simplex of the block keeps one shape
            basis = u * (s > 1e-12 * np.maximum(s[:, :1], 1e-300))[:, None, :]
            G = G - (G @ basis) @ basis.transpose(0, 2, 1)
        # G is now orthogonal to the face, so the directions need no projection
        lam = np.linalg.solve(G @ G.transpose(0, 2, 1), G) @ dirs.transpose(0, 2, 1)
        total += np.mean(np.all(lam >= -_FEAS_EPS, axis=1), axis=1)
    return total


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
    beta' analogue) by direction sampling against tangent cones."""
    if n > 7:
        raise DomainError("angle Monte Carlo is capped at n <= 7")
    if not 1 <= k <= n:
        raise DomainError("need 1 <= k <= n")
    if family not in ("beta", "betaprime"):
        raise DomainError(f"unknown family {family!r}")
    _check_count("simplices", simplices)
    _check_count("directions", directions)
    rng = _rng(seed)
    d = n - 1
    sample = _sample_beta if family == "beta" else _sample_betaprime
    if k == n:
        # a simplex is its own only n-face, so every sample is 1; the empty
        # draw only checks beta against the family's range
        sample(d, beta, 0, rng)
        return _summarize(np.ones(simplices), seed)
    samples = np.empty(simplices)
    pts = np.empty((_BLOCK, n, d))
    dirs = np.empty((_BLOCK, directions, d))
    for start in range(0, simplices, _BLOCK):
        size = min(_BLOCK, simplices - start)
        for b in range(size):
            for _ in range(64):
                p = sample(d, beta, n, rng)
                if abs(np.linalg.det(p[1:] - p[0])) > 1e-12:
                    break
            else:
                raise RuntimeError("could not sample a nondegenerate simplex")
            pts[b] = p
            dirs[b] = rng.standard_normal((directions, d))
        u = dirs[:size]
        u /= np.linalg.norm(u, axis=2, keepdims=True)
        samples[start : start + size] = _cone_fraction_sums(pts[:size], k, u)
    return _summarize(samples, seed)


# -- planar convex hulls --------------------------------------------------------


def convex_hull_2d(pts: np.ndarray) -> np.ndarray:
    """Vertices of the convex hull, counterclockwise (monotone chain)."""
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    p = pts[order].tolist()

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


def mc_beta_hull_2d(
    n: int, beta: float, trials: int = 10000, seed: int = 0
) -> McEstimate:
    """Empirical expected vertex count of the planar beta polytope."""
    if n < 3:
        raise DomainError("need n >= 3")
    _check_count("trials", trials)
    rng = _rng(seed)
    samples = np.empty(trials)
    for t in range(trials):
        pts = _sample_beta(2, beta, n, rng)
        samples[t] = len(convex_hull_2d(pts))
    return _summarize(samples, seed)


# -- typical planar Voronoi cell -------------------------------------------------


def _norm(v: tuple) -> float:
    return math.sqrt(v[0] * v[0] + v[1] * v[1])


def _radius(poly: list) -> float:
    """The largest vertex norm (sqrt is monotone, so one sqrt suffices)."""
    return math.sqrt(max(x * x + y * y for x, y in poly))


def _clip_halfplane(poly: list, p: tuple) -> list:
    """Clip a convex polygon, a list of (x, y) pairs, by
    { x : <x, p> <= |p|^2 / 2 }."""
    px, py = p
    c = 0.5 * (px * px + py * py)
    out: list = []
    m = len(poly)
    vals = [x * px + y * py - c for x, y in poly]
    if max(vals) <= 0:
        return poly
    for i in range(m):
        j = (i + 1) % m
        vi, vj = vals[i], vals[j]
        if vi <= 0:
            out.append(poly[i])
        if (vi < 0 < vj) or (vj < 0 < vi):
            t = vi / (vi - vj)
            (xi, yi), (xj, yj) = poly[i], poly[j]
            out.append((xi + t * (xj - xi), yi + t * (yj - yi)))
    return out


def _voronoi_cell_vertices(rng: np.random.Generator, radius: float) -> int:
    R = float(radius)
    for _ in range(8):
        area = math.pi * R * R
        N = rng.poisson(area)
        r = R * np.sqrt(rng.random(N))
        th = 2.0 * math.pi * rng.random(N)
        pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
        pts = pts[np.argsort(np.linalg.norm(pts, axis=1))]
        poly = [(-R, -R), (R, -R), (R, R), (-R, R)]
        for p in pts.tolist():
            if _norm(p) / 2.0 > _radius(poly):
                break
            poly = _clip_halfplane(poly, p)
        if _radius(poly) <= R / 2.0:
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

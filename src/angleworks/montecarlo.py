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
estimator draws its trials one at a time too (on the circle, where the
radii take no draw, a block's normals in one call) and counts their hull
vertices a block at a time, from the signs of cross products.  The
Voronoi estimator draws its attempts one at a time and clips their cells a
block at a time, each with the arithmetic of a scalar polygon clipper.  The
planar estimators use only elementwise float arithmetic, which does not
depend on the BLAS build.
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
        if beta == -1:
            # on the circle the radii take no draw, so the normals of the
            # block's trials are one run of the stream
            rng.standard_normal(out=g[:size])
            r2[:size] = 1.0
        else:
            # each trial draws its normals and then its radii, as
            # one-at-a-time draws do
            for t in range(size):
                rng.standard_normal(out=g[t])
                r2[t] = radius2(n, rng)
        pts = _on_law(g[:size], r2[:size])
        samples[start : start + size] = _hull_vertex_counts(pts)
    return _summarize(samples, seed)


# -- typical planar Voronoi cell -------------------------------------------------
#
# An attempt in a window of radius R draws a Poisson count N of mean pi R^2,
# then N radial uniforms u (radius R sqrt(u)) and N angular ones in one call.
# Its cell starts as the square [-R, R]^2 and is clipped by the bisector of
# each point in order of distance, until a point lies more than twice as far
# out as the farthest vertex (the reach).  The trial keeps the cell if its
# reach is at most R/2, and otherwise makes another attempt in a window twice
# as wide, at most eight in all.
#
# Attempts run a block at a time.  The block's points are drawn in the seeded
# order, and each attempt's outcome is guessed as it is drawn, which fixes the
# window of the next one; then one kernel clips every cell of the block.  The
# block is kept up to its first wrong guess, and the generator is rewound to
# just after that attempt.  The kernel does the scalar clipper's arithmetic,
# so a cell, and the estimate, do not depend on the block it was clipped in.

_VORONOI_BLOCK = 256  # attempts per block
_VORONOI_NEAR = 40  # nearest points of an attempt in its block's table
_VORONOI_CHUNK = 1 << 14  # uniforms drawn before they are put in the table
_AHEAD = 3  # points one clip step tests, so that points which clip nothing are passed together
_SQUARE = np.array([[-1.0, 1.0, 1.0, -1.0], [-1.0, -1.0, 1.0, 1.0]])


def _voronoi_rows(R: np.ndarray, n: np.ndarray, u: np.ndarray, off: np.ndarray,
                  out: np.ndarray) -> None:
    """Fill ``out`` (2, attempts, near + _AHEAD) with the points of attempts
    of windows ``R`` and counts ``n``, whose uniforms are ``u[off : off + 2n]``:
    the (x, y) of each attempt's ``near`` nearest points in order of
    distance, and zeros after its last."""
    near = out.shape[2] - _AHEAD
    nmax = int(n.max())
    k = min(near, nmax)
    cols = np.arange(nmax)
    real = cols < n[:, None]
    key = np.where(real, u.take(off[:, None] + cols, mode="clip"), 2.0)
    order = np.argsort(key, axis=1)[:, :k]
    real = real[:, :k]
    r = R[:, None] * np.sqrt(np.take_along_axis(key, order, 1))
    th = 2.0 * math.pi * np.where(real, u.take((off + n)[:, None] + order, mode="clip"), 0.0)
    x, y = out[:, :, :k]
    np.multiply(r, np.cos(th), out=x)
    np.multiply(r, np.sin(th), out=y)
    out[:, :, :k][:, ~real] = 0.0
    out[:, :, k:] = 0.0


def _clip_cells(R: np.ndarray, n: np.ndarray, table: np.ndarray) -> tuple:
    """Clip the window squares [-R, R]^2 of a block of attempts with ``n``
    points by the bisectors of the points in ``table``, from
    ``_voronoi_rows``.

    Returns each cell's vertex count (vertices closer than 1e-9 to the next
    one count once), whether its reach is at most R/2, and whether it read
    every row of the table without being stopped while it has more points.
    A polygon is a column of (2, V, attempts): its vertices, then copies of
    its first, so that the edge from its last vertex is read like any other.
    One step tests the next _AHEAD points of every cell still clipping, and
    clips each cell by its first point p that cuts it, x px + y py - |p|^2/2
    > 0 at some vertex, unless an earlier point stops it, |p|/2 > reach.
    The clipped polygon keeps, in order, each vertex with x px + y py -
    |p|^2/2 = v <= 0, and the crossing vi + t (vj - vi), t = vi / (vi - vj),
    of each edge whose ends are strictly on either side; its reach is then
    taken again."""
    size = len(R)
    width = table.shape[2]
    near = width - _AHEAD
    rows = table.reshape(2, -1)
    V = 8
    poly = np.empty((2, V, size))
    poly[:, :4] = _SQUARE[:, :, None] * R
    poly[:, 4:] = poly[:, :1]
    m = np.full(size, 4)
    reach = np.sqrt(np.max(poly[0] * poly[0] + poly[1] * poly[1], axis=0))
    k = np.zeros(size, dtype=np.intp)
    live = np.arange(size)
    left = n.copy()
    lanes = np.arange(size)
    ahead = np.arange(_AHEAD)[:, None]
    slots = np.arange(V)[:, None]
    count = np.empty(size, dtype=np.intp)
    last = np.empty(size)
    unfinished = np.zeros(size, dtype=bool)
    while live.size:
        px, py = rows[:, live * width + k + ahead]
        s = px * px + py * py
        stop = (np.sqrt(s) / 2.0 > reach) | (k + ahead >= left)
        vals = poly[0][:, None] * px
        vals += poly[1][:, None] * py
        vals -= 0.5 * s
        event = stop | (vals > 0).any(axis=0)
        first = event.argmax(axis=0)
        lane = lanes[: live.size]
        hit = event[first, lane]
        stopped = hit & stop[first, lane]
        k += np.where(hit, first + 1, _AHEAD)
        j = np.flatnonzero(hit ^ stopped)
        if j.size:
            v = vals[:, first[j], j]
            xy = poly[:, :, j]
            out = v > 0
            neg = v < 0
            kept = ~out[:-1] & (slots[:-1] < m[j])
            cross = (neg[:-1] & out[1:]) | (out[:-1] & neg[1:])
            fill = np.add(kept, cross, dtype=np.intp).cumsum(axis=0)
            mj = fill[-1]
            if mj.max() >= V:
                poly = np.concatenate([poly, np.repeat(poly[:, :1], V, axis=1)], axis=1)
                V *= 2
                slots = np.arange(V)[:, None]
            new = np.empty((2, V, j.size))
            # the crossing of edge i goes to fill[i] - 1, and vertex i before it
            to = (fill - 1) * j.size + lanes[: j.size]
            flat = new.reshape(2, -1)
            flat[:, (to - cross * j.size)[kept]] = xy[:, :-1][:, kept]
            vi, vj = v[:-1][cross], v[1:][cross]
            a = xy[:, :-1][:, cross]
            flat[:, to[cross]] = a + vi / (vi - vj) * (xy[:, 1:][:, cross] - a)
            np.copyto(new, new[:, :1], where=slots >= mj)
            poly[:, :, j] = new
            m[j] = mj
            reach[j] = np.sqrt(np.max(new[0] * new[0] + new[1] * new[1], axis=0))
        done = stopped | (k >= near)
        if done.any():
            d = np.flatnonzero(done)
            xy = poly[:, :, d]
            step = xy[:, 1:] - xy[:, :-1]
            apart = np.sqrt(step[0] * step[0] + step[1] * step[1]) > 1e-9
            at = live[d]
            count[at] = np.count_nonzero(apart & (slots[:-1] < m[d]), axis=0)
            last[at] = reach[d]
            unfinished[at] = ~stopped[d] & (left[d] > near)
            rest = ~done
            live, poly, m, reach = live[rest], poly[:, :, rest], m[rest], reach[rest]
            k, left = k[rest], left[rest]
    return count, last <= R / 2.0, unfinished


def _fits(u: np.ndarray, n: int) -> bool:
    """A guess whether an attempt's cell fits in half its window, from its
    uniforms ``u``: whether every point of the circle of radius R/2 is nearer
    to one of the n points than to the origin.  A point of radius R sqrt(u_r)
    and angle phi is nearer on the arc |theta - phi| < arccos(sqrt(u_r)), and
    the arcs cover the circle iff the end of each lies inside another.
    Attempts of more than 256 points are guessed to fit."""
    if n < 3 or n > 256:
        # fewer than three arcs, each shorter than a half turn, cover nothing
        return n > 256
    half = np.arccos(np.sqrt(u[:n]))
    mid = 2.0 * math.pi * u[n : 2 * n]
    inside = np.mod((mid + half)[:, None] - (mid - half), 2.0 * math.pi) < 2.0 * half
    np.fill_diagonal(inside, False)
    return bool(inside.any(axis=1).all())


def _replay(state: dict, windows: list, keep=()) -> tuple:
    """A generator set to ``state`` that has drawn again the attempts of
    ``windows``, and the uniforms of the attempts whose indices are in
    ``keep``."""
    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = state
    drawn = {}
    for a, R in enumerate(windows):
        u = rng.random(2 * rng.poisson(math.pi * R * R))
        if a in keep:
            drawn[a] = u
    return rng, drawn


def mc_voronoi_2d(
    window_radius: float = 6.0, trials: int = 5000, seed: int = 0
) -> McEstimate:
    """Empirical expected vertex count of the typical planar Poisson-Voronoi
    cell (exact mean is 6)."""
    if not (math.isfinite(window_radius) and window_radius > 0):
        raise DomainError(f"window radius must be positive and finite, got {window_radius}")
    _check_count("trials", trials)
    rng = _rng(seed)
    R0 = float(window_radius)
    samples = np.empty(trials)
    guessed: dict = {}  # window -> [attempts guessed kept, guessed redrawn]
    table = np.empty((2, _VORONOI_BLOCK, _VORONOI_NEAR + _AHEAD))
    u = np.empty(_VORONOI_CHUNK)
    done, R, tries = 0, R0, 0  # the next attempt is trial `done`'s attempt `tries`, at window R

    def put(first: int) -> None:
        """Put the points of the block's attempts from ``first`` on in the table."""
        _voronoi_rows(np.array(windows[first:]), np.array(counts[first:]), u,
                      np.array(offsets), table[:, first : len(windows)])

    while done < trials:
        start = rng.bit_generator.state
        windows, counts, nth, guess = [], [], [], []
        offsets: list = []  # where the uniforms of the attempts not yet in the table start in u
        t, used = done, 0
        while len(windows) < _VORONOI_BLOCK and t < trials:
            N = rng.poisson(math.pi * R * R)
            if used + 2 * N > len(u):
                if offsets:
                    put(len(windows) - len(offsets))
                offsets, used = [], 0
                if 2 * N > len(u):
                    u = np.empty(2 * N)
            drawn = u[used : used + 2 * N]
            rng.random(out=drawn)
            tally = guessed.setdefault(R, [0, 0])
            fit, miss = tally
            if fit + miss < 4 or 256 * min(fit, miss) >= fit + miss:
                kept = _fits(drawn, N)
            else:
                kept = fit > miss
            tally[not kept] += 1
            windows.append(R)
            counts.append(N)
            nth.append(tries)
            guess.append(kept)
            offsets.append(used)
            used += 2 * N
            if kept:
                t, R, tries = t + 1, R0, 0
            elif tries == 7:
                break
            else:
                R, tries = 2.0 * R, tries + 1
        put(len(windows) - len(offsets))
        size = len(windows)
        Rs, ns = np.array(windows), np.array(counts)
        vertices, ok, unfinished = _clip_cells(Rs, ns, table[:, :size])
        if unfinished.any():
            # an attempt that read all its nearest points goes on with all of them
            redo = np.flatnonzero(unfinished)
            _, kept_u = _replay(start, windows[: redo[-1] + 1], set(redo.tolist()))
            full = np.empty((2, len(redo), int(ns[redo].max()) + _AHEAD))
            _voronoi_rows(Rs[redo], ns[redo], np.concatenate([kept_u[a] for a in redo]),
                          np.concatenate([[0], np.cumsum(2 * ns[redo])[:-1]]), full)
            vertices[redo], ok[redo], _ = _clip_cells(Rs[redo], ns[redo], full)
        wrong = np.flatnonzero(ok != np.array(guess))
        end = int(wrong[0]) + 1 if wrong.size else size
        if np.any(np.array(nth[:end])[~ok[:end]] == 7):
            raise RuntimeError("window-overflow retries exhausted")
        kept_counts = vertices[:end][ok[:end]]
        samples[done : done + len(kept_counts)] = kept_counts
        done += len(kept_counts)
        if ok[end - 1]:
            R, tries = R0, 0
        else:
            R, tries = 2.0 * windows[end - 1], nth[end - 1] + 1
        if end < size:
            # the guess for attempt end - 1 was wrong: undo the guesses from
            # it on, count its outcome, and draw again from just after it
            for a in range(end - 1, size):
                guessed[windows[a]][not guess[a]] -= 1
            guessed[windows[end - 1]][not ok[end - 1]] += 1
            rng, _ = _replay(start, windows[:end])
    return _summarize(samples, seed)

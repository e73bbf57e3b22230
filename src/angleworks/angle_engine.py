"""Expected internal angle sums of beta and beta' random simplices.

Exact values are reached through three routes, preferred in this order:

* ``residue``     -- the rational residue of (int_0^x sin^a)^p / sin^q x
                     times Gamma/pi prefactors;
* ``fill``        -- the Bernoulli-number solution of the Poincare
                     relations, transferring one parity class of the
                     angle vector to the other;
* ``tan_algebra`` -- the exact tangent-polynomial integration for the
                     one parity case the residues miss (odd concentration
                     parameter, even number of vertices).

On the tangent route the powers of the tangent polynomial T are integer
numerators over L^j, L = lcm(1, 3, ..., alpha), and each moment is one
``sin_cos_dot``: an integer dot product against the ratios
I(p + 2) / I(p) = (p + 1) / (q - p - 1) of the integrals of
sin^p cos^(q-p), so a ``PiNumber`` is formed once per moment.  The odd-f
external kernel of ``trig_algebra`` takes the same dot product.

Every row is keyed by (n, alpha, s): the n-vertex simplex at the
concentration alpha, with shift s = 0 for bold-J at beta = (alpha - n + 1)/2
and s = 1 for bold-J~ at beta = (alpha + n - 1)/2.  The hulls, cells and
inversion relations read their rows of every size at one fixed alpha, so
``internal_row`` is the one entry point for a row: exact for an int alpha,
otherwise closed entries plus one quadrature row.  Only ``angle_table``,
``bJ_exact`` and ``bJtilde_exact`` take beta, and each maps it to alpha
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

from . import quadrature
from .exact_scalars import PI, DomainError, PiNumber, c_beta, exact_scaled, gamma_half, linear_combination
from .series_kernel import bernoulli, residue_rational


# -- residue formulas ---------------------------------------------------------


def _residue_applies(n: int, k: int, alpha: int, shift: int) -> bool:
    """The parity rule of the residue formula: for bold-J (shift 0) alpha
    even and n-k odd, or alpha and n odd; for bold-J~ (shift 1) alpha*k
    even."""
    if shift:
        return alpha * k % 2 == 0
    return alpha % 2 == 0 and (n - k) % 2 == 1 or alpha % 2 == 1 and n % 2 == 1


def _bJ_residue(n: int, k: int, alpha: int, shift: int) -> PiNumber:
    """The residue formula of bold-J (shift 0) and bold-J~ (shift 1): the
    beta' one is the beta one at alpha - 1 with c~_beta = c_(beta - 3/2)."""
    if k == n:  # J_{n,n} = 1: the simplex is its only face with n vertices
        return PiNumber.one()
    res = residue_rational(alpha - shift, n - k, alpha * n + 2 - 3 * shift)
    return (
        math.comb(n, k)
        * c_beta(alpha * n - 3 * shift)
        * c_beta(alpha - 1 - shift) ** (n - k)
        * PI
        * res
    )


# -- Bernoulli fill of the Poincare / Dehn-Sommerville relations --------------


def bernoulli_fill(z: Sequence[Optional[PiNumber]]) -> list[PiNumber]:
    """Fill the missing parity class of a vector satisfying the relations
    sum_k (-1)^k C(k,m) z_k = (-1)^n z_m.

    ``z`` is indexed 0..n; known entries are PiNumbers, unknown are None.
    Every unknown z_k is produced from the opposite parity class via the
    Bernoulli-number formulas.
    """
    n = len(z) - 1
    out: list[Optional[PiNumber]] = list(z)

    def known(i: int) -> PiNumber:
        v = out[i]
        if v is None:
            raise DomainError(f"fill requires entry {i} of the opposite parity class")
        return v

    for k in range(n, 0, -1):
        if out[k] is not None:
            continue
        pairs = [(known(k - 1), Fraction(1, k))] if (n - k) % 2 == 0 else []
        for r in range(1, n - k + 1, 2):
            w = Fraction(math.factorial(k + r), math.factorial(r + 1) * math.factorial(k)) * bernoulli(r + 1)
            if (n - k) % 2 == 1:
                w *= 2 ** (r + 1) - 1
            pairs.append((known(k + r), w))
        out[k] = linear_combination(pairs) * 2
    assert all(v is not None for v in out[1:])
    return [v if v is not None else PiNumber.zero() for v in out]


def fill_row(
    z0: PiNumber, n: int, residue_at: Callable[[int], Optional[PiNumber]]
) -> tuple[tuple[PiNumber, str], ...]:
    """Entries 1..n of the vector (z0, z_1, .., z_n) that satisfies the
    relations of ``bernoulli_fill``, each with its provenance tag.

    ``residue_at(k)`` returns the known entry z_k, tagged "residue", or None
    for an entry of the class that ``bernoulli_fill`` produces, tagged "fill".
    """
    z = [z0] + [residue_at(k) for k in range(1, n + 1)]
    filled = bernoulli_fill(z)
    return tuple(
        (filled[k], "fill" if z[k] is None else "residue") for k in range(1, n + 1)
    )


# -- tangent-polynomial route (alpha odd, n even) ------------------------------


def inner_tan_antiderivative(alpha: int) -> dict[int, Fraction]:
    """The odd polynomial T with  integral_0^x (cos y)^(-alpha-1) dy = T(tan x),
    for odd alpha (so the integrand is an even power of sec), as
    {power of tan x: coefficient}."""
    if alpha < 1 or alpha % 2 == 0:
        raise DomainError(
            "inner tangent antiderivative needs odd alpha (even alpha is logarithmic)"
        )
    s = (alpha + 1) // 2  # integrand = sec^{2s} = (1+t^2)^{s-1} dt
    return {2 * i + 1: Fraction(math.comb(s - 1, i), 2 * i + 1) for i in range(s)}


@lru_cache(maxsize=None)
def _power_chain(base: tuple[int, ...]) -> list[list[int]]:
    return [[1]]


def integer_power(base: tuple[int, ...], j: int) -> list[int]:
    """base^j for the polynomial whose coefficient of t^i is base[i], as a
    list of integer coefficients.

    The powers of one base are kept in one list, each built from the one
    before it, and shared by every caller: the tangent powers T^j of the
    internal rows and the powers (L F)^r of the odd-f external kernel.  Read
    the lists, never modify them."""
    powers = _power_chain(base)
    while len(powers) <= j:
        prev = powers[-1]
        nxt = [0] * (len(prev) + len(base) - 1)
        for i, b in enumerate(base):
            if b:
                nxt[i:i + len(prev)] = [x + b * y for x, y in zip(nxt[i:], prev)]
        powers.append(nxt)
    return powers[j]


@lru_cache(maxsize=None)
def _tan_moment(alpha: int, q: int, j: int) -> PiNumber:
    """The integral over [-pi/2, pi/2] of (c T(tan x))^j cos^q x, with
    c = c_beta(alpha - 1): term j of every entry of a case-iii row.  It is
    one ``sin_cos_dot`` over the coefficients of T^j, and zero for odd j,
    whose powers of tan are all odd.

    T^j is read as integer numerators over L^j, L = lcm(1, 3, ..., alpha):
    T is odd, so entry i of the power of T / tan, a polynomial in tan^2,
    is the coefficient of tan^(j + 2i) x."""
    L = math.lcm(*range(1, alpha + 1, 2))
    nums = integer_power(tuple(int(c * L) for c in inner_tan_antiderivative(alpha).values()), j)
    if j + 2 * (len(nums) - 1) > q:  # the highest power of tan
        raise DomainError("tangent power exceeds available cosine power")
    if j % 2:
        return PiNumber.zero()
    return c_beta(alpha - 1) ** j * sin_cos_dot([0] * (j // 2) + nums, q, L**j, tangent=True)


@lru_cache(maxsize=None)
def sin_cos_integral(p: int, q: int) -> PiNumber:
    """Exact integral of sin^p cos^q over [-pi/2, pi/2] (p, q >= 0)."""
    if p < 0 or q < 0:
        raise DomainError("powers must be nonnegative")
    if p % 2 == 1:
        return PiNumber.zero()
    return gamma_half(p + 1) * gamma_half(q + 1) / gamma_half(p + q + 2)


def sin_cos_dot(nums: Sequence[int], q: int, den: int = 1, tangent: bool = False) -> PiNumber:
    """The sum over i of nums[i] / den times I_i, the integral over
    [-pi/2, pi/2] of sin^(2i) cos^(q-2i) (``tangent``: a polynomial in
    tan^2 x times cos^q x) or of sin^(2i) cos^q (a polynomial in sin^2 x
    times cos^q x).

    I_(i+1) = I_i (2i + 1) / d_i with d_i = q - 2i - 1 or q + 2i + 2, so
    I_i = I_0 w_i / W with integers w_i and W = d_0 d_1 ...: the sum is one
    integer dot product times I_0, the one ``sin_cos_integral(0, q)``."""
    top = len(nums) - 1
    heads, tails = [1], [1]  # tails[k]: the product of the last k of d_0 .. d_(top-1)
    for i in range(top):
        heads.append(heads[-1] * (2 * i + 1))
        l = top - 1 - i
        tails.append(tails[-1] * (q - 2 * l - 1 if tangent else q + 2 * l + 2))
    dot = sum(c * heads[i] * tails[top - i] for i, c in enumerate(nums))
    return sin_cos_integral(0, q) * Fraction(dot, den * tails[top])


def bJ_exact_case_iii(n: int, k: int, alpha: int) -> PiNumber:
    """Exact bold-J_{n,k}((alpha-n+1)/2) for odd alpha and even n.

    Expands (1/2 + i c T(tan x))^(n-k) binomially.  The odd powers of
    tan, which carry the imaginary part, integrate to zero against
    cos^(alpha n + 1), so only the even powers are summed; they reduce to
    Beta-function values in Q[pi^(1/2), pi^(-1/2)].
    """
    if n % 2 != 0 or alpha % 2 != 1:
        raise DomainError("this route needs even n and odd alpha")
    if alpha < max(n - 3, 1):
        raise DomainError(f"alpha >= n-3 required (alpha={alpha}, n={n})")
    if not 1 <= k <= n:
        raise DomainError("need 1 <= k <= n")
    m = n - k
    real = linear_combination(
        (_tan_moment(alpha, alpha * n + 1, j), Fraction((-1) ** (j // 2) * math.comb(m, j), 2 ** (m - j)))
        for j in range(0, m + 1, 2)
    )
    return math.comb(n, k) * c_beta(alpha * n) * real


# -- exact dispatchers ---------------------------------------------------------


def _closed_entries(n: int) -> dict[int, Fraction]:
    """The entries of the n-vertex row that hold at every parameter, by k:
    J_{n,n} = 1 (the simplex is its only face with n vertices),
    J_{n,n-1} = n/2 (n facets, each of internal angle 1/2) and, since a
    triangle's angles sum to pi, J_{3,1} = 1/2.  For n <= 3 they are the
    whole row; the key 0 of n = 1 lies outside it."""
    values = {n - 1: Fraction(n, 2), n: Fraction(1)}
    if n == 3:
        values[1] = Fraction(1, 2)
    return values


@lru_cache(maxsize=None)
def _bJ_row(n: int, alpha: int, shift: int) -> tuple[tuple[PiNumber, str], ...]:
    """The exact row of bold-J (shift 0) or bold-J~ (shift 1) at an integer
    alpha: closed for small n, the tangent route where the beta residues
    miss every entry, otherwise residues and their Bernoulli fill."""
    if n <= (1 if shift else 3):
        closed = _closed_entries(n)
        return tuple((PiNumber.from_rational(closed[k]), "closed") for k in range(1, n + 1))
    if shift == 0 and alpha % 2 == 1 and n % 2 == 0:
        return tuple(
            (bJ_exact_case_iii(n, k, alpha), "tan_algebra")
            for k in range(1, n + 1)
        )
    return fill_row(
        PiNumber.zero(), n,
        lambda k: _bJ_residue(n, k, alpha, shift) if _residue_applies(n, k, alpha, shift) else None,
    )


def internal_row(n: int, alpha: int | float, shift: int) -> tuple[tuple[PiNumber | float, str], ...]:
    """The internal angle row bold-J_{n,1..n} (shift 0) or bold-J~_{n,1..n}
    (shift 1) of the n-vertex simplex at beta = (alpha - n + 1)/2 or
    (alpha + n - 1)/2, as (value, provenance) pairs: exact for an int
    alpha, closed entries plus one quadrature row for a float one."""
    if n < 1:
        raise DomainError("n must be positive")
    if shift == 0 and alpha < n - 3:
        raise DomainError("beta >= -1 required")
    if shift == 1 and alpha <= 0:
        raise DomainError("beta > (n-1)/2 required")
    if not isinstance(alpha, float):
        return _bJ_row(n, alpha, shift)
    # the quadrature needs alpha*n > 1; rows with n <= 3 are all closed forms
    if shift == 1 and n >= 4 and alpha * n <= 1.0:
        raise DomainError(
            f"the numeric betaprime path needs beta > (n-1)/2 + 1/(2n) = "
            f"{Fraction(n * n - n + 1, 2 * n)} for n = {n}"
        )
    values = {k: float(v) for k, v in _closed_entries(n).items()}
    ks = [k for k in range(1, n + 1) if k not in values]
    if ks:
        values.update(zip(ks, quadrature.outer_row(n, ks, alpha, shift).values))
    return tuple((values[k], "numeric") for k in range(1, n + 1))


def bJ_exact(n: int, k: int, twice_beta: int) -> PiNumber:
    """Exact bold-J_{n,k}(beta) for half-integer beta (argument doubled)."""
    if not 1 <= k <= n:
        raise DomainError("need 1 <= k <= n")
    return internal_row(n, twice_beta + n - 1, 0)[k - 1][0]


def bJtilde_exact(n: int, k: int, twice_beta: int) -> PiNumber:
    """Exact bold-J~_{n,k}(beta) for half-integer beta > (n-1)/2."""
    if not 1 <= k <= n:
        raise DomainError("need 1 <= k <= n")
    return internal_row(n, twice_beta - n + 1, 1)[k - 1][0]


# -- angle tables ---------------------------------------------------------------


@dataclass(frozen=True)
class AngleTable:
    """Row of expected internal angle sums bold-J_{n,k} for k = 1..n."""

    family: str  # "beta" | "betaprime"
    n: int
    beta: Fraction | float
    entries: tuple[tuple[PiNumber | float, str], ...]

    def value(self, k: int):
        return self.entries[k - 1][0]

    def provenance(self, k: int) -> str:
        return self.entries[k - 1][1]


def angle_table(family: str, n: int, beta: Fraction | float) -> AngleTable:
    """Full table for k = 1..n: the internal row at the alpha of beta,
    exact when beta is a half-integer Fraction."""
    if family not in ("beta", "betaprime"):
        raise DomainError(f"unknown family {family!r}")
    s = 0 if family == "beta" else 1
    tb = exact_scaled(beta)
    b = Fraction(beta) if tb is not None else float(beta)
    twice = tb if tb is not None else 2.0 * b
    # one rounding, so a float alpha > 0 exactly when beta > (n-1)/2
    alpha = twice - (n - 1) if s else twice + n - 1
    return AngleTable(family, n, b, internal_row(n, alpha, s))

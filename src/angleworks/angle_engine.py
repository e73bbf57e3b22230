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

Non-half-integer parameters fall back to numerical quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

from . import quadrature, trig_algebra
from .exact_scalars import PI, DomainError, PiNumber, c_beta, exact_scaled, linear_combination
from .series_kernel import bernoulli, residue_coefficient


class ParityError(DomainError):
    """The residue formula does not apply at these parities."""


@lru_cache(maxsize=None)
def residue_rational(a: int, p: int, q: int) -> Fraction:
    """The rational residue behind every exact formula in this module:
    [x^-1] (int_0^x sin^a)^p / sin^q x.

    In s = sin x it is one coefficient of one power of the integral of
    sin^a (see ``series_kernel``).
    """
    if a < 0 or p < 0 or q < 1:
        raise DomainError(f"invalid residue parameters a={a}, p={p}, q={q}")
    return residue_coefficient(a, p, q)


# -- residue formulas ---------------------------------------------------------


def _residue_applies(n: int, k: int, alpha: int, shift: int) -> bool:
    """The parity rule of the residue formula: for bold-J (shift 0) alpha
    even and n-k odd, or alpha and n odd; for bold-J~ (shift 1) alpha*k
    even."""
    if shift:
        return alpha * k % 2 == 0
    return alpha % 2 == 0 and (n - k) % 2 == 1 or alpha % 2 == 1 and n % 2 == 1


def bJ_residue(n: int, k: int, alpha: int) -> PiNumber:
    """bold-J_{n,k}((alpha-n+1)/2) if alpha is even and n-k odd, or both
    alpha and n are odd."""
    if not (n >= 3 and 1 <= k <= n):
        raise DomainError("need n >= 3 and 1 <= k <= n")
    if alpha < max(n - 3, 1):
        raise DomainError(f"need alpha >= max(n-3, 1), got alpha={alpha}")
    if not _residue_applies(n, k, alpha, 0):
        raise ParityError(
            f"residue route needs (alpha even, n-k odd) or (alpha, n odd); "
            f"got n={n}, k={k}, alpha={alpha}"
        )
    return _bJ_residue(n, k, alpha, 0)


def bJtilde_residue(n: int, k: int, alpha: int) -> PiNumber:
    """bold-J~_{n,k}((alpha+n-1)/2) whenever alpha*k is even."""
    if not (n >= 1 and 1 <= k <= n):
        raise DomainError("need 1 <= k <= n")
    if alpha < 1:
        raise DomainError("need integer alpha >= 1")
    if not _residue_applies(n, k, alpha, 1):
        raise ParityError(f"residue route needs alpha*k even; got {alpha}*{k}")
    return _bJ_residue(n, k, alpha, 1)


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


def relations_hold(z: Sequence[PiNumber]) -> bool:
    """Whether (z_0, .., z_n) satisfies sum_k (-1)^k C(k,m) z_k = (-1)^n z_m
    for every m: the Poincare relations of an angle row and the
    Dehn-Sommerville relations of a simplicial f-vector."""
    n = len(z) - 1
    return all(
        linear_combination((z[k], (-1) ** k * math.comb(k, m)) for k in range(m, n + 1))
        == (-1) ** n * z[m]
        for m in range(n + 1)
    )


# -- exact dispatchers ---------------------------------------------------------


def _closed_small_row(n: int) -> tuple[tuple[PiNumber, str], ...]:
    if n == 1:
        return ((PiNumber.one(), "closed"),)
    if n == 2:
        return ((PiNumber.one(), "closed"), (PiNumber.one(), "closed"))
    # n == 3: (1/2, 3/2, 1) for every admissible parameter
    return (
        (PiNumber.from_rational(Fraction(1, 2)), "closed"),
        (PiNumber.from_rational(Fraction(3, 2)), "closed"),
        (PiNumber.one(), "closed"),
    )


@lru_cache(maxsize=None)
def _bJ_row(n: int, twice_beta: int, shift: int) -> tuple[tuple[PiNumber, str], ...]:
    """The exact row of bold-J (shift 0) or bold-J~ (shift 1) at beta =
    twice_beta / 2: closed for small n, the tangent route where the beta
    residues miss every entry, otherwise residues and their Bernoulli fill."""
    if n < 1:
        raise DomainError("n must be positive")
    if shift == 0 and twice_beta < -2:
        raise DomainError("beta >= -1 required")
    if shift == 1 and twice_beta < n:
        raise DomainError("beta > (n-1)/2 required")
    if n <= (1 if shift else 3):
        return _closed_small_row(n)
    alpha = twice_beta - n + 1 if shift else twice_beta + n - 1
    if shift == 0 and alpha % 2 == 1 and n % 2 == 0:
        return tuple(
            (trig_algebra.bJ_exact_case_iii(n, k, alpha), "tan_algebra")
            for k in range(1, n + 1)
        )
    return fill_row(
        PiNumber.zero(), n,
        lambda k: _bJ_residue(n, k, alpha, shift) if _residue_applies(n, k, alpha, shift) else None,
    )


def bJ_exact(n: int, k: int, twice_beta: int) -> PiNumber:
    """Exact bold-J_{n,k}(beta) for half-integer beta (argument doubled)."""
    if not 1 <= k <= n:
        raise DomainError("need 1 <= k <= n")
    return _bJ_row(n, twice_beta, 0)[k - 1][0]


def bJtilde_exact(n: int, k: int, twice_beta: int) -> PiNumber:
    """Exact bold-J~_{n,k}(beta) for half-integer beta > (n-1)/2."""
    if not 1 <= k <= n:
        raise DomainError("need 1 <= k <= n")
    return _bJ_row(n, twice_beta, 1)[k - 1][0]


# -- the a[nu, kappa] residue evaluations --------------------------------------


def lA_residue(nu_num: int, kappa_num: int, alpha: int, shift: int) -> PiNumber:
    """a[nu, kappa] (shift 0) or a~[nu, kappa] (shift 1) with
    nu = nu_num/alpha, kappa = kappa_num/alpha, via the rational residue:
    alpha^(r+1)/(2 r!) times the residue at sin^(alpha - shift) and
    q = nu_num + shift.  Shift 0 requires alpha*kappa + nu - kappa odd,
    shift 1 requires alpha*kappa even."""
    if alpha < 1:
        raise DomainError("alpha must be a positive integer")
    if (nu_num - kappa_num) % alpha != 0:
        raise DomainError("nu - kappa must be a nonnegative integer")
    r = (nu_num - kappa_num) // alpha
    if r < 0:
        return PiNumber.zero()
    if shift == 0 and (kappa_num + r) % 2 == 0:
        raise ParityError(
            "a[nu, kappa] residue form needs alpha*kappa + (nu - kappa) odd"
        )
    if shift == 1 and kappa_num % 2 != 0:
        raise ParityError("a~[nu, kappa] residue form needs alpha*kappa even")
    res = residue_rational(alpha - shift, r, nu_num + shift)
    return PiNumber.from_rational(
        Fraction(alpha ** (r + 1), 2 * math.factorial(r)) * res
    )


# -- pointwise rational-structure checks ---------------------------------------


def rm_value(m: int, n: int) -> Fraction:
    """The scalar R_m(n) in the closed form of bold-J_{n,1}(m - 1/2)."""
    if m < 0 or n < 3:
        raise DomainError("need m >= 0 and n >= 3")
    a = n + 2 * m - 2
    res = residue_rational(a, n - 1, a * n + 2)
    return Fraction(n + 2 * m - 1) ** (n - 1) * res


def p_alpha_k_value(alpha: int, k: int, n: int) -> Fraction:
    """The polynomial value P_{alpha,k}(n) in the closed form of
    bold-J~_{n,k}((alpha+n-1)/2); requires alpha*k even."""
    if alpha < 1 or k < 1 or n < k:
        raise DomainError("need alpha >= 1 and n >= k >= 1")
    if (alpha * k) % 2 != 0:
        raise ParityError("P_{alpha,k} requires alpha*k even")
    res = residue_rational(alpha - 1, n - k, alpha * n - 1)
    return Fraction(alpha) ** (n - k) * res


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
    """Full table for k = 1..n; exact when beta is a half-integer Fraction,
    otherwise one quadrature row for the entries without a closed form."""
    if family not in ("beta", "betaprime"):
        raise DomainError(f"unknown family {family!r}")
    if n < 1:
        raise DomainError("n must be positive")
    s = 0 if family == "beta" else 1
    tb = exact_scaled(beta)
    if tb is not None:
        return AngleTable(family, n, Fraction(beta), _bJ_row(n, tb, s))
    b = float(beta)
    if s == 0 and b < -1:
        raise DomainError("beta >= -1 required")
    if s == 1 and b <= (n - 1) / 2:
        raise DomainError("beta > (n-1)/2 required")
    alpha = 2.0 * b - n + 1 if s else 2.0 * b + n - 1
    # the quadrature needs alpha*n > 1; rows with n <= 3 are all closed forms
    if s == 1 and n >= 4 and alpha * n <= 1.0:
        raise DomainError(
            f"the numeric betaprime path needs beta > (n-1)/2 + 1/(2n) = "
            f"{Fraction(n * n - n + 1, 2 * n)} for n = {n}"
        )
    # every simplex has J_{n,n} = 1 (itself) and J_{n,n-1} = n/2 (n facets,
    # each of internal angle 1/2), and a triangle's angles sum to pi, so
    # J_{3,1} = 1/2: these entries need no quadrature
    values = {n - 1: n / 2, n: 1.0}
    if n == 3:
        values[1] = 0.5
    ks = [k for k in range(1, n + 1) if k not in values]
    if ks:
        values.update(zip(ks, quadrature.outer_row(n, ks, alpha, s).values))
    entries = tuple((values[k], "numeric") for k in range(1, n + 1))
    return AngleTable(family, n, b, entries)

"""Named verification suites behind ``angleworks verify``, and every second
route they hold the engines against.

Each check returns a ``CheckResult``; a suite is a list of them.  The
relations suite replays the linear identities every exact table must
satisfy (``relations_hold``, ``euler_relation_holds``,
``dehn_sommerville_holds``), the crosscheck suite pits independent
computation routes against each other, and the montecarlo suite compares
seeded stochastic estimates with the exact engine, each gated by
``McEstimate.z``.

The second routes live here and nowhere else: the closed sin/cos residue,
the a[nu, kappa] residues, R_m and P_{alpha,k}, the direct residue forms of
the Poisson entries and of the Reitzner constants, the zero cell's product
formula, and the bivariate extraction ``ugly_coefficient`` against the
Bernoulli fill.  The engines compute each quantity by one primary route and
never call these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import mpmath

from . import montecarlo, quadrature
from .angle_engine import angle_table, bJ_exact, internal_row
from .exact_scalars import DomainError, PiNumber, c_beta, c_tilde_beta, gamma_half, linear_combination
from .polytope_engine import (
    FVector,
    beta_polytope_fvector,
    betaprime_polytope_fvector,
    poisson_polytope_fvector,
    reitzner_ball,
    reitzner_sphere,
    typical_voronoi_fvector,
    x_over_sin_coeff,
    zero_cell_entry_even,
    zero_cell_fvector,
)
from .series_kernel import bernoulli, residue_rational
from .trig_algebra import external_bI, external_bI_fourier, external_bI_tilde, external_lB


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check(name: str, cond: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(cond), detail)


# -- relation predicates ---------------------------------------------------------


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


def euler_relation_holds(fv: FVector) -> bool:
    """Euler relation sum (-1)^ell f_ell = 1 - (-1)^d: exact for exact
    entries; for numeric ones to 1e-8 relative to max(1, sum |f_ell|), the
    size of the terms that cancel in the alternating sum."""
    want = 1 - (-1) ** fv.d
    values = fv.values()
    if all(isinstance(v, PiNumber) for v in values):
        return linear_combination((v, (-1) ** l) for l, v in enumerate(values)) == want
    scale = max(1.0, sum(abs(v) for v in values))
    return abs(sum((-1) ** l * v for l, v in enumerate(values)) - want) < 1e-8 * scale


def dehn_sommerville_holds(fv: FVector) -> bool:
    """All Dehn-Sommerville relations, exactly, on the vector (z_0..z_d) of
    the simplicial f-vector: directly for the simplicial models, through the
    dual for the simple ones."""
    values = list(fv.values())
    if fv.model in ("zerocell", "voronoi"):
        values.reverse()
    return relations_hold([PiNumber.one()] + values)


# -- arithmetic-form classification -------------------------------------------


def bJ_form_ok(n: int, k: int, alpha: int) -> bool:
    """Support of bold-J_{n,k} at alpha matches its arithmetic
    classification."""
    v = internal_row(n, alpha, 0)[k - 1][0]
    s = v.support()
    if alpha % 2 == 1:
        return v.is_rational()
    if (n - k) % 2 == 1:
        return s == (-2 * (n - k - 1),)
    return all(e % 4 == 0 and -2 * (n - k) <= e <= 0 for e in s)


def bJtilde_form_ok(n: int, k: int, alpha: int) -> bool:
    v = internal_row(n, alpha, 1)[k - 1][0]
    s = v.support()
    if alpha % 2 == 0:
        return v.is_rational()
    if k % 2 == 0:
        e = -2 * (n - k) if (n - k) % 2 == 0 else -2 * (n - k - 1)
        return s == (e,) or v.is_zero()
    top = n - k - 1 if (n - k) % 2 == 1 else n - k
    return all(e % 4 == 0 and -2 * top <= e <= 0 for e in s)


def voronoi_form_ok(d: int) -> bool:
    fv = typical_voronoi_fvector(d)
    for ell in range(d):
        s = fv.value(ell).support()
        if d % 2 == 0:
            if not fv.value(ell).is_rational():
                return False
        elif ell % 2 == 1:
            if s != (2 * (d - ell),):
                return False
        else:
            lo, hi = d - ell - 1, d - 1
            if not all(
                e % 2 == 0 and lo <= e // 2 <= hi and (e // 2 - hi) % 2 == 0 for e in s
            ):
                return False
    return True


# -- relations suite -----------------------------------------------------------


_RELATIONS_N_CAP = 10


def relations_suite(max_n: int = 8) -> list[CheckResult]:
    """The relations every exact table must satisfy, on the angle rows and
    f-vectors of size up to ``max_n``, 2 <= max_n <= ``_RELATIONS_N_CAP``."""
    if max_n < 2:
        raise DomainError(f"--max-n must be at least 2, got {max_n}")
    if max_n > _RELATIONS_N_CAP:
        raise DomainError(
            f"--max-n capped at {_RELATIONS_N_CAP} for the relations suite, got {max_n}"
        )
    out: list[CheckResult] = []

    ok, cases = True, 0
    for n in range(2, max_n + 1):
        rows = [(alpha, 0) for alpha in range(max(n - 3, 0), max(n - 3, 0) + 5)]
        rows += [(alpha, 1) for alpha in range(1, 6)]
        for alpha, shift in rows:
            row = internal_row(n, alpha, shift)
            ok = ok and relations_hold([PiNumber.zero()] + [v for v, _ in row])
            cases += 1
    out.append(_check("poincare-relations", ok, f"{cases} exact angle tables, n <= {max_n}"))

    # sum_{m=k..n} (-1)^m I_{n,m}(alpha) J_{m,k} = 0 for k < n, every row
    # J_{m,.} read at the same alpha.  For n <= alpha + 3 the external rows
    # are solved from these relations, so there each case holds an entry
    # I_{n,k}, k < n, against the Fourier kernel instead.
    for name, external, first_alpha, shift in (
        ("inversion-relations-beta", external_bI, lambda n: max(n - 3, 0), 0),
        ("inversion-relations-betaprime", external_bI_tilde, lambda n: 1, 1),
    ):
        ok, entries, identities = True, 0, 0
        for n in range(2, min(max_n, 8) + 1):
            for alpha in range(first_alpha(n), 9):
                for k in range(1, n):
                    if n <= alpha + 3:
                        entries += 1
                        ok = ok and external(n, k, alpha) == external_bI_fourier(n, k, alpha, shift)
                        continue
                    identities += 1
                    ok = ok and linear_combination(
                        (external(n, m, alpha), (-1) ** m * internal_row(m, alpha, shift)[k - 1][0])
                        for m in range(k, n + 1)
                    ).is_zero()
        detail = f"{entries} entries against the Fourier kernel, {identities} identities"
        out.append(_check(name, ok, detail))

    ok, cases = True, 0
    fvs: list[FVector] = []
    for d in range(1, max_n + 1):
        fvs.append(typical_voronoi_fvector(d))
        fvs.append(zero_cell_fvector(d))
        for alpha in (1, 2, 3):
            fvs.append(poisson_polytope_fvector(d, alpha))
        fvs.append(beta_polytope_fvector(d + 2, d, Fraction(0)))
        fvs.append(betaprime_polytope_fvector(d + 2, d, Fraction(d + 2, 2)))
    for fv in fvs:
        ok = ok and euler_relation_holds(fv) and dehn_sommerville_holds(fv)
        cases += 1
    out.append(_check("euler-dehn-sommerville", ok, f"{cases} exact f-vectors, d <= {max_n}"))

    ok, cases = True, 0
    for n in range(2, min(max_n, 8) + 1):
        for alpha in range(max(n - 3, 1), 7):
            for k in range(1, n + 1):
                ok = ok and bJ_form_ok(n, k, alpha)
                cases += 1
        for alpha in range(1, 7):
            for k in range(1, n + 1):
                ok = ok and bJtilde_form_ok(n, k, alpha)
                cases += 1
    for d in range(1, max_n + 1):
        ok = ok and voronoi_form_ok(d)
        cases += 1
    out.append(_check("arithmetic-form-classification", ok, f"{cases} values"))
    return out


# -- second routes ---------------------------------------------------------------


class ParityError(DomainError):
    """The residue formula does not apply at these parities."""


def sin_cos_residue(p: int, q: int) -> Fraction:
    """[x^-1] 1 / (sin^p x cos^q x) for odd p >= 1 and any integer q.

    In s = sin x this is [s^(p-1)] (1 - s^2)^(-(q+1)/2) =
    (-1)^n C(-(q+1)/2, n), n = (p - 1) / 2, that is
    (q+1)(q+3)...(q+2n-1) / (2^n n!)."""
    if p < 1 or p % 2 == 0:
        raise DomainError(f"sin_cos_residue needs an odd p >= 1, got p={p}")
    n = (p - 1) // 2
    return Fraction(math.prod(range(q + 1, q + 2 * n, 2)), 2**n * math.factorial(n))


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


def poisson_residue_entry(d: int, k: int, alpha: int) -> PiNumber:
    """Direct residue form of E f_{k-1} of the Poisson polytope (valid when
    alpha*k is even)."""
    if (alpha * k) % 2 != 0:
        raise DomainError("residue form requires alpha*k even")
    pref = (gamma_half(1) * gamma_half(alpha) / gamma_half(alpha + 1)) ** k
    res = residue_rational(alpha - 1, d - k, alpha * d + 1)
    return Fraction(alpha**d * math.comb(d, k)) * pref * res


def parity_product_coeff(d: int, m: int) -> Fraction:
    """[x^m] prod (1 + j^2 x^2) over 0 < j < d of parity opposite to d."""
    poly = [Fraction(1)]
    for j in range(1, d):
        if j % 2 != d % 2:
            # multiply by (1 + j^2 x^2)
            nxt = poly + [Fraction(0), Fraction(0)]
            for i, c in enumerate(poly):
                nxt[i + 2] += c * j * j
            poly = nxt
    return poly[m] if m < len(poly) else Fraction(0)


def zero_cell_entry_product(d: int, ell: int) -> PiNumber:
    """Independent product-formula form of the zero cell's E f_ell (even
    d - ell): pi^(d-ell)/(d-ell)! * [x^(d-ell)] prod (1 + j^2 x^2) over
    j < d of opposite parity."""
    if (d - ell) % 2 != 0:
        raise DomainError("this form needs even d - ell")
    m = d - ell
    return PiNumber.pi_power(2 * m, parity_product_coeff(d, m) / math.factorial(m))


def reitzner_ball_residue(d: int, k: int) -> float:
    """Residue form of C_{d,k}; valid when d is odd or both d, d-k even."""
    if not (d % 2 == 1 or (d % 2 == 0 and (d - k) % 2 == 0)):
        raise DomainError("parity conditions of the residue form not met")
    res = residue_rational(d, d - k - 1, d * d + 2)
    with mpmath.workdps(60):
        dd = mpmath.mpf(d)
        pref = (
            (dd * dd + 1)
            / mpmath.factorial(d)
            * mpmath.power(dd + 1, (dd * dd - dd) / (dd + 1))
            * math.comb(d, k + 1)
            * mpmath.gamma((dd * dd + 1) / (dd + 1))
            * mpmath.power(
                mpmath.sqrt(mpmath.pi) * mpmath.gamma((dd + 1) / 2) / mpmath.gamma((dd + 2) / 2),
                k + mpmath.mpf(2) / (dd + 1),
            )
        )
        return float(pref * mpmath.mpf(res.numerator) / res.denominator)


def reitzner_sphere_residue(d: int, k: int) -> PiNumber:
    """Residue form of C*_{d,k}; valid when d is odd or both d, d-k even.

    Prefactor re-derived from the angle form: (d-1)^(d-1)/d * C(d, k+1) *
    (sqrt(pi) Gamma((d-1)/2) / Gamma(d/2))^k; reproduces C*_{d,0} = 1 and
    C*_{3,2} = 2.
    """
    if not (d % 2 == 1 or (d % 2 == 0 and (d - k) % 2 == 0)):
        raise DomainError("parity conditions of the residue form not met")
    res = residue_rational(d - 2, d - k - 1, d * d - 2 * d + 2)
    pref = Fraction((d - 1) ** (d - 1) * math.comb(d, k + 1), d) * (
        gamma_half(1) * gamma_half(d - 1) / gamma_half(d)
    ) ** k
    return pref * res


# -- crosscheck suite ------------------------------------------------------------


def ugly_coefficient(s: int, c: PiNumber, M: int, a: int, variant: str) -> PiNumber:
    """[u^a x^{-1}] of sin(u*c*G(x)) / (tan(u/2) (sin x)^M)  (sin_over_tan)
    or of cos(u*c*G(x)) / (cot(u/2) (sin x)^M)  (cos_over_cot), with
    G = int_0^x sin^s (G = x at s = 0).

    The u-side is closed form: expanding the sine/cosine as a finite sum of
    powers of u*c*G and the co/tangent through the Bernoulli generating
    functions, the u^a coefficient is a Bernoulli-weighted sum over the
    power j, each term carrying the rational residue of G^j (sin x)^{-M},
    ``residue_rational(s, j, M)``, which rejects s < 0 and M < 1.
    """
    if variant == "sin_over_tan":
        if a % 2 != 0:
            raise DomainError("sin_over_tan variant requires even a")
        js = range(1, a + 2, 2)
    elif variant == "cos_over_cot":
        if a % 2 != 1:
            raise DomainError("cos_over_cot variant requires odd a")
        js = range(0, a, 2)
    else:
        raise DomainError(f"unknown variant {variant!r}")

    pairs = []
    for j in js:
        two_n = a + 1 - j
        B = bernoulli(two_n)
        if variant == "sin_over_tan":
            # sin(uw) -> (-1)^((j-1)/2) w^j/j!; cot(u/2) -> 2 (-1)^n B_{2n} u^{2n-1}/(2n)!
            sign = (-1) ** ((j - 1) // 2) * (-1) ** (two_n // 2)
            weight = Fraction(2 * sign, math.factorial(two_n) * math.factorial(j)) * B
        else:
            # cos(uw) -> (-1)^(j/2) w^j/j!; tan(u/2) -> 2 (-1)^(n-1) (2^{2n}-1) B_{2n} u^{2n-1}/(2n)!
            sign = (-1) ** (j // 2) * (-1) ** (two_n // 2 - 1)
            weight = (
                Fraction(2 * sign * (2 ** two_n - 1), math.factorial(two_n) * math.factorial(j))
                * B
            )
        pairs.append((c ** j, weight * residue_rational(s, j, M)))
    return linear_combination(pairs)


def _signed_ugly(s: int, c: PiNumber, q: int, a: int) -> PiNumber:
    """The bivariate coefficient of ``ugly_coefficient`` with the sign of its
    parity variant: sin/tan for even a, cos/cot for odd a."""
    if a % 2 == 0:
        return (-1) ** (a // 2) * ugly_coefficient(s, c, q, a, "sin_over_tan")
    return (-1) ** ((a - 1) // 2) * ugly_coefficient(s, c, q, a, "cos_over_cot")


GOLDEN = (
    (4, 1, -2, PiNumber.from_rational(Fraction(1, 8))),
    (5, 1, -2, PiNumber({-4: Fraction(539, 288), 0: Fraction(-1, 6)})),
    (4, 1, 0, PiNumber.from_rational(Fraction(401, 2560))),
    (5, 1, 0, PiNumber({-4: Fraction(1692197, 846720), 0: Fraction(-1, 6)})),
)


def crosscheck_suite() -> list[CheckResult]:
    out: list[CheckResult] = []

    ok = all(bJ_exact(n, k, tb) == v for n, k, tb, v in GOLDEN)
    out.append(_check("golden-angle-values", ok, "four published exact values"))

    ok = True
    for d in range(1, 13):
        for ell in range(d):
            if (d - ell) % 2 == 0:
                ok = ok and zero_cell_entry_even(d, ell) == zero_cell_entry_product(d, ell)
    out.append(_check("zero-cell-two-formulas", ok, "coefficient vs product form, d <= 12"))

    ok = True
    for d in range(1, 13):
        for m in range(0, d + 1, 2):
            lhs = Fraction(math.factorial(d), math.factorial(d - m)) * x_over_sin_coeff(d + 1, m)
            rhs = parity_product_coeff(d, m)
            ok = ok and lhs == rhs
    out.append(_check("curious-combinatorial-identity", ok, "d <= 12, all even m"))

    ok = True
    for d in range(1, 11):
        fv = poisson_polytope_fvector(d, 2)
        for k in range(1, d + 1):
            ok = ok and fv.value(k - 1) == Fraction(math.comb(d, k) * math.comb(d + k, k))
    for d in range(0, 11):
        for k in range(0, d + 1):
            res = sin_cos_residue(2 * k + 1, 2 * d + 1)
            ok = ok and res == Fraction(math.comb(d + k, k))
    out.append(_check("alpha-2-family", ok, "A063007 f-vectors and sin/cos residue identity, d <= 10"))

    ok = True
    for d in range(1, 9):
        for alpha in (1, 2, 3, 4):
            fv = poisson_polytope_fvector(d, alpha)
            for k in range(1, d + 1):
                if (alpha * k) % 2 == 0:
                    ok = ok and poisson_residue_entry(d, k, alpha) == fv.value(k - 1)
    for d in range(1, 9):
        fv = typical_voronoi_fvector(d)
        for k in range(1, d + 1):
            if (d * k) % 2 == 0:
                ok = ok and poisson_residue_entry(d, k, d) == fv.value(d - k)
    out.append(_check("residue-vs-telescoping", ok, "direct residue equals summed route"))

    ok = True
    for n in range(3, 9):
        zc_n = zero_cell_fvector(n)
        zc_m = zero_cell_fvector(n - 2)
        denom = (PiNumber.pi_power(2 * n) * c_tilde_beta(n + 1)) * 2
        for k in range(1, n - 1):
            f_n = zc_n.value(n - k)
            f_m = zc_m.value(n - k - 2)
            lhs = angle_table("betaprime", n, Fraction(n, 2)).value(k)
            rhs = Fraction(n) * (f_n - f_m) / denom
            ok = ok and lhs == rhs
            if k != 1:
                # E f_{n-k}(Z_{n-2}) with n-k = (n-2) means the cell itself
                f_small = PiNumber.one() if n - k == n - 2 else zc_m.value(n - k)
                rhs2 = (
                    Fraction(n * (n - 1) ** 2, k * (k - 1))
                    * f_small
                    / (PiNumber.pi_power(2 * (n - 2)) * c_tilde_beta(n + 1) * 2)
                )
                ok = ok and lhs == rhs2
    out.append(_check("zero-cell-angle-bridge", ok, "J~_{n,k}(n/2) vs zero-cell entries, n <= 8"))

    # the bivariate route on the parity class that the Bernoulli fill produces;
    # the beta' formula is the beta one at alpha - 1 with c~_beta = c_(beta - 3/2)
    for name, alphas, filled, shift, detail in (
        ("ugly-vs-fill-beta", lambda n: range(max(n - 3, 1), 8),
         lambda n, k, alpha: alpha % 2 == 0 and (n - k) % 2 == 0, 0,
         "bivariate route equals Bernoulli fill, n <= 8"),
        ("ugly-vs-fill-betaprime", lambda n: (1, 3),
         lambda n, k, alpha: alpha * k % 2 == 1, 1, "both parity variants, n <= 8"),
    ):
        ok = True
        for n in range(2, 9):
            for alpha in alphas(n):
                for k in range(1, n + 1):
                    if not filled(n, k, alpha):
                        continue
                    val = _signed_ugly(
                        alpha - shift, c_beta(alpha - 1 - shift), alpha * n + 2 - 3 * shift, n - k
                    )
                    full = (
                        Fraction(math.factorial(n), math.factorial(k))
                        * PiNumber.pi_power(2)
                        * c_beta(alpha * n - 3 * shift)
                        * val
                    )
                    ok = ok and full == internal_row(n, alpha, shift)[k - 1][0]
        out.append(_check(name, ok, detail))

    ok = True
    inv_pi = PiNumber.pi_power(-2)
    for d in range(1, 11):
        fv = zero_cell_fvector(d)
        for ell in range(d):
            if (d - ell) % 2 == 0:
                continue
            val = _signed_ugly(0, inv_pi, d + 1, ell)
            pref = Fraction(math.factorial(d), math.factorial(d - ell))
            ok = ok and pref * PiNumber.pi_power(2 * d) * val == fv.value(ell)
    out.append(_check("zero-cell-ugly-display", ok, "bivariate route matches filled entries, d <= 10"))

    ok = True
    for n in range(3, 9):
        ok = ok and rm_value(0, n) == 1
        ok = ok and rm_value(1, n) == Fraction(n * n + n + 2, 2 * (n + 3))
        ok = ok and rm_value(2, n) == Fraction(
            n**5 + 15 * n**4 + 81 * n**3 + 225 * n**2 + 326 * n + 216,
            8 * (n + 5) ** 2 * (n + 7),
        )
    out.append(_check("rational-function-R_m", ok, "R_0, R_1, R_2 at n = 3..8"))

    P_TABLE: dict[tuple[int, int], Callable[[int], Fraction]] = {
        (1, 2): lambda n: Fraction(1),
        (1, 4): lambda n: Fraction(n - 1, 6),
        (1, 6): lambda n: Fraction(5 * n * n - 8 * n + 3, 360),
        (1, 8): lambda n: Fraction(35 * n**3 - 63 * n**2 + 37 * n - 9, 45360),
        (2, 1): lambda n: Fraction(1),
        (2, 2): lambda n: Fraction(n, 4),
        (2, 3): lambda n: Fraction(n * (n + 1), 32),
        (2, 4): lambda n: Fraction(n * (n * n + 3 * n + 2), 384),
    }
    ok = True
    for (alpha, k), f in P_TABLE.items():
        for n in range(k, 9):
            ok = ok and p_alpha_k_value(alpha, k, n) == f(n)
    out.append(_check("polynomial-P_alpha_k", ok, "eight printed polynomials at n <= 8"))

    ok = True
    for alpha in (1, 2, 3):
        for n in range(1, 7):
            for k in range(1, n + 1):
                if (alpha * k) % 2 != 0 or alpha * k <= 1:
                    continue
                acc = linear_combination(
                    (
                        external_lB(n, m, alpha, 1),
                        (-1) ** (m - k) * (m - Fraction(1, alpha)) * lA_residue(alpha * m - 2, alpha * k - 2, alpha, 1),
                    )
                    for m in range(k, n + 1)
                )
                ok = ok and acc == (1 if n == k else 0)
    out.append(_check("kronecker-exact-betaprime", ok, "all parity-admissible cases, n <= 6"))

    worst = 0.0
    for alpha in (1, 2, 3):
        F0 = math.sqrt(math.pi) * math.gamma((alpha + 1) / 2) / (alpha * math.gamma(alpha / 2))
        for n in range(1, 6):
            for k in range(1, n + 1):
                signed, unsigned = 0.0, 0.0
                for m in range(k, n + 1):
                    term = (
                        external_lB(n, m, alpha, 0).to_float()
                        * (m + 1 / alpha)
                        * quadrature.a_row(m + 2 / alpha, (k + 2 / alpha,), alpha, 0)[0]
                    )
                    signed += (-1) ** (m - k) * term
                    unsigned += term
                worst = max(worst, abs(signed - (1.0 if n == k else 0.0)))
                target = (2 * alpha * F0) ** (n - k) / math.factorial(n - k)
                worst = max(worst, abs(unsigned - target) / target)
    out.append(_check("kronecker-numeric-beta", worst < 1e-9, f"worst deviation {worst:.2e}"))

    ok = True
    for d in range(2, 9):
        ok = ok and reitzner_sphere(d, 0).exact == PiNumber.one()
    for d in range(3, 9):
        cb1, cb2 = reitzner_ball(d, d - 2).value, reitzner_ball(d, d - 1).value
        ok = ok and abs(cb1 - (d / 2) * cb2) <= 1e-10 * abs(cb1)
        cs1, cs2 = reitzner_sphere(d, d - 2).value, reitzner_sphere(d, d - 1).value
        ok = ok and abs(cs1 - (d / 2) * cs2) <= 1e-10 * abs(cs1)
    for d in range(2, 8):
        for k in range(0, d):
            if d % 2 == 1 or (d - k) % 2 == 0:
                ok = ok and abs(reitzner_ball_residue(d, k) - reitzner_ball(d, k).value) <= 1e-9 * reitzner_ball(d, k).value
                ok = ok and reitzner_sphere_residue(d, k) == reitzner_sphere(d, k).exact
    out.append(_check("reitzner-constants", ok, "C*_{d,0}=1, facet ratios, residue forms"))

    ok, worst = True, 0.0
    for family, grid in (("beta", _NUMERIC_GRID), ("betaprime", _NUMERIC_GRID_TILDE)):
        for n, k, tb in grid:
            exact = angle_table(family, n, Fraction(tb, 2)).value(k)
            diff = abs(angle_table(family, n, tb / 2).value(k) - exact.to_float())
            worst = max(worst, diff)
            ok = ok and diff <= 1e-8
    out.append(_check("numeric-exact-agreement", ok, f"30-case grid, worst |diff| {worst:.2e}"))
    return out


_NUMERIC_GRID = (
    (3, 1, -2), (3, 2, -1), (3, 1, 0), (4, 1, -2), (4, 2, -1), (4, 1, 0),
    (4, 3, 1), (5, 1, -2), (5, 2, -1), (5, 1, 0), (5, 3, 2), (6, 1, 0),
    (6, 2, -1), (6, 4, 1), (7, 1, 0), (7, 2, 1), (7, 5, -1), (7, 3, 2),
)

_NUMERIC_GRID_TILDE = (
    (2, 1, 3), (3, 1, 3), (3, 2, 4), (4, 1, 4), (4, 2, 5), (4, 3, 4),
    (5, 1, 5), (5, 2, 6), (5, 4, 5), (6, 2, 7), (6, 3, 8), (7, 2, 8),
)


# -- monte carlo suite -------------------------------------------------------------


def montecarlo_suite(seed: int = 42, trials: int = 20000) -> list[CheckResult]:
    """Every estimate is gated: it passes when |z| <= 4.  Needs trials >= 2
    and seed >= 0."""
    if trials < 2:
        raise DomainError(f"--trials must be at least 2, got {trials}")
    if seed < 0:
        raise DomainError(f"--seed must be nonnegative, got {seed}")
    out: list[CheckResult] = []
    simplices = max(100, min(trials // 25, 2000))

    worst_z, cases = 0.0, 0
    for n in range(2, 6):
        for k in range(1, n + 1):
            for tb in (-2, -1, 0, 2):
                exact = bJ_exact(n, k, tb).to_float()
                est = montecarlo.mc_angle_sum(
                    "beta", n, k, tb / 2, simplices=simplices, directions=256,
                    seed=seed + 1000 * n + 100 * k + tb,
                )
                worst_z = max(worst_z, est.z(exact))
                cases += 1
            if n == 2:
                exact = angle_table("betaprime", n, 1).value(k).to_float()
                est = montecarlo.mc_angle_sum(
                    "betaprime", n, k, 1.0, simplices=simplices, directions=256,
                    seed=seed + 17 * k,
                )
                worst_z = max(worst_z, est.z(exact))
                cases += 1
    # the angles of every triangle sum to half the full angle, also next to
    # the lower end of the beta' range, where the law is heaviest-tailed
    est = montecarlo.mc_angle_sum(
        "betaprime", 3, 1, 1.05, simplices=simplices, directions=256, seed=seed
    )
    worst_z = max(worst_z, est.z(0.5))
    cases += 1
    out.append(
        _check("mc-angle-sums", worst_z <= 4.0, f"{cases} cases, worst z = {worst_z:.2f}")
    )

    target = 4 - 35 / (12 * math.pi**2)
    est = montecarlo.mc_beta_hull_2d(4, 0.0, trials=trials, seed=seed)
    z = est.z(target)
    out.append(
        _check(
            "mc-beta-hull",
            z <= 4.0,
            f"mean {est.mean:.4f} vs {target:.4f}, z = {z:.2f}",
        )
    )

    worst_z = 0.0
    for n, tb in ((4, -2), (5, 0), (6, 2)):
        exact = beta_polytope_fvector(n, 2, Fraction(tb, 2)).value(0).to_float()
        est = montecarlo.mc_beta_hull_2d(n, tb / 2, trials=max(2000, trials // 4), seed=seed + n)
        worst_z = max(worst_z, est.z(exact))
    out.append(_check("mc-hull-grid", worst_z <= 4.0, "f_0 vs exact engine, n in {4,5,6}"))

    est = montecarlo.mc_voronoi_2d(6.0, trials=max(2000, trials // 4), seed=seed)
    z = est.z(6.0)
    out.append(
        _check("mc-voronoi-cell", z <= 4.0, f"mean {est.mean:.4f}, z = {z:.2f}")
    )
    return out


#: the suites of ``angleworks verify``: the parameters of each are the
#: options it reads, under their names with ``_`` for ``-``
SUITES: dict[str, Callable[..., list[CheckResult]]] = {
    "relations": relations_suite,
    "crosscheck": crosscheck_suite,
    "montecarlo": montecarlo_suite,
}

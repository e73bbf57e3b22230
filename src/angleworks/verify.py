"""Named verification suites behind ``angleworks verify``.

Each check returns a ``CheckResult``; a suite is a list of them.  The
relations suite replays the linear identities every exact table must
satisfy, the crosscheck suite pits independent computation routes against
each other (among them the bivariate extraction ``ugly_coefficient``
against the Bernoulli fill), and the montecarlo suite compares seeded
stochastic estimates with the exact engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import montecarlo, quadrature
from .angle_engine import (
    angle_table,
    bJ_exact,
    bJ_numeric,
    bJtilde_exact,
    bJtilde_numeric,
    lA_tilde_residue,
    p_alpha_k_value,
    relations_hold,
    residue_rational,
    rm_value,
)
from .exact_scalars import DomainError, PiNumber, c_beta, c_tilde_beta
from .polytope_engine import (
    FVector,
    beta_polytope_fvector,
    betaprime_polytope_fvector,
    dehn_sommerville_holds,
    euler_relation_holds,
    parity_product_coeff,
    poisson_polytope_fvector,
    poisson_residue_entry,
    reitzner_ball,
    reitzner_ball_residue,
    reitzner_sphere,
    reitzner_sphere_residue,
    typical_voronoi_fvector,
    x_over_sin_coeff,
    zero_cell_entry_even,
    zero_cell_entry_product,
    zero_cell_fvector,
)
from .series_kernel import bernoulli, sin_cos_residue
from .trig_algebra import external_bI, external_bI_tilde, external_lB, external_lB_tilde


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check(name: str, cond: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(cond), detail)


# -- arithmetic-form classification -------------------------------------------


def bJ_form_ok(n: int, k: int, twice_beta: int) -> bool:
    """Support of bold-J_{n,k}(beta) matches its arithmetic classification."""
    v = bJ_exact(n, k, twice_beta)
    s = v.support()
    if (twice_beta + n) % 2 == 0:
        return v.is_rational()
    if (n - k) % 2 == 1:
        return s == (-2 * (n - k - 1),)
    return all(e % 4 == 0 and -2 * (n - k) <= e <= 0 for e in s)


def bJtilde_form_ok(n: int, k: int, twice_beta: int) -> bool:
    v = bJtilde_exact(n, k, twice_beta)
    s = v.support()
    if (twice_beta - n) % 2 == 1:
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


def relations_suite(max_n: int = 8) -> list[CheckResult]:
    out: list[CheckResult] = []

    ok, cases = True, 0
    for n in range(2, min(max_n, 10) + 1):
        rows = [("beta", alpha - n + 1) for alpha in range(max(n - 3, 0), max(n - 3, 0) + 5)]
        rows += [("betaprime", alpha + n - 1) for alpha in range(1, 6)]
        for family, twice_beta in rows:
            row = angle_table(family, n, Fraction(twice_beta, 2)).entries
            ok = ok and relations_hold([PiNumber.zero()] + [v for v, _ in row])
            cases += 1
    out.append(_check("poincare-relations", ok, f"{cases} exact angle tables, n <= {min(max_n, 10)}"))

    ok, cases = True, 0
    for n in range(2, min(max_n, 8) + 1):
        for alpha in range(max(n - 3, 0), 9):
            for k in range(1, n):
                acc = PiNumber.zero()
                for m in range(k, n + 1):
                    acc = acc + Fraction((-1) ** m) * external_bI(n, m, alpha) * bJ_exact(
                        m, k, alpha - m + 1
                    )
                ok = ok and acc.is_zero()
                cases += 1
    out.append(_check("inversion-relations-beta", ok, f"{cases} identities, zero exceptions required"))

    ok, cases = True, 0
    for n in range(2, min(max_n, 8) + 1):
        for alpha in range(1, 9):
            for k in range(1, n):
                acc = PiNumber.zero()
                for m in range(k, n + 1):
                    acc = acc + Fraction((-1) ** m) * external_bI_tilde(
                        n, m, alpha
                    ) * bJtilde_exact(m, k, alpha + m - 1)
                ok = ok and acc.is_zero()
                cases += 1
    out.append(_check("inversion-relations-betaprime", ok, f"{cases} identities"))

    ok, cases = True, 0
    dmax = min(max_n, 10)
    fvs: list[FVector] = []
    for d in range(1, dmax + 1):
        fvs.append(typical_voronoi_fvector(d))
        fvs.append(zero_cell_fvector(d))
        for alpha in (1, 2, 3):
            fvs.append(poisson_polytope_fvector(d, alpha))
        if d >= 1:
            fvs.append(beta_polytope_fvector(d + 2, d, Fraction(0)))
            fvs.append(betaprime_polytope_fvector(d + 2, d, Fraction(d + 2, 2)))
    for fv in fvs:
        ok = ok and euler_relation_holds(fv) and dehn_sommerville_holds(fv)
        cases += 1
    out.append(_check("euler-dehn-sommerville", ok, f"{cases} exact f-vectors, d <= {dmax}"))

    ok, cases = True, 0
    for n in range(2, min(max_n, 8) + 1):
        for alpha in range(max(n - 3, 1), 7):
            for k in range(1, n + 1):
                ok = ok and bJ_form_ok(n, k, alpha - n + 1)
                cases += 1
        for alpha in range(1, 7):
            for k in range(1, n + 1):
                ok = ok and bJtilde_form_ok(n, k, alpha + n - 1)
                cases += 1
    for d in range(1, min(max_n, 10) + 1):
        ok = ok and voronoi_form_ok(d)
        cases += 1
    out.append(_check("arithmetic-form-classification", ok, f"{cases} values"))
    return out


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

    total = PiNumber.zero()
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
        if weight == 0:
            continue
        res = residue_rational(s, j, M)
        if res == 0:
            continue
        total = total + (c ** j) * (weight * res)
    return total


def _signed_ugly(s: int, c: PiNumber, q: int, a: int, odd: bool) -> PiNumber:
    """The bivariate coefficient of ``ugly_coefficient`` with the sign of its
    parity variant: sin/tan when ``odd``, cos/cot otherwise."""
    if odd:
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
            lhs = bJtilde_exact(n, k, n)
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

    ok = True
    for n in range(4, 9):
        for alpha in range(max(n - 3, 1), 8):
            if alpha % 2 != 0:
                continue
            for k in range(1, n + 1):
                if (n - k) % 2 != 0:
                    continue
                val = _signed_ugly(alpha, c_beta(alpha - 1), alpha * n + 2, n - k, True)
                full = (
                    Fraction(math.factorial(n), math.factorial(k))
                    * PiNumber.pi_power(2)
                    * c_beta(alpha * n)
                    * val
                )
                ok = ok and full == bJ_exact(n, k, alpha - n + 1)
    out.append(_check("ugly-vs-fill-beta", ok, "bivariate route equals Bernoulli fill, n <= 8"))

    ok = True
    for n in range(2, 9):
        for alpha in (1, 3):
            for k in range(1, n + 1):
                if (alpha * k) % 2 == 0:
                    continue
                val = _signed_ugly(
                    alpha - 1, c_tilde_beta(alpha + 1), alpha * n - 1, n - k, n % 2 == 1
                )
                full = (
                    Fraction(math.factorial(n), math.factorial(k))
                    * PiNumber.pi_power(2)
                    * c_tilde_beta(alpha * n)
                    * val
                )
                ok = ok and full == bJtilde_exact(n, k, alpha + n - 1)
    out.append(_check("ugly-vs-fill-betaprime", ok, "both parity variants, n <= 8"))

    ok = True
    inv_pi = PiNumber.pi_power(-2)
    for d in range(1, 11):
        fv = zero_cell_fvector(d)
        for ell in range(d):
            if (d - ell) % 2 == 0:
                continue
            val = _signed_ugly(0, inv_pi, d + 1, ell, d % 2 == 1)
            pref = Fraction(math.factorial(d), math.factorial(d - ell))
            ok = ok and pref * PiNumber.pi_power(2 * d) * val == fv.value(ell)
    out.append(_check("zero-cell-ugly-display", ok, "bivariate route matches filled entries, d <= 10"))

    ok = rm_value(0, 3) == 1
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
                acc = PiNumber.zero()
                for m in range(k, n + 1):
                    acc = acc + Fraction((-1) ** (m - k)) * external_lB_tilde(
                        n, m, alpha
                    ) * (Fraction(m) - Fraction(1, alpha)) * lA_tilde_residue(
                        alpha * m - 2, alpha * k - 2, alpha
                    )
                want = PiNumber.one() if n == k else PiNumber.zero()
                ok = ok and acc == want
    out.append(_check("kronecker-exact-betaprime", ok, "all parity-admissible cases, n <= 6"))

    worst = 0.0
    for alpha in (1, 2, 3):
        F0 = math.sqrt(math.pi) * math.gamma((alpha + 1) / 2) / (alpha * math.gamma(alpha / 2))
        for n in range(1, 6):
            for k in range(1, n + 1):
                signed, unsigned = 0.0, 0.0
                for m in range(k, n + 1):
                    term = (
                        external_lB(n, m, alpha).to_float()
                        * (m + 1 / alpha)
                        * quadrature.a_numeric(m + 2 / alpha, k + 2 / alpha, alpha)
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
    for n, k, tb in _NUMERIC_GRID:
        exact = bJ_exact(n, k, tb).to_float()
        num = bJ_numeric(n, k, tb / 2)
        worst = max(worst, abs(num - exact))
        ok = ok and abs(num - exact) <= 1e-8
    for n, k, tb in _NUMERIC_GRID_TILDE:
        exact = bJtilde_exact(n, k, tb).to_float()
        num = bJtilde_numeric(n, k, tb / 2)
        worst = max(worst, abs(num - exact))
        ok = ok and abs(num - exact) <= 1e-8
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


def _z(est: montecarlo.McEstimate, exact: float) -> float:
    """|mean - exact| in standard errors; an estimate without spread must
    equal the exact value (z = 0) or fails (z = inf)."""
    if est.stderr == 0.0:
        return 0.0 if est.mean == exact else math.inf
    return abs(est.mean - exact) / max(est.stderr, 1e-12)


def montecarlo_suite(seed: int = 42, trials: int = 20000) -> list[CheckResult]:
    """Every estimate is gated: it passes when |z| <= 4."""
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
                worst_z = max(worst_z, _z(est, exact))
                cases += 1
            if n == 2:
                exact = bJtilde_exact(n, k, 2).to_float()
                est = montecarlo.mc_angle_sum(
                    "betaprime", n, k, 1.0, simplices=simplices, directions=256,
                    seed=seed + 17 * k,
                )
                worst_z = max(worst_z, _z(est, exact))
                cases += 1
    out.append(
        _check("mc-angle-sums", worst_z <= 4.0, f"{cases} cases, worst z = {worst_z:.2f}")
    )

    target = 4 - 35 / (12 * math.pi**2)
    est = montecarlo.mc_beta_hull_2d(4, 0.0, trials=trials, seed=seed)
    z = _z(est, target)
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
        worst_z = max(worst_z, _z(est, exact))
    out.append(_check("mc-hull-grid", worst_z <= 4.0, "f_0 vs exact engine, n in {4,5,6}"))

    est = montecarlo.mc_voronoi_2d(6.0, trials=max(2000, trials // 4), seed=seed)
    z = _z(est, 6.0)
    out.append(
        _check("mc-voronoi-cell", z <= 4.0, f"mean {est.mean:.4f}, z = {z:.2f}")
    )
    return out


SUITES: dict[str, Callable[..., list[CheckResult]]] = {
    "relations": relations_suite,
    "crosscheck": crosscheck_suite,
    "montecarlo": montecarlo_suite,
}

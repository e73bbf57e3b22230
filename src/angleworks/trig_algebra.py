"""Exact closed-form integration over [-pi/2, pi/2].

``FourierPoly`` is the algebra of finite sums q * x^j * cos(mx) (or sin);
product-to-sum identities keep it closed under multiplication.  The
coefficients live in Q[pi^(1/2), pi^(-1/2)] so that the constant of the
cumulative antiderivative (which picks up powers of pi/2) stays inside
the same object.

On top of that algebra this module evaluates the expected external angle
sums of beta and beta' simplices exactly for integer concentration
parameters, and the tangent-polynomial route for the one parity case
whose internal angles are not reachable by residues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact_scalars import (
    DomainError,
    PiNumber,
    Rational,
    c_beta,
    c_tilde_beta,
    gamma_half,
)

Key = tuple[int, int, str]  # (x-power j, frequency m, "cos" | "sin")


class FourierPoly:
    """Finite sum of terms  coeff * x^j * cos(mx)/sin(mx)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Key, PiNumber] | None = None):
        self.terms: dict[Key, PiNumber] = {}
        if terms:
            for key, c in terms.items():
                self._accumulate(key, c)

    def _accumulate(self, key: Key, coeff: PiNumber) -> None:
        j, m, kind = key
        if coeff.is_zero():
            return
        if m < 0:
            m = -m
            if kind == "sin":
                coeff = -coeff
        if m == 0 and kind == "sin":
            return
        key = (j, m, "cos" if m == 0 else kind)
        cur = self.terms.get(key)
        new = coeff if cur is None else cur + coeff
        if new.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    @classmethod
    def constant(cls, c: PiNumber | Fraction | int) -> "FourierPoly":
        return cls.x_power(0, c)

    @classmethod
    def x_power(cls, j: int, c: PiNumber | Fraction | int = 1) -> "FourierPoly":
        if not isinstance(c, PiNumber):
            c = PiNumber.from_rational(c)
        return cls({(j, 0, "cos"): c})

    @classmethod
    def wave(cls, m: int, kind: str, c: PiNumber | Fraction | int = 1) -> "FourierPoly":
        if not isinstance(c, PiNumber):
            c = PiNumber.from_rational(c)
        return cls({(0, m, kind): c})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "FourierPoly") -> "FourierPoly":
        out = FourierPoly(self.terms)
        for key, c in other.terms.items():
            out._accumulate(key, c)
        return out

    def __neg__(self) -> "FourierPoly":
        return FourierPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "FourierPoly") -> "FourierPoly":
        return self + (-other)

    def scaled(self, c: PiNumber | Fraction | int) -> "FourierPoly":
        if not isinstance(c, PiNumber):
            c = PiNumber.from_rational(c)
        return FourierPoly({k: v * c for k, v in self.terms.items()})

    def __mul__(self, other: "FourierPoly") -> "FourierPoly":
        half = Fraction(1, 2)
        out = FourierPoly()
        for (j1, m1, k1), c1 in self.terms.items():
            for (j2, m2, k2), c2 in other.terms.items():
                j = j1 + j2
                c = c1 * c2
                ch = c * half
                if k1 == "cos" and k2 == "cos":
                    if m1 == 0 or m2 == 0:
                        out._accumulate((j, m1 + m2, "cos"), c)
                    else:
                        out._accumulate((j, m1 - m2, "cos"), ch)
                        out._accumulate((j, m1 + m2, "cos"), ch)
                elif k1 == "sin" and k2 == "sin":
                    out._accumulate((j, m1 - m2, "cos"), ch)
                    out._accumulate((j, m1 + m2, "cos"), -ch)
                else:
                    # one sin, one cos; let (ms, mc) be their frequencies
                    ms, mc = (m1, m2) if k1 == "sin" else (m2, m1)
                    if mc == 0:
                        out._accumulate((j, ms, "sin"), c)
                    else:
                        out._accumulate((j, ms + mc, "sin"), ch)
                        out._accumulate((j, ms - mc, "sin"), ch)
        return out

    def __pow__(self, p: int) -> "FourierPoly":
        if p < 0:
            raise DomainError("FourierPoly powers must be nonnegative")
        result = FourierPoly.constant(1)
        base = self
        while p:
            if p & 1:
                result = result * base
            p >>= 1
            if p:
                base = base * base
        return result

    def __repr__(self) -> str:
        return f"FourierPoly({self.terms!r})"


def _half_pi_power(j: int) -> PiNumber:
    """(pi/2)^j as an exact PiNumber."""
    return PiNumber.pi_power(2 * j, Fraction(1, 2**j))


def _cos_sin_at_minus_half_pi(m: int, kind: str) -> Fraction:
    """cos(-m pi/2) or sin(-m pi/2), in {0, +-1}."""
    r = m % 4
    if kind == "cos":
        return Fraction([1, 0, -1, 0][r])
    return Fraction([0, -1, 0, 1][r])


def evaluate_at_minus_half_pi(p: FourierPoly) -> PiNumber:
    """Exact value of p at x = -pi/2."""
    total = PiNumber.zero()
    for (j, m, kind), c in p.terms.items():
        w = _cos_sin_at_minus_half_pi(m, kind)
        if w == 0:
            continue
        sign = Fraction((-1) ** (j % 2))
        total = total + c * _half_pi_power(j) * (w * sign)
    return total


@lru_cache(maxsize=None)
def cos_power_fourier(a: int) -> FourierPoly:
    """cos^a x linearized as a cosine polynomial with frequencies <= a."""
    if a < 0:
        raise DomainError("cos power must be nonnegative")
    p = FourierPoly.constant(1)
    cosx = FourierPoly.wave(1, "cos")
    for _ in range(a):
        p = p * cosx
    return p


def _raw_antiderivative(key: Key) -> FourierPoly:
    """Antiderivative of x^j cos(mx) / x^j sin(mx), no constant of integration."""
    j, m, kind = key
    if m == 0:
        return FourierPoly.x_power(j + 1, Fraction(1, j + 1))
    inv_m = Fraction(1, m)
    if kind == "cos":
        out = FourierPoly({(j, m, "sin"): PiNumber.from_rational(inv_m)})
        if j > 0:
            out = out - _raw_antiderivative((j - 1, m, "sin")).scaled(j * inv_m)
    else:
        out = FourierPoly({(j, m, "cos"): PiNumber.from_rational(-inv_m)})
        if j > 0:
            out = out + _raw_antiderivative((j - 1, m, "cos")).scaled(j * inv_m)
    return out


def fourier_antiderivative(p: FourierPoly) -> FourierPoly:
    """Antiderivative of p vanishing at x = -pi/2.

    The constant of integration (a polynomial in pi/2) is carried as the
    constant term of the returned FourierPoly.
    """
    raw = FourierPoly()
    for key, c in p.terms.items():
        raw = raw + _raw_antiderivative(key).scaled(c)
    const = evaluate_at_minus_half_pi(raw)
    return raw + FourierPoly.constant(-const)


@lru_cache(maxsize=None)
def _base_integral(j: int, m: int, kind: str) -> PiNumber:
    """Exact integral of x^j cos(mx) / x^j sin(mx) over [-pi/2, pi/2]."""
    if m == 0:
        if kind == "sin" or j % 2 == 1:
            return PiNumber.zero()
        return _half_pi_power(j + 1) * Fraction(2, j + 1)
    if kind == "cos":
        if j % 2 == 1:
            return PiNumber.zero()
        # [x^j sin(mx)/m] at +-pi/2: even j gives 2 (pi/2)^j sin(m pi/2)/m
        boundary = _half_pi_power(j) * Fraction(2, m) * (-_cos_sin_at_minus_half_pi(m, "sin"))
        if j == 0:
            return boundary
        return boundary - _base_integral(j - 1, m, "sin") * Fraction(j, m)
    # kind == "sin"
    if j % 2 == 0:
        return PiNumber.zero()
    boundary = _half_pi_power(j) * Fraction(-2, m) * _cos_sin_at_minus_half_pi(m, "cos")
    return boundary + _base_integral(j - 1, m, "cos") * Fraction(j, m)


def integrate_symmetric(p: FourierPoly) -> PiNumber:
    """Exact integral of p over [-pi/2, pi/2]."""
    total = PiNumber.zero()
    for (j, m, kind), c in p.terms.items():
        base = _base_integral(j, m, kind)
        if not base.is_zero():
            total = total + c * base
    return total


# -- external-angle quantities ----------------------------------------------


@lru_cache(maxsize=None)
def _F_power(cos_exponent: int, r: int) -> FourierPoly:
    """F^r, where F(x) is the integral of cos^cos_exponent from -pi/2 to x.

    The beta' function F~ of parameter alpha is F of alpha - 1, so both
    families share this one cache."""
    if r == 0:
        return FourierPoly.constant(1)
    if r == 1:
        return fourier_antiderivative(cos_power_fourier(cos_exponent))
    return _F_power(cos_exponent, r - 1) * _F_power(cos_exponent, 1)


def _cos_F_integral(cos_exponent: int, f_exponent: int, r: int) -> PiNumber:
    """The one external-angle kernel: the integral over [-pi/2, pi/2] of
    cos^cos_exponent * F^r, F the integral of cos^f_exponent from -pi/2."""
    return integrate_symmetric(cos_power_fourier(cos_exponent) * _F_power(f_exponent, r))


def _external_lB(nu, kappa, alpha: int, shift: int) -> PiNumber:
    """alpha^r/r! times the kernel at cos^(alpha*kappa - shift), F of
    cos^(alpha - shift), r = nu - kappa: b{nu, kappa} for shift 0,
    b~{nu, kappa} for shift 1."""
    nu, kappa = Fraction(nu), Fraction(kappa)
    r = nu - kappa
    if r.denominator != 1:
        raise DomainError("nu - kappa must be an integer")
    r = int(r)
    if r < 0:
        return PiNumber.zero()
    ak = alpha * kappa
    if ak.denominator != 1 or ak < shift:
        kind = "positive" if shift else "nonnegative"
        raise DomainError(
            f"alpha*kappa must be a {kind} integer for the exact path, got {ak}"
        )
    raw = _cos_F_integral(int(ak) - shift, alpha - shift, r)
    return raw * Fraction(alpha**r, math.factorial(r))


def external_lB(nu: Fraction | int, kappa: Fraction | int, alpha: int) -> PiNumber:
    """The quantity b{nu, kappa} = alpha^(nu-kappa)/(nu-kappa)! *
    integral of cos^(alpha*kappa) F^(nu-kappa) over [-pi/2, pi/2]."""
    return _external_lB(nu, kappa, alpha, 0)


def external_lB_tilde(nu: Fraction | int, kappa: Fraction | int, alpha: int) -> PiNumber:
    """The beta'-side quantity b~{nu, kappa} with integrand
    cos^(alpha*kappa - 1) F~^(nu-kappa), F~ the integral of cos^(alpha-1)."""
    return _external_lB(nu, kappa, alpha, 1)


@lru_cache(maxsize=None)
def external_bI(n: int, k: int, alpha: int) -> PiNumber:
    """Expected external angle sum of the beta simplex (bold-I_{n,k}(alpha)),
    exact for integer alpha >= 0."""
    if not 1 <= k <= n:
        raise DomainError("need 1 <= k <= n")
    if alpha < 0:
        raise DomainError("exact external angles need integer alpha >= 0")
    r = n - k
    raw = _cos_F_integral(alpha * k, alpha, r)
    return math.comb(n, k) * c_beta(alpha * k - 1) * c_beta(alpha - 1) ** r * raw


@lru_cache(maxsize=None)
def external_bI_tilde(n: int, k: int, alpha: int) -> PiNumber:
    """Expected external angle sum of the beta' simplex (bold-I~_{n,k}(alpha)),
    exact for integer alpha >= 1."""
    if not 1 <= k <= n:
        raise DomainError("need 1 <= k <= n")
    if alpha < 1:
        raise DomainError("betaprime external angles need integer alpha >= 1")
    r = n - k
    raw = _cos_F_integral(alpha * k - 1, alpha - 1, r)
    return math.comb(n, k) * c_tilde_beta(alpha * k + 1) * c_tilde_beta(alpha + 1) ** r * raw


# -- tangent-polynomial route (internal angles, alpha odd / n even) ----------


@dataclass(frozen=True)
class TanPoly:
    """Odd polynomial in t = tan x with rational coefficients."""

    coeffs: tuple[tuple[int, Rational], ...]  # (power, coefficient), powers odd

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.coeffs)


def inner_tan_antiderivative(alpha: int) -> TanPoly:
    """The odd polynomial T with  integral_0^x (cos y)^(-alpha-1) dy = T(tan x),
    for odd alpha (so the integrand is an even power of sec)."""
    if alpha < 1 or alpha % 2 == 0:
        raise DomainError(
            "inner tangent antiderivative needs odd alpha (even alpha is logarithmic)"
        )
    s = (alpha + 1) // 2  # integrand = sec^{2s} = (1+t^2)^{s-1} dt
    coeffs = tuple(
        (2 * i + 1, Fraction(math.comb(s - 1, i), 2 * i + 1)) for i in range(s)
    )
    return TanPoly(coeffs)


@lru_cache(maxsize=None)
def _tan_powers(alpha: int) -> list[dict[int, Fraction]]:
    return [{0: Fraction(1)}]


def _tan_power(alpha: int, j: int) -> dict[int, Fraction]:
    """T^j as {power of tan x: coefficient}, T = inner_tan_antiderivative(alpha).

    The powers of one alpha are kept in one list, each built from the one
    before it, and shared by every k and n."""
    powers = _tan_powers(alpha)
    if len(powers) <= j:
        T = inner_tan_antiderivative(alpha).as_dict()
        while len(powers) <= j:
            nxt: dict[int, Fraction] = {}
            for e1, c1 in powers[-1].items():
                for e2, c2 in T.items():
                    nxt[e1 + e2] = nxt.get(e1 + e2, Fraction(0)) + c1 * c2
            powers.append(nxt)
    return powers[j]


@lru_cache(maxsize=None)
def _tan_moment(alpha: int, q: int, j: int) -> PiNumber:
    """The integral over [-pi/2, pi/2] of (c T(tan x))^j cos^q x, with
    c = c_beta(alpha - 1): term j of every entry of a case-iii row."""
    acc = PiNumber.zero()
    for p, cp in _tan_power(alpha, j).items():
        if p > q:
            raise DomainError("tangent power exceeds available cosine power")
        acc = acc + cp * sin_cos_integral(p, q - p)
    return (c_beta(alpha - 1) ** j) * acc


@lru_cache(maxsize=None)
def sin_cos_integral(p: int, q: int) -> PiNumber:
    """Exact integral of sin^p cos^q over [-pi/2, pi/2] (p, q >= 0)."""
    if p < 0 or q < 0:
        raise DomainError("powers must be nonnegative")
    if p % 2 == 1:
        return PiNumber.zero()
    return gamma_half(p + 1) * gamma_half(q + 1) / gamma_half(p + q + 2)


def bJ_exact_case_iii(n: int, k: int, alpha: int) -> PiNumber:
    """Exact bold-J_{n,k}((alpha-n+1)/2) for odd alpha and even n.

    Expands (1/2 + i c T(tan x))^(n-k) binomially; odd powers of tan
    integrate to zero against cos^(alpha n + 1), which is exactly the
    cancellation of the imaginary part.  The surviving even powers reduce
    to Beta-function values in Q[pi^(1/2), pi^(-1/2)].
    """
    if n % 2 != 0 or alpha % 2 != 1:
        raise DomainError("this route needs even n and odd alpha")
    if alpha < max(n - 3, 1):
        raise DomainError(f"alpha >= n-3 required (alpha={alpha}, n={n})")
    if not 1 <= k <= n:
        raise DomainError("need 1 <= k <= n")
    m = n - k
    real = PiNumber.zero()
    imag = PiNumber.zero()
    for j in range(m + 1):
        weight = Fraction(math.comb(m, j), 2 ** (m - j))
        contrib = _tan_moment(alpha, alpha * n + 1, j) * weight
        if j % 2 == 0:
            real = real + Fraction((-1) ** (j // 2)) * contrib
        else:
            imag = imag + Fraction((-1) ** ((j - 1) // 2)) * contrib
    if not imag.is_zero():
        raise ArithmeticError(
            f"imaginary part failed to cancel for (n={n}, k={k}, alpha={alpha})"
        )
    return math.comb(n, k) * c_beta(alpha * n) * real

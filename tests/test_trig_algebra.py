import math
import random
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from angleworks.exact_scalars import DomainError, PiNumber, c_beta, c_tilde_beta
from angleworks.trig_algebra import (
    _cos_F_integral,
    _moment,
    _tan_moment,
    _tan_power,
    bJ_exact_case_iii,
    external_bI,
    external_bI_tilde,
    external_lB,
    external_lB_tilde,
    inner_tan_antiderivative,
    sin_cos_integral,
)

F = Fraction
PI = PiNumber.pi_power(2)
HALF_PI = PiNumber.pi_power(2, F(1, 2))


# -- reference: the Fourier algebra over [-pi/2, pi/2] with PiNumber
# coefficients that computed the external-angle kernel before the rational
# kernel in u = x + pi/2 replaced it ---------------------------------------

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


def _cos_F_integral_reference(cos_exponent: int, f_exponent: int, r: int) -> PiNumber:
    return integrate_symmetric(cos_power_fourier(cos_exponent) * _F_power(f_exponent, r))


def test_cos_power_examples():
    assert cos_power_fourier(0).terms == FourierPoly.constant(1).terms
    p2 = cos_power_fourier(2)
    assert p2.terms[(0, 0, "cos")] == PiNumber.from_rational(F(1, 2))
    assert p2.terms[(0, 2, "cos")] == PiNumber.from_rational(F(1, 2))
    p3 = cos_power_fourier(3)
    assert p3.terms[(0, 1, "cos")] == PiNumber.from_rational(F(3, 4))
    assert p3.terms[(0, 3, "cos")] == PiNumber.from_rational(F(1, 4))


def test_fourier_antiderivative_examples():
    # integral of 1 from -pi/2: x + pi/2
    a = fourier_antiderivative(FourierPoly.constant(1))
    assert a.terms[(1, 0, "cos")] == PiNumber.one()
    assert a.terms[(0, 0, "cos")] == HALF_PI
    # integral of cos: sin x + 1
    b = fourier_antiderivative(FourierPoly.wave(1, "cos"))
    assert b.terms[(0, 1, "sin")] == PiNumber.one()
    assert b.terms[(0, 0, "cos")] == PiNumber.one()
    # integral of cos^2: x/2 + sin(2x)/4 + pi/4
    c = fourier_antiderivative(cos_power_fourier(2))
    assert c.terms[(1, 0, "cos")] == PiNumber.from_rational(F(1, 2))
    assert c.terms[(0, 2, "sin")] == PiNumber.from_rational(F(1, 4))
    assert c.terms[(0, 0, "cos")] == PiNumber.pi_power(2, F(1, 4))


def test_integrate_symmetric_examples():
    assert integrate_symmetric(cos_power_fourier(2)) == HALF_PI
    x_cos = FourierPoly({(1, 1, "cos"): PiNumber.one()})
    assert integrate_symmetric(x_cos).is_zero()
    x_sin = FourierPoly({(1, 1, "sin"): PiNumber.one()})
    assert integrate_symmetric(x_sin) == PiNumber.from_rational(2)


@lru_cache(maxsize=None)
def _float(c: PiNumber) -> float:
    return c.to_float()


def _evaluate_float(p: FourierPoly, x: float) -> float:
    """Float reference evaluation of a FourierPoly, term by term."""
    total = 0.0
    for (j, m, kind), c in p.terms.items():
        w = math.cos(m * x) if kind == "cos" else math.sin(m * x)
        total += _float(c) * x**j * w
    return total


def _random_fourier(rng, max_j=2, max_m=3):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        j = rng.randint(0, max_j)
        m = rng.randint(0, max_m)
        kind = rng.choice(["cos", "sin"]) if m else "cos"
        terms[(j, m, kind)] = PiNumber.from_rational(
            F(rng.randint(-9, 9), rng.randint(1, 5))
        )
    return FourierPoly(terms)


def test_products_against_numeric_quadrature():
    rng = random.Random(2024)
    mpmath.mp.dps = 30
    for _ in range(100):
        p, q = _random_fourier(rng), _random_fourier(rng)
        exact = integrate_symmetric(p * q)

        def f(x, p=p, q=q):
            return _evaluate_float(p, float(x)) * _evaluate_float(q, float(x))

        num = mpmath.quad(f, [-mpmath.pi / 2, 0, mpmath.pi / 2])
        ex = exact.to_float()
        assert abs(ex - float(num)) <= 1e-10 * max(1.0, abs(ex))


def test_odd_fourier_integrates_to_zero():
    rng = random.Random(3)
    for _ in range(40):
        # x-odd combinations: x^odd * cos, x^even * sin
        terms = {}
        for _ in range(rng.randint(1, 4)):
            m = rng.randint(0, 3)
            if rng.random() < 0.5:
                terms[(2 * rng.randint(0, 1) + 1, m, "cos")] = PiNumber.from_rational(
                    F(rng.randint(-5, 5), rng.randint(1, 4))
                )
            elif m:
                terms[(2 * rng.randint(0, 1), m, "sin")] = PiNumber.from_rational(
                    F(rng.randint(-5, 5), rng.randint(1, 4))
                )
        assert integrate_symmetric(FourierPoly(terms)).is_zero()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 14), st.integers(0, 8), st.integers(0, 6))
def test_rational_kernel_matches_fourier_reference(c, f, r):
    assert _cos_F_integral(c, f, r) == _cos_F_integral_reference(c, f, r)


def test_external_sums_match_fourier_reference():
    for n in range(1, 9):
        for k in range(1, n + 1):
            r = n - k
            for alpha in range(0, 9):
                want = (math.comb(n, k) * c_beta(alpha * k - 1) * c_beta(alpha - 1) ** r
                        * _cos_F_integral_reference(alpha * k, alpha, r))
                assert external_bI(n, k, alpha) == want, (n, k, alpha)
            for alpha in range(1, 9):
                want = (math.comb(n, k) * c_tilde_beta(alpha * k + 1) * c_tilde_beta(alpha + 1) ** r
                        * _cos_F_integral_reference(alpha * k - 1, alpha - 1, r))
                assert external_bI_tilde(n, k, alpha) == want, (n, k, alpha)


@pytest.mark.parametrize("j, m, kind", [
    (0, 1, "sin"), (0, 2, "sin"), (1, 1, "cos"), (1, 4, "sin"), (2, 3, "sin"),
    (3, 2, "cos"), (4, 5, "sin"), (5, 4, "cos"), (6, 7, "cos"), (7, 6, "sin"),
])
def test_moments_against_quadrature(j, m, kind):
    trig = mpmath.cos if kind == "cos" else mpmath.sin
    with mpmath.workdps(40):
        want = mpmath.quad(lambda u: u**j * trig(m * u), mpmath.linspace(0, mpmath.pi, m + 2))
        got = sum(q * mpmath.pi**p for p, q in _moment(j, m, kind).items()) / mpmath.mpf(m) ** (j + 1)
        assert abs(got - want) < mpmath.mpf(10) ** -30 * max(1, abs(want))


def test_external_lB_closed_forms():
    # b{kappa,kappa} = sqrt(pi) Gamma((ak+1)/2) / Gamma((ak+2)/2)
    from angleworks.exact_scalars import gamma_half

    for alpha, kappa in [(2, 1), (2, 2), (1, 2), (3, 2), (4, 1)]:
        ak = alpha * kappa
        want = gamma_half(1) * gamma_half(ak + 1) / gamma_half(ak + 2)
        assert external_lB(kappa, kappa, alpha) == want
    # b{kappa+1,kappa} for alpha=2, a*kappa=2: (alpha/2)*(pi/2)*(pi/2) = pi^2/4
    assert external_lB(2, 1, 2) == PiNumber.pi_power(4, F(1, 4))
    # negative nu-kappa vanishes
    assert external_lB(1, 3, 2).is_zero()


def test_external_lB_non_integer_power_rejected():
    # non-integer alpha*kappa falls outside the Fourier algebra; the
    # quadrature module owns that case
    import angleworks.quadrature as Q

    with pytest.raises(DomainError):
        external_lB(F(7, 2), F(3, 2), 1)
    assert abs(Q.I_numeric(4, 2, 1.5) - Q.I_numeric(4, 2, 1.5)) == 0
    assert abs(Q.I_numeric(4, 2, 3) - external_bI(4, 2, 3).to_float()) < 1e-11
    assert abs(Q.I_tilde_numeric(4, 2, 3) - external_bI_tilde(4, 2, 3).to_float()) < 1e-11


def test_external_bI_examples():
    for n in range(1, 7):
        assert external_bI(n, n, 3) == PiNumber.one()
    for alpha in range(0, 7):
        assert external_bI(2, 1, alpha) == PiNumber.one()
    for alpha in range(0, 9):
        assert external_bI(3, 1, alpha) == PiNumber.one()


def test_external_bI_positivity():
    for n in range(1, 9):
        for k in range(1, n + 1):
            for alpha in range(0, 7):
                v = external_bI(n, k, alpha).to_float()
                assert 0 < v <= math.comb(n, k) + 1e-12


def test_external_bI_tilde_examples():
    for n in range(1, 7):
        assert external_bI_tilde(n, n, 2) == PiNumber.one()
    assert external_bI_tilde(2, 1, 2) == PiNumber.one()
    for alpha in range(1, 7):
        assert external_bI_tilde(3, 1, alpha) == PiNumber.one()


def test_lB_tilde_alpha2_closed_form():
    # at alpha=2 the Gamma(k)-rescaled b~{n,k} collapses to the combinatorial
    # closed form 2^(2n-1) (n-1)! / ((n-k)! (n+k-1)!)
    for n in range(1, 7):
        for k in range(1, n + 1):
            script = F(2 ** (2 * n - 1) * math.factorial(n - 1),
                       math.factorial(n - k) * math.factorial(n + k - 1))
            want = math.factorial(k - 1) * script
            assert external_lB_tilde(n, k, 2) == PiNumber.from_rational(want)


def test_inner_tan_antiderivative():
    assert inner_tan_antiderivative(1) == {1: F(1)}
    assert inner_tan_antiderivative(3) == {1: F(1), 3: F(1, 3)}
    assert inner_tan_antiderivative(5) == {1: F(1), 3: F(2, 3), 5: F(1, 5)}
    with pytest.raises(DomainError):
        inner_tan_antiderivative(2)


def _poly_power(p: dict[int, F], j: int) -> dict[int, F]:
    """Reference: p^j by j products from scratch."""
    out = {0: F(1)}
    for _ in range(j):
        nxt: dict[int, F] = {}
        for e1, c1 in out.items():
            for e2, c2 in p.items():
                nxt[e1 + e2] = nxt.get(e1 + e2, F(0)) + c1 * c2
        out = nxt
    return out


def _as_dict(alpha: int, j: int) -> dict[int, F]:
    """``_tan_power(alpha, j)``, integer numerators over L^j, as
    {power of tan x: coefficient}."""
    L = math.lcm(*range(1, alpha + 1, 2))
    return {j + 2 * i: F(c, L**j) for i, c in enumerate(_tan_power(alpha, j))}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 8).map(lambda i: 2 * i + 1), st.integers(0, 12))
def test_cached_tan_powers_match_naive_product(alpha, j):
    # the cache of one alpha is read and grown in whatever order the examples come
    T = inner_tan_antiderivative(alpha)
    assert _as_dict(alpha, j) == _poly_power(T, j)


# -- reference: the tangent route on Fraction dicts, as it was before T^j
# moved to integer numerators over L^j and the moments to one dot product ----


@lru_cache(maxsize=None)
def _tan_powers_reference(alpha: int) -> list[dict[int, Fraction]]:
    return [{0: Fraction(1)}]


def _tan_power_reference(alpha: int, j: int) -> dict[int, Fraction]:
    """T^j as {power of tan x: coefficient}, T = inner_tan_antiderivative(alpha).

    The powers of one alpha are kept in one list, each built from the one
    before it, and shared by every k and n."""
    powers = _tan_powers_reference(alpha)
    if len(powers) <= j:
        T = inner_tan_antiderivative(alpha)
        while len(powers) <= j:
            nxt: dict[int, Fraction] = {}
            for e1, c1 in powers[-1].items():
                for e2, c2 in T.items():
                    nxt[e1 + e2] = nxt.get(e1 + e2, Fraction(0)) + c1 * c2
            powers.append(nxt)
    return powers[j]


@lru_cache(maxsize=None)
def _tan_moment_reference(alpha: int, q: int, j: int) -> PiNumber:
    """The integral over [-pi/2, pi/2] of (c T(tan x))^j cos^q x, with
    c = c_beta(alpha - 1): term j of every entry of a case-iii row."""
    acc = PiNumber.zero()
    for p, cp in _tan_power_reference(alpha, j).items():
        if p > q:
            raise DomainError("tangent power exceeds available cosine power")
        acc = acc + cp * sin_cos_integral(p, q - p)
    return (c_beta(alpha - 1) ** j) * acc


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 8).map(lambda h: 2 * h), st.integers(0, 3), st.data())
def test_tan_moments_match_reference(n, step, data):
    # every moment of one case-iii row: n even up to 16, alpha odd from
    # max(n - 3, 1), q = alpha n + 1
    alpha = max(n - 3, 1) + 2 * step
    q = alpha * n + 1
    for j in data.draw(st.permutations(range(n))):
        assert _as_dict(alpha, j) == _tan_power_reference(alpha, j)
        assert _tan_moment(alpha, q, j) == _tan_moment_reference(alpha, q, j)


def test_tan_moment_rejects_power_above_cosine():
    # T^1 = tan + tan^3 / 3 for alpha = 3 needs q >= 3
    for moment in (_tan_moment, _tan_moment_reference):
        with pytest.raises(DomainError):
            moment(3, 2, 1)
        with pytest.raises(DomainError):
            moment(3, 5, 2)
    assert _tan_moment(3, 6, 2) == _tan_moment_reference(3, 6, 2)


def test_sin_cos_integral():
    assert sin_cos_integral(1, 4).is_zero()
    assert sin_cos_integral(0, 0) == PI
    assert sin_cos_integral(2, 3) == PiNumber.from_rational(F(4, 15))


def test_case_iii_examples():
    assert bJ_exact_case_iii(4, 1, 1) == PiNumber.from_rational(F(1, 8))
    assert bJ_exact_case_iii(4, 1, 3) == PiNumber.from_rational(F(401, 2560))
    for alpha in (1, 3, 5):
        assert bJ_exact_case_iii(4, 4, alpha) == PiNumber.one()
    assert bJ_exact_case_iii(4, 3, 1) == PiNumber.from_rational(2)


def test_case_iii_admissible_grid_runs_clean():
    # the imaginary part must cancel exactly on every admissible case
    for n in (4, 6, 8):
        for alpha in range(max(n - 3, 1), n + 3, 2):
            for k in range(1, n + 1):
                bJ_exact_case_iii(n, k, alpha)


def test_case_iii_validation():
    with pytest.raises(DomainError):
        bJ_exact_case_iii(5, 1, 3)  # odd n
    with pytest.raises(DomainError):
        bJ_exact_case_iii(4, 1, 2)  # even alpha
    with pytest.raises(DomainError):
        bJ_exact_case_iii(8, 1, 3)  # alpha < n-3

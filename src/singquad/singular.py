"""Endpoint-singularity classification and Chebyshev coefficient asymptotics.

Covers integrands of the form

    f(x) = (1 - x)**alpha * (1 + x)**beta * g(x)

and, with ``log_left`` set, the same profile multiplied by log(1 - x).
Provides the smoothness index s, the exponent ladders consumed by
Richardson extrapolation, leading-order coefficient predictions, and the
exact rational closed-form sums (Faulhaber, Bernoulli numbers, and the
H(n, k) = sum r**(2k) / (4r**2 - 1) identities) that back the error
expansion.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import ConfigError, DomainError, ProfileError, RangeError

__all__ = [
    "SingularityProfile",
    "ExponentLadder",
    "Parity",
    "AsymptoteTerm",
    "CoeffAsymptote",
    "classify_s",
    "exponent_ladder",
    "coeff_asymptote",
    "predict_coeff",
    "hatpsi0",
    "hatphi_pi",
    "hatpsi2_0",
    "hatphi2_pi",
    "bernoulli",
    "faulhaber_sum",
    "lemma_H",
    "lemma_H_closed",
]


# ---------------------------------------------------------------------------
# profiles


@dataclass(frozen=True)
class SingularityProfile:
    """Description of an endpoint-singular integrand.

    ``alpha`` is the exponent of (1 - x), ``beta`` of (1 + x); ``log_left``
    marks an extra log(1 - x) factor.  The endpoint data of the smooth
    factor g are supplied in closed form by the caller.

    The checked constructor enforces the quadrature-side constraints:
    alpha, beta >= 0, not both integers without the log factor, and a
    positive integer alpha when the log factor is present.  The
    coefficient asymptotics remain valid down to alpha, beta > -1/2; that
    wider range is reachable only through :meth:`unchecked`.
    """

    alpha: float
    beta: float
    log_left: bool = False
    g_at_1: float = 1.0
    g_at_minus1: float = 1.0
    g_prime_at_1: float = 0.0
    g_prime_at_minus1: float = 0.0

    def __post_init__(self):
        _validate(self, "quadrature")

    @classmethod
    def unchecked(
        cls,
        alpha: float,
        beta: float,
        log_left: bool = False,
        g_at_1: float = 1.0,
        g_at_minus1: float = 1.0,
        g_prime_at_1: float = 0.0,
        g_prime_at_minus1: float = 0.0,
    ) -> "SingularityProfile":
        """Build a profile without the quadrature-range validation.

        Intended for the asymptotic operations, which accept
        alpha, beta > -1/2.  No constraints are checked here.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "alpha", float(alpha))
        object.__setattr__(self, "beta", float(beta))
        object.__setattr__(self, "log_left", bool(log_left))
        object.__setattr__(self, "g_at_1", float(g_at_1))
        object.__setattr__(self, "g_at_minus1", float(g_at_minus1))
        object.__setattr__(self, "g_prime_at_1", float(g_prime_at_1))
        object.__setattr__(self, "g_prime_at_minus1", float(g_prime_at_minus1))
        return self


def _is_integer(x: float) -> bool:
    return float(x).is_integer()


def _validate(p: SingularityProfile, use: str) -> None:
    """Check ``p`` for one use; ``use`` picks the admissible exponent range.

    "quadrature": alpha, beta >= 0.  "asymptotic": alpha, beta > -1/2.
    "endpoint": alpha, beta > -1/2, and two integer exponents are allowed:
    they merely mean a smooth integrand, which has no singular branch but
    perfectly good endpoint auxiliary values.
    """
    for name in ("alpha", "beta", "g_at_1", "g_at_minus1", "g_prime_at_1", "g_prime_at_minus1"):
        if not math.isfinite(getattr(p, name)):
            raise ProfileError(f"profile field {name} must be finite")
    if p.log_left and not (_is_integer(p.alpha) and p.alpha >= 1):
        raise ProfileError(
            f"the log(1-x) factor requires a positive integer alpha, got alpha={p.alpha}"
        )
    if use != "endpoint" and not p.log_left and _is_integer(p.alpha) and _is_integer(p.beta):
        raise ProfileError(
            f"alpha={p.alpha} and beta={p.beta} must not both be integers without a log factor"
        )
    if use == "quadrature":
        if p.alpha < 0 or p.beta < 0:
            raise ProfileError(
                f"quadrature profiles need alpha, beta >= 0, got ({p.alpha}, {p.beta})"
            )
    elif p.alpha <= -0.5 or p.beta <= -0.5:
        raise ProfileError(
            f"coefficient asymptotics need alpha, beta > -1/2, got ({p.alpha}, {p.beta})"
        )


# ---------------------------------------------------------------------------
# smoothness index and exponent ladders


@dataclass(frozen=True)
class ExponentLadder:
    """Strictly increasing, positive, finite error-expansion exponents d_0 < d_1 < ...

    Profile-derived ladders come from :func:`exponent_ladder` and satisfy
    d_0 = s + 1.
    """

    d: tuple

    def __post_init__(self):
        if len(self.d) < 1:
            raise ConfigError("exponent ladder must hold at least one element")
        if not all(math.isfinite(v) for v in self.d):
            raise ConfigError(f"ladder exponents must be finite, got {self.d}")
        for lo, hi in zip(self.d, self.d[1:]):
            if not hi > lo:
                raise ConfigError(f"ladder exponents must increase strictly, got {self.d}")
        if self.d[0] <= 0:
            raise ConfigError(f"ladder exponents must be positive, got {self.d}")

    def __len__(self) -> int:
        return len(self.d)

    def __getitem__(self, i):
        return self.d[i]

    def __iter__(self):
        return iter(self.d)


def classify_s(p: SingularityProfile) -> float:
    """Smoothness index s of a profiled integrand: its coefficients decay as O(n^{-s-1}).

    Algebraic case: s = 2*min(alpha, beta) when neither exponent is an
    integer, 2*alpha when beta is an integer, 2*beta when alpha is.  With
    the log factor: s = 2*alpha when beta is an integer, 2*min(alpha, beta)
    otherwise.
    """
    _validate(p, "quadrature")
    a, b = p.alpha, p.beta
    if p.log_left:
        s = 2.0 * a if _is_integer(b) else 2.0 * min(a, b)
    elif _is_integer(b):
        s = 2.0 * a
    elif _is_integer(a):
        s = 2.0 * b
    else:
        s = 2.0 * min(a, b)
    return s


def exponent_ladder(p: SingularityProfile, count: int) -> ExponentLadder:
    """First ``count`` exponents of the error-expansion ladder of ``p``.

    The ladder is {2*alpha + 2j + 1} and/or {2*beta + 2j + 1} depending on
    which endpoint exponents are integers; when both families contribute
    they are merged, sorted, and deduplicated.
    """
    if count < 1:
        raise ConfigError(f"ladder length must be >= 1, got {count}")
    _validate(p, "quadrature")
    a, b = p.alpha, p.beta
    fam_a = [2.0 * a + 2.0 * j + 1.0 for j in range(count)]
    fam_b = [2.0 * b + 2.0 * j + 1.0 for j in range(count)]
    if p.log_left:
        values = fam_a if _is_integer(b) else fam_a + fam_b
    elif _is_integer(b):
        values = fam_a
    elif _is_integer(a):
        values = fam_b
    else:
        values = fam_a + fam_b
    values.sort()
    merged: list[float] = []
    for v in values:
        if not merged or v - merged[-1] > 1e-12 * (1.0 + abs(v)):
            merged.append(v)
    return ExponentLadder(tuple(merged[:count]))


# ---------------------------------------------------------------------------
# coefficient asymptotics


class Parity(enum.Enum):
    CONSTANT_SIGN = "constant-sign"
    ALTERNATING = "alternating"


@dataclass(frozen=True)
class AsymptoteTerm:
    """One term amplitude * n**(-exponent), optionally alternating in sign."""

    amplitude: float
    exponent: float
    parity: Parity

    def at(self, n: int) -> float:
        value = self.amplitude * float(n) ** (-self.exponent)
        if self.parity is Parity.ALTERNATING and n % 2 == 0:
            value = -value
        return value


@dataclass(frozen=True)
class CoeffAsymptote:
    """Leading terms of the large-n Chebyshev coefficient asymptote."""

    terms: tuple

    def at(self, n: int) -> float:
        return sum(t.at(n) for t in self.terms)


def _sinpi(x: float) -> float:
    """sin(pi*x), exactly zero at integers."""
    if _is_integer(x):
        return 0.0
    return math.sin(math.pi * x)


def _cospi(x: float) -> float:
    """cos(pi*x), exactly +/-1 at integers."""
    if _is_integer(x):
        return -1.0 if int(x) % 2 else 1.0
    return math.cos(math.pi * x)


def coeff_asymptote(p: SingularityProfile) -> CoeffAsymptote:
    """Leading-order coefficient asymptote of the profile.

    Algebraic case: the right-endpoint branch
    -2**(beta-alpha+1) g(1) sin(alpha*pi) Gamma(2*alpha+1) / (pi n**(2*alpha+1))
    keeps constant sign, while the left-endpoint branch
    2**(alpha-beta+1) g(-1) sin(beta*pi) Gamma(2*beta+1) / (pi n**(2*beta+1))
    alternates as (-1)**(n+1); integer exponents annihilate their branch
    through the sine factor, and both terms are retained otherwise.

    Algebraic-log case (alpha a positive integer): with integer beta the
    single constant-sign term
    -2**(beta-alpha+1) g(1) cos(alpha*pi) Gamma(2*alpha+1) / n**(2*alpha+1);
    with non-integer beta the dominant branch is selected by the sign of
    alpha - beta (the left-endpoint branch carries an extra log 2).
    """
    _validate(p, "asymptotic")
    a, b = p.alpha, p.beta
    terms: list[AsymptoteTerm] = []
    if not p.log_left:
        amp_right = (
            -(2.0 ** (b - a + 1.0)) * p.g_at_1 * _sinpi(a) * math.gamma(2.0 * a + 1.0) / math.pi
        )
        amp_left = (
            2.0 ** (a - b + 1.0) * p.g_at_minus1 * _sinpi(b) * math.gamma(2.0 * b + 1.0) / math.pi
        )
        if amp_right != 0.0:
            terms.append(AsymptoteTerm(amp_right, 2.0 * a + 1.0, Parity.CONSTANT_SIGN))
        if amp_left != 0.0:
            terms.append(AsymptoteTerm(amp_left, 2.0 * b + 1.0, Parity.ALTERNATING))
    else:
        amp_right = -(2.0 ** (b - a + 1.0)) * p.g_at_1 * _cospi(a) * math.gamma(2.0 * a + 1.0)
        if _is_integer(b) or a < b:
            if amp_right != 0.0:
                terms.append(AsymptoteTerm(amp_right, 2.0 * a + 1.0, Parity.CONSTANT_SIGN))
        else:  # non-integer beta < alpha: the left endpoint dominates
            amp_left = (
                2.0 ** (a - b + 1.0)
                * p.g_at_minus1
                * _sinpi(b)
                * math.gamma(2.0 * b + 1.0)
                * math.log(2.0)
                / math.pi
            )
            if amp_left != 0.0:
                terms.append(AsymptoteTerm(amp_left, 2.0 * b + 1.0, Parity.ALTERNATING))
    terms.sort(key=lambda t: t.exponent)
    return CoeffAsymptote(tuple(terms))


def predict_coeff(p: SingularityProfile, n: int) -> float:
    """Leading-order prediction of the n-th Chebyshev coefficient of ``p``."""
    if n < 2:
        raise DomainError(f"coefficient prediction needs n >= 2, got {n}")
    return coeff_asymptote(p).at(int(n))


# ---------------------------------------------------------------------------
# auxiliary endpoint values of the transformed smooth factor


def hatpsi0(p: SingularityProfile) -> float:
    """Value of the right-endpoint auxiliary function at angle 0: g(1)/2**(2*alpha)."""
    _validate(p, "endpoint")
    return p.g_at_1 / 2.0 ** (2.0 * p.alpha)


def hatphi_pi(p: SingularityProfile) -> float:
    """Value of the left-endpoint auxiliary function at angle pi: g(-1)/2**(2*beta)."""
    _validate(p, "endpoint")
    return p.g_at_minus1 / 2.0 ** (2.0 * p.beta)


def hatpsi2_0(p: SingularityProfile) -> float:
    """Second derivative of the right-endpoint auxiliary function at angle 0."""
    _validate(p, "endpoint")
    a, b = p.alpha, p.beta
    return -p.g_at_1 / 2.0 ** (2.0 * a + 1.0) * (a / 3.0 + b) - p.g_prime_at_1 / 2.0 ** (2.0 * a)


def hatphi2_pi(p: SingularityProfile) -> float:
    """Second derivative of the left-endpoint auxiliary function at angle pi."""
    _validate(p, "endpoint")
    a, b = p.alpha, p.beta
    return -p.g_at_minus1 / 2.0 ** (2.0 * b + 1.0) * (a + b / 3.0) + p.g_prime_at_minus1 / 2.0 ** (
        2.0 * b
    )


# ---------------------------------------------------------------------------
# exact rational machinery: Bernoulli numbers, Faulhaber sums, H(n, k)

_BERNOULLI_MAX = 16


@lru_cache(maxsize=None)
def _bernoulli_table(limit: int) -> tuple:
    # standard recurrence: sum_{j=0}^{m} C(m+1, j) B_j = 0, so B_1 = -1/2
    table = [Fraction(1)]
    for m in range(1, limit + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += comb(m + 1, j) * table[j]
        table.append(-acc / comb(m + 1, m))
    return tuple(table)


def bernoulli(k: int) -> Fraction:
    """Exact k-th Bernoulli number for 0 <= k <= 16 (B_1 = -1/2)."""
    if not 0 <= k <= _BERNOULLI_MAX:
        raise RangeError(f"Bernoulli numbers supported for 0 <= k <= {_BERNOULLI_MAX}, got {k}")
    return _bernoulli_table(_BERNOULLI_MAX)[k]


_K_MAX = 8


def _check_nk(n: int, k: int) -> None:
    if not 1 <= k <= _K_MAX:
        raise RangeError(f"supported power range is 1 <= k <= {_K_MAX}, got {k}")
    if n < 1:
        raise RangeError(f"summation length must be >= 1, got {n}")


def faulhaber_sum(n: int, k: int) -> Fraction:
    """Exact S(n, k) = sum_{r=1}^{n} r**(2k).

    Evaluated through the closed form
    n**(2k+1)/(2k+1) + n**(2k)/2
    + sum_{j=1}^{k} (2k)! B_{2j} / ((2j)! (2k-2j+1)!) * n**(2k-2j+1).
    """
    _check_nk(n, k)
    total = Fraction(n ** (2 * k + 1), 2 * k + 1) + Fraction(n ** (2 * k), 2)
    for j in range(1, k + 1):
        coeff = Fraction(factorial(2 * k)) * bernoulli(2 * j)
        coeff /= factorial(2 * j) * factorial(2 * k - 2 * j + 1)
        total += coeff * n ** (2 * k - 2 * j + 1)
    return total


def lemma_H(n: int, k: int) -> Fraction:
    """Exact H(n, k) = sum_{r=1}^{n} r**(2k) / (4r**2 - 1), by recurrence.

    Seeded with H(n, 1) = n(n+1)/(2(2n+1)) and advanced through
    H(n, j+1) = (H(n, j) + S(n, j)) / 4.
    """
    _check_nk(n, k)
    h = Fraction(n * (n + 1), 2 * (2 * n + 1))
    for j in range(1, k):
        h = (h + faulhaber_sum(n, j)) / 4
    return h


def _nu(j: int, k: int) -> Fraction:
    """Coefficient of n**(2k-j) in the closed form of H(n, k)."""
    if j % 2 == 0:
        t = j // 2
        return Fraction(1, 2 ** (2 * t + 1))
    if j == 2 * k - 1:
        return sum(
            (bernoulli(2 * k - 2 * p) / 4**p for p in range(1, k)),
            start=Fraction(0),
        )
    t = (j - 1) // 2  # 0 <= t <= k - 2
    acc = Fraction(0)
    for p in range(1, t + 2):
        acc += Fraction(factorial(2 * k - 2 * p), factorial(2 * t - 2 * p + 2)) * (
            bernoulli(2 * t - 2 * p + 2) / 4**p
        )
    return acc / factorial(2 * k - 2 * t - 1)


def lemma_H_closed(n: int, k: int) -> Fraction:
    """Exact H(n, k) through the closed form: independent of :func:`lemma_H`.

    H(n, k) = n(n+1) / (4**(k-1) * 2(2n+1)) + sum_{j=1}^{2k-1} nu_j^k n**(2k-j),
    with the nu coefficients built from Bernoulli numbers.  Must agree
    exactly with the recurrence path; the test suite enforces this.
    """
    _check_nk(n, k)
    h = Fraction(n * (n + 1), 2 * (2 * n + 1)) / 4 ** (k - 1)
    for j in range(1, 2 * k):
        h += _nu(j, k) * n ** (2 * k - j)
    return h

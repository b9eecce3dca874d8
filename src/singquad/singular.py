"""Endpoint-singularity classification and Chebyshev coefficient asymptotics.

Covers integrands of the form

    f(x) = (1 - x)**alpha * (1 + x)**beta * g(x)

and, with ``log_left`` set, the same profile multiplied by log(1 - x).
Provides the smoothness index s, the exponent ladders consumed by
Richardson extrapolation, and leading-order coefficient predictions.  The
exact endpoint-sum identities the paper uses to prove these results are
checked by the test suite, not shipped here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, DomainError, ProfileError, _size

__all__ = [
    "SingularityProfile",
    "classify_s",
    "exponent_ladder",
    "coeff_asymptote",
    "predict_coeff",
]


# ---------------------------------------------------------------------------
# profiles


@dataclass(frozen=True)
class SingularityProfile:
    """Description of an endpoint-singular integrand.

    ``alpha`` is the exponent of (1 - x), ``beta`` of (1 + x); ``log_left``
    marks an extra log(1 - x) factor.  The endpoint data of the smooth
    factor g are supplied in closed form by the caller.

    The constructor enforces finite fields, alpha, beta >= 0, not both
    integers without the log factor, and a positive integer alpha when the
    log factor is present.  The dataclass is frozen, so every profile has
    passed these checks and the functions below take it as valid.
    """

    alpha: float
    beta: float
    log_left: bool = False
    g_at_1: float = 1.0
    g_at_minus1: float = 1.0
    g_prime_at_1: float = 0.0
    g_prime_at_minus1: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta", "g_at_1", "g_at_minus1", "g_prime_at_1", "g_prime_at_minus1"):
            if not math.isfinite(getattr(self, name)):
                raise ProfileError(f"profile field {name} must be finite")
        a, b = self.alpha, self.beta
        if self.log_left and not (_is_integer(a) and a >= 1):
            raise ProfileError(
                f"the log(1-x) factor requires a positive integer alpha, got alpha={a}"
            )
        if not self.log_left and _is_integer(a) and _is_integer(b):
            raise ProfileError(
                f"alpha={a} and beta={b} must not both be integers without a log factor"
            )
        if a < 0 or b < 0:
            raise ProfileError(f"quadrature profiles need alpha, beta >= 0, got ({a}, {b})")


def _is_integer(x: float) -> bool:
    return float(x).is_integer()


# ---------------------------------------------------------------------------
# smoothness index and exponent ladders


def _branch_exponents(p: SingularityProfile) -> tuple:
    """``(exponent, left)`` of each endpoint branch that survives in the coefficients.

    The right branch has exponent alpha, the left branch beta.  An integer
    beta drops the left branch; an integer alpha drops the right branch
    unless the profile has the log factor.  At least one branch survives.
    """
    right = ((p.alpha, False),) if p.log_left or not _is_integer(p.alpha) else ()
    left = () if _is_integer(p.beta) else ((p.beta, True),)
    return right + left


def classify_s(p: SingularityProfile) -> float:
    """Smoothness index s of a profiled integrand: its coefficients decay as O(n^{-s-1}).

    s is twice the smallest exponent among the surviving endpoint branches.
    """
    return 2.0 * min(e for e, _ in _branch_exponents(p))


def exponent_ladder(p: SingularityProfile, count: int) -> tuple:
    """First ``count`` exponents d_0 < d_1 < ... of the error-expansion ladder of ``p``.

    Each surviving endpoint branch with exponent e contributes the family
    {2*e + 2j + 1}; the families are merged, sorted, and deduplicated, so
    d_0 = s + 1.
    """
    count = _size(count, 1, ConfigError, "ladder length must be an integer")
    values = sorted(
        2.0 * e + 2.0 * j + 1.0 for e, _ in _branch_exponents(p) for j in range(count)
    )
    merged: list[float] = []
    for v in values:
        if not merged or v - merged[-1] > 1e-12 * (1.0 + abs(v)):
            merged.append(v)
    return tuple(merged[:count])


# ---------------------------------------------------------------------------
# coefficient asymptotics


def coeff_asymptote(p: SingularityProfile) -> tuple:
    """Leading-order coefficient asymptote of the profile.

    Returns ``(amplitude, exponent, alternating)`` triples sorted by
    exponent, zero amplitudes dropped.  A triple contributes
    amplitude * n**(-exponent) to the n-th coefficient, with its sign
    flipped at even n when ``alternating`` is set.  Each surviving
    endpoint branch gives one triple; a log profile keeps only its branch
    of smallest exponent.  An amplitude that overflows a float raises
    DomainError naming the branch exponent.

    Algebraic case: the right-endpoint branch
    -2**(beta-alpha+1) g(1) sin(alpha*pi) Gamma(2*alpha+1) / (pi n**(2*alpha+1))
    keeps constant sign, while the left-endpoint branch
    2**(alpha-beta+1) g(-1) sin(beta*pi) Gamma(2*beta+1) / (pi n**(2*beta+1))
    alternates as (-1)**(n+1).  With the log factor (alpha a positive
    integer) the right branch is
    -2**(beta-alpha+1) g(1) cos(alpha*pi) Gamma(2*alpha+1) / n**(2*alpha+1),
    and the left branch is the algebraic one times log 2.
    """
    a, b = p.alpha, p.beta
    branches = _branch_exponents(p)
    terms = []
    for e, left in (min(branches),) if p.log_left else branches:
        try:
            if left:
                amp = 2.0 ** (a - b + 1.0) * p.g_at_minus1 * math.sin(math.pi * b)
                amp *= math.gamma(2.0 * b + 1.0)
                amp = (amp * math.log(2.0) if p.log_left else amp) / math.pi
            else:
                # cos(alpha*pi) is exactly (-1)**alpha for the integer alpha of a log profile
                trig = (-1.0) ** a if p.log_left else math.sin(math.pi * a)
                amp = -(2.0 ** (b - a + 1.0)) * p.g_at_1 * trig * math.gamma(2.0 * a + 1.0)
                amp = amp if p.log_left else amp / math.pi
        except OverflowError:
            amp = math.inf
        if not math.isfinite(amp):
            raise DomainError(f"the amplitude of the branch with exponent {e!r} overflows a float")
        if amp != 0.0:
            terms.append((amp, 2.0 * e + 1.0, left))
    return tuple(sorted(terms, key=lambda t: t[1]))


def predict_coeff(p: SingularityProfile, n: int) -> float:
    """Leading-order prediction of the n-th Chebyshev coefficient of ``p``.

    ``n`` must be an integer >= 2, else DomainError.
    """
    n = _size(n, 2, DomainError, "coefficient prediction needs an integer n")
    terms = (
        (-c if alternating and n % 2 == 0 else c) * float(n) ** (-e)
        for c, e, alternating in coeff_asymptote(p)
    )
    return sum(terms, 0.0)

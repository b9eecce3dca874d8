"""Clenshaw-Curtis and Gauss-Legendre quadrature rule construction."""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, SizeError
from .transform import ChebGrid, _check_size, dct1

__all__ = [
    "RuleKind",
    "QuadratureRule",
    "cc_rule_direct",
    "cc_rule_fast",
    "gl_rule",
]

# Memoized builders keep at most this many rules each; a rule of size n
# holds 2(n+1) floats, so 32 rules up to n = 65536 stay under 35 MB.
_MEMO_SIZE = 32


class RuleKind(enum.Enum):
    CLENSHAW_CURTIS = "cc"
    GAUSS_LEGENDRE = "gl"


@dataclass(frozen=True)
class QuadratureRule:
    """An immutable quadrature rule on [-1, 1].

    For Clenshaw-Curtis, ``n`` counts intervals (n + 1 points, nodes
    decreasing from +1); for Gauss-Legendre it counts points (nodes
    increasing).  Both arrays are made read-only on construction, so a
    memoized rule shared between callers cannot be altered by one of them.
    """

    kind: RuleKind
    n: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.weights.min() <= 0.0:
            raise NumericError(f"{self.kind.value} rule n={self.n}: non-positive weight")
        total = float(self.weights.sum())
        if abs(total - 2.0) > 1e-12:
            raise NumericError(f"{self.kind.value} rule n={self.n}: weights sum to {total!r}")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def npoints(self) -> int:
        return len(self.nodes)


def cc_rule_direct(n: int) -> QuadratureRule:
    """Clenshaw-Curtis rule by direct O(n^2) evaluation of the weight formula.

    w_j = (4 delta_j / n) * sum_{k=0}^{floor(n/2)} delta_{2k} cos(2jk*pi/n) / (1 - 4k^2),
    where delta halves the terms at the ends of its index range (j in
    {0, n}; 2k in {0, n}).  Serves as the reference oracle for
    cc_rule_fast.
    """
    if n < 1:
        raise SizeError(f"rule size must be >= 1, got {n}")
    k = np.arange(n // 2 + 1)
    term = 1.0 / (1.0 - 4.0 * k * k)
    term[0] *= 0.5
    if n % 2 == 0:
        term[-1] *= 0.5  # 2k = n happens only for even n
    j = np.arange(n + 1)
    cosines = np.cos(np.outer(j, k) * (2.0 * np.pi / n))
    w = (4.0 / n) * (cosines @ term)
    w[0] *= 0.5
    w[-1] *= 0.5
    return QuadratureRule(RuleKind.CLENSHAW_CURTIS, n, ChebGrid(n).nodes, w)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def cc_rule_fast(n: int) -> QuadratureRule:
    """Clenshaw-Curtis rule in O(n log n) via the DCT-I.

    For even n the half-range weights are (2 delta_j / n) * dct1(v)_j
    with v_k = 2/(1 - 4k^2), k = 0..n/2; the rest follow from the
    symmetry w_j = w_{n-j}.  The odd supported sizes (1, 3, 5) fall back
    to the direct formula.

    Memoized: repeated sizes return the same read-only rule, and
    ``cc_rule_fast.cache_info()`` counts rules built (misses) and reused
    (hits).
    """
    _check_size(n)
    if n % 2 == 1:
        return cc_rule_direct(n)
    k = np.arange(n // 2 + 1)
    v = 2.0 / (1.0 - 4.0 * k * k)
    w_half = (2.0 / n) * dct1(v)
    w_half[0] *= 0.5
    w = np.concatenate([w_half, w_half[-2::-1]])
    return QuadratureRule(RuleKind.CLENSHAW_CURTIS, n, ChebGrid(n).nodes, w)


# Gauss-Legendre construction.  A node theta (x = cos theta) uses the
# interior expansion when 2 (n + 1/2) sin(theta) reaches _INTERIOR_MIN, where
# _INTERIOR_TERMS terms of it are accurate to rounding; the few nodes nearer
# the ends use the exact cosine sum.
_INTERIOR_MIN = 30.0
_INTERIOR_TERMS = 20
_NEWTON_STEPS = 10
_NEWTON_TOL = 1e-12  # relative to theta; the step after it is below rounding


@functools.lru_cache(maxsize=_MEMO_SIZE)
def gl_rule(n: int) -> QuadratureRule:
    """Gauss-Legendre rule in O(n) work, nodes increasing.

    The nodes are x = cos(theta) for the roots theta in (0, pi/2] of
    P_n(cos theta), mirrored to the other half, so the rule is exactly
    +/- symmetric (an odd rule's middle node is exactly 0.0).  Newton's
    method in theta starts from Tricomi's initial guesses.  Interior
    nodes evaluate P_n by the Stieltjes-Szego asymptotic expansion
    (Hale & Townsend, SIAM J. Sci. Comput. 35(2), 2013); the nodes
    nearest the ends, and every node of a small rule, use the exact finite
    sum P_n(cos theta) = sum_k g_k g_{n-k} cos((n - 2k) theta) with
    g_k = prod_{j<=k} (2j - 1)/(2j).  Weights are w = 2 / (dP_n/dtheta)^2
    at the converged roots.  Exact for polynomials of degree <= 2n - 1.

    Memoized: repeated sizes return the same read-only rule, and
    ``gl_rule.cache_info()`` counts rules built (misses) and reused (hits).
    Raises NumericError if Newton's method does not converge.
    """
    if n < 1:
        raise SizeError(f"rule size must be >= 1, got {n}")
    k = np.arange(1, (n + 1) // 2 + 1)
    phi = (4.0 * k - 1.0) * np.pi / (4.0 * n + 2.0)
    theta = np.arccos(
        (1.0 - (n - 1.0) / (8.0 * n**3.0) - (39.0 - 28.0 / np.sin(phi) ** 2) / (384.0 * n**4.0))
        * np.cos(phi)
    )
    interior = 2.0 * (n + 0.5) * np.sin(theta) >= _INTERIOR_MIN
    dp = np.empty_like(theta)
    for part, legendre in ((interior, _interior_expansion), (~interior, _cosine_sum)):
        evaluate = legendre(n)
        t = theta[part]
        for _ in range(_NEWTON_STEPS):
            p, d = evaluate(t)
            step = p / d
            t = t - step
            if np.all(np.abs(step) <= _NEWTON_TOL * t):
                break
        else:
            raise NumericError(f"Gauss-Legendre Newton iteration did not converge for n={n}")
        theta[part] = t
        dp[part] = evaluate(t)[1]
    x = np.cos(theta)  # decreasing from near +1
    w = 2.0 / (dp * dp)
    if n % 2:
        x[-1] = 0.0  # P_n(0) = 0 exactly for odd n; cos(pi/2) is not 0.0
    nodes = np.concatenate([-x[: n // 2], x[::-1]])
    weights = np.concatenate([w[: n // 2], w[::-1]])
    return QuadratureRule(RuleKind.GAUSS_LEGENDRE, n, nodes, weights)


def _interior_expansion(n: int):
    """theta -> (P_n(cos theta), dP_n/dtheta) by the Stieltjes-Szego expansion.

    P_n(cos theta) = C_n sum_m h_m cos(a_m) / (2 sin theta)^(m + 1/2) with
    a_m = (n + m + 1/2) theta - (m + 1/2) pi/2, h_0 = 1 and
    h_{m+1} = h_m (m + 1/2)^2 / ((m + 1)(n + m + 3/2)).  Since
    a_m = a_0 + m (theta - pi/2), the sum is the real part of
    exp(i a_0) / sqrt(2 sin theta) times a polynomial in
    q = (1 - i cot theta) / 2, evaluated by Horner's rule.  Term m of
    the derivative gains the factor i n + (m + 1/2)(i - cot theta).
    """
    m = np.arange(_INTERIOR_TERMS - 1.0)
    h = np.cumprod(np.concatenate([[1.0], (m + 0.5) ** 2 / ((m + 1.0) * (n + m + 1.5))]))
    h_half = h * (np.arange(_INTERIOR_TERMS) + 0.5)
    # C_n = (4/pi) prod_{j<=n} j/(j + 1/2); the lgamma route cancels to ~1e-12
    c_n = 4.0 / np.pi * math.exp(-math.fsum(np.log1p(0.5 / np.arange(1.0, n + 1.0))))

    def evaluate(theta):
        sin_t = np.sin(theta)
        cot = np.cos(theta) / sin_t
        q = 0.5 - 0.5j * cot
        s0 = np.polyval(h[::-1], q)
        s1 = np.polyval(h_half[::-1], q)
        e = c_n * np.exp(1j * ((n + 0.5) * theta - np.pi / 4.0)) / np.sqrt(2.0 * sin_t)
        return (e * s0).real, (e * (1j * n * s0 + (1j - cot) * s1)).real

    return evaluate


def _cosine_sum(n: int):
    """theta -> (P_n(cos theta), dP_n/dtheta) by the exact finite cosine sum.

    The coefficients g_k g_{n-k} are positive and sum to P_n(1) = 1.
    """
    j = np.arange(1.0, n + 1.0)
    g = np.cumprod(np.concatenate([[1.0], (2.0 * j - 1.0) / (2.0 * j)]))
    coef = g * g[::-1]
    freq = n - 2.0 * np.arange(n + 1)

    def evaluate(theta):
        angles = np.outer(theta, freq)
        return np.cos(angles) @ coef, -(np.sin(angles) @ (coef * freq))

    return evaluate

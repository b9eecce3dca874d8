"""Clenshaw-Curtis and Gauss-Legendre quadrature rule construction."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, _size
from .transform import ChebGrid, dct1

__all__ = [
    "QuadratureRule",
    "cc_rule_fast",
    "gl_rule",
]

# Memoized builders keep at most this many rules each; a rule of size n
# holds 2(n+1) floats, so 32 rules up to n = 65536 stay under 35 MB.
_MEMO_SIZE = 32


@dataclass(frozen=True)
class QuadratureRule:
    """An immutable quadrature rule on [-1, 1].

    ``kind`` is "cc" (Clenshaw-Curtis) or "gl" (Gauss-Legendre).  For
    Clenshaw-Curtis, ``n`` counts intervals (n + 1 points, nodes
    decreasing from +1); for Gauss-Legendre it counts points (nodes
    increasing).  Both arrays are made read-only on construction, so a
    memoized rule shared between callers cannot be altered by one of them.
    """

    kind: str
    n: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.weights.min() <= 0.0:
            raise NumericError(f"{self.kind} rule n={self.n}: non-positive weight")
        total = float(self.weights.sum())
        if abs(total - 2.0) > 1e-12:
            raise NumericError(f"{self.kind} rule n={self.n}: weights sum to {total!r}")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def npoints(self) -> int:
        return len(self.nodes)

    def apply(self, values) -> float:
        """The rule's value on ``values``, the integrand at its nodes.

        The weights-times-values products are summed by numpy's pairwise
        ``np.sum``, whether the values are fresh or read from a cache.
        """
        return float(np.sum(self.weights * values))


@functools.lru_cache(maxsize=_MEMO_SIZE)
def cc_rule_fast(n: int) -> QuadratureRule:
    """Clenshaw-Curtis rule in O(n log n) via one DCT-I, for any n >= 1.

    The weights are (2 delta_j / n) * dct1(v)_j with v_k = 2/(1 - k^2) on
    even k and 0 on odd k, k = 0..n (Waldvogel, BIT 46, 2006).

    Memoized: repeated sizes return the same read-only rule, and
    ``cc_rule_fast.cache_info()`` counts rules built (misses) and reused
    (hits).
    """
    size = _size(n, 1, what="rule size must be an integer")
    if size is not n:  # 8.0 or numpy.int64(8): the memo entry of the int holds the rule
        return cc_rule_fast(size)
    k = np.arange(0, n + 1, 2)
    v = np.zeros(n + 1)
    v[::2] = 2.0 / (1.0 - k * k)
    w = (2.0 / n) * dct1(v)
    w[0] *= 0.5
    w[-1] *= 0.5
    return QuadratureRule("cc", n, ChebGrid(n).nodes, w)


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
    method starts from Tricomi's initial guesses and runs in theta, or in
    t = pi/2 - theta with x = sin(t) for every node past pi/4: there theta
    rounds near pi/2, which cost x up to 32 ulp at n = 200.  Interior
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
    size = _size(n, 1, what="rule size must be an integer")
    if size is not n:  # 8.0 or numpy.int64(8): the memo entry of the int holds the rule
        return gl_rule(size)
    k = np.arange(1, (n + 1) // 2 + 1)
    phi = (4.0 * k - 1.0) * np.pi / (4.0 * n + 2.0)
    theta = np.arccos(
        (1.0 - (n - 1.0) / (8.0 * n**3.0) - (39.0 - 28.0 / np.sin(phi) ** 2) / (384.0 * n**4.0))
        * np.cos(phi)
    )
    interior = 2.0 * (n + 0.5) * np.sin(theta) >= _INTERIOR_MIN
    from_middle = theta > 0.25 * np.pi
    t = np.where(from_middle, 0.5 * np.pi - theta, theta)
    dp = np.empty_like(theta)
    for part, make, middle in (
        (interior, _interior_expansion, from_middle[interior]),
        (~interior & ~from_middle, _cosine_sum, False),
        (~interior & from_middle, _cosine_sum, True),
    ):
        if not part.any():
            continue
        evaluate, u = make(n, middle), t[part]
        for _ in range(_NEWTON_STEPS):
            p, d = evaluate(u)
            step = p / d
            u = u - step
            if np.all(np.abs(step) <= _NEWTON_TOL * theta[part]):
                break
        else:
            raise NumericError(f"Gauss-Legendre Newton iteration did not converge for n={n}")
        t[part] = u
        dp[part] = evaluate(u)[1]
    x = np.where(from_middle, np.sin(t), np.cos(t))  # decreasing from near +1
    w = 2.0 / (dp * dp)
    if n % 2:
        x[-1] = 0.0  # P_n(0) = 0 exactly for odd n
    nodes = np.concatenate([-x[: n // 2], x[::-1]])
    weights = np.concatenate([w[: n // 2], w[::-1]])
    return QuadratureRule("gl", n, nodes, weights)


def _interior_expansion(n: int, from_middle: np.ndarray):
    """t -> (P_n(cos theta), dP_n/dt) by the Stieltjes-Szego expansion.

    theta = pi/2 - t where ``from_middle`` holds, else theta = t.
    P_n(cos theta) = C_n sum_m h_m cos(a_m) / (2 sin theta)^(m + 1/2) with
    a_m = (n + m + 1/2) theta - (m + 1/2) pi/2, h_0 = 1 and
    h_{m+1} = h_m (m + 1/2)^2 / ((m + 1)(n + m + 3/2)).  Since
    a_m = a_0 + m (theta - pi/2), the sum is the real part of
    exp(i a_0) / sqrt(2 sin theta) times a polynomial in
    q = (1 - i cot theta) / 2, evaluated by Horner's rule.  Term m of
    the derivative gains the factor i n + (m + 1/2)(i - cot theta).
    From the middle, a_0 = n pi/2 - (n + 1/2) t, and exp(i n pi/2) is the
    exact factor i^n, so no phase near n pi/2 is rounded.
    """
    m = np.arange(_INTERIOR_TERMS - 1.0)
    h = np.cumprod(np.concatenate([[1.0], (m + 0.5) ** 2 / ((m + 1.0) * (n + m + 1.5))]))
    h_half = h * (np.arange(_INTERIOR_TERMS) + 0.5)
    # C_n = (4/pi) prod_{j<=n} j/(j + 1/2); the lgamma route cancels to ~1e-12
    c_n = 4.0 / np.pi * math.exp(-math.fsum(np.log1p(0.5 / np.arange(1.0, n + 1.0))))
    sign = np.where(from_middle, -1.0, 1.0)
    turn = c_n * np.where(from_middle, (1, 1j, -1, -1j)[n % 4], 1.0)
    shift = np.where(from_middle, 0.0, -0.25j * np.pi)

    def evaluate(t):
        sin_t, cos_t = np.sin(t), np.cos(t)
        sin_theta = np.where(from_middle, cos_t, sin_t)
        cot = np.where(from_middle, sin_t, cos_t) / sin_theta
        q = 0.5 - 0.5j * cot
        s0 = np.polyval(h[::-1], q)
        s1 = np.polyval(h_half[::-1], q)
        e = turn * np.exp(1j * (n + 0.5) * sign * t + shift) / np.sqrt(2.0 * sin_theta)
        return (e * s0).real, sign * (e * (1j * n * s0 + (1j - cot) * s1)).real

    return evaluate


def _cosine_sum(n: int, from_middle: bool):
    """t -> (P_n(cos theta), dP_n/dt) by the exact finite cosine sum.

    theta = pi/2 - t if ``from_middle``, else theta = t.  The coefficients
    g_k g_{n-k} are positive and sum to P_n(1) = 1.  With m = n - 2k,
    cos(m (pi/2 - t)) is (-1)^(m//2) cos(m t) for even n and
    (-1)^(m//2) sin(m t) for odd n, so no rounded pi/2 enters.
    """
    j = np.arange(1.0, n + 1.0)
    g = np.cumprod(np.concatenate([[1.0], (2.0 * j - 1.0) / (2.0 * j)]))
    coef = g * g[::-1]
    freq = n - 2.0 * np.arange(n + 1)
    if from_middle:
        coef = coef * np.where(freq % 4 < 2, 1.0, -1.0)  # (-1)^(m//2)

    def evaluate(t):
        angles = np.outer(t, freq)
        if from_middle and n % 2:
            return np.sin(angles) @ coef, np.cos(angles) @ (coef * freq)
        return np.cos(angles) @ coef, -(np.sin(angles) @ (coef * freq))

    return evaluate

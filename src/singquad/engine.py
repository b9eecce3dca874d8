"""Quadrature application: cached sampling, summation, aliasing, splitting.

The cache stores integrand samples on nested Chebyshev-Lobatto grids so
that doubling the rule size only pays for the new odd-index nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DomainError, InputError, IntegrandError, SizeError
from .rules import QuadratureRule, RuleKind, cc_rule_fast
from .singular import SingularityProfile
from .transform import ChebGrid, cheb_coeffs

__all__ = [
    "Integrand",
    "SampleCache",
    "QuadratureResult",
    "integrate",
    "cc_integrate_by_coeffs",
    "aliasing_error",
    "integrate_split",
]


@dataclass(frozen=True)
class Integrand:
    """A callable on [-1, 1] bundled with its optional singularity profile."""

    eval: Callable[[float], float]
    profile: Optional[SingularityProfile] = None
    label: str = ""

    def __post_init__(self):
        if not callable(self.eval):
            raise InputError("integrand eval must be callable")

    def __call__(self, x: float) -> float:
        return self.eval(x)


@dataclass(frozen=True)
class QuadratureResult:
    """One quadrature value plus its bookkeeping.

    ``evals_used`` counts the integrand evaluations this call actually
    performed: n+1 (CC) or n (GL) standalone, fewer when a shared sample
    cache already held part of the grid.
    """

    approx: float
    n: int
    evals_used: int
    kind: RuleKind


def _as_callable(f):
    return f.eval if isinstance(f, Integrand) else f


def _eval_nodes(fn, xs) -> np.ndarray:
    out = np.empty(len(xs))
    for i, x in enumerate(xs):
        v = float(fn(float(x)))
        if not math.isfinite(v):
            raise IntegrandError(
                f"integrand returned non-finite value {v!r} at node {x!r}", node=float(x)
            )
        out[i] = v
    return out


class SampleCache:
    """Nested Chebyshev-Lobatto samples of a single integrand.

    Holds f(cos(j*pi/N)) for the finest size N reached so far, where N is
    base_n times a power of two.  Any size n with N divisible by n is a
    stride view into the same array, so nested reads are index-exact and
    never rely on floating-point node comparisons.  One cache serves one
    integrand: the first ``ensure`` binds it, and a later call with a
    different callable raises ConfigError.
    """

    def __init__(self, base_n: int):
        if base_n < 2 or base_n % 2:
            raise SizeError(f"cache base size must be even and >= 2, got {base_n}")
        self.base_n = int(base_n)
        self.levels = 0
        self.eval_count = 0
        self._values: Optional[np.ndarray] = None
        self._fn = None

    @property
    def finest_n(self) -> int:
        return self.base_n * 2**self.levels

    def _grow_target(self, n: int) -> int:
        target = self.finest_n if self._values is not None else self.base_n
        while target < n:
            target *= 2
        if target % n:
            raise SizeError(f"size {n} does not divide a doubling of base {self.base_n}")
        return target

    def ensure(self, f, n: int) -> int:
        """Make size ``n`` available; return the number of new evaluations."""
        if n < 2 or n % 2:
            raise SizeError(f"cached rule sizes must be even and >= 2, got {n}")
        fn = _as_callable(f)
        # == rather than is: bound methods are rebuilt on every attribute access.
        if self._values is not None and fn != self._fn:
            raise ConfigError("sample cache already holds samples of a different integrand")
        target = self._grow_target(n)
        before = self.eval_count
        if self._values is None:
            self._values = _eval_nodes(fn, ChebGrid(self.base_n).nodes)
            self._fn = fn
            self.eval_count += self.base_n + 1
        while self.finest_n < target:
            doubled = 2 * self.finest_n
            grid = ChebGrid(doubled)
            new = np.empty(doubled + 1)
            new[::2] = self._values
            new[1::2] = _eval_nodes(fn, grid.nodes[1::2])
            self._values = new
            self.levels += 1
            self.eval_count += doubled // 2
        return self.eval_count - before

    def values_at(self, n: int) -> np.ndarray:
        if self._values is None:
            raise SizeError("cache is empty; call ensure() first")
        if self.finest_n % n:
            raise SizeError(f"size {n} does not divide the cached finest size {self.finest_n}")
        return self._values[:: self.finest_n // n]


def integrate(rule: QuadratureRule, f, cache: Optional[SampleCache] = None) -> QuadratureResult:
    """Apply ``rule`` to ``f``, optionally reading samples through ``cache``.

    Caches hold Chebyshev-Lobatto samples, so only Clenshaw-Curtis rules
    may use one; the rule size must then divide a doubling of the cache
    base.
    """
    fn = _as_callable(f)
    if cache is not None:
        if rule.kind is not RuleKind.CLENSHAW_CURTIS:
            raise ConfigError("sample caches apply only to Clenshaw-Curtis rules")
        evals = cache.ensure(fn, rule.n)
        values = cache.values_at(rule.n)
    else:
        values = _eval_nodes(fn, rule.nodes)
        evals = rule.npoints
    approx = float(np.sum(rule.weights * values))
    return QuadratureResult(approx, rule.n, evals, rule.kind)


def cc_integrate_by_coeffs(f, n: int, cache: SampleCache) -> QuadratureResult:
    """Clenshaw-Curtis value assembled in coefficient space.

    Computes the interpolant's Chebyshev coefficients and sums
    a_k * 2/(1-k^2) over even k, halving the k = 0 and k = n ends.  Must
    match the weight-space path to rounding error.
    """
    if n < 2 or n % 2:
        raise SizeError(f"coefficient-space integration needs even n >= 2, got {n}")
    evals = cache.ensure(f, n)
    a = cheb_coeffs(cache.values_at(n)).coeffs
    k = np.arange(0, n + 1, 2)
    terms = a[::2] * (2.0 / (1.0 - k.astype(float) ** 2))
    terms[0] *= 0.5
    terms[-1] *= 0.5
    approx = float(np.sum(terms))
    return QuadratureResult(approx, n, evals, RuleKind.CLENSHAW_CURTIS)


def aliasing_error(n: int, m: int) -> float:
    """Exact Clenshaw-Curtis error on the degree-m Chebyshev polynomial.

    Zero for odd m and for even m <= n.  For even m > n, write
    m = 2jn + 2r with j >= 1 and 1-n <= 2r <= n; the error is
    2/(1-m^2) - 2/(1-4r^2).
    """
    if n < 2 or n % 2:
        raise SizeError(f"the aliasing identity needs even n >= 2, got {n}")
    if m < 0:
        raise DomainError(f"polynomial degree must be >= 0, got {m}")
    if m % 2 or m <= n:
        return 0.0
    q, t = divmod(m, 2 * n)
    if t <= n:
        j, two_r = q, t
    else:
        j, two_r = q + 1, t - 2 * n
    assert j >= 1 and -n < two_r <= n
    return 2.0 / (1.0 - float(m) ** 2) - 2.0 / (1.0 - float(two_r) ** 2)


def integrate_split(
    f,
    x0: float,
    n: int,
    method: str = "cc",
    q: int = 1,
    profiles=None,
) -> float:
    """Integrate over [-1, 1] split at an interior kink x0.

    Each half is mapped affinely onto [-1, 1] and integrated with an
    n-point rule; ``method`` is "cc" or "extrapolated".  The extrapolated
    path needs one singularity profile per half (left, right), describing
    the mapped integrand on that half.
    """
    if not -1.0 < x0 < 1.0:
        raise DomainError(f"split point must lie strictly inside (-1, 1), got {x0}")
    fn = _as_callable(f)
    jac_left = (x0 + 1.0) / 2.0
    jac_right = (1.0 - x0) / 2.0

    def left(u: float) -> float:
        return fn(jac_left * u + (x0 - 1.0) / 2.0)

    def right(u: float) -> float:
        return fn(jac_right * u + (x0 + 1.0) / 2.0)

    if method == "cc":
        rule = cc_rule_fast(n)
        total = jac_left * integrate(rule, left).approx
        total += jac_right * integrate(rule, right).approx
        return total
    if method == "extrapolated":
        if profiles is None:
            raise ConfigError("the extrapolated split needs (left, right) singularity profiles")
        from .accel import richardson  # local import, accel depends on this module
        from .singular import exponent_ladder

        p_left, p_right = profiles
        total = 0.0
        for half, profile, jac in ((left, p_left, jac_left), (right, p_right, jac_right)):
            ladder = exponent_ladder(profile, max(q, 1))
            tableau = richardson(half, n, q, ladder)
            total += jac * tableau.value
        return total
    raise ConfigError(f"unknown split method {method!r}; expected 'cc' or 'extrapolated'")

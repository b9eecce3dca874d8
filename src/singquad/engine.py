"""Quadrature application: cached sampling, summation, aliasing.

The cache stores integrand samples on nested Chebyshev-Lobatto grids so
that doubling the rule size only pays for the new odd-index nodes.  A
rule's value is its weights against the samples, summed by numpy's
pairwise ``np.sum``.  Every sample in the package is taken by
:meth:`Integrand.sample`: one call per batch of nodes for a vectorized
integrand, one call per node for anything else.  Rules, caches and the
CLI reach it through ``_eval_nodes``, which perfbench traces as
``engine.sample``; the tanh-sinh oracle calls it directly, so that span
counts quadrature samples only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DomainError, InputError, IntegrandError, SizeError
from .rules import QuadratureRule, RuleKind
from .singular import SingularityProfile
from .transform import ChebGrid

__all__ = [
    "Integrand",
    "SampleCache",
    "QuadratureResult",
    "integrate",
    "aliasing_error",
]


def _non_finite(v, x) -> IntegrandError:
    return IntegrandError(
        f"integrand returned non-finite value {float(v)!r} at node {float(x)!r}", node=float(x)
    )


@dataclass(frozen=True)
class Integrand:
    """A callable on [-1, 1] bundled with its optional singularity profile.

    With ``vectorized=False`` (the default) ``eval`` maps one float to one
    float and is called node by node.  With ``vectorized=True`` ``eval``
    maps an ndarray of nodes to an ndarray of values of the same shape, and
    every batch of nodes costs one call.  Calling the integrand on a scalar
    returns a Python float either way.
    """

    eval: Callable
    profile: Optional[SingularityProfile] = None
    label: str = ""
    vectorized: bool = False

    def __post_init__(self):
        if not callable(self.eval):
            raise InputError("integrand eval must be callable")
        if not isinstance(self.vectorized, bool):
            raise InputError(f"vectorized must be a bool, got {self.vectorized!r}")

    def __call__(self, x: float) -> float:
        return float(self.eval(x))

    def sample(self, xs) -> np.ndarray:
        """Values at the nodes ``xs``: the one sampling routine.

        A vectorized integrand takes all nodes in one call; any other is
        called once per node, in node order.  Either way the first
        non-finite value raises IntegrandError naming its node.
        """
        xs = np.asarray(xs, dtype=float)
        if self.vectorized:
            out = np.asarray(self.eval(xs), dtype=float)
            if out.shape != xs.shape:
                raise InputError(
                    f"vectorized integrand returned shape {out.shape} for nodes of shape {xs.shape}"
                )
            finite = np.isfinite(out)
            if not finite.all():
                i = int(np.argmin(finite))
                raise _non_finite(out[i], xs[i])
            return out
        fn = self.eval
        out = np.empty(len(xs))
        for i, x in enumerate(xs):
            v = float(fn(float(x)))
            if not math.isfinite(v):
                raise _non_finite(v, x)
            out[i] = v
        return out


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


def _eval_nodes(f, xs) -> np.ndarray:
    """Values of ``f``, an :class:`Integrand` or a plain callable, at ``xs``."""
    return (f if isinstance(f, Integrand) else Integrand(f)).sample(xs)


class SampleCache:
    """Nested Chebyshev-Lobatto samples of a single integrand.

    Holds f(cos(j*pi/N)) for the finest size N reached so far, where N is
    base_n times a power of two.  Any size n with N divisible by n is a
    stride view into the same array, so nested reads are index-exact and
    never rely on floating-point node comparisons.  The cache is the one
    place that decides which sizes nested sampling serves: even sizes
    n >= 2 that divide the first doubling of N at or above n
    (:meth:`serves`); :meth:`ensure` raises SizeError for the rest.  One
    cache serves one integrand: the first ``ensure`` binds it, and a later
    call with a different integrand raises ConfigError.
    """

    def __init__(self, base_n: int):
        if base_n < 2 or base_n % 2:
            raise SizeError(f"cache base size must be even and >= 2, got {base_n}")
        self.base_n = int(base_n)
        self._values: Optional[np.ndarray] = None
        self._f = None

    @property
    def finest_n(self) -> int:
        return self.base_n if self._values is None else len(self._values) - 1

    @property
    def eval_count(self) -> int:
        """Evaluations made so far: one per stored sample."""
        return 0 if self._values is None else len(self._values)

    def _target(self, n: int) -> Optional[int]:
        """The finest size that serving ``n`` needs, or None if the cache cannot serve it."""
        if n < 2 or n % 2:
            return None
        target = self.finest_n
        while target < n:
            target *= 2
        return None if target % n else target

    def serves(self, n: int) -> bool:
        """Whether :meth:`ensure` can make size ``n`` available."""
        return self._target(n) is not None

    def ensure(self, f, n: int) -> int:
        """Make size ``n`` available; return the number of new evaluations."""
        target = self._target(n)
        if target is None:
            raise SizeError(
                f"size {n} is not an even size >= 2 dividing a doubling of {self.finest_n}"
            )
        # == rather than is: bound methods are rebuilt on every attribute access.
        if self._values is not None and f is not self._f and f != self._f:
            raise ConfigError("sample cache already holds samples of a different integrand")
        before = self.eval_count
        if self._values is None:
            self._values = _eval_nodes(f, ChebGrid(self.base_n).nodes)
            self._f = f
        while self.finest_n < target:
            doubled = 2 * self.finest_n
            new = np.empty(doubled + 1)
            new[::2] = self._values
            new[1::2] = _eval_nodes(f, np.cos(ChebGrid(doubled).angles[1::2]))
            self._values = new
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
    may use one, at the sizes the cache serves.
    """
    if cache is not None:
        if rule.kind is not RuleKind.CLENSHAW_CURTIS:
            raise ConfigError("sample caches apply only to Clenshaw-Curtis rules")
        evals = cache.ensure(f, rule.n)
        values = cache.values_at(rule.n)
    else:
        values = _eval_nodes(f, rule.nodes)
        evals = rule.npoints
    approx = float(np.sum(rule.weights * values))
    return QuadratureResult(approx, rule.n, evals, rule.kind)


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

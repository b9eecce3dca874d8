"""Quadrature application: sampling, nested sample caches, aliasing.

:func:`integrate` applies a rule to fresh samples at its nodes.  The cache
stores integrand samples on nested Chebyshev-Lobatto grids so that
doubling the rule size only pays for the new odd-index nodes; its one
reader is :func:`singquad.accel.richardson`.  Either way a rule's value
is :meth:`QuadratureRule.apply`.  Every sample in the package is taken by
:meth:`Integrand.sample`: one call per batch of nodes for a vectorized
integrand, one call per node for anything else.  Rules, caches and the
CLI reach it through ``_eval_nodes``, which perfbench traces as
``engine.sample``; the tanh-sinh oracle and the scalar call ``f(x)`` call
it directly, so that span counts quadrature samples only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DomainError, InputError, IntegrandError, SizeError, _size
from .rules import QuadratureRule
from .singular import SingularityProfile
from .transform import ChebGrid, _as_floats

__all__ = [
    "Integrand",
    "SampleCache",
    "QuadratureResult",
    "integrate",
    "aliasing_error",
]


@dataclass(frozen=True)
class Integrand:
    """A callable on [-1, 1] bundled with its optional singularity profile.

    With ``vectorized=False`` (the default) ``eval`` maps one float to one
    float and is called node by node.  With ``vectorized=True`` ``eval``
    maps an ndarray of nodes to an ndarray of values of the same shape, and
    every batch of nodes costs one call.  ``f(x)`` is ``f.sample([x])[0]``
    as a Python float: the same path and the same finiteness check.
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
        return float(self.sample([x])[0])

    def sample(self, xs) -> np.ndarray:
        """Values at the nodes ``xs``: the one sampling routine.

        A vectorized integrand takes all nodes in one call; any other is
        called once per node, in node order, with a Python float, and not
        past its first non-finite value.  Either way the values land in a
        new float64 array that the caller owns.  The first non-finite value
        raises IntegrandError naming its node, and a value that does not
        convert to float raises InputError, as does any complex batch.
        """
        xs = np.asarray(xs, dtype=float)
        if not self.vectorized:
            fn, values = self.eval, []
            for x in xs.tolist():
                r = fn(x)
                try:
                    v = float(r)
                except (TypeError, ValueError, OverflowError):
                    msg = f"integrand returned {r!r} at node {x!r}, which does not convert to float"
                    raise InputError(msg) from None
                if not math.isfinite(v):
                    msg = f"integrand returned non-finite value {v!r} at node {x!r}"
                    raise IntegrandError(msg, node=x)
                values.append(v)
            return np.array(values)
        out = _as_floats(self.eval(xs))
        if out.shape != xs.shape:
            raise InputError(
                f"vectorized integrand returned shape {out.shape} for nodes of shape {xs.shape}"
            )
        finite = np.isfinite(out)
        if not finite.all():
            i = int(np.argmin(finite))
            v, x = float(out[i]), float(xs[i])
            raise IntegrandError(f"integrand returned non-finite value {v!r} at node {x!r}", node=x)
        return out


@dataclass(frozen=True)
class QuadratureResult:
    """One quadrature value and the evaluations it cost; the rule holds n and kind.

    ``evals_used`` is the rule's point count, n+1 (CC) or n (GL): every
    node is sampled afresh.
    """

    approx: float
    evals_used: int


def _eval_nodes(f, xs) -> np.ndarray:
    """Values of ``f``, an :class:`Integrand` or a plain callable, at ``xs``."""
    return (f if isinstance(f, Integrand) else Integrand(f)).sample(xs)


class SampleCache:
    """Nested Chebyshev-Lobatto samples of a single integrand.

    Holds f(cos(j*pi/N)) for the finest size N reached so far, where N is
    base_n times a power of two.  Any size n with N divisible by n is a
    stride view into the same array, so nested reads are index-exact for
    any base, odd or even, and never rely on floating-point node
    comparisons.  One size rule decides what the cache serves: any integer
    n >= 1 that divides the first doubling of N at or above n
    (:meth:`serves`); :meth:`ensure` and :meth:`values_at` raise SizeError
    for the rest.  The first ``ensure`` binds the cache to its integrand,
    and a later call with another raises ConfigError.  Stored samples are
    read-only, like rules, so a view from :meth:`values_at` cannot alter them.
    """

    def __init__(self, base_n: int):
        self.base_n = _size(base_n, 1, what="cache base size must be an integer")
        self._values: Optional[np.ndarray] = None
        self._f = None

    @property
    def finest_n(self) -> int:
        return self.base_n if self._values is None else len(self._values) - 1

    @property
    def eval_count(self) -> int:
        """Evaluations made so far: one per stored sample."""
        return 0 if self._values is None else len(self._values)

    def _target(self, n: int) -> tuple:
        """``n`` as an int and the finest size serving it needs; SizeError if the cache cannot."""
        n = _size(n, 1, what="a cached size must be an integer")
        target = self.finest_n
        while target < n:
            target *= 2
        if target % n:
            raise SizeError(f"size {n} does not divide a doubling of {self.finest_n}")
        return n, target

    def serves(self, n: int) -> bool:
        """Whether :meth:`ensure` can make size ``n`` available."""
        try:
            self._target(n)
        except SizeError:
            return False
        return True

    def ensure(self, f, n: int) -> int:
        """Make size ``n`` available; return the number of new evaluations."""
        _, target = self._target(n)
        # == rather than is: bound methods are rebuilt on every attribute access.
        if self._values is not None and f is not self._f and f != self._f:
            raise ConfigError("sample cache already holds samples of a different integrand")
        before = self.eval_count
        if self._values is None:
            values = _eval_nodes(f, ChebGrid(self.base_n).nodes)
            values.setflags(write=False)
            self._values, self._f = values, f
        while self.finest_n < target:
            doubled = 2 * self.finest_n
            new = np.empty(doubled + 1)
            new[::2] = self._values
            new[1::2] = _eval_nodes(f, np.cos(ChebGrid(doubled).angles[1::2]))
            new.setflags(write=False)  # as stored: a later doubling may raise
            self._values = new
        return self.eval_count - before

    def values_at(self, n: int) -> np.ndarray:
        """Read-only samples at size ``n``, a stride view; SizeError unless ensured."""
        n, target = self._target(n)
        if self._values is None or target > self.finest_n:
            raise SizeError(f"size {n} is not cached; call ensure(f, {n}) first")
        return self._values[:: target // n]


def integrate(rule: QuadratureRule, f) -> QuadratureResult:
    """Apply ``rule`` to fresh samples of ``f`` at its nodes."""
    return QuadratureResult(rule.apply(_eval_nodes(f, rule.nodes)), rule.npoints)


def aliasing_error(n: int, m: int) -> float:
    """Exact Clenshaw-Curtis error on the degree-m Chebyshev polynomial.

    Zero for odd m and for even m <= n.  For even m > n, write
    m = 2jn + 2r with j >= 1 and 1-n <= 2r <= n; the error is
    2/(1-m^2) - 2/(1-4r^2).
    """
    n = _size(n, 2, what="the aliasing identity needs an even integer n", even=True)
    m = _size(m, 0, DomainError, "the polynomial degree must be an integer")
    if m % 2 or m <= n:
        return 0.0
    q, t = divmod(m, 2 * n)
    if t <= n:
        j, two_r = q, t
    else:
        j, two_r = q + 1, t - 2 * n
    assert j >= 1 and -n < two_r <= n
    return 2.0 / (1.0 - float(m) ** 2) - 2.0 / (1.0 - float(two_r) ** 2)

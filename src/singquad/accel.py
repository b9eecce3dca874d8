"""Richardson extrapolation over nested Clenshaw-Curtis values and rate fits.

The extrapolation consumes an exponent ladder d_0 < d_1 < ...: level j+1
combines values at sizes n and 2n through
(2**(d_j+1) * R(j, 2n) - R(j, n)) / (2**(d_j+1) - 1), annihilating the
n**(-d_j-1) error term.  All base values come from one shared sample
cache, filled once to the finest size, so q levels on base size n cost
exactly 2**q * n + 1 evaluations.  :func:`richardson` is the one reader
of nested samples in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .engine import SampleCache
from .errors import ConfigError, InputError, InsufficientDataError, _size
from .rules import cc_rule_fast

__all__ = [
    "ExtrapolationTableau",
    "RateEstimate",
    "richardson",
    "extrapolate_rows",
    "fit_rate",
    "default_noise_floor",
]


def _check_ladder(ladder, q: int) -> tuple:
    """The ladder as a tuple, once it is known to serve q extrapolation levels.

    A ladder must hold at least q exponents, all finite, real, positive and
    strictly increasing; anything else raises ConfigError.
    """
    d = tuple(ladder)
    if len(d) < q:
        raise ConfigError(f"depth {q} needs a ladder of length >= {q}, got {len(d)}")
    try:
        finite = all(math.isfinite(v) for v in d)
    except TypeError:  # complex, str, None: not a real number
        finite = False
    if not finite:
        raise ConfigError(f"ladder exponents must be finite and real, got {d}")
    if not all(hi > lo for lo, hi in zip(d, d[1:])):
        raise ConfigError(f"ladder exponents must increase strictly, got {d}")
    if d and d[0] <= 0:
        raise ConfigError(f"ladder exponents must be positive, got {d}")
    return d


def extrapolate_rows(row0: Sequence[float], ladder) -> list:
    """Fill the extrapolation triangle from its first row.

    ``row0`` holds values at sizes n, 2n, ..., 2**q * n; row j+1 entry k is
    (2**(d_j+1) * rows[j][k+1] - rows[j][k]) / (2**(d_j+1) - 1).
    """
    q = len(row0) - 1
    ladder = _check_ladder(ladder, q)
    rows = [list(float(v) for v in row0)]
    for j in range(q):
        fac = 2.0 ** (float(ladder[j]) + 1.0)
        prev = rows[-1]
        rows.append([(fac * prev[k + 1] - prev[k]) / (fac - 1.0) for k in range(len(prev) - 1)])
    return rows


@dataclass(frozen=True)
class ExtrapolationTableau:
    """Triangular array of extrapolated quadrature values.

    ``rows[j][k]`` holds R(j, 2**k * base_n); ``rows[0]`` are the raw
    Clenshaw-Curtis values and ``rows[q][0]`` is the final accelerated
    value.  Entries are recomputable bit-for-bit from row 0 and the
    caller's ladder via :func:`extrapolate_rows`.
    """

    base_n: int
    q: int
    rows: tuple
    evals_used: int = field(compare=False, default=0)

    @property
    def value(self) -> float:
        return self.rows[self.q][0]

    def entry(self, j: int, k: int) -> float:
        return self.rows[j][k]


def richardson(
    f,
    base_n: int,
    q: int,
    ladder,
    cache: Optional[SampleCache] = None,
) -> ExtrapolationTableau:
    """Run q extrapolation levels above Clenshaw-Curtis at sizes base_n..2**q*base_n.

    Depth 0 is plain Clenshaw-Curtis at any base_n >= 1 (an empty ladder
    will do); for q >= 1 base_n must be even, as the error expansion holds
    along even sizes, and the ladder must hold at least q finite, positive,
    strictly increasing exponents.  Both are checked before any rule or
    sample.  All q+1 rules are built before the cache (a fresh one on
    ``base_n`` unless passed in) is filled, once, to 2**q * base_n: a rule
    that cannot be built costs no evaluation, a cache that cannot serve that
    size raises SizeError naming it, and ``evals_used`` counts the fill.
    """
    q = _size(q, 0, ConfigError, "extrapolation depth must be an integer")
    what = "extrapolation needs an even base size" if q else "base size must be an integer"
    base_n = _size(base_n, 2 if q else 1, what=what, even=q > 0)
    ladder = _check_ladder(ladder, q)
    if cache is None:
        cache = SampleCache(base_n)
    rules = [cc_rule_fast(base_n * 2**k) for k in range(q + 1)]
    evals = cache.ensure(f, rules[-1].n)
    row0 = [rule.apply(cache.values_at(rule.n)) for rule in rules]
    rows = extrapolate_rows(row0, ladder)
    return ExtrapolationTableau(base_n, q, tuple(tuple(r) for r in rows), evals)


@dataclass(frozen=True)
class RateEstimate:
    """Fitted decay exponent p in |error| ~ C * n**(-p).

    ``window`` holds the (n, error) pairs actually fitted; ``discarded``
    the pairs dropped for sitting at or below the noise floor.
    """

    slope: float
    window: tuple
    discarded: tuple


def default_noise_floor(reference: float = 0.0) -> float:
    """Error magnitude below which points are treated as rounding noise."""
    return 100.0 * float(np.finfo(float).eps) * (1.0 + abs(reference))


def fit_rate(errors, noise_floor: Optional[float] = None) -> RateEstimate:
    """Least-squares slope of log|error| against log n.

    ``errors`` is an iterable of (n, error) pairs with an integral n >= 1
    and a finite real error, else InputError; pairs with |error| at or below the
    noise floor are discarded, and at least three distinct sizes must survive.
    """
    if noise_floor is None:
        noise_floor = default_noise_floor()
    window = []
    discarded = []
    for n, err in errors:
        try:
            finite = math.isfinite(err)
        except TypeError:  # complex, str, None: not a real number
            finite = False
        if not finite:
            raise InputError(f"rate fit needs a finite real error, got {(n, err)!r}")
        n = _size(n, 1, InputError, "rate fit needs an integer n", got=(n, err))
        (window if abs(err) > noise_floor else discarded).append((n, float(err)))
    if len({n for n, _ in window}) < 3:
        raise InsufficientDataError(
            f"rate fit needs >= 3 points above the noise floor, got {len(window)}"
        )
    log_n = np.array([math.log(n) for n, _ in window])
    log_e = np.array([math.log(abs(err)) for _, err in window])
    slope = np.polyfit(log_n, log_e, 1)[0]
    return RateEstimate(slope=-float(slope), window=tuple(window), discarded=tuple(discarded))

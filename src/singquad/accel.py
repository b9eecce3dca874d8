"""Richardson extrapolation over nested Clenshaw-Curtis values, interior-point
splitting, and rate fits.

The extrapolation consumes an exponent ladder d_0 < d_1 < ...: level j+1
combines values at sizes n and 2n through
(2**(d_j+1) * R(j, 2n) - R(j, n)) / (2**(d_j+1) - 1), annihilating the
n**(-d_j-1) error term.  All base values come from one shared sample
cache, so q levels on base size n cost exactly 2**q * n + 1 evaluations.
Splitting at an interior kink maps each half onto [-1, 1] and runs the same
extrapolation there, at depth 0 (plain Clenshaw-Curtis) or above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .engine import Integrand, SampleCache, integrate
from .errors import ConfigError, DomainError, InputError, InsufficientDataError
from .rules import cc_rule_fast
from .singular import ExponentLadder, SingularityProfile, exponent_ladder

__all__ = [
    "ExtrapolationTableau",
    "RateEstimate",
    "richardson",
    "extrapolate_rows",
    "integrate_split",
    "fit_rate",
    "default_noise_floor",
]


def extrapolate_rows(row0: Sequence[float], ladder) -> list:
    """Fill the extrapolation triangle from its first row.

    ``row0`` holds values at sizes n, 2n, ..., 2**q * n; row j+1 entry k is
    (2**(d_j+1) * rows[j][k+1] - rows[j][k]) / (2**(d_j+1) - 1).
    """
    q = len(row0) - 1
    if q > len(ladder):
        raise ConfigError(f"{q} extrapolation levels need a ladder of length >= {q}")
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
    ladder via :func:`extrapolate_rows`.
    """

    base_n: int
    q: int
    ladder: ExponentLadder
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
    ladder: ExponentLadder,
    cache: Optional[SampleCache] = None,
) -> ExtrapolationTableau:
    """Run q extrapolation levels above Clenshaw-Curtis at sizes base_n..2**q*base_n.

    The ladder must supply at least q exponents; depth 0 is plain
    Clenshaw-Curtis, for which an empty ladder will do.  A fresh cache on
    ``base_n`` is created unless one is passed in; the cache decides which
    sizes it serves and raises SizeError for the rest.
    """
    if q < 0:
        raise ConfigError(f"extrapolation depth must be >= 0, got {q}")
    if len(ladder) < q:
        raise ConfigError(f"depth {q} needs a ladder of length >= {q}, got {len(ladder)}")
    if cache is None:
        cache = SampleCache(base_n)
    evals = 0
    row0 = []
    for k in range(q + 1):
        result = integrate(cc_rule_fast(base_n * 2**k), f, cache)
        row0.append(result.approx)
        evals += result.evals_used
    rows = extrapolate_rows(row0, ladder)
    return ExtrapolationTableau(
        base_n=base_n,
        q=q,
        ladder=ladder,
        rows=tuple(tuple(r) for r in rows),
        evals_used=evals,
    )


def integrate_split(f, x0: float, n: int, q: int = 0, profiles=None) -> float:
    """Integrate over [-1, 1] split at an interior kink x0.

    Each half is mapped affinely onto [-1, 1] as an Integrand that samples
    in batches when ``f`` is a vectorized Integrand.  Depth q = 0 applies the
    (n+1)-point Clenshaw-Curtis rule to each half and ignores ``profiles``;
    q >= 1 runs q extrapolation levels from base size n on each half and
    needs one singularity profile per half (left, right), describing the
    mapped integrand on that half; anything else there raises ConfigError.
    """
    if not -1.0 < x0 < 1.0:
        raise DomainError(f"split point must lie strictly inside (-1, 1), got {x0}")
    pair = isinstance(profiles, (tuple, list)) and len(profiles) == 2
    if q != 0 and not (pair and all(isinstance(p, SingularityProfile) for p in profiles)):
        raise ConfigError(
            f"a split at depth q={q} needs (left, right) singularity profiles, got {profiles!r}"
        )
    parent = f if isinstance(f, Integrand) else Integrand(f)
    p_left, p_right = profiles if q else (None, None)
    halves = (
        ((x0 + 1.0) / 2.0, (x0 - 1.0) / 2.0, p_left),
        ((1.0 - x0) / 2.0, (x0 + 1.0) / 2.0, p_right),
    )
    total = 0.0
    for jac, shift, profile in halves:
        half = Integrand(
            lambda u, jac=jac, shift=shift: parent.eval(jac * u + shift),
            vectorized=parent.vectorized,
        )
        if q == 0:
            value = integrate(cc_rule_fast(n), half).approx
        else:
            value = richardson(half, n, q, exponent_ladder(profile, q)).value
        total += jac * value
    return total


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

    ``errors`` is an iterable of (n, error) pairs with n >= 1 and a finite
    error, else InputError; pairs with |error| at or below the noise floor
    are discarded, and at least three distinct sizes must survive.
    """
    if noise_floor is None:
        noise_floor = default_noise_floor()
    window = []
    discarded = []
    for n, err in errors:
        if not (n >= 1 and math.isfinite(err)):
            raise InputError(f"rate fit needs n >= 1 and a finite error, got {(n, err)!r}")
        if abs(err) > noise_floor:
            window.append((int(n), float(err)))
        else:
            discarded.append((int(n), float(err)))
    if len({n for n, _ in window}) < 3:
        raise InsufficientDataError(
            f"rate fit needs >= 3 points above the noise floor, got {len(window)}"
        )
    log_n = np.array([math.log(n) for n, _ in window])
    log_e = np.array([math.log(abs(err)) for _, err in window])
    slope = np.polyfit(log_n, log_e, 1)[0]
    return RateEstimate(slope=-float(slope), window=tuple(window), discarded=tuple(discarded))

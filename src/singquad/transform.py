"""Chebyshev-Lobatto grids, the DCT-I, Chebyshev coefficient transforms, and
barycentric evaluation on the grid (Berrut & Trefethen 2004; Higham 2004)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, _size

__all__ = [
    "ChebGrid",
    "ChebCoeffs",
    "dct1",
    "cheb_coeffs",
    "cheb_eval",
]

# Points per cheb_eval block are chosen so that the points-by-nodes work
# array holds at most this many elements (128 KB), whatever the degree.
_BLOCK_ELEMENTS = 16384


class ChebGrid:
    """Chebyshev-Lobatto angles theta_j = j*pi/n for j = 0..n.

    The corresponding quadrature nodes cos(theta_j) run decreasing from
    +1 to -1.  Grids built with linspace stay nested bit-exactly under
    doubling: angle j/n coincides with angle 2j/(2n).
    """

    __slots__ = ("n", "angles")

    def __init__(self, n: int):
        self.n = _size(n, 1, what="grid size must be an integer")
        self.angles = np.linspace(0.0, np.pi, self.n + 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.cos(self.angles)


@dataclass(frozen=True)
class ChebCoeffs:
    """Chebyshev coefficients a_0..a_n in the halved-ends convention."""

    coeffs: np.ndarray


def dct1(values) -> np.ndarray:
    """Type-I discrete cosine transform with halved end terms.

    Computes c_k = sum''_{j=0}^{n} v_j cos(j*k*pi/n) for k = 0..n, where
    the double prime halves the j = 0 and j = n terms, in O(n log n)
    operations.

    Parameters
    ----------
    values : array_like
        The n + 1 real samples v_0..v_n, for any n >= 1.

    Returns
    -------
    numpy.ndarray
        The n + 1 transform values c_0..c_n.

    Raises
    ------
    InputError
        If fewer than two values are given or any sample is not finite.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise InputError(f"expected a 1-d array of at least 2 values, got shape {v.shape}")
    if not np.isfinite(v).all():
        bad = int(np.flatnonzero(~np.isfinite(v))[0])
        raise InputError(f"non-finite sample at index {bad}")
    # The even extension [v_0..v_n, v_{n-1}..v_1] of length 2n turns the
    # DCT-I into one real FFT: Re rfft(ext)_k = 2 c_k.
    ext = np.concatenate([v, v[-2:0:-1]])
    return np.fft.rfft(ext).real / 2.0


def cheb_coeffs(samples) -> ChebCoeffs:
    """Chebyshev interpolation coefficients from Lobatto-grid samples.

    Given samples_j = f(cos(j*pi/n)), returns coefficients a_k = (2/n) c_k
    such that f ~ a_0/2 + sum_{k=1}^{n-1} a_k T_k + a_n T_n / 2, for any
    n >= 1.  Exact (up to round-off) for polynomials of degree <= n.
    """
    c = dct1(samples)
    n = c.size - 1
    return ChebCoeffs(coeffs=(2.0 / n) * c)


def cheb_eval(coeffs, x):
    """Evaluate a halved-ends Chebyshev sum by the barycentric formula.

    The values v = dct1(a) on the Lobatto grid x_j = cos(j*pi/n) give
    p(x) = sum_j w_j v_j / (x - x_j) / sum_j w_j / (x - x_j), with
    w_j = (-1)^j halved at j = 0 and j = n: the second-kind formula
    (Berrut & Trefethen, SIAM Review 46(3), 2004), forward stable on
    these points (Higham, IMA J. Numer. Anal. 24, 2004).  A point equal
    to a node returns that node's value.  Points run in blocks of bounded
    size, and a point's value does not depend on its block.

    Parameters
    ----------
    coeffs : ChebCoeffs or array_like
        Coefficients a_0..a_n in the halved-ends convention.
    x : float or array_like
        Evaluation points with |x| <= 1.

    Returns
    -------
    float or numpy.ndarray
        The sum a_0/2 + sum_{k=1}^{n-1} a_k T_k(x) + a_n T_n(x) / 2,
        scalar for scalar x and of x's shape otherwise.

    Raises
    ------
    InputError
        If the coefficient array is empty or a coefficient is not finite.
    DomainError
        If any point lies outside [-1, 1] or is NaN.
    """
    a = np.asarray(coeffs.coeffs if isinstance(coeffs, ChebCoeffs) else coeffs, dtype=float)
    if a.size == 0:
        raise InputError("cheb_eval needs at least one coefficient, got an empty coefficient array")
    if not np.isfinite(a).all():
        bad = int(np.flatnonzero(~np.isfinite(a))[0])
        raise InputError(f"non-finite coefficient at index {bad}")
    xv = np.asarray(x, dtype=float)
    # Phrased so that NaN fails the test as well.
    if not np.all(np.abs(xv) <= 1.0):
        raise DomainError("cheb_eval requires |x| <= 1")
    n = a.size - 1
    if n == 0:  # a_0 is both end terms and is halved once
        out = np.full(xv.shape, 0.5 * a[0])
    else:
        out = _barycentric(dct1(a), ChebGrid(n).nodes, xv.ravel()).reshape(xv.shape)
    return float(out) if xv.ndim == 0 else out


def _barycentric(values, nodes, points):
    weights = np.resize([1.0, -1.0], nodes.size)
    weights[[0, -1]] *= 0.5
    out = np.empty(points.size)
    rows = max(1, _BLOCK_ELEMENTS // nodes.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, points.size, rows):
            block = points[start : start + rows]
            d = np.subtract.outer(block, nodes)
            np.divide(weights, d, out=d)
            denom = d.sum(axis=1)
            d *= values
            res = d.sum(axis=1) / denom
            # A point equal to a node divides by zero there and gives NaN.
            hit = np.isnan(res)
            if hit.any():
                res[hit] = values[(block[hit, None] == nodes).argmax(axis=1)]
            out[start : start + rows] = res
    return out

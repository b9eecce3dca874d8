"""Independent oracles shared by the test modules.

Everything here is test-side reference machinery: slow direct sums,
extended-precision transforms, finite differences, and image-sum
closures.  Production code must never import from this file.
"""

import math

import numpy as np
from scipy.special import zeta as hurwitz_zeta

from singquad.bench import tanh_sinh
from singquad.singular import coeff_asymptote
from singquad.transform import ChebGrid, cheb_coeffs

# pi to longdouble precision; np.longdouble(np.pi) would inherit the
# 64-bit rounding of math.pi and cap the reference accuracy near 2e-13.
PI_LONG = np.longdouble("3.141592653589793238462643383279502884")


def supported_sizes(limit, minimum=1):
    """All transform sizes m * 2**k (m in {1, 3, 5}) within [minimum, limit]."""
    out = set()
    for m in (1, 3, 5):
        n = m
        while n <= limit:
            if n >= minimum:
                out.add(n)
            n *= 2
    return sorted(out)


def gl_rule_recurrence(n):
    """Gauss-Legendre (nodes, weights) by O(n^2) Newton on the three-term recurrence.

    Nodes are the roots of P_n found by Newton's method from the Chebyshev
    roots cos((2i+1)pi/(2n)), with w_i = 2 / ((1 - x_i^2) P_n'(x_i)^2),
    symmetrized and stored increasing.  An oracle independent of the
    construction in singquad.rules; the recurrence's rounding leaves its
    weights up to about 1e-11 relative off (8.2e-12 at n = 1000).
    """

    def legendre_pair(x):
        p_prev, p = np.ones_like(x), x.copy()
        for k in range(2, n + 1):
            p, p_prev = ((2.0 * k - 1.0) * x * p - (k - 1.0) * p_prev) / k, p
        return p, p_prev

    i = np.arange(n)
    x = -np.cos((2.0 * i + 1.0) * np.pi / (2.0 * n))
    for _ in range(100):
        p, p_prev = legendre_pair(x)
        dx = p / (n * (x * p - p_prev) / (x * x - 1.0))
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:
        raise AssertionError(f"recurrence Newton did not converge for n={n}")
    p, p_prev = legendre_pair(x)
    deriv = n * (x * p - p_prev) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * deriv * deriv)
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


def dct1_direct_longdouble(values):
    """O(n^2) halved-ends DCT-I reference, computed in extended precision.

    A float64 direct sum carries round-off near 8e-13 of the data scale
    at n = 4096, which would swamp the 1e-13 agreement bound it is meant
    to referee.  Tests may use extended precision; the package may not.
    cos(j*k*pi/n) depends only on j*k mod 2n, so one table of 2n cosines,
    gathered by that index, serves every term and reduces each argument
    exactly.
    """
    v = np.asarray(values, dtype=np.longdouble).copy()
    n = v.size - 1
    v[0] *= 0.5
    v[-1] *= 0.5
    table = np.cos(np.arange(2 * n, dtype=np.longdouble) * (PI_LONG / n))
    j = np.arange(n + 1)
    out = np.empty(n + 1, dtype=np.longdouble)
    step = 256  # keeps the gathered longdouble block under ~20 MB
    for start in range(0, n + 1, step):
        k = j[start : start + step, None]
        out[start : start + step] = table[(k * j) % (2 * n)] @ v
    return out


def sample_on_grid(fn, n):
    """Samples of a scalar callable on the n+1 Chebyshev-Lobatto nodes."""
    return np.array([fn(x) for x in ChebGrid(n).nodes])


def dct_coeff(fn, k, resolution):
    """Chebyshev coefficient a_k of fn computed at the given grid resolution."""
    return cheb_coeffs(sample_on_grid(fn, resolution)).coeffs[k]


def alias_closed_prediction(profile, k, big_n, images=20000):
    """Asymptote value at index k, folded with its DCT aliasing images.

    A resolution-big_n transform adds the true coefficients at indices
    2*big_n*j +/- k onto index k.  All image indices share k's parity,
    so per-term signs factor out: each pure power p folds into the
    closed pair of Hurwitz zeta values, while log-bearing terms use a
    direct image sum with an integral tail correction.
    """
    total = 0.0
    for term in coeff_asymptote(profile).terms:
        base = term.at(k)
        if base == 0.0:
            continue
        p = term.exponent
        kappa = k / (2.0 * big_n)
        if not term.log_n_factor:
            fold = kappa**p * (hurwitz_zeta(p, 1.0 - kappa) + hurwitz_zeta(p, 1.0 + kappa))
            total += base * (1.0 + fold)
        else:
            signed_amp = base / (k ** (-p) * math.log(k))
            j = np.arange(1.0, images + 1.0)
            lo = 2.0 * big_n * j - k
            hi = 2.0 * big_n * j + k
            image_sum = float(np.sum(lo ** (-p) * np.log(lo) + hi ** (-p) * np.log(hi)))
            cut = 2.0 * big_n * (images + 0.5)
            tail = 2.0 * (
                math.log(cut) / ((p - 1.0) * cut ** (p - 1.0))
                + 1.0 / ((p - 1.0) ** 2 * cut ** (p - 1.0))
            )
            total += base + signed_amp * (image_sum + tail)
    return total


def psi_hat(profile, g, t):
    """Right-endpoint transformed kernel, algebraic factors only."""
    x = math.cos(t)
    return (
        (1.0 - x) ** profile.alpha
        * (1.0 + x) ** profile.beta
        * g(x)
        / (t ** (2.0 * profile.alpha) * 2.0 ** (profile.alpha + profile.beta))
    )


def phi_hat(profile, g, t):
    """Left-endpoint transformed kernel, algebraic factors only."""
    x = math.cos(t)
    return (
        (1.0 - x) ** profile.alpha
        * (1.0 + x) ** profile.beta
        * g(x)
        / ((math.pi - t) ** (2.0 * profile.beta) * 2.0 ** (profile.alpha + profile.beta))
    )


def fd_second_derivative(F, F0, h=1e-2):
    """Second derivative at 0 of an even function, two-stage elimination.

    F must be even about 0 with F(0) = F0.  The residual after both
    elimination stages is O(h^4), about 1e-8 relative at h = 1e-2.
    """

    def d(s):
        return 2.0 * (F(s) - F0) / (s * s)

    def e(s):
        return 2.0 * d(s / 2.0) - d(s)

    return (4.0 * e(h / 2.0) - e(h)) / 3.0


def split_reference(f, x0, tol=1e-12):
    """Two-piece reference integral, each half through its affine map."""
    jl = (x0 + 1.0) / 2.0
    jr = (1.0 - x0) / 2.0
    left = tanh_sinh(lambda u: f(-1.0 + jl * (u + 1.0)), tol)
    right = tanh_sinh(lambda u: f(x0 + jr * (u + 1.0)), tol)
    return jl * left + jr * right

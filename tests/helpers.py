"""Independent oracles shared by the test modules.

Everything here is test-side reference machinery: slow direct sums,
extended-precision transforms, finite differences, image-sum closures,
and the exact endpoint-sum identities and auxiliary endpoint values of
the paper's proofs.  Production code must never import from this file.
"""

import math
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np
from scipy.special import zeta as hurwitz_zeta

from singquad.errors import SizeError
from singquad.rules import QuadratureRule
from singquad.singular import coeff_asymptote
from singquad.transform import ChebGrid, cheb_coeffs

# pi to longdouble precision; np.longdouble(np.pi) would inherit the
# 64-bit rounding of math.pi and cap the reference accuracy near 2e-13.
PI_LONG = np.longdouble("3.141592653589793238462643383279502884")


# Sizes that are not m * 2**k with m in {1, 3, 5}, odd and even, up to 2**12 + 1.
OTHER_SIZES = (7, 28, 97, 1000, 2047, 4097)


def supported_sizes(limit, minimum=1):
    """The sweep sizes m * 2**k (m in {1, 3, 5}) within [minimum, limit]."""
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


def cc_rule_direct(n):
    """Clenshaw-Curtis rule by direct O(n^2) evaluation of the weight formula.

    w_j = (4 delta_j / n) * sum_{k=0}^{floor(n/2)} delta_{2k} cos(2jk*pi/n) / (1 - 4k^2),
    where delta halves the terms at the ends of its index range (j in
    {0, n}; 2k in {0, n}).  An oracle independent of the DCT construction
    of singquad.rules.cc_rule_fast.
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
    return QuadratureRule("cc", n, ChebGrid(n).nodes, w)


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


# The corpus integrands in scalar ``math`` form, as singquad.bench defined
# them before they moved to numpy: the reference for the numpy forms.


def f1a_math(x):
    return (1.0 - x) ** 0.5 * math.exp(x)


def f1b_math(x):
    return (1.0 - x) ** 0.75 * (1.0 + x) ** 0.25 * math.exp(x)


def f2a_math(x):
    s = 1.0 - x
    if s <= 0.0:
        return 0.0  # continuous limit of s*log(s) at the right endpoint
    return s * math.log(s) * math.cos(x + 1.0)


def f2b_math(x):
    s = 1.0 - x
    if s <= 0.0:
        return 0.0
    return s * math.log(s) * (1.0 + x) ** 0.5 * math.cos(x + 1.0)


def f3a_math(x):
    return math.acos(x * x)


def f3b_math(x):
    return math.acos(x**6)


CORPUS_MATH = {
    "F1a": f1a_math,
    "F1b": f1b_math,
    "F2a": f2a_math,
    "F2b": f2b_math,
    "F3a": f3a_math,
    "F3b": f3b_math,
}


def tanh_sinh_abscissae(level):
    """Every abscissa tanh((pi/2) sinh t) at t = k * 2**-level, |t| <= 4.5, below 1 in size."""
    h = 2.0**-level
    out = []
    for k in range(-int(4.5 / h), int(4.5 / h) + 1):
        x = math.tanh(math.pi / 2.0 * math.sinh(k * h))
        if abs(x) < 1.0:
            out.append(x)
    return np.array(out)


def sample_on_grid(fn, n):
    """Samples of a scalar callable on the n+1 Chebyshev-Lobatto nodes."""
    return np.array([fn(x) for x in ChebGrid(n).nodes])


def dct_coeff(fn, k, resolution):
    """Chebyshev coefficient a_k of fn computed at the given grid resolution."""
    return cheb_coeffs(sample_on_grid(fn, resolution)).coeffs[k]


def alias_closed_prediction(profile, k, big_n):
    """Asymptote value at index k, folded with its DCT aliasing images.

    A resolution-big_n transform adds the true coefficients at indices
    2*big_n*j +/- k onto index k.  All image indices share k's parity,
    so per-term signs factor out: each pure power p folds into the
    closed pair of Hurwitz zeta values.
    """
    total = 0.0
    for amplitude, p, alternating in coeff_asymptote(profile):
        base = amplitude * float(k) ** (-p)
        if alternating and k % 2 == 0:
            base = -base
        kappa = k / (2.0 * big_n)
        fold = kappa**p * (hurwitz_zeta(p, 1.0 - kappa) + hurwitz_zeta(p, 1.0 + kappa))
        total += base * (1.0 + fold)
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


# Endpoint values of the auxiliary functions psi_hat and phi_hat above, in
# closed form: the terms of the paper's asymptotic error expansion.


def hatpsi0(p) -> float:
    """Value of the right-endpoint auxiliary function at angle 0: g(1)/2**(2*alpha)."""
    return p.g_at_1 / 2.0 ** (2.0 * p.alpha)


def hatphi_pi(p) -> float:
    """Value of the left-endpoint auxiliary function at angle pi: g(-1)/2**(2*beta)."""
    return p.g_at_minus1 / 2.0 ** (2.0 * p.beta)


def hatpsi2_0(p) -> float:
    """Second derivative of the right-endpoint auxiliary function at angle 0."""
    a, b = p.alpha, p.beta
    return -p.g_at_1 / 2.0 ** (2.0 * a + 1.0) * (a / 3.0 + b) - p.g_prime_at_1 / 2.0 ** (2.0 * a)


def hatphi2_pi(p) -> float:
    """Second derivative of the left-endpoint auxiliary function at angle pi."""
    a, b = p.alpha, p.beta
    return -p.g_at_minus1 / 2.0 ** (2.0 * b + 1.0) * (a + b / 3.0) + p.g_prime_at_minus1 / 2.0 ** (
        2.0 * b
    )


# Exact rational machinery of the paper's rate proof: Bernoulli numbers,
# Faulhaber sums and H(n, k) = sum r**(2k) / (4r**2 - 1), by recurrence
# and by closed form.

_BERNOULLI_MAX = 16


@lru_cache(maxsize=None)
def _bernoulli_table(limit: int) -> tuple:
    # standard recurrence: sum_{j=0}^{m} C(m+1, j) B_j = 0, so B_1 = -1/2
    table = [Fraction(1)]
    for m in range(1, limit + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += comb(m + 1, j) * table[j]
        table.append(-acc / comb(m + 1, m))
    return tuple(table)


def bernoulli(k: int) -> Fraction:
    """Exact k-th Bernoulli number for 0 <= k <= 16 (B_1 = -1/2)."""
    if not 0 <= k <= _BERNOULLI_MAX:
        raise ValueError(f"Bernoulli numbers supported for 0 <= k <= {_BERNOULLI_MAX}, got {k}")
    return _bernoulli_table(_BERNOULLI_MAX)[k]


_K_MAX = 8


def _check_nk(n: int, k: int) -> None:
    if not 1 <= k <= _K_MAX:
        raise ValueError(f"supported power range is 1 <= k <= {_K_MAX}, got {k}")
    if n < 1:
        raise ValueError(f"summation length must be >= 1, got {n}")


def faulhaber_sum(n: int, k: int) -> Fraction:
    """Exact S(n, k) = sum_{r=1}^{n} r**(2k).

    Evaluated through the closed form
    n**(2k+1)/(2k+1) + n**(2k)/2
    + sum_{j=1}^{k} (2k)! B_{2j} / ((2j)! (2k-2j+1)!) * n**(2k-2j+1).
    """
    _check_nk(n, k)
    total = Fraction(n ** (2 * k + 1), 2 * k + 1) + Fraction(n ** (2 * k), 2)
    for j in range(1, k + 1):
        coeff = Fraction(factorial(2 * k)) * bernoulli(2 * j)
        coeff /= factorial(2 * j) * factorial(2 * k - 2 * j + 1)
        total += coeff * n ** (2 * k - 2 * j + 1)
    return total


def lemma_H(n: int, k: int) -> Fraction:
    """Exact H(n, k) = sum_{r=1}^{n} r**(2k) / (4r**2 - 1), by recurrence.

    Seeded with H(n, 1) = n(n+1)/(2(2n+1)) and advanced through
    H(n, j+1) = (H(n, j) + S(n, j)) / 4.
    """
    _check_nk(n, k)
    h = Fraction(n * (n + 1), 2 * (2 * n + 1))
    for j in range(1, k):
        h = (h + faulhaber_sum(n, j)) / 4
    return h


def _nu(j: int, k: int) -> Fraction:
    """Coefficient of n**(2k-j) in the closed form of H(n, k)."""
    if j % 2 == 0:
        t = j // 2
        return Fraction(1, 2 ** (2 * t + 1))
    if j == 2 * k - 1:
        return sum(
            (bernoulli(2 * k - 2 * p) / 4**p for p in range(1, k)),
            start=Fraction(0),
        )
    t = (j - 1) // 2  # 0 <= t <= k - 2
    acc = Fraction(0)
    for p in range(1, t + 2):
        acc += Fraction(factorial(2 * k - 2 * p), factorial(2 * t - 2 * p + 2)) * (
            bernoulli(2 * t - 2 * p + 2) / 4**p
        )
    return acc / factorial(2 * k - 2 * t - 1)


def lemma_H_closed(n: int, k: int) -> Fraction:
    """Exact H(n, k) through the closed form: independent of :func:`lemma_H`.

    H(n, k) = n(n+1) / (4**(k-1) * 2(2n+1)) + sum_{j=1}^{2k-1} nu_j^k n**(2k-j),
    with the nu coefficients built from Bernoulli numbers.  Must agree
    exactly with the recurrence path; criterion 03 enforces this.
    """
    _check_nk(n, k)
    h = Fraction(n * (n + 1), 2 * (2 * n + 1)) / 4 ** (k - 1)
    for j in range(1, 2 * k):
        h += _nu(j, k) * n ** (2 * k - j)
    return h


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

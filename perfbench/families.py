"""Seeded integrand families and the `solve` and `coeffs` jobs built on them.

Every generated input is a :class:`Spec` of plain numbers drawn from a
``random.Random`` seeded by the workload seed, so the same seed always
yields the same job stream.  The integrands are

    f(x) = (1-x)^alpha (1+x)^beta g(x)            or
    f(x) = (1-x)^alpha log(1-x) (1+x)^beta g(x)   (alpha in {1, 2}),

with g one of 1, exp(c x), cos(c x + d) and 1/(1 + c x), all positive and
analytic on [-1, 1].  Each integrand carries its full singularity profile,
including g and g' at both endpoints.

The job functions call singquad through module attributes
(``accel.richardson``, ``transform.cheb_eval``, ...) so that the span
recorder in ``spans.py`` sees every call when it is installed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from singquad import accel, bench, engine, singular, transform
from singquad.errors import SingquadError

G_KINDS = ("one", "exp", "cos", "rational")

# solve: Richardson depth 2 on one shared cache, base n doubled from 8 until
# the a-posteriori estimate |R(2,0) - R(1,1)| <= SOLVE_RTOL * |R(2,0)| holds
# at SOLVE_CONSECUTIVE successive sizes.  One estimate alone can pass by
# accident where it changes sign between sizes: with log(1-x) factors this
# stopped about 1 job in 10 000 at errors near 2e-9.  Over 24 000 jobs of
# the ranges below the largest base reached was 1024 (twice; 512 for the
# rest), so the cap leaves a factor 2 of headroom; a job that needs more
# counts as failed.
SOLVE_DEPTH = 2
SOLVE_CONSECUTIVE = 2
SOLVE_RTOL = 1e-11
SOLVE_BASE_N = 8
SOLVE_MAX_BASE_N = 2048
# A converged value must lie within SOLVE_CHECK_FACTOR * SOLVE_RTOL of the
# tanh-sinh reference, relative to the reference.
SOLVE_CHECK_FACTOR = 100.0
# tanh-sinh reference against the Beta closed form (g = 1, no log factor).
CLOSED_FORM_RTOL = 1e-12

# coeffs: one Lobatto grid per job, tail window n/16..n/8 (even k only, so a
# weaker alternating branch cannot make |a_k| oscillate), 64 check points.
COEFF_SIZES = (256, 384, 512, 768, 1024, 1536, 2048)
COEFF_CHECK_POINTS = 64
# Committed expectations for every coeffs job:
#   |fitted slope - (2 alpha + 1)|          <= COEFF_SLOPE_TOL
#   max_k |a_k / predict_coeff(k) - 1|      <= COEFF_PREDICT_TOL
#   max |p_n(x) - f(x)| over check points  <= COEFF_INTERP_SCALE * 2^beta
#                                              * max(1, |g(1)|, |g(-1)|)
#                                              * n^(-2 alpha) (* log n with log)
#                                              + COEFF_INTERP_FLOOR
# Over 900 generated jobs (seeds 0-2) the largest values seen were 0.11,
# 0.11 and 0.24 * COEFF_INTERP_SCALE * ..., so each tolerance has a margin
# of at least 2 over them.
COEFF_SLOPE_TOL = 0.25
COEFF_PREDICT_TOL = 0.25
COEFF_INTERP_SCALE = 1.0
COEFF_INTERP_FLOOR = 1e-13


@dataclass(frozen=True)
class Spec:
    """One generated job input: an integrand family member and its sizes."""

    index: int
    family: str
    alpha: float
    beta: float
    log: bool
    g: str
    c: float
    d: float
    n: int = 0
    points: tuple = ()


def _nonint(rng: random.Random, lo: float, hi: float) -> float:
    # exponents at least 0.05 away from an integer keep both ladder
    # families well separated from the smooth case
    while True:
        v = rng.uniform(lo, hi)
        if abs(v - round(v)) >= 0.05:
            return v


def _g_params(rng: random.Random, g: str) -> tuple:
    if g == "exp":
        return rng.uniform(-1.0, 1.0), 0.0
    if g == "cos":
        return rng.uniform(0.3, 1.0), rng.uniform(-0.4, 0.4)
    if g == "rational":
        return rng.uniform(-0.6, 0.6), 0.0
    return 0.0, 0.0


def solve_specs(seed: int):
    """Endless deterministic stream of `solve` job inputs for ``seed``.

    Families and g kinds cycle in a fixed order (12 strata); only the
    continuous parameters are random.  "right": one non-integer exponent
    at x = 1.  "both": non-integer exponents at both ends, one in
    (0.1, 0.5) and the other in (0.75, 1.45).  "log": alpha in {1, 2} with
    log(1-x), beta 0 or in (0.85, 1.45).  Smaller exponents need base
    sizes near the cap (the log(1-x) terms are not on the power ladder).
    """
    rng = random.Random(f"solve:{seed}")
    i = 0
    while True:
        family = ("right", "both", "log")[i % 3]
        g = G_KINDS[(i // 3) % 4]
        if family == "right":
            alpha, beta, log = _nonint(rng, 0.05, 1.45), 0.0, False
        elif family == "both":
            small, large = rng.uniform(0.1, 0.5), _nonint(rng, 0.75, 1.45)
            alpha, beta = (small, large) if rng.random() < 0.5 else (large, small)
            log = False
        else:
            alpha = float(rng.choice((1, 2)))
            beta = 0.0 if rng.random() < 0.5 else _nonint(rng, 0.85, 1.45)
            log = True
        c, d = _g_params(rng, g)
        yield Spec(i, family, alpha, beta, log, g, c, d)
        i += 1


def coeffs_specs(seed: int):
    """Endless deterministic stream of `coeffs` job inputs for ``seed``.

    Grid sizes cycle through COEFF_SIZES and g kinds through G_KINDS, so
    every run sees the same size mix.  The x = 1 branch always dominates
    the coefficient tail: beta is 0 or exceeds alpha by more than 1.
    alpha stays below 1.5 (alpha = 1 with the log factor) so that the
    leading asymptote is already accurate at k = n/16 for n = 256.
    """
    rng = random.Random(f"coeffs:{seed}")
    i = 0
    while True:
        n = COEFF_SIZES[i % len(COEFF_SIZES)]
        g = G_KINDS[(i // len(COEFF_SIZES)) % 4]
        family = ("right", "both", "log")[(i // (4 * len(COEFF_SIZES))) % 3]
        if family == "log":
            alpha, log = 1.0, True
        else:
            alpha, log = _nonint(rng, 0.25, 1.45), False
        if family == "right" or (log and rng.random() < 0.5):
            beta = 0.0
        else:
            beta = _nonint(rng, alpha + 1.1, alpha + 1.4)
        c, d = _g_params(rng, g)
        points = tuple(rng.uniform(-1.0, 1.0) for _ in range(COEFF_CHECK_POINTS))
        yield Spec(i, family, alpha, beta, log, g, c, d, n, points)
        i += 1


def take(stream, count: int) -> list:
    return [next(stream) for _ in range(count)]


def _g_funcs(spec: Spec):
    c, d = spec.c, spec.d
    if spec.g == "exp":
        return (lambda x: math.exp(c * x)), (lambda x: c * math.exp(c * x))
    if spec.g == "cos":
        return (lambda x: math.cos(c * x + d)), (lambda x: -c * math.sin(c * x + d))
    if spec.g == "rational":
        return (lambda x: 1.0 / (1.0 + c * x)), (lambda x: -c / (1.0 + c * x) ** 2)
    return (lambda x: 1.0), (lambda x: 0.0)


def make_integrand(spec: Spec) -> engine.Integrand:
    """The scalar integrand of ``spec`` with its full singularity profile."""
    g, g_prime = _g_funcs(spec)
    alpha, beta = spec.alpha, spec.beta
    if spec.log:
        def f(x: float) -> float:
            s = 1.0 - x
            if s <= 0.0:
                return 0.0  # continuous limit of s^alpha log(s) at x = 1
            return s**alpha * math.log(s) * (1.0 + x) ** beta * g(x)
    else:
        def f(x: float) -> float:
            return (1.0 - x) ** alpha * (1.0 + x) ** beta * g(x)
    profile = singular.SingularityProfile(
        alpha=alpha,
        beta=beta,
        log_left=spec.log,
        g_at_1=g(1.0),
        g_at_minus1=g(-1.0),
        g_prime_at_1=g_prime(1.0),
        g_prime_at_minus1=g_prime(-1.0),
    )
    return engine.Integrand(f, profile, label=f"{spec.family}-{spec.g}-{spec.index}")


def beta_closed_form(spec: Spec) -> float | None:
    """2^(a+b+1) Gamma(a+1) Gamma(b+1) / Gamma(a+b+2) when g = 1 and no log."""
    if spec.g != "one" or spec.log:
        return None
    a, b = spec.alpha, spec.beta
    return 2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0) / math.gamma(a + b + 2.0)


# ---------------------------------------------------------------------------
# solve


@dataclass(frozen=True)
class SolveOutcome:
    value: float
    evals: int
    converged: bool


def solve_job(f) -> SolveOutcome:
    """Double base n until SOLVE_CONSECUTIVE depth-2 estimates meet SOLVE_RTOL."""
    ladder = singular.exponent_ladder(f.profile, SOLVE_DEPTH)
    cache = engine.SampleCache(SOLVE_BASE_N)
    n, evals, met = SOLVE_BASE_N, 0, 0
    while True:
        tableau = accel.richardson(f, n, SOLVE_DEPTH, ladder, cache)
        evals += tableau.evals_used
        estimate = abs(tableau.entry(SOLVE_DEPTH, 0) - tableau.entry(SOLVE_DEPTH - 1, 1))
        met = met + 1 if estimate <= SOLVE_RTOL * abs(tableau.value) else 0
        if met == SOLVE_CONSECUTIVE or n >= SOLVE_MAX_BASE_N:
            return SolveOutcome(tableau.value, evals, met == SOLVE_CONSECUTIVE)
        n *= 2


def check_solve(spec: Spec, outcome: SolveOutcome, ref: float) -> list:
    """Output-check failures of one solve job (empty when it passes)."""
    problems = []
    if not outcome.converged:
        problems.append(f"size cap {SOLVE_MAX_BASE_N} reached")
    tol = SOLVE_CHECK_FACTOR * SOLVE_RTOL * abs(ref)
    if abs(outcome.value - ref) > tol:
        problems.append(f"error {abs(outcome.value - ref):.3e} against tanh-sinh exceeds {tol:.3e}")
    closed = beta_closed_form(spec)
    if closed is not None:
        if abs(ref - closed) > CLOSED_FORM_RTOL * abs(closed):
            problems.append(f"tanh-sinh {ref!r} disagrees with Beta closed form {closed!r}")
        if abs(outcome.value - closed) > SOLVE_CHECK_FACTOR * SOLVE_RTOL * abs(closed):
            problems.append(f"value {outcome.value!r} disagrees with Beta closed form {closed!r}")
    return problems


# ---------------------------------------------------------------------------
# coeffs


@dataclass(frozen=True)
class CoeffsOutcome:
    evals: int
    measured: tuple
    predicted: tuple
    slope: float
    interpolated: tuple


def coeffs_job(spec: Spec, f) -> CoeffsOutcome:
    """Sample one grid, transform, predict the tail, fit its decay, evaluate."""
    n = spec.n
    cache = engine.SampleCache(n)
    evals = cache.ensure(f, n)
    a = transform.cheb_coeffs(cache.values_at(n)).coeffs
    window = tuple(range(n // 16, n // 8 + 1, 2))
    predicted = tuple(singular.predict_coeff(f.profile, k) for k in window)
    measured = tuple(float(a[k]) for k in window)
    rate = accel.fit_rate(zip(window, measured))
    interpolated = tuple(float(v) for v in transform.cheb_eval(a, spec.points))
    return CoeffsOutcome(evals, measured, predicted, rate.slope, interpolated)


def check_coeffs(spec: Spec, f, outcome: CoeffsOutcome) -> list:
    """Output-check failures of one coeffs job (empty when it passes)."""
    problems = []
    expected_slope = 2.0 * spec.alpha + 1.0
    if abs(outcome.slope - expected_slope) > COEFF_SLOPE_TOL:
        problems.append(f"fitted slope {outcome.slope:.4f}, expected {expected_slope:.4f}")
    mismatch = max(abs(m / p - 1.0) for m, p in zip(outcome.measured, outcome.predicted))
    if mismatch > COEFF_PREDICT_TOL:
        problems.append(f"coefficients differ from predict_coeff by {mismatch:.3f}")
    err = interpolation_error(spec, f, outcome)
    bound = interpolation_bound(spec, f)
    if err > bound:
        problems.append(f"interpolation error {err:.3e} exceeds {bound:.3e}")
    return problems


def interpolation_error(spec: Spec, f, outcome: CoeffsOutcome) -> float:
    return max(abs(p - f(x)) for x, p in zip(spec.points, outcome.interpolated))


def interpolation_bound(spec: Spec, f) -> float:
    p = f.profile
    g_scale = max(1.0, abs(p.g_at_1), abs(p.g_at_minus1))
    decay = spec.n ** (-2.0 * spec.alpha) * (math.log(spec.n) if spec.log else 1.0)
    return COEFF_INTERP_SCALE * 2.0**spec.beta * g_scale * decay + COEFF_INTERP_FLOOR


def run_checked(job, *args):
    """Run ``job``; return (outcome, error text) with SingquadError caught."""
    try:
        return job(*args), None
    except SingquadError as exc:
        return None, f"{type(exc).__name__}: {exc}"

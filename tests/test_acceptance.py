"""Acceptance suite: one test per numbered criterion, at stated tolerances.

Each test prints as its own pass/fail line under ``pytest -v``.  Measured
quantities are embedded in the assertion messages so a failure is
self-explanatory.
"""

import math
from fractions import Fraction
from time import perf_counter

import numpy as np
import pytest

from helpers import alias_closed_prediction, cc_rule_direct, dct_coeff, lemma_H, lemma_H_closed
from singquad.accel import (
    default_noise_floor,
    extrapolate_rows,
    fit_rate,
    richardson,
)
from singquad.bench import corpus_function, corpus_reference
from singquad.engine import SampleCache, aliasing_error, integrate
from singquad.errors import InsufficientDataError
from singquad.rules import cc_rule_fast, gl_rule
from singquad.singular import exponent_ladder
from singquad.transform import ChebGrid, cheb_coeffs, cheb_eval


def _monomial_errors(rule, max_degree):
    powers = np.arange(max_degree + 1)
    vander = rule.nodes[None, :] ** powers[:, None]
    approx = vander @ rule.weights
    exact = np.where(powers % 2 == 0, 2.0 / (powers + 1.0), 0.0)
    return np.abs(approx - exact)


def _cc_errors(fn_id, sizes):
    fn = corpus_function(fn_id)
    ref = corpus_reference(fn_id)
    cache = SampleCache(sizes[0])
    errors = []
    for n in sizes:
        result = integrate(cc_rule_fast(n), fn, cache)
        errors.append((n, ref - result.approx))
    return ref, errors


def _rq_errors(fn_id, q, bases):
    fn = corpus_function(fn_id)
    ref = corpus_reference(fn_id)
    ladder = exponent_ladder(fn.profile, q)
    cache = SampleCache(bases[0])
    errors = []
    for base in bases:
        tableau = richardson(fn, base, q, ladder, cache)
        errors.append((base, ref - tableau.value))
    return ref, errors


def _fitted(ref, errors):
    return fit_rate(errors, noise_floor=default_noise_floor(ref)).slope


def _sizes(lo, hi):
    return tuple(lo * 2**k for k in range((hi // lo).bit_length()))


def test_criterion_01_rule_exactness():
    start = perf_counter()
    for n in (1, 2, 4, 8, 16, 32, 64):
        worst = _monomial_errors(cc_rule_direct(n), n).max()
        assert worst <= 1e-12, f"CC n={n}: worst monomial error {worst:.3e}"
    for n in range(1, 33):
        worst = _monomial_errors(gl_rule(n), 2 * n - 1).max()
        assert worst <= 1e-11, f"GL n={n}: worst monomial error {worst:.3e}"
    elapsed = perf_counter() - start
    assert elapsed < 1.0, f"exactness sweep took {elapsed:.2f} s"


def test_criterion_02_weight_agreement():
    start = perf_counter()
    sizes = [n for n in _sizes(2, 4096)]
    for m in (3, 5):
        sizes += [m * 2**k for k in range(1, 13) if m * 2**k <= 4096]
    for n in sorted(sizes):
        fast = cc_rule_fast(n).weights
        direct = cc_rule_direct(n).weights
        rel = np.max(np.abs(fast - direct)) / np.max(np.abs(direct))
        assert rel <= 1e-13, f"n={n}: relative weight deviation {rel:.3e}"
    elapsed = perf_counter() - start
    assert elapsed < 5.0, f"weight comparison took {elapsed:.2f} s"


def test_criterion_03_endpoint_sum_identity():
    start = perf_counter()
    for n in range(1, 51):
        for k in range(1, 7):
            brute = sum(
                Fraction(r ** (2 * k), 4 * r * r - 1) for r in range(1, n + 1)
            )
            assert lemma_H(n, k) == brute, (n, k)
            assert lemma_H_closed(n, k) == brute, (n, k)
    elapsed = perf_counter() - start
    assert elapsed < 1.0, f"identity sweep took {elapsed:.2f} s"


def test_criterion_04_aliasing_identity():
    m_values = np.arange(0, 201)
    exact = np.zeros(m_values.size)
    even = m_values % 2 == 0
    exact[even] = 2.0 / (1.0 - m_values[even].astype(float) ** 2)
    for n in range(2, 33, 2):
        rule = cc_rule_direct(n)
        angles = ChebGrid(n).angles
        quad = np.cos(np.outer(m_values, angles)) @ rule.weights
        brute = exact - quad
        for m in m_values:
            formula = aliasing_error(n, int(m))
            assert abs(formula - brute[m]) <= 1e-12, (
                f"n={n} m={m}: formula {formula!r} vs node evaluation {brute[m]!r}"
            )


def test_criterion_05_rates_for_sqrt_singularity():
    start = perf_counter()
    ref, errors = _cc_errors("F1a", _sizes(32, 2048))
    cc_rate = _fitted(ref, errors)
    assert abs(cc_rate - 3.0) <= 0.15, f"CC rate {cc_rate:.4f}"
    ref, errors = _rq_errors("F1a", 1, _sizes(8, 256))
    r1_rate = _fitted(ref, errors)
    assert abs(r1_rate - 5.0) <= 0.35, f"R1 rate {r1_rate:.4f}"
    ref, errors = _rq_errors("F1a", 2, _sizes(8, 64))
    r2_rate = _fitted(ref, errors)
    assert abs(r2_rate - 7.0) <= 0.6, f"R2 rate {r2_rate:.4f}"
    elapsed = perf_counter() - start
    assert elapsed < 10.0, f"rate fits took {elapsed:.2f} s"


def test_criterion_06_rates_for_mixed_fractional_singularity():
    ladder = exponent_ladder(corpus_function("F1b").profile, 4)
    for j, d in enumerate(ladder):
        assert d == j + 1.5, f"ladder entry {j} is {d}, expected {j + 1.5}"
    ref, errors = _cc_errors("F1b", _sizes(32, 2048))
    cc_rate = _fitted(ref, errors)
    assert abs(cc_rate - 2.5) <= 0.15, f"CC rate {cc_rate:.4f}"
    ref, errors = _rq_errors("F1b", 1, _sizes(8, 256))
    r1_rate = _fitted(ref, errors)
    assert abs(r1_rate - 3.5) <= 0.3, f"R1 rate {r1_rate:.4f}"
    ref, errors = _rq_errors("F1b", 2, _sizes(8, 64))
    r2_rate = _fitted(ref, errors)
    assert abs(r2_rate - 4.5) <= 0.5, f"R2 rate {r2_rate:.4f}"


def test_criterion_07_rates_for_log_singularity():
    ref, errors = _cc_errors("F2a", _sizes(32, 512))
    cc_rate = _fitted(ref, errors)
    assert abs(cc_rate - 4.0) <= 0.2, f"CC rate {cc_rate:.4f}"
    ref, errors = _rq_errors("F2a", 1, _sizes(8, 64))
    r1_rate = _fitted(ref, errors)
    assert abs(r1_rate - 6.0) <= 0.5, f"R1 rate {r1_rate:.4f}"
    ref, errors = _rq_errors("F2a", 2, _sizes(8, 32))
    try:
        r2_rate = _fitted(ref, errors)
    except InsufficientDataError:
        # Degraded form: fewer than 3 usable points above the noise floor,
        # so the coarsest double-extrapolated value itself is bounded.
        base_error = abs(errors[0][1])
        unfiltered = fit_rate(errors, noise_floor=0.0).slope
        detail = ", ".join(f"{n}: {abs(e):.3e}" for n, e in errors)
        assert base_error <= 1e-10, (
            f"|I - R(2,8)| = {base_error:.6e} exceeds 1e-10. The errors by "
            f"base ({detail}) fall at the unfiltered three-point rate "
            f"{unfiltered:.2f}, against d_2 + 1 = 8, so the base-8 error is "
            f"truncation error of R2, not rounding: R2 with this ladder does "
            f"not reach 1e-10 at base 8.  Only the base-32 error lies below "
            f"the noise floor, which leaves two points to fit."
        )
    else:
        assert abs(r2_rate - 8.0) <= 0.8, f"R2 rate {r2_rate:.4f}"


def test_criterion_08_interior_kink_pair():
    for fn_id in ("F3a", "F3b"):
        ref = corpus_reference(fn_id)
        _, cc_errors = _cc_errors(fn_id, _sizes(32, 2048))
        cc_rate = _fitted(ref, cc_errors)
        assert abs(cc_rate - 3.0) <= 0.2, f"{fn_id} CC rate {cc_rate:.4f}"
        f = corpus_function(fn_id)
        gl_errors = []
        for n in _sizes(32, 2048):
            result = integrate(gl_rule(n), f)
            gl_errors.append((n, ref - result.approx))
        gl_rate = _fitted(ref, gl_errors)
        assert abs(gl_rate - 3.0) <= 0.2, f"{fn_id} GL rate {gl_rate:.4f}"
        cc_last = abs(cc_errors[-1][1])
        gl_last = abs(gl_errors[-1][1])
        ratio = max(cc_last, gl_last) / min(cc_last, gl_last)
        assert ratio < 4.0, (
            f"{fn_id} at n=2048: CC error {cc_last:.3e}, GL error {gl_last:.3e}, "
            f"ratio {ratio:.2f}"
        )


def test_criterion_09_coefficient_asymptotics():
    k, resolution = 1024, 4096
    for fn_id in ("F1a", "F1b", "F2a"):
        f = corpus_function(fn_id)
        measured = dct_coeff(f, k, resolution)
        predicted = alias_closed_prediction(f.profile, k, resolution)
        rel = abs(measured / predicted - 1.0)
        assert rel <= 0.05, (
            f"{fn_id}: coefficient {measured!r} vs prediction {predicted!r} "
            f"(relative deviation {rel:.4%})"
        )
    # the log-free part of the check applies to the raw prediction too
    from singquad.singular import predict_coeff

    f = corpus_function("F2a")
    measured = dct_coeff(f, k, resolution)
    raw = predict_coeff(f.profile, k)
    rel = abs(measured / raw - 1.0)
    assert rel <= 0.05, f"F2a raw prediction deviates {rel:.4%}"

    f3b = corpus_function("F3b")
    target = math.sqrt(6.0) / math.pi
    for kk in (256, 512):
        amplitude = abs(dct_coeff(f3b, kk, resolution))
        value = amplitude * (kk / 2.0) ** 2
        rel = abs(value / target - 1.0)
        assert rel <= 0.05, (
            f"F3b k={kk}: scaled amplitude {value!r} vs {target!r} "
            f"(relative deviation {rel:.4%})"
        )


def test_criterion_10_property_suites():
    start = perf_counter()
    rng = np.random.default_rng(20260815)

    # transform round trip, relative l2
    for n in (2, 8, 96, 1024):
        samples = rng.standard_normal(n + 1)
        coeffs = cheb_coeffs(samples)
        back = np.array([cheb_eval(coeffs, float(x)) for x in ChebGrid(n).nodes])
        rel = np.linalg.norm(back - samples) / np.linalg.norm(samples)
        assert rel <= 1e-12, f"round trip at n={n}: {rel:.3e}"

    # weight positivity and normalization
    for rule in (cc_rule_fast(4096), cc_rule_direct(101), gl_rule(512)):
        assert np.all(rule.weights > 0.0)
        total = float(rule.weights.sum())
        assert abs(total - 2.0) <= 1e-12, f"{rule.kind} n={rule.n}: sum {total!r}"

    # grid nestedness, bit exact
    for n in (2, 8, 160, 512):
        assert np.array_equal(ChebGrid(2 * n).nodes[::2], ChebGrid(n).nodes)

    # odd integrand annihilation
    odd = lambda x: x**3 + x * math.cos(3.0 * x)
    for n in (8, 64, 256):
        value = integrate(cc_rule_fast(n), odd).approx
        assert abs(value) <= 1e-14, f"odd integrand at n={n}: {value!r}"

    # cache evaluation economy across one doubling chain
    calls = [0]

    def counted(x):
        calls[0] += 1
        return math.exp(x)

    cache = SampleCache(16)
    per_run = [integrate(cc_rule_fast(n), counted, cache).evals_used for n in (16, 32, 64)]
    assert per_run == [17, 16, 32]
    assert calls[0] == 4 * 16 + 1

    # fit_rate scaling invariance
    errors = [(n, 2.5e-2 * n ** (-3.5)) for n in (8, 16, 32, 64)]
    scaled = [(n, 137.0 * e) for n, e in errors]
    assert abs(fit_rate(scaled).slope - fit_rate(errors).slope) <= 1e-10

    # tableau bit recomputability
    fn = corpus_function("F1b")
    ladder = exponent_ladder(fn.profile, 2)
    tableau = richardson(fn, 16, 2, ladder)
    rebuilt = extrapolate_rows(tableau.rows[0], ladder)
    assert tuple(tuple(r) for r in rebuilt) == tableau.rows

    elapsed = perf_counter() - start
    assert elapsed < 10.0, f"property suite took {elapsed:.2f} s"

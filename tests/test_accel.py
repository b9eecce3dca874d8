"""Tests for Richardson extrapolation tableaus and decay-rate fitting."""

import math
import re

import pytest

from singquad.accel import (
    default_noise_floor,
    extrapolate_rows,
    fit_rate,
    richardson,
)
from singquad.bench import corpus, corpus_function, corpus_reference
from singquad.engine import SampleCache, integrate
from singquad.errors import ConfigError, InputError, InsufficientDataError, SizeError
from singquad.rules import cc_rule_fast
from singquad.singular import exponent_ladder


LADDER_24 = (2.0, 4.0)


def _counted(f):
    """Wrap f so the number of evaluations is observable."""
    calls = [0]

    def wrapped(x):
        calls[0] += 1
        return f(x)

    return wrapped, calls


# ---------------------------------------------------------------------------
# extrapolate_rows


def test_single_level_annihilates_matching_power():
    # Values 1/n^3 at n and 2n: one level with d_0 = 2 removes the term
    # exactly (all quantities are dyadic, so the float arithmetic is exact).
    rows = extrapolate_rows([1.0 / 8.0, 1.0 / 64.0], (2.0,))
    assert rows[0] == [1.0 / 8.0, 1.0 / 64.0]
    assert rows[1] == [0.0]


def test_row_lengths_shrink_by_one_per_level():
    rows = extrapolate_rows([3.0, 2.0, 1.0], LADDER_24)
    assert [len(r) for r in rows] == [3, 2, 1]


def test_more_levels_than_ladder_entries_is_rejected():
    with pytest.raises(ConfigError):
        extrapolate_rows([3.0, 2.0, 1.0], (2.0,))


# ---------------------------------------------------------------------------
# richardson on exact and corpus integrands


def test_tableau_is_exact_for_low_degree_polynomials():
    f = lambda x: x**4 + 2.0 * x + 1.0
    exact = 2.0 / 5.0 + 2.0
    tab = richardson(f, 8, 2, LADDER_24)
    for row in tab.rows:
        for entry in row:
            assert abs(entry - exact) <= 1e-13


def test_monotone_improvement_on_the_whole_corpus():
    # Each extrapolated value must beat the plain rule that consumed the
    # same finest grid: |I - R(q, 16)| <= |I - R(0, 2^q * 16)|.
    for fn in corpus():
        ref = corpus_reference(fn.label)
        ladder = exponent_ladder(fn.profile, 2)
        for q in (1, 2):
            tab = richardson(fn, 16, q, ladder)
            err_accel = abs(ref - tab.value)
            err_plain = abs(ref - tab.entry(0, q))
            assert err_accel <= err_plain, (fn.label, q, err_accel, err_plain)


def test_first_level_beats_plain_rule_at_equal_base():
    fn = corpus_function("F1a")
    ref = corpus_reference("F1a")
    ladder = exponent_ladder(fn.profile, 1)
    tab = richardson(fn, 16, 1, ladder)
    assert abs(ref - tab.value) < abs(ref - tab.entry(0, 0))


def test_eval_economy_is_exactly_geometric():
    fn = corpus_function("F1a")
    for q in (0, 1, 2):
        wrapped, calls = _counted(fn.eval)
        tab = richardson(wrapped, 16, q, exponent_ladder(fn.profile, 2))
        assert calls[0] == 2**q * 16 + 1
        assert tab.evals_used == calls[0]


def test_tableau_recomputable_bitwise_from_first_row():
    fn = corpus_function("F1b")
    ladder = exponent_ladder(fn.profile, 2)
    tab = richardson(fn, 16, 2, ladder)
    rebuilt = extrapolate_rows(tab.rows[0], ladder)
    assert tuple(tuple(r) for r in rebuilt) == tab.rows


def test_depth_zero_reduces_to_the_plain_rule():
    f = lambda x: math.exp(x) / (2.0 + x)
    tab = richardson(f, 64, 0, LADDER_24)
    direct = integrate(cc_rule_fast(64), f)
    assert tab.value == direct.approx
    assert tab.q == 0 and tab.base_n == 64


def test_shared_cache_makes_reruns_free_and_identical():
    fn = corpus_function("F3a")
    ladder = exponent_ladder(fn.profile, 2)
    cache = SampleCache(16)
    wrapped, calls = _counted(fn.eval)
    first = richardson(wrapped, 16, 2, ladder, cache)
    assert calls[0] == 65
    second = richardson(wrapped, 16, 2, ladder, cache)
    assert calls[0] == 65  # no new evaluations
    assert second.evals_used == 0
    assert second.rows == first.rows


def test_coarser_cache_base_is_accepted():
    f = lambda x: 1.0 / (2.0 + x)
    tab = richardson(f, 16, 1, LADDER_24, cache=SampleCache(8))
    exact = math.log(3.0)
    assert abs(tab.value - exact) < 1e-12


def test_finer_cache_base_serves_a_divisor_as_a_stride_view():
    f = corpus_function("F1a")
    ladder = exponent_ladder(f.profile, 1)
    shared = richardson(f, 8, 1, ladder, SampleCache(16))
    fresh = richardson(f, 8, 1, ladder)
    assert shared.rows == fresh.rows
    assert shared.evals_used == fresh.evals_used == 17


def test_an_odd_base_reads_a_stride_view_of_the_one_ensure():
    # The cache is asked for 2**q * base_n only, so base 3 at depth 1 is
    # served by a base-6 cache; it raised SizeError while each level was asked.
    f = lambda x: 1.0 / (2.0 + x)
    tab = richardson(f, 3, 1, LADDER_24, SampleCache(6))
    assert tab.rows[0] == (integrate(cc_rule_fast(3), f).approx, integrate(cc_rule_fast(6), f).approx)
    assert tab.evals_used == 7


def test_richardson_validation():
    f = math.exp
    with pytest.raises(SizeError):
        richardson(f, 15, 1, LADDER_24)
    with pytest.raises(SizeError):
        richardson(f, 0, 0, LADDER_24)
    with pytest.raises(ConfigError):
        richardson(f, 16, -1, LADDER_24)
    with pytest.raises(ConfigError):
        richardson(f, 16, 3, LADDER_24)  # ladder has only two exponents
    with pytest.raises(SizeError):
        richardson(f, 16, 1, LADDER_24, cache=SampleCache(24))


def test_a_rule_that_cannot_be_built_costs_no_evaluation(monkeypatch):
    # The rules once came level by level, each after its samples, so a
    # failure at 4n came after 2n + 1 evaluations.
    def rule(n):
        if n == 32:
            raise SizeError("no rule of size 32")
        return cc_rule_fast(n)

    monkeypatch.setattr("singquad.accel.cc_rule_fast", rule)
    wrapped, calls = _counted(math.exp)
    cache = SampleCache(8)
    with pytest.raises(SizeError, match="no rule of size 32"):
        richardson(wrapped, 8, 2, LADDER_24, cache)
    assert calls[0] == 0 and cache.eval_count == 0


def test_a_cache_that_cannot_serve_the_tableau_names_its_finest_size():
    wrapped, calls = _counted(math.exp)
    cache = SampleCache(24)
    with pytest.raises(SizeError, match="size 32 does not divide a doubling of 24"):
        richardson(wrapped, 16, 1, LADDER_24, cache)
    assert calls[0] == 0 and cache.eval_count == 0


@pytest.mark.parametrize(
    "ladder",
    [
        (math.nan,),
        (math.inf,),
        (1.0, math.inf),
        (-math.inf, 1.0),
        (1.0, math.nan),
        (-1.0,),
        (-1.0, 2.0),
        (0.0,),
        (3.0, 1.0),
        (2.0, 2.0),
        (),
    ],
    ids=repr,
)
def test_bad_ladders_are_rejected_before_sampling(ladder):
    # any sequence is checked, before a single evaluation, by both entry
    # points; the depth uses every exponent, so the value rules are reached
    q = max(len(ladder), 1)
    wrapped, calls = _counted(math.exp)
    with pytest.raises(ConfigError):
        richardson(wrapped, 8, q, ladder)
    assert calls[0] == 0
    with pytest.raises(ConfigError):
        extrapolate_rows([3.0, 2.0, 1.0][: q + 1], ladder)


# ---------------------------------------------------------------------------
# fit_rate


def test_fit_rate_recovers_exact_power():
    errors = [(n, n ** (-3.0)) for n in (8, 16, 32, 64, 128)]
    est = fit_rate(errors)
    assert abs(est.slope - 3.0) <= 1e-10
    assert len(est.window) == 5
    assert est.discarded == ()


def test_fit_rate_ignores_amplitude_and_sign():
    errors = [(n, 5.0 * n ** (-2.5)) for n in (8, 16, 32, 64)]
    alternating = [(n, ((-1.0) ** i) * e) for i, (n, e) in enumerate(errors)]
    assert abs(fit_rate(errors).slope - 2.5) <= 1e-10
    assert abs(fit_rate(alternating).slope - 2.5) <= 1e-10


def test_fit_rate_is_invariant_under_error_scaling():
    errors = [(n, 7.3e-3 * n ** (-4.0)) for n in (8, 16, 32, 64)]
    scaled = [(n, 137.0 * e) for n, e in errors]
    assert abs(fit_rate(scaled).slope - fit_rate(errors).slope) <= 1e-10


def test_fit_rate_discards_points_at_the_noise_floor():
    errors = [(8, 1e-2), (16, 1e-3), (32, 1e-4), (64, 5e-15), (128, 0.0)]
    est = fit_rate(errors)
    assert est.discarded == ((64, 5e-15), (128, 0.0))
    assert [n for n, _ in est.window] == [8, 16, 32]
    # decade drop per doubling
    assert abs(est.slope - math.log2(10.0)) <= 1e-10


def test_fit_rate_zero_floor_keeps_everything():
    errors = [(8, 1e-2), (16, 1e-3), (32, 1e-16)]
    est = fit_rate(errors, noise_floor=0.0)
    assert len(est.window) == 3
    assert est.discarded == ()


def test_fit_rate_needs_three_distinct_sizes():
    with pytest.raises(InsufficientDataError):
        fit_rate([(8, 1e-2), (16, 1e-3)])
    with pytest.raises(InsufficientDataError):
        fit_rate([(8, 1e-16), (16, 1e-16), (32, 1e-16)])
    with pytest.raises(InsufficientDataError):
        fit_rate([(8, 1e-2), (8, 2e-2), (16, 1e-3)])


@pytest.mark.parametrize(
    "bad", [(32, math.nan), (32, math.inf), (32, -math.inf), (0, 1e-3), (-8, 1e-2)]
)
def test_fit_rate_rejects_non_finite_errors_and_sizes_below_one(bad):
    # a NaN must not be filed as noise with the fit going on around it
    errors = [(16, 1e-3), bad, (64, 1.25e-4), (128, 1.5e-5)]
    with pytest.raises(InputError, match=re.escape(repr(bad))):
        fit_rate(errors)


@pytest.mark.parametrize("sizes", [(2.5, 5, 10), (5, 10, math.inf)])
def test_fit_rate_rejects_sizes_that_are_not_integers(sizes):
    # exact n**-3 data: truncating n = 2.5 to 2 would fit a slope of 2.568
    with pytest.raises(InputError, match="integer n"):
        fit_rate([(n, n**-3.0) for n in sizes])


def test_default_noise_floor_scales_with_reference():
    eps = 2.0 ** (-52)
    assert default_noise_floor() == 100.0 * eps
    assert default_noise_floor(10.0) == 100.0 * eps * 11.0
    assert default_noise_floor(-10.0) == 100.0 * eps * 11.0


def test_unfiltered_double_extrapolation_rate_on_log_integrand():
    # Double extrapolation of the logarithmic endpoint integrand converges
    # so fast that the default noise floor leaves only two usable points;
    # with the floor disabled the raw three-point fit shows the expected
    # eighth-order decay.
    fn = corpus_function("F2a")
    ref = corpus_reference("F2a")
    ladder = exponent_ladder(fn.profile, 2)
    errors = []
    for base in (8, 16, 32):
        tab = richardson(fn, base, 2, ladder)
        errors.append((base, ref - tab.value))
    est = fit_rate(errors, noise_floor=0.0)
    assert abs(est.slope - 8.0) <= 0.8
    with pytest.raises(InsufficientDataError):
        fit_rate(errors, noise_floor=default_noise_floor(ref))

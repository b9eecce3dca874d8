"""Singularity classification, coefficient asymptotics, and the exact sums behind them."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    alias_closed_prediction,
    bernoulli,
    dct_coeff,
    faulhaber_sum,
    fd_second_derivative,
    hatphi2_pi,
    hatphi_pi,
    hatpsi0,
    hatpsi2_0,
    lemma_H,
    lemma_H_closed,
    phi_hat,
    psi_hat,
)
from singquad.bench import corpus_function
from singquad.errors import DomainError, ProfileError
from singquad.singular import (
    SingularityProfile,
    classify_s,
    coeff_asymptote,
    exponent_ladder,
    predict_coeff,
)

E = math.e
GRID = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


def brute_S(n, k):
    return sum(Fraction(r) ** (2 * k) for r in range(1, n + 1))


def brute_H(n, k):
    return sum(Fraction(r ** (2 * k), 4 * r * r - 1) for r in range(1, n + 1))


def exp_profile(alpha, beta, log_left=False):
    return SingularityProfile(
        alpha,
        beta,
        log_left=log_left,
        g_at_1=E,
        g_at_minus1=1.0 / E,
        g_prime_at_1=E,
        g_prime_at_minus1=1.0 / E,
    )


# ---------------------------------------------------------------------------
# exact rational machinery (test helpers: the paper's proof identities)


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(16) == Fraction(-3617, 510)


def test_bernoulli_range_errors():
    with pytest.raises(ValueError):
        bernoulli(18)
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_faulhaber_values():
    assert faulhaber_sum(3, 1) == 14
    assert all(faulhaber_sum(1, k) == 1 for k in range(1, 9))
    assert faulhaber_sum(10, 2) == 25333


def test_faulhaber_range_errors():
    with pytest.raises(ValueError):
        faulhaber_sum(3, 0)
    with pytest.raises(ValueError):
        faulhaber_sum(3, 9)
    with pytest.raises(ValueError):
        faulhaber_sum(0, 1)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 200), k=st.integers(1, 8))
def test_faulhaber_equals_brute_force(n, k):
    assert faulhaber_sum(n, k) == brute_S(n, k)


def test_power_sum_ratio_values():
    assert lemma_H(1, 1) == Fraction(1, 3)
    assert lemma_H(2, 1) == Fraction(3, 5)
    assert lemma_H(3, 2) == Fraction(26, 7)


def test_power_sum_ratio_agrees_with_brute_force_and_closed_form():
    for n in range(1, 13):
        for k in range(1, 7):
            b = brute_H(n, k)
            assert lemma_H(n, k) == b
            assert lemma_H_closed(n, k) == b
    # spot checks at the far end of the supported range
    assert lemma_H(50, 6) == brute_H(50, 6) == lemma_H_closed(50, 6)
    assert lemma_H(200, 8) == brute_H(200, 8) == lemma_H_closed(200, 8)


def test_power_sum_results_are_exact_rationals():
    assert isinstance(lemma_H(7, 3), Fraction)
    assert isinstance(faulhaber_sum(7, 3), Fraction)
    assert isinstance(bernoulli(8), Fraction)


# ---------------------------------------------------------------------------
# profiles and classification


def test_profile_rejects_two_integer_exponents_without_log():
    with pytest.raises(ProfileError):
        SingularityProfile(1.0, 0.0)


def test_log_profile_requires_positive_integer_alpha():
    with pytest.raises(ProfileError):
        SingularityProfile(0.5, 0.0, log_left=True)
    with pytest.raises(ProfileError):
        SingularityProfile(0.0, 0.5, log_left=True)


def test_profile_rejects_negative_exponents():
    with pytest.raises(ProfileError):
        SingularityProfile(-0.25, 0.0)


@pytest.mark.parametrize(
    "field", ["alpha", "beta", "g_at_1", "g_at_minus1", "g_prime_at_1", "g_prime_at_minus1"]
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.5 + 0j, "0.5", None])
def test_profile_rejects_a_non_finite_field(field, bad):
    fields = dict(alpha=0.5, beta=0.0, g_at_1=1.0, g_at_minus1=1.0, g_prime_at_1=0.0)
    fields["g_prime_at_minus1"] = 0.0
    SingularityProfile(**fields)
    fields[field] = bad
    with pytest.raises(ProfileError, match=f"field {field} must be finite"):
        SingularityProfile(**fields)


def test_classification_examples():
    assert classify_s(SingularityProfile(0.5, 0.0)) == 1.0
    assert classify_s(SingularityProfile(0.75, 0.25)) == 0.5
    assert classify_s(SingularityProfile(1.0, 0.5, log_left=True)) == 1.0
    assert classify_s(SingularityProfile(1.0, 0.25)) == 0.5  # integer alpha side
    assert classify_s(SingularityProfile(2.0, 0.0, log_left=True)) == 4.0


def test_smoothness_index_converts_to_float():
    assert float(classify_s(SingularityProfile(0.5, 0.0))) == 1.0


def test_ladder_examples():
    assert exponent_ladder(SingularityProfile(0.5, 0.0), 3) == (2.0, 4.0, 6.0)
    assert exponent_ladder(SingularityProfile(0.75, 0.25), 4) == (1.5, 2.5, 3.5, 4.5)
    assert exponent_ladder(SingularityProfile(1.0, 0.0, log_left=True), 3) == (3.0, 5.0, 7.0)
    # an integer alpha without the log factor drops the right branch
    assert exponent_ladder(SingularityProfile(1.0, 0.25), 3) == (1.5, 3.5, 5.5)


def test_ladder_merges_and_deduplicates_families():
    # equal exponents collapse to one family
    assert exponent_ladder(SingularityProfile(0.5, 0.5), 3) == (2.0, 4.0, 6.0)
    # interleaved families merge sorted
    assert exponent_ladder(SingularityProfile(0.5, 0.25), 3) == (1.5, 2.0, 3.5)
    assert exponent_ladder(SingularityProfile(1.0, 0.5, log_left=True), 4) == (2.0, 3.0, 4.0, 5.0)


def test_ladder_first_element_is_index_plus_one_on_grid():
    """d_0 = s + 1 for every valid profile on the exponent grid."""
    checked = 0
    for alpha in GRID:
        for beta in GRID:
            for log_left in (False, True):
                try:
                    p = SingularityProfile(alpha, beta, log_left=log_left)
                except ProfileError:
                    continue
                ladder = exponent_ladder(p, 5)
                assert ladder[0] == classify_s(p) + 1.0, (alpha, beta, log_left)
                assert all(hi > lo for lo, hi in zip(ladder, ladder[1:]))
                checked += 1
    assert checked > 30  # the grid must not silently degenerate


# ---------------------------------------------------------------------------
# coefficient predictions


def test_predicted_coeff_closed_values():
    got = predict_coeff(exp_profile(0.5, 0.0), 1024)
    assert got == pytest.approx(-math.sqrt(2.0) * E / (math.pi * 1024**2), rel=1e-15)
    # g = 1: the constant-sign branch alone, at small indices too
    for n in (10, 64):
        got = predict_coeff(SingularityProfile(0.5, 0.0), n)
        assert got == pytest.approx(-math.sqrt(2.0) / (math.pi * n**2), rel=1e-15)

    log_profile = SingularityProfile(
        1.0,
        0.0,
        log_left=True,
        g_at_1=math.cos(2.0),
        g_at_minus1=1.0,
        g_prime_at_1=-math.sin(2.0),
    )
    got = predict_coeff(log_profile, 512)
    assert got == pytest.approx(2.0 * math.cos(2.0) / 512**3, rel=1e-15)

    # a vanishing amplitude leaves no term, and the prediction is still a float
    got = predict_coeff(SingularityProfile(0.5, 0.0, g_at_1=0.0), 64)
    assert got == 0.0 and isinstance(got, float)


@pytest.mark.parametrize(
    "alpha,beta,exponent",
    [
        (100.5, 0.0, "100.5"),  # Gamma(202) overflows
        (0.5, 2000.0, "0.5"),  # 2**2000.5 overflows
        (80.5, 152.0, "80.5"),  # every factor is finite, their product is not
    ],
)
def test_overflowing_amplitude_is_a_domain_error(alpha, beta, exponent):
    with pytest.raises(DomainError, match=f"exponent {exponent} "):
        predict_coeff(SingularityProfile(alpha, beta), 64)


def test_predicted_coeff_parity_cancellation():
    # both endpoint branches cancel exactly at odd indices for the
    # symmetric half-integer profile with g = 1
    p = SingularityProfile(0.5, 0.5)
    assert predict_coeff(p, 101) == 0.0
    assert predict_coeff(p, 100) == pytest.approx(-4.0 / (math.pi * 100**2), rel=1e-14)


def test_predicted_coeff_rejects_tiny_index():
    with pytest.raises(DomainError):
        predict_coeff(exp_profile(0.5, 0.0), 1)


@pytest.mark.parametrize("n", [2.5, math.inf, math.nan])
def test_predicted_coeff_rejects_an_index_that_is_not_an_integer(n):
    with pytest.raises(DomainError, match="integer n"):
        predict_coeff(exp_profile(0.5, 0.0), n)


def test_alternating_branch_flips_sign_with_index():
    p = SingularityProfile(1.0, 0.5)  # only the left-endpoint branch survives
    even = predict_coeff(p, 100)
    odd = predict_coeff(p, 101)
    assert even < 0.0 < odd
    assert abs(odd / even) == pytest.approx((100.0 / 101.0) ** 2, rel=1e-12)


def test_asymptote_parity_structure():
    # integer beta kills the alternating branch, integer alpha the
    # constant-sign branch, and a generic profile keeps both
    right_only = coeff_asymptote(SingularityProfile(0.5, 0.0))
    assert [alternating for _, _, alternating in right_only] == [False]
    left_only = coeff_asymptote(SingularityProfile(1.0, 0.5))
    assert [alternating for _, _, alternating in left_only] == [True]
    both = coeff_asymptote(SingularityProfile(0.75, 0.25))
    assert sorted(alternating for _, _, alternating in both) == [False, True]


@pytest.mark.parametrize(
    "fn_id,k",
    [("F1a", 1024), ("F1b", 1024), ("F2a", 1024)],
)
def test_measured_coeff_matches_folded_asymptote(fn_id, k):
    """Measured coefficients track the asymptote to 5% at index 1024.

    Coefficients are measured by a resolution-4096 transform, which
    folds asymptote mass from indices 8192j +/- k onto k; the folded
    reference keeps the comparison honest (the fold alone is worth +5.3%
    for the root singularity, +23% for the mixed-exponent one).
    """
    f = corpus_function(fn_id)
    a = dct_coeff(f.eval, k, 4096)
    predicted = alias_closed_prediction(f.profile, k, 4096)
    assert abs(a / predicted - 1.0) <= 0.05


@pytest.mark.parametrize("fn_id", ["F1a", "F1b"])
def test_measured_coeff_matches_leading_prediction_at_low_index(fn_id):
    # at index 64 of a 4096-point transform the aliasing images are
    # negligible, so the raw leading-order prediction must already agree
    f = corpus_function(fn_id)
    a = dct_coeff(f.eval, 64, 4096)
    assert abs(a / predict_coeff(f.profile, 64) - 1.0) <= 0.05


def test_measured_log_coeff_matches_raw_prediction():
    f = corpus_function("F2a")
    a = dct_coeff(f.eval, 1024, 4096)
    assert abs(a / predict_coeff(f.profile, 1024) - 1.0) <= 0.05


# ---------------------------------------------------------------------------
# auxiliary endpoint values


def test_hat_values_for_trivial_profile():
    assert hatpsi0(SingularityProfile(0.0, 0.5)) == 1.0
    assert hatphi_pi(SingularityProfile(0.5, 0.0)) == 1.0


def test_hat_values_closed_forms():
    p = exp_profile(0.5, 0.0)
    assert hatpsi0(p) == pytest.approx(E / 2.0, rel=1e-15)
    assert hatpsi2_0(p) == pytest.approx(-13.0 * E / 24.0, rel=1e-14)
    assert hatphi_pi(exp_profile(0.0, 0.5)) == pytest.approx(1.0 / (2.0 * E), rel=1e-15)


@pytest.mark.parametrize(
    "alpha,beta",
    [(0.5, 0.0), (0.75, 0.25), (0.0, 0.5)],
)
def test_hat_second_derivatives_match_finite_differences(alpha, beta):
    p = exp_profile(alpha, beta)
    psi2 = fd_second_derivative(lambda t: psi_hat(p, math.exp, t), hatpsi0(p))
    phi2 = fd_second_derivative(lambda u: phi_hat(p, math.exp, math.pi - u), hatphi_pi(p))
    assert abs(psi2 / hatpsi2_0(p) - 1.0) <= 1e-5
    assert abs(phi2 / hatphi2_pi(p) - 1.0) <= 1e-5

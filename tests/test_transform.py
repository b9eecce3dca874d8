"""Transform-layer tests: grids, DCT-I, coefficient maps, evaluation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebval

from helpers import (
    OTHER_SIZES,
    alias_closed_prediction,
    dct1_direct_longdouble,
    dct_coeff,
    supported_sizes,
)
from singquad.errors import DomainError, InputError, SizeError
from singquad.transform import (
    ChebCoeffs,
    ChebGrid,
    cheb_coeffs,
    cheb_eval,
    dct1,
)

# ---------------------------------------------------------------------------
# grids


def test_grid_angles_increase_from_zero_to_pi():
    g = ChebGrid(16)
    assert g.angles[0] == 0.0
    assert g.angles[-1] == np.pi
    assert np.all(np.diff(g.angles) > 0)


def test_grid_nodes_decrease_from_plus_one_to_minus_one():
    g = ChebGrid(8)
    assert g.nodes[0] == 1.0
    assert g.nodes[-1] == -1.0
    assert np.all(np.diff(g.nodes) < 0)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 40, 512])
def test_grid_doubling_nests_bit_exactly(n):
    coarse = ChebGrid(n)
    fine = ChebGrid(2 * n)
    assert np.array_equal(fine.angles[::2], coarse.angles)
    assert np.array_equal(fine.nodes[::2], coarse.nodes)


def test_grid_rejects_nonpositive_size():
    with pytest.raises(SizeError):
        ChebGrid(0)


# ---------------------------------------------------------------------------
# dct1


def test_dct1_constant_input():
    assert np.allclose(dct1([1.0, 1.0, 1.0]), [2.0, 0.0, 0.0], atol=1e-15)


def test_dct1_pure_cosine_lands_on_a_single_bin():
    c = dct1(np.cos(ChebGrid(4).angles))
    expected = np.zeros(5)
    expected[1] = 2.0  # n/2
    assert np.allclose(c, expected, atol=1e-14)


def test_dct1_matches_float_direct_sum_at_n16():
    rng = np.random.default_rng(42)
    values = rng.uniform(-1.0, 1.0, 17)
    v = values.copy()
    v[0] *= 0.5
    v[-1] *= 0.5
    j = np.arange(17)
    direct = np.cos(np.outer(j, j) * (np.pi / 16)) @ v
    err = np.max(np.abs(dct1(values) - direct))
    assert err <= 1e-13 * np.max(np.abs(direct))


def test_dct1_matches_direct_sum_at_every_supported_size():
    """Fast path vs the quadratic-cost reference, up to n = 4096.

    The reference runs in extended precision because a float64 direct
    sum carries more round-off than the bound being checked.
    """
    rng = np.random.default_rng(2718)
    for n in supported_sizes(4096):
        values = rng.uniform(-1.0, 1.0, n + 1)
        ref = dct1_direct_longdouble(values)
        err = np.max(np.abs(dct1(values) - np.asarray(ref, dtype=float)))
        scale = float(np.max(np.abs(ref)))
        assert err <= 1e-13 * scale, f"n={n}: error {err:.3e} at scale {scale:.3e}"


@pytest.mark.parametrize("n", OTHER_SIZES)
def test_dct1_matches_direct_sum_at_any_size(n):
    values = np.random.default_rng(n).uniform(-1.0, 1.0, n + 1)
    ref = dct1_direct_longdouble(values)
    err = np.max(np.abs(dct1(values) - np.asarray(ref, dtype=float)))
    assert err <= 1e-13 * float(np.max(np.abs(ref)))


@pytest.mark.parametrize("n", [4, 16, 256, 1024])
def test_even_samples_yield_vanishing_odd_coeffs(n):
    rng = np.random.default_rng(n)
    half = rng.uniform(-1.0, 1.0, n // 2 + 1)
    samples = np.concatenate([half, half[-2::-1]])
    coeffs = cheb_coeffs(samples).coeffs
    assert np.max(np.abs(coeffs[1::2])) < 1e-13


def test_dct1_rejects_unsupported_sizes():
    with pytest.raises(InputError):
        dct1([1.0])  # a single value is not a transformable vector


def test_dct1_rejects_non_finite_sample():
    values = np.ones(5)
    values[3] = np.nan
    with pytest.raises(InputError, match="index 3"):
        dct1(values)


def test_dct1_rejects_non_vector_input():
    with pytest.raises(InputError):
        dct1(np.ones((3, 3)))


@pytest.mark.parametrize(
    "call",
    [
        dct1,
        cheb_coeffs,
        lambda v: cheb_eval(v, 0.3),
        lambda v: cheb_eval([1.0, 2.0, 3.0], v),
    ],
    ids=["dct1", "cheb_coeffs", "cheb_eval-coefficients", "cheb_eval-points"],
)
@pytest.mark.parametrize(
    "values",
    [
        np.array([0.1 + 0.5j, 0.2, 0.3]),
        np.array([0.1, 0.2, 0.3]) + 0j,
        [0.1 + 0.5j, 0.2, 0.3],
        ["abc"],
    ],
    ids=["complex-array", "zero-imaginary-array", "complex-list", "strings"],
)
def test_values_that_are_not_real_numbers_raise_input_error(call, values):
    # The float cast once kept the real parts with only a ComplexWarning,
    # or raised a bare TypeError or ValueError.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="do not convert to float"):
            call(values)


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(-10, 10, allow_nan=False),
    b=st.floats(-10, 10, allow_nan=False),
    seed=st.integers(0, 2**32 - 1),
)
def test_dct1_is_linear(a, b, seed):
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, 9)
    v = rng.uniform(-1.0, 1.0, 9)
    combined = dct1(a * u + b * v)
    split = a * dct1(u) + b * dct1(v)
    assert np.max(np.abs(combined - split)) <= 1e-12 * (1.0 + np.max(np.abs(split)))


# ---------------------------------------------------------------------------
# cheb_coeffs


def test_coeffs_recover_degree_three_basis_polynomial():
    samples = np.cos(3.0 * ChebGrid(8).angles)
    coeffs = cheb_coeffs(samples)
    assert isinstance(coeffs, ChebCoeffs)
    expected = np.zeros(9)
    expected[3] = 1.0
    assert np.max(np.abs(coeffs.coeffs - expected)) <= 1e-13


def test_coeffs_of_constant():
    coeffs = cheb_coeffs(np.ones(5)).coeffs
    assert np.allclose(coeffs, [2.0, 0.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_coeff_container_reports_degree():
    c = cheb_coeffs(np.ones(9))
    assert len(c.coeffs) == 9


def test_half_resolution_coeff_matches_folded_asymptote():
    """Coefficient at index n/2 for a right-endpoint root singularity.

    At this resolution the transform folds higher-index asymptote mass
    onto the measured bin (a +23% effect here), so the reference value
    must include the same folding before asking for 2% agreement.
    """
    from singquad.bench import corpus_function

    f = corpus_function("F1a")
    a = dct_coeff(f.eval, 1024, 2048)
    predicted = alias_closed_prediction(f.profile, 1024, 2048)
    assert abs(a / predicted - 1.0) <= 0.02


# ---------------------------------------------------------------------------
# cheb_eval


def test_eval_rejects_an_empty_coefficient_array():
    with pytest.raises(InputError, match="empty coefficient array"):
        cheb_eval([], 0.5)


def test_eval_basis_polynomial_at_right_endpoint():
    coeffs = np.zeros(6)  # index 3 is interior, so no convention halving
    coeffs[3] = 1.0
    assert cheb_eval(coeffs, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert cheb_eval(cheb_coeffs(np.cos(3.0 * ChebGrid(8).angles)), 1.0) == pytest.approx(
        1.0, abs=1e-13
    )


def test_eval_of_one_coefficient_halves_it_once_and_leaves_the_input_alone():
    coeffs = np.array([3.0])
    assert cheb_eval(coeffs, 0.5) == 1.5
    assert cheb_eval(coeffs, np.array([-1.0, 1.0])).tolist() == [1.5, 1.5]
    assert coeffs.tolist() == [3.0]


def test_eval_constant_everywhere():
    coeffs = np.zeros(6)
    coeffs[0] = 2.0
    for x in (-1.0, -0.73, 0.0, 0.5, 1.0):
        assert cheb_eval(coeffs, x) == pytest.approx(1.0, abs=1e-15)


def test_eval_spectral_accuracy_for_exponential():
    samples = np.exp(ChebGrid(32).nodes)
    assert abs(cheb_eval(cheb_coeffs(samples), 0.3) - math.exp(0.3)) <= 1e-12


def test_eval_rejects_points_outside_interval():
    with pytest.raises(DomainError):
        cheb_eval(np.ones(4), 1.0000001)
    with pytest.raises(DomainError):
        cheb_eval(np.ones(4), np.array([0.0, -1.5]))


def test_eval_rejects_nan_scalar():
    with pytest.raises(DomainError):
        cheb_eval(np.ones(4), math.nan)


def test_eval_rejects_nan_in_array():
    with pytest.raises(DomainError):
        cheb_eval(np.ones(4), np.array([0.0, np.nan, 0.5]))


def test_eval_scalar_and_array_forms_agree():
    """At n = 2048 the points span several blocks, nodes and both ends among them."""
    rng = np.random.default_rng(9)
    for n in (11, 2048):
        coeffs = rng.standard_normal(n + 1)
        xs = np.concatenate(
            [
                [-1.0, -0.9, -0.5, -0.2, 0.0, 0.3, 0.5, 0.99, 1.0],
                ChebGrid(n).nodes[::7],
                rng.uniform(-1.0, 1.0, 20),
            ]
        )
        vector = cheb_eval(coeffs, xs)
        scalar = np.array([cheb_eval(coeffs, float(x)) for x in xs])
        assert isinstance(cheb_eval(coeffs, 0.25), float)
        assert np.array_equal(vector, scalar)


def test_eval_keeps_the_shape_of_x():
    coeffs = np.array([1.0, 0.5, -0.25, 0.125])
    grid = np.array([[-1.0, -0.5, 0.0], [0.25, 0.5, 1.0]])
    out = cheb_eval(coeffs, grid)
    assert out.shape == (2, 3)
    assert np.array_equal(out.ravel(), cheb_eval(coeffs, grid.ravel()))
    for x in ([], np.empty((0, 3))):
        assert cheb_eval(coeffs, x).shape == np.shape(x)
        assert cheb_eval(coeffs[:1], x).shape == np.shape(x)


def test_eval_matches_numpy_chebval():
    """Barycentric values against numpy's Clenshaw evaluation.

    The worst difference measured on these inputs is 1.3e-15 (n = 79);
    the bound leaves a margin of more than 3.
    """
    rng = np.random.default_rng(0)
    worst = 0.0
    for n in [*range(1, 301), 512, 1024, 2048, 4096]:
        a = rng.standard_normal(n + 1) / np.arange(1, n + 2) ** 2
        xs = np.concatenate([rng.uniform(-1.0, 1.0, 64), [-1.0, 0.0, 1.0]])
        folded = np.concatenate([[a[0] / 2], a[1:-1], [a[-1] / 2]])
        worst = max(worst, np.max(np.abs(cheb_eval(a, xs) - chebval(xs, folded))))
    assert worst <= 5e-15, f"worst difference from chebval {worst:.3e}"


def test_eval_rejects_a_non_finite_coefficient_naming_its_index():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match="non-finite coefficient at index 1"):
            cheb_eval([1.0, bad, 2.0], 0.3)


@pytest.mark.parametrize("n", [1024, 2048, 4096])
def test_eval_stays_accurate_at_and_near_the_endpoints(n):
    """High-degree interpolant of exp evaluated where Clenshaw is weakest."""
    coeffs = cheb_coeffs(np.exp(ChebGrid(n).nodes))
    xs = np.array([1.0, -1.0, 1.0 - 1e-9, -(1.0 - 1e-9), 0.999, -0.999])
    assert np.max(np.abs(cheb_eval(coeffs, xs) - np.exp(xs))) <= 1e-14
    for x in xs:
        assert abs(cheb_eval(coeffs, float(x)) - math.exp(x)) <= 1e-14


# ---------------------------------------------------------------------------
# round trip


def test_round_trip_l2_relative_at_every_size():
    rng = np.random.default_rng(12345)
    worst = 0.0
    for n in supported_sizes(1024):
        samples = rng.uniform(-1.0, 1.0, n + 1)
        back = cheb_eval(cheb_coeffs(samples), ChebGrid(n).nodes)
        rel = np.linalg.norm(back - samples) / np.linalg.norm(samples)
        worst = max(worst, rel)
    assert worst <= 1e-12, f"worst l2-relative round-trip error {worst:.3e}"


def test_round_trip_sup_norm_rough_data():
    # Pointwise recovery of rough data is limited by node rounding
    # amplified through the interpolant's endpoint derivative growth,
    # not by the transform, so the sup bound sits an order above the
    # l2 bound.  See notes on the round-trip norm choice.
    rng = np.random.default_rng(12345)
    worst = 0.0
    for n in supported_sizes(1024, minimum=2):
        samples = rng.uniform(-1.0, 1.0, n + 1)
        back = cheb_eval(cheb_coeffs(samples), ChebGrid(n).nodes)
        worst = max(worst, np.max(np.abs(back - samples)))
    assert worst <= 1e-11


def test_round_trip_sup_norm_smooth_data():
    rng = np.random.default_rng(777)
    poly = rng.uniform(-1.0, 1.0, 21)
    for n in (256, 1024):
        nodes = ChebGrid(n).nodes
        samples = cheb_eval(poly, nodes)
        back = cheb_eval(cheb_coeffs(samples), nodes)
        err = np.max(np.abs(back - samples))
        assert err <= 1e-13 * np.max(np.abs(samples))


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([2, 4, 8, 12]), seed=st.integers(0, 2**32 - 1))
def test_round_trip_property_small_sizes(n, seed):
    samples = np.random.default_rng(seed).uniform(-1.0, 1.0, n + 1)
    back = cheb_eval(cheb_coeffs(samples), ChebGrid(n).nodes)
    assert np.max(np.abs(back - samples)) <= 1e-13 * (1.0 + np.max(np.abs(samples)))

"""Quadrature application, caching, and the aliasing identity."""

import dataclasses
import math

import numpy as np
import pytest

from helpers import cc_rule_direct
from singquad.accel import richardson
from singquad.bench import corpus_function
from singquad.engine import Integrand, SampleCache, aliasing_error, integrate
from singquad.errors import (
    ConfigError,
    DomainError,
    InputError,
    IntegrandError,
    SingquadError,
    SizeError,
)
from singquad.rules import cc_rule_fast, gl_rule
from singquad.transform import ChebGrid


def brute_cc_error(n, m):
    """Rule error on the degree-m Chebyshev basis polynomial, by evaluation."""
    rule = cc_rule_direct(n)  # the O(n^2) reference, independent of the DCT
    samples = np.cos(m * ChebGrid(n).angles)
    exact = 0.0 if m % 2 else 2.0 / (1.0 - float(m) ** 2)
    return exact - float(rule.weights @ samples)


# ---------------------------------------------------------------------------
# integrate


def test_integrate_is_exact_on_x_squared_at_n2():
    result = integrate(cc_rule_fast(2), lambda x: x * x)
    assert abs(result.approx - 2.0 / 3.0) <= 1e-15


def test_integrate_degree_four_basis_poly_on_n2_gives_two():
    # all three nodes of the n = 2 rule see the value 1
    result = integrate(cc_rule_fast(2), lambda x: 8 * x**4 - 8 * x**2 + 1)
    assert result.approx == pytest.approx(2.0, abs=1e-14)


def test_integrate_root_singularity_at_n64():
    result = integrate(cc_rule_fast(64), lambda x: math.sqrt(1.0 - x))
    assert abs(result.approx - 4.0 * math.sqrt(2.0) / 3.0) <= 1e-3


def test_result_holds_the_value_and_the_evaluations_it_cost():
    result = integrate(cc_rule_fast(8), math.exp)
    assert dataclasses.astuple(result) == (result.approx, 9)
    assert integrate(gl_rule(8), math.exp).evals_used == 8


@pytest.mark.parametrize("n", [8, 64, 256, 1024])
def test_odd_integrands_annihilate(n):
    for f in (lambda x: x**3, lambda x: x**7 * math.cos(x), lambda x: math.sin(3 * x)):
        result = integrate(cc_rule_fast(n), f)
        assert abs(result.approx) <= 1e-14


def test_integrand_wrapper_rejects_non_callables():
    with pytest.raises(InputError):
        Integrand(42)


def test_non_finite_sample_raises_with_the_offending_node():
    bad = lambda x: math.inf if x == 1.0 else x
    with pytest.raises(IntegrandError, match="non-finite") as info:
        integrate(cc_rule_fast(4), bad)
    assert info.value.node == 1.0


# ---------------------------------------------------------------------------
# batch (vectorized) integrands


class BatchCounter:
    """A vectorized integrand body that records the size of every batch."""

    def __init__(self, fn):
        self.fn = fn
        self.batches = []

    def __call__(self, x):
        self.batches.append(np.size(x))
        return self.fn(x)


@pytest.mark.parametrize("vectorized", [False, True])
def test_integrand_call_on_a_scalar_returns_a_python_float(vectorized):
    f = Integrand(lambda x: np.where(x > 0.0, x, 0.0), vectorized=vectorized)
    assert type(f(0.5)) is float and f(0.5) == 0.5
    assert type(f(-1)) is float and f(-1) == 0.0


def test_integrand_call_is_a_one_node_sample():
    # numpy rounds (1 - x)**0.5 differently on a scalar and on an array here
    f = corpus_function("F1a")
    x = 0.15994036112818955
    assert f(x) == f.sample([x])[0]


def test_integrand_call_raises_on_a_non_finite_value_naming_its_node():
    with pytest.raises(IntegrandError, match="non-finite") as info:
        Integrand(lambda x: math.nan)(0.5)
    assert info.value.node == 0.5


@pytest.mark.parametrize("flag", [1, 0, "yes", None, np.bool_(True)])
def test_integrand_rejects_a_non_bool_vectorized_flag(flag):
    with pytest.raises(InputError, match="vectorized"):
        Integrand(math.exp, vectorized=flag)


def test_vectorized_eval_of_the_wrong_shape_is_rejected():
    f = Integrand(lambda x: np.sum(x), vectorized=True)
    with pytest.raises(InputError) as info:
        integrate(cc_rule_fast(8), f)
    assert "(9,)" in str(info.value) and "()" in str(info.value)


def test_vectorized_integrand_takes_one_call_per_batch():
    poly = lambda x: 3.0 * x * x + x + 1.0  # the same arithmetic on floats and arrays
    body = BatchCounter(poly)
    f = Integrand(body, vectorized=True)
    assert integrate(cc_rule_fast(16), f).approx == integrate(cc_rule_fast(16), poly).approx
    assert integrate(gl_rule(16), f).approx == integrate(gl_rule(16), poly).approx
    assert body.batches == [17, 16]
    body.batches.clear()
    cache = SampleCache(16)
    results = [richardson(f, n, 0, (), cache) for n in (16, 32, 64)]
    assert body.batches == [17, 16, 32]
    assert [r.evals_used for r in results] == [17, 16, 32]


def test_vectorized_non_finite_value_names_the_first_node_in_node_order():
    rule = cc_rule_fast(8)
    spiky = lambda x: np.where(x > 0.5, np.nan, x)
    with pytest.raises(IntegrandError) as batch:
        integrate(rule, Integrand(spiky, vectorized=True))
    with pytest.raises(IntegrandError) as scalar:
        integrate(rule, lambda x: math.nan if x > 0.5 else x)
    first = next(float(x) for x in rule.nodes if x > 0.5)
    assert batch.value.node == scalar.value.node == first
    assert str(batch.value) == str(scalar.value)


@pytest.mark.parametrize("rule", [cc_rule_fast(8), gl_rule(7)], ids=["cc8", "gl7"])
def test_scalar_integrand_is_called_once_per_node_in_node_order(rule):
    seen = []
    integrate(rule, lambda x: seen.append(x) or x)
    assert seen == rule.nodes.tolist()
    assert all(type(x) is float for x in seen)


def test_scalar_integrand_is_not_called_past_the_first_non_finite_value():
    rule = cc_rule_fast(8)
    seen = []

    def f(x):
        seen.append(x)
        return math.nan if x < 0.5 else x

    with pytest.raises(IntegrandError) as info:
        integrate(rule, f)
    first = next(x for x in rule.nodes.tolist() if x < 0.5)
    assert seen == rule.nodes.tolist()[: seen.index(first) + 1]
    assert info.value.node == first


@pytest.mark.parametrize(
    "value", [None, 1 + 0j, "abc", 10**400], ids=["none", "complex", "text", "huge-int"]
)
def test_scalar_non_number_raises_input_error_naming_its_node(value):
    rule = cc_rule_fast(8)
    seen = []

    def f(x):
        seen.append(x)
        return value if x < 0.5 else x

    with pytest.raises(InputError, match="does not convert to float") as info:
        integrate(rule, f)
    first = next(x for x in rule.nodes.tolist() if x < 0.5)
    assert f"{value!r} at node {first!r}" in str(info.value)
    assert seen == rule.nodes.tolist()[: seen.index(first) + 1]


@pytest.mark.parametrize(
    "body",
    [
        lambda x: [1j] * len(x),
        lambda x: [object()] * len(x),
        lambda x: np.full(x.shape, "abc"),
        # a complex array once lost its imaginary part with only a ComplexWarning
        lambda x: x + 1j,
        lambda x: x + 0j,
    ],
    ids=["complex", "object", "text", "complex-array", "zero-imaginary-array"],
)
def test_vectorized_non_numbers_raise_input_error(body):
    with pytest.raises(InputError, match="do not convert to float"):
        Integrand(body, vectorized=True).sample(ChebGrid(4).nodes)


def test_vectorized_nones_convert_to_nan_and_raise_integrand_error():
    with pytest.raises(IntegrandError, match="non-finite value nan at node 1.0"):
        Integrand(lambda x: [None] * len(x), vectorized=True).sample(ChebGrid(4).nodes)


@pytest.mark.parametrize("vectorized", [False, True])
def test_an_error_inside_the_integrand_propagates_unchanged(vectorized):
    f = Integrand(lambda x: math.sqrt(-1.0), vectorized=vectorized)
    with pytest.raises(ValueError, match="math domain error") as info:
        f.sample([0.5])
    assert not isinstance(info.value, SingquadError)


@pytest.mark.parametrize(
    "value, expected",
    [(2, 2.0), (True, 1.0), (np.float32(0.25), 0.25), (np.int64(3), 3.0), ("0.5", 0.5)],
    ids=["int", "bool", "float32", "int64", "numeric-text"],
)
def test_scalar_values_that_convert_to_float_keep_converting(value, expected):
    values = Integrand(lambda x: value).sample([0.0, 0.5])
    assert values.dtype == np.float64 and values.tolist() == [expected, expected]


def test_sample_returns_a_new_array_not_the_one_eval_returned():
    buffer = np.empty(9)
    f = Integrand(lambda x: np.exp(x, out=buffer), vectorized=True)
    values = f.sample(ChebGrid(8).nodes)
    assert values is not buffer and not np.shares_memory(values, buffer)
    assert np.array_equal(values, buffer)


def test_cache_refuses_a_second_integrand_object():
    cache = SampleCache(8)
    richardson(corpus_function("F1a"), 8, 0, (), cache)
    with pytest.raises(ConfigError):
        richardson(corpus_function("F1b"), 16, 0, (), cache)
    assert richardson(corpus_function("F1a"), 16, 0, (), cache).evals_used == 8


def test_cache_serves_exactly_the_sizes_ensure_accepts():
    cache = SampleCache(8)
    for n in (1, 2, 4, 8, 16, 24, 64, 12, 6, 3, 0):
        served = cache.serves(n)
        assert served == (n in (1, 2, 4, 8, 16, 64)), n
    cache.ensure(math.exp, 64)
    assert cache.serves(32) and cache.serves(128) and not cache.serves(96)
    odd = SampleCache(3)
    for n in (1, 2, 3, 4, 5, 6, 9, 12, 24, 0):
        assert odd.serves(n) == (n in (1, 3, 6, 12, 24)), n
    with pytest.raises(SizeError):
        odd.ensure(math.exp, 4)
    assert odd.ensure(math.exp, 12) == 13
    assert odd.serves(1) and odd.serves(48) and not odd.serves(18)


# ---------------------------------------------------------------------------
# sample cache


def test_cache_spends_exactly_4n_plus_1_evaluations_over_three_doublings():
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return math.exp(x)

    n = 16
    cache = SampleCache(n)
    results = [richardson(f, size, 0, (), cache) for size in (n, 2 * n, 4 * n)]
    assert calls == 4 * n + 1
    assert cache.eval_count == 4 * n + 1
    assert [r.evals_used for r in results] == [n + 1, n, 2 * n]
    # a repeat at an already-cached size is free
    assert richardson(f, 2 * n, 0, (), cache).evals_used == 0
    assert calls == 4 * n + 1


def test_cached_and_fresh_results_are_identical():
    f = lambda x: math.cos(3.0 * x)
    cache = SampleCache(8)
    richardson(f, 32, 0, (), cache)  # fill past the target size
    assert richardson(f, 16, 0, (), cache).value == integrate(cc_rule_fast(16), f).approx


@pytest.mark.parametrize("base", [3, 7, 8, 12, 28])
@pytest.mark.parametrize("vectorized", [False, True])
def test_nested_samples_equal_fresh_samples_bit_for_bit(base, vectorized):
    # Each doubling takes cosines only at the new odd angles.  The identity
    # integrand returns its nodes, so any ulp of difference from the
    # doubled grid's own nodes shows.
    f = Integrand(np.copy if vectorized else float, vectorized=vectorized)
    cache = SampleCache(base)
    for k in range(4):
        cache.ensure(f, base * 2**k)
    for k in range(4):
        nodes = ChebGrid(base * 2**k).nodes
        assert np.array_equal(cache.values_at(base * 2**k), f.sample(nodes))
        assert np.array_equal(f.sample(nodes), nodes)


def test_cached_samples_are_read_only():
    # A writable view once let `v *= 2` double the next n = 8 read of exp.
    cache = SampleCache(8)
    richardson(math.exp, 16, 0, (), cache)
    for n in (8, 16):
        with pytest.raises(ValueError):
            cache.values_at(n)[0] = 0.0
    fresh = integrate(cc_rule_fast(8), math.exp).approx
    assert richardson(math.exp, 8, 0, (), cache).value == fresh


@pytest.mark.parametrize("through", ["ensure", "richardson"])
def test_a_failed_doubling_leaves_the_stored_samples_read_only(through):
    # A doubling that raised once left the level before it stored writable,
    # so a write through values_at(16) changed later reads at n = 8.
    bad = float(np.cos(ChebGrid(32).angles[1]))
    f = lambda x: math.nan if x == bad else math.exp(x)
    cache = SampleCache(8)
    with pytest.raises(IntegrandError):
        if through == "ensure":
            cache.ensure(f, 32)
        else:
            richardson(f, 8, 2, (2.0, 4.0), cache)
    assert cache.finest_n == 16
    for n in (8, 16):
        with pytest.raises(ValueError):
            cache.values_at(n)[0] = 123.0
        assert np.array_equal(cache.values_at(n), Integrand(f).sample(ChebGrid(n).nodes))


def test_a_reused_output_buffer_leaves_cached_samples_unchanged():
    # The cache once kept the integrand's own array, so an unrelated
    # 9-point call rewrote the cached n = 8 samples.
    buffer = np.empty(9)
    f = Integrand(lambda x: np.exp(x, out=buffer), vectorized=True)
    cache = SampleCache(8)
    before = richardson(f, 8, 0, (), cache).value
    integrate(gl_rule(9), f)
    after = richardson(f, 8, 0, (), cache)
    assert after.evals_used == 0 and after.value == before


def test_cache_size_validation():
    with pytest.raises(SizeError):
        SampleCache(0)
    cache = SampleCache(8)
    with pytest.raises(SizeError):
        cache.ensure(math.exp, 12)  # not a doubling of the base
    with pytest.raises(SizeError):
        cache.ensure(math.exp, 6)
    with pytest.raises(SizeError):
        cache.values_at(8)  # nothing stored yet
    cache.ensure(math.exp, 16)
    # 0 once raised a bare ZeroDivisionError; -4 returned the samples reversed
    for n in (6, 0, -4):
        with pytest.raises(SizeError):
            cache.values_at(n)
    assert cache.values_at(8).shape == (9,)


def test_values_at_an_unensured_size_names_the_missing_ensure():
    cache = SampleCache(8)
    with pytest.raises(SizeError, match=r"size 8 is not cached; call ensure\(f, 8\) first"):
        cache.values_at(8)
    cache.ensure(math.exp, 16)
    with pytest.raises(SizeError, match=r"call ensure\(f, 32\) first"):
        cache.values_at(32)
    assert np.array_equal(cache.values_at(16.0), Integrand(math.exp).sample(ChebGrid(16).nodes))


def test_cache_refuses_a_second_integrand():
    # Reusing an exp cache for sin once returned 1.1737 for a zero integral.
    cache = SampleCache(8)
    richardson(math.exp, 8, 0, (), cache)
    with pytest.raises(ConfigError):
        richardson(math.sin, 16, 0, (), cache)
    with pytest.raises(ConfigError):
        richardson(math.sin, 8, 0, (), cache)  # even at a cached size
    assert cache.eval_count == 9
    assert richardson(math.exp, 16, 0, (), cache).evals_used == 8


def test_cache_accepts_an_equal_bound_method():
    class Shifted:
        def value(self, x):
            return x + 1.0

    s = Shifted()
    assert s.value is not s.value
    cache = SampleCache(4)
    richardson(s.value, 4, 0, (), cache)
    assert richardson(s.value, 8, 0, (), cache).evals_used == 4


# ---------------------------------------------------------------------------
# aliasing identity


def test_aliasing_hand_values():
    assert aliasing_error(2, 4) == pytest.approx(-32.0 / 15.0, rel=1e-15)
    assert aliasing_error(8, 6) == 0.0
    assert aliasing_error(4, 10) == pytest.approx(-2.0 / 99.0 + 2.0 / 3.0, rel=1e-15)
    assert aliasing_error(8, 3) == 0.0  # odd degrees are annihilated
    assert aliasing_error(8, 0) == 0.0


def test_aliasing_formula_matches_node_evaluation_everywhere():
    """Formula vs brute-force rule application, all even n <= 32, m <= 200."""
    for n in range(2, 33, 2):
        for m in range(0, 201):
            formula = aliasing_error(n, m)
            brute = brute_cc_error(n, m)
            assert abs(formula - brute) <= 1e-12, (n, m)


def test_aliasing_argument_validation():
    with pytest.raises(SizeError):
        aliasing_error(5, 10)
    with pytest.raises(DomainError):
        aliasing_error(4, -2)


# ---------------------------------------------------------------------------
# summation accuracy

# At n = 65536 a left-to-right sum is off math.fsum by more than the bound:
# 1.2e-14 (f = 1) and 7.2e-15 (F1a) relative over the weight-space products.
@pytest.mark.parametrize(
    "f",
    [corpus_function("F1a"), lambda x: math.cos(200.0 * x), lambda x: 1.0],
    ids=["F1a", "cos200x", "one"],
)
def test_weight_space_sum_tracks_fsum(f):
    sample = (f if isinstance(f, Integrand) else Integrand(f)).sample
    for n in (4096, 65536):
        rule = cc_rule_fast(n)
        products = rule.weights * sample(rule.nodes)
        err = abs(integrate(rule, f).approx - math.fsum(products))
        assert err <= 2e-15 * math.fsum(np.abs(products)), n

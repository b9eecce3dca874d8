"""Quadrature rule construction tests for both rule families."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gl_rule_recurrence, supported_sizes
from singquad.errors import NumericError, SizeError
from singquad.rules import (
    QuadratureRule,
    RuleKind,
    cc_rule_direct,
    cc_rule_fast,
    gl_rule,
)


def exactness_errors(rule, degree):
    """Worst |rule applied to x^k - integral| over k = 0..degree.

    The monomial table is built by repeated multiplication in extended
    precision, so the rule's own error is not masked by float64 rounding
    of the powers or of their weighted sums.
    """
    x = rule.nodes.astype(np.longdouble)
    vander = np.ones((degree + 1, x.size), dtype=np.longdouble)
    for k in range(degree):
        vander[k + 1] = vander[k] * x
    k = np.arange(degree + 1, dtype=np.longdouble)
    exact = np.where(k % 2 == 0, 2 / (k + 1), 0)
    return float(np.max(np.abs(vander @ rule.weights.astype(np.longdouble) - exact)))


# ---------------------------------------------------------------------------
# hand-checked small rules


def test_direct_rule_at_n1_is_the_endpoint_rule():
    rule = cc_rule_direct(1)
    assert np.allclose(rule.nodes, [1.0, -1.0], atol=0)
    assert np.allclose(rule.weights, [1.0, 1.0], atol=1e-15)


def test_direct_rule_at_n2_is_simpson():
    rule = cc_rule_direct(2)
    assert np.max(np.abs(rule.nodes - np.array([1.0, 0.0, -1.0]))) <= 1e-16
    assert np.allclose(rule.weights, [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_direct_rule_at_n4_normalized_and_symmetric():
    rule = cc_rule_direct(4)
    assert abs(rule.weights.sum() - 2.0) <= 1e-14
    assert np.allclose(rule.weights, rule.weights[::-1], atol=1e-15)


def test_fast_rule_matches_direct_at_n8():
    fast = cc_rule_fast(8)
    direct = cc_rule_direct(8)
    assert np.array_equal(fast.nodes, direct.nodes)
    err = np.max(np.abs(fast.weights - direct.weights))
    assert err <= 1e-14 * np.max(direct.weights)


def test_fast_rule_at_n2_is_simpson():
    assert np.allclose(cc_rule_fast(2).weights, [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_fast_rule_at_n4096_is_normalized():
    assert abs(cc_rule_fast(4096).weights.sum() - 2.0) <= 1e-12


def test_fast_weights_are_exactly_symmetric_for_even_sizes():
    for n in (2, 8, 64, 1024):
        w = cc_rule_fast(n).weights
        assert np.array_equal(w, w[::-1])


def test_gl_rule_at_n1_is_the_midpoint_rule():
    rule = gl_rule(1)
    assert rule.nodes[0] == 0.0
    assert rule.weights[0] == 2.0


def test_gl_rule_at_n2():
    rule = gl_rule(2)
    root = 1.0 / np.sqrt(3.0)
    assert np.allclose(rule.nodes, [-root, root], atol=1e-15)
    assert np.allclose(rule.weights, [1.0, 1.0], atol=1e-15)
    assert exactness_errors(rule, 3) <= 1e-15


def test_gl_rule_at_n5_integrates_x8():
    rule = gl_rule(5)
    approx = rule.weights @ rule.nodes**8
    assert abs(approx - 2.0 / 9.0) <= 1e-13


# ---------------------------------------------------------------------------
# Gauss-Legendre accuracy against independent references

# (index, node, weight) of the increasing-order rule, frozen at 20 significant
# digits.  Computed with mpmath at 40 digits: Newton's method on the
# three-term recurrence for P_n, started from the float64 node, until the
# step fell below 1e-38; then w = 2 / ((1 - x^2) P_n'(x)^2).
GL_REFERENCE = {
    256: (
        (0, "-0.99995605001899223073", "0.00011278901782227217551"),
        (1, "-0.9997684374092631861", "0.00026253494429644590629"),
        (3, "-0.99894352584340885656", "0.00056234895403140980282"),
        (6, "-0.99658260202338154043", "0.0010114243932084404526"),
        (12, "-0.98782974756486060892", "0.0019048808534997184044"),
        (40, "-0.87801062060470654399", "0.0058623120869226530607"),
        (64, "-0.70167191434868515941", "0.0087266159616988071403"),
    ),
    2048: (
        (0, "-0.99999931092710532958", "0.0000017683833666660711807"),
        (1, "-0.9999963693177449578", "0.0000041164558305822254428"),
        (3, "-0.99998343324279355727", "0.0000088198218978503293397"),
        (6, "-0.99994639040378036794", "0.000015875379685302668849"),
        (12, "-0.99980880700517365481", "0.000029985433388250779148"),
        (40, "-0.99804782700145461154", "0.000095779524952173396968"),
        (512, "-0.70642867076141565306", "0.0010854623590730426739"),
    ),
    4096: (
        (0, "-0.99999982768970382085", "0.00000044220385139094867252"),
        (1, "-0.99999909210742498477", "0.0000010293661404151329149"),
        (3, "-0.99999585729096556813", "0.0000022055029274431300216"),
        (6, "-0.99998659423904710325", "0.0000039698670793565520305"),
        (12, "-0.99995218893922250263", "0.000007498546909454114262"),
        (40, "-0.99951171842852503746", "0.000023962423759120118418"),
        (1024, "-0.7067677710147489023", "0.00054253776577559217711"),
    ),
}


@pytest.mark.parametrize("n", sorted(GL_REFERENCE))
def test_gl_rule_matches_mpmath_reference(n):
    rule = gl_rule(n)
    for i, node, weight in GL_REFERENCE[n]:
        x = np.longdouble(node)
        w = np.longdouble(weight)
        # both halves: the rule is mirrored, so index n-1-i carries -x
        for j, sign in ((i, 1), (n - 1 - i, -1)):
            assert abs(rule.nodes[j] - sign * x) <= 2.2e-16, (n, j)
            assert abs(rule.weights[j] - w) <= 5e-14 * w, (n, j)


@pytest.mark.parametrize("n", list(range(1, 65)) + [512])
def test_gl_rule_agrees_with_recurrence_newton(n):
    nodes, weights = gl_rule_recurrence(n)
    rule = gl_rule(n)
    assert np.max(np.abs(rule.nodes - nodes)) <= 4.5e-16
    assert np.max(np.abs(rule.weights - weights) / weights) <= 2e-12


# ---------------------------------------------------------------------------
# exactness up to the stated degree


def test_exactness_up_to_degree_for_all_sizes():
    """Monomial exactness at every size up to 512, for both families."""
    worst_cc = 0.0
    worst_gl = 0.0
    for n in range(1, 513):
        worst_cc = max(worst_cc, exactness_errors(cc_rule_direct(n), n))
        worst_gl = max(worst_gl, exactness_errors(gl_rule(n), 2 * n - 1))
    assert worst_cc <= 1e-12, f"worst CC monomial error {worst_cc:.3e}"
    assert worst_gl <= 1e-12, f"worst GL monomial error {worst_gl:.3e}"


# ---------------------------------------------------------------------------
# positivity, normalization, nestedness


def test_weights_positive_and_normalized_up_to_4096():
    for n in supported_sizes(4096, minimum=2):
        rule = cc_rule_fast(n)
        assert rule.weights.min() > 0.0
        assert abs(rule.weights.sum() - 2.0) <= 1e-13
    for n in (1, 3, 9, 31, 101, 333, 511):
        rule = cc_rule_direct(n)
        assert rule.weights.min() > 0.0
        assert abs(rule.weights.sum() - 2.0) <= 1e-13
    for n in (1, 2, 3, 8, 64, 512, 2048, 4096):
        rule = gl_rule(n)
        assert rule.weights.min() > 0.0
        assert abs(rule.weights.sum() - 2.0) <= 1e-13


@pytest.mark.parametrize("n", [2, 8, 24, 160])
def test_cc_nodes_nest_exactly_under_doubling(n):
    coarse = cc_rule_fast(n)
    fine = cc_rule_fast(2 * n)
    assert np.array_equal(fine.nodes[::2], coarse.nodes)


def test_node_orderings():
    # CC nodes run decreasing from +1; GL nodes run increasing.
    assert np.all(np.diff(cc_rule_fast(16).nodes) < 0)
    assert np.all(np.diff(gl_rule(16).nodes) > 0)


def test_gl_nodes_and_weights_are_symmetric():
    rule = gl_rule(14)
    assert np.array_equal(rule.nodes, -rule.nodes[::-1])
    assert np.array_equal(rule.weights, rule.weights[::-1])


@pytest.mark.parametrize("n", [15, 2047])
def test_odd_gl_rule_is_symmetric_about_a_positive_zero_node(n):
    rule = gl_rule(n)
    assert np.array_equal(rule.nodes, -rule.nodes[::-1])
    assert np.array_equal(rule.weights, rule.weights[::-1])
    middle = rule.nodes[n // 2]
    assert middle == 0.0 and not np.signbit(middle)


# ---------------------------------------------------------------------------
# containers and errors


def test_npoints_counts_nodes():
    assert cc_rule_fast(16).npoints == 17
    assert gl_rule(16).npoints == 16


def test_size_errors():
    with pytest.raises(SizeError):
        cc_rule_direct(0)
    with pytest.raises(SizeError):
        cc_rule_fast(7)
    with pytest.raises(SizeError):
        gl_rule(0)


# ---------------------------------------------------------------------------
# memoized builders


@pytest.mark.parametrize("build, n", [(gl_rule, 64), (cc_rule_fast, 64), (cc_rule_fast, 5)])
def test_memoized_builders_share_one_read_only_rule(build, n):
    rule = build(n)
    assert build(n) is rule
    with pytest.raises(ValueError):
        rule.weights[0] = 1.0
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0


def test_memoized_builders_raise_on_every_call():
    for _ in range(2):
        with pytest.raises(SizeError):
            gl_rule(0)
        with pytest.raises(SizeError):
            cc_rule_fast(7)


def test_cache_info_counts_rules_built_and_reused():
    """``cache_info()`` is the rules-built (misses) and rules-reused (hits) counter."""
    for build in (gl_rule, cc_rule_fast):
        build.cache_clear()
        build(96)
        build(96)
        build(48)
        info = build.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 1, 2)


def test_rule_constructor_rejects_bad_weights():
    nodes = np.array([1.0, 0.0, -1.0])
    with pytest.raises(NumericError):
        QuadratureRule(RuleKind.CLENSHAW_CURTIS, 2, nodes, np.array([1.0, -0.5, 1.5]))
    with pytest.raises(NumericError):
        QuadratureRule(RuleKind.CLENSHAW_CURTIS, 2, nodes, np.array([1.0, 1.0, 1.0]))


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([2, 3, 4, 5, 6, 10, 16, 48, 96, 128, 256]))
def test_fast_and_direct_weights_agree(n):
    fast = cc_rule_fast(n)
    direct = cc_rule_direct(n)
    err = np.max(np.abs(fast.weights - direct.weights))
    assert err <= 1e-13 * np.max(direct.weights)

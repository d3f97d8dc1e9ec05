"""Tests for the closed-form constants and the weight objective."""

import math

import pytest
from hypothesis import example, given, strategies as st

from repi import (
    Order,
    bc_constant,
    binary_kl,
    bv_bound,
    log_constant,
    sharpened_constant,
    weight_kernel,
    young_constant,
)

finite_orders = st.floats(min_value=1.01, max_value=1e4)


class TestBcConstant:
    def test_value_at_two(self):
        """The n-free constant at alpha = 2 is 2/e."""
        assert bc_constant(2.0) == pytest.approx(2.0 / math.e, rel=1e-14)

    def test_value_at_infinity(self):
        """The limit order gives 1/e."""
        assert bc_constant(math.inf) == math.exp(-1.0)

    def test_near_one(self):
        """The constant tends to 1 as the order approaches 1."""
        assert bc_constant(1.0 + 1e-6) > 0.999998

    def test_monotone_decreasing(self):
        """The constant strictly decreases in the order."""
        grid = [1.1, 1.5, 2.0, 3.0, 10.0, 100.0, 1e4]
        vals = [bc_constant(a) for a in grid] + [bc_constant(math.inf)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestSharpenedConstant:
    def test_two_summands_at_two(self):
        """alpha = 2, n = 2 gives exactly 27/32."""
        assert sharpened_constant(2.0, 2) == pytest.approx(27.0 / 32.0, rel=1e-12)

    def test_three_summands_at_two(self):
        """alpha = 2, n = 3 frozen reference value."""
        assert sharpened_constant(2.0, 3) == pytest.approx(0.8037551440329218, rel=1e-12)

    def test_two_summands_at_infinity(self):
        """The limit order with two summands gives exactly 1/2."""
        assert sharpened_constant(math.inf, 2) == pytest.approx(0.5, rel=1e-14)

    def test_ten_summands_at_infinity(self):
        """The limit order with n summands gives (1 - 1/n)^(n-1)."""
        assert sharpened_constant(math.inf, 10) == pytest.approx(0.9 ** 9, rel=1e-12)

    def test_single_summand_is_free(self):
        """n = 1 needs no inequality: the constant is exactly 1."""
        for alpha in (1.5, 2.0, 10.0, math.inf):
            assert sharpened_constant(alpha, 1) == 1.0

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 10.0, math.inf])
    def test_strictly_decreasing_in_n(self, alpha):
        """More summands means a strictly smaller constant."""
        vals = [sharpened_constant(alpha, n) for n in range(1, 22)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 10.0, math.inf])
    def test_dominates_n_free_constant(self, alpha):
        """The n-aware constant strictly exceeds the n-free one for all n."""
        floor = bc_constant(alpha)
        for n in (2, 5, 50, 1000):
            assert sharpened_constant(alpha, n) > floor

    def test_converges_to_n_free_constant(self):
        """The large-n limit is the n-free constant."""
        for alpha in (1.5, 2.0, 10.0):
            gap = sharpened_constant(alpha, 10 ** 5) - bc_constant(alpha)
            assert 0.0 < gap < 1e-4

    @pytest.mark.parametrize(
        "bad", [0, -1, 2.0, "2", 2 ** 53 + 1, pytest.param(10 ** 308, id="10**308")]
    )
    def test_count_validation(self, bad):
        """The summand count must be a positive integer up to 2**53."""
        with pytest.raises(ValueError):
            sharpened_constant(2.0, bad)


class TestYoungConstant:
    def test_reference_values(self):
        """Frozen values at t = 4 and its conjugate 4/3."""
        assert young_constant(4.0) == pytest.approx(1.1397535284773888, rel=1e-12)
        assert young_constant(4.0 / 3.0) == pytest.approx(0.8773826753016616, rel=1e-12)

    def test_fixed_points(self):
        """t = 1, t = 2 and t = inf all give 1."""
        assert young_constant(1.0) == 1.0
        assert young_constant(math.inf) == 1.0
        assert young_constant(2.0) == pytest.approx(1.0, abs=1e-15)

    def test_below_one(self):
        """t = 1/2 gives 1/4, and t = 1/3 gives 4/27."""
        assert young_constant(0.5) == pytest.approx(0.25, rel=1e-14)
        assert young_constant(1.0 / 3.0) == pytest.approx(4.0 / 27.0, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("t", [1e-8, 1e-15, 1e-200])
    def test_small_exponents(self, t):
        """A_t = (t / e) exp(t/2 + O(t^2)) as t -> 0, with no cancellation."""
        expected = t / math.e * math.exp(t / 2.0)
        assert young_constant(t) == pytest.approx(expected, rel=1e-13, abs=0.0)

    @given(st.floats(min_value=1.01, max_value=50.0))
    def test_conjugate_product(self, t):
        """A_t times A_{t'} is 1 for conjugate exponents."""
        tc = t / (t - 1.0)
        assert young_constant(t) * young_constant(tc) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_domain(self, bad):
        """Nonpositive exponents are rejected."""
        with pytest.raises(ValueError):
            young_constant(bad)


class TestWeightKernel:
    def test_full_weight_at_two(self):
        """g(1) at alpha = 2 equals -log 2."""
        assert weight_kernel(1.0, 2.0) == pytest.approx(-math.log(2.0), abs=1e-15)

    def test_half_weight_at_two(self):
        """g(1/2) at alpha = 2 frozen reference value."""
        assert weight_kernel(0.5, 2.0) == pytest.approx(-0.08494951839769871, abs=1e-15)

    def test_zero_weight(self):
        """g(0) = 0 under the 0 log 0 convention."""
        for alpha in (1.5, 2.0, math.inf):
            assert weight_kernel(0.0, alpha) == 0.0

    def test_full_weight_at_infinity(self):
        """At the limit order, x = 1 hits the conjugate and 0 log 0 applies twice."""
        assert weight_kernel(1.0, math.inf) == 0.0

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_midpoint_concavity(self, x, y):
        """The kernel is concave: midpoint value dominates the chord."""
        order = Order(2.0)
        mid = weight_kernel(0.5 * (x + y), order)
        chord = 0.5 * (weight_kernel(x, order) + weight_kernel(y, order))
        assert mid >= chord - 1e-12

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
    def test_domain(self, bad):
        """Weights outside [0, 1] are rejected."""
        with pytest.raises(ValueError):
            weight_kernel(bad, 2.0)


class TestLogConstant:
    def test_frozen_three_summand_value(self):
        """Reference evaluation at an interior simplex point."""
        value = log_constant(
            (0.125, 0.125, 0.75), (1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0), 2.0
        )
        assert value == pytest.approx(-0.15279356889245854, abs=1e-14)
        assert math.exp(value) == pytest.approx(0.8583068847656249, rel=1e-13)

    def test_equal_split_recovers_two_summand_constant(self):
        """Uniform weights on equal powers give the n-aware constant."""
        value = log_constant((0.5, 0.5), (0.5, 0.5), 2.0)
        assert value == pytest.approx(math.log(27.0 / 32.0), abs=1e-14)
        assert value == pytest.approx(math.log(sharpened_constant(2.0, 2)), abs=1e-14)

    def test_positive_weight_on_zero_power(self):
        """A weighted zero power certifies nothing: the value is -inf."""
        assert log_constant((0.5, 0.5), (0.0, 1.0), 2.0) == -math.inf

    def test_zero_weight_on_zero_power(self):
        """An unweighted zero power drops out; full weight elsewhere gives 0."""
        assert log_constant((0.0, 1.0), (0.0, 1.0), 2.0) == pytest.approx(0.0, abs=1e-15)

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
        st.lists(st.floats(0.0, 1e3), min_size=12, max_size=12),
        st.sampled_from((1.01, 1.5, 2.0, 10.0, 1e4, math.inf)),
    )
    @example(
        raw_weights=[1.0, 0.34375, 0.0],
        raw_powers=[1.0214587237714555e-218, 2.225073858507e-311, 2.0] + [0.0] * 9,
        alpha=1.01,
    )
    def test_matches_loop_reference(self, raw_weights, raw_powers, alpha):
        """The array evaluation agrees with a term-by-term loop to rounding.

        The array form sums its terms exactly and evaluates log and log1p
        in numpy, so it may differ from the loop in the last bits only:
        1e-13, or 4 ulps where the value is large (near -557 one ulp is
        1.1e-13).
        """
        if sum(raw_weights) == 0.0 or sum(raw_powers[: len(raw_weights)]) == 0.0:
            return
        weights = [w / sum(raw_weights) for w in raw_weights]
        powers = raw_powers[: len(weights)]
        powers = [p / sum(powers) for p in powers]
        if abs(sum(weights) - 1.0) > 1e-10 or abs(sum(powers) - 1.0) > 1e-10:
            return
        order = Order(alpha)
        ac = order.alpha_conj
        expected = order.log_alpha_slope()
        for t, p in zip(weights, powers):
            t = min(max(t, 0.0), 1.0)
            if t > 0.0:
                expected += (0.0 if t == ac else (ac - t) * math.log1p(-t / ac)) - t * math.log(t)
                expected += -math.inf if p == 0.0 else t * math.log(p)
        value = log_constant(weights, powers, order)
        if math.isinf(expected):
            assert value == expected
        else:
            assert value == pytest.approx(expected, abs=max(1e-13, 4 * math.ulp(expected)))

    def test_length_mismatch(self):
        """Weights and powers must pair up."""
        with pytest.raises(ValueError):
            log_constant((0.5, 0.5), (0.2, 0.3, 0.5), 2.0)

    def test_normalization_enforced(self):
        """Powers must be normalized to total 1."""
        with pytest.raises(ValueError):
            log_constant((0.5, 0.5), (1.0, 4.0), 2.0)


class TestBinaryKl:
    def test_frozen_value(self):
        """d(1/2 || 1/4) reference value."""
        assert binary_kl(0.5, 0.25) == pytest.approx(0.14384103622589042, abs=1e-15)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_zero_on_diagonal(self, x):
        """d(x || x) = 0."""
        assert binary_kl(x, x) == 0.0

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.001, max_value=0.999),
    )
    def test_nonnegative(self, x, y):
        """Relative entropy is never negative (up to roundoff near the diagonal)."""
        assert binary_kl(x, y) >= -1e-15

    def test_endpoint_references(self):
        """References at 0 or 1 are infinite off the matching point."""
        assert binary_kl(0.5, 0.0) == math.inf
        assert binary_kl(0.5, 1.0) == math.inf
        assert binary_kl(0.0, 0.0) == 0.0
        assert binary_kl(1.0, 1.0) == 0.0

    def test_zero_argument(self):
        """d(0 || y) collapses to -log(1-y)."""
        assert binary_kl(0.0, 0.25) == pytest.approx(-math.log(0.75), abs=1e-15)

    def test_domain(self):
        """Arguments must lie in [0, 1]."""
        with pytest.raises(ValueError):
            binary_kl(-0.1, 0.5)
        with pytest.raises(ValueError):
            binary_kl(0.5, 1.5)


class TestBvBound:
    def test_picks_largest(self):
        """The max-power bound is the largest summand power."""
        assert bv_bound((10.0, 20.0, 90.0)) == 90.0

    def test_validation_inherited(self):
        """Power validation applies."""
        with pytest.raises(ValueError):
            bv_bound((-1.0, 2.0))

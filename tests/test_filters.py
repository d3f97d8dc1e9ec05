"""Tests for the linear filter entropy bounds."""

import math

import pytest

from repi import (
    FilterSpec,
    bv_asymptotically_tight,
    filter_bounds,
    gaussian_reference,
    sharpened_constant,
)

REFERENCE = FilterSpec((2.0, 1.0, 1.0), 1, 2.0)


class TestFilterSpec:
    def test_magnitudes_stored(self):
        """Tap signs are dropped; only determinant magnitudes matter."""
        spec = FilterSpec((2.0, -1.0, -1.0), 1, 2.0)
        assert spec.taps == (2.0, 1.0, 1.0)
        assert spec.length == 3

    def test_powers_scale_with_dimension(self):
        """Summand powers are |det H|^(2/d): two equal taps t give (d/2) log(2 c_2 t^(2/d))."""
        for dim in (1, 3):
            bound = filter_bounds(FilterSpec((8.0, 8.0), dim, 2.0))["sharpened"]
            expected = 0.5 * dim * math.log(2.0 * sharpened_constant(2.0, 2)) + math.log(8.0)
            assert bound == pytest.approx(expected, rel=1e-14)

    def test_validation(self):
        """Zero taps, empty taps and bad dimensions are rejected."""
        with pytest.raises(ValueError):
            FilterSpec((2.0, 0.0), 1, 2.0)
        with pytest.raises(ValueError):
            FilterSpec((), 1, 2.0)
        with pytest.raises(ValueError):
            FilterSpec((1.0,), 0, 2.0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_huge_taps_give_finite_bounds(self, dim):
        """Taps whose power |t|^(2/d) would overflow give the unit-tap bounds plus log t."""
        huge = filter_bounds(FilterSpec((1e200, 1e200), dim, 2.0))
        unit = filter_bounds(FilterSpec((1.0, 1.0), dim, 2.0))
        for method, value in huge.items():
            assert value == pytest.approx(unit[method] + 200.0 * math.log(10.0), rel=1e-15)
        if dim == 1:
            assert huge["optimized"] == pytest.approx(460.77864267069145, rel=1e-15)
            gauss = gaussian_reference(FilterSpec((1e200, 1e200), 1, 2.0))
            assert gauss == pytest.approx(0.5 * math.log(2.0) + 200.0 * math.log(10.0), rel=1e-15)


class TestReferenceFilter:
    def test_frozen_bounds(self):
        """Frozen full-precision values for the three-tap reference filter."""
        bounds = filter_bounds(REFERENCE)
        assert list(bounds) == ["optimized", "sharpened", "bc", "bv"]
        assert bounds["optimized"] == pytest.approx(0.8194829501677983, abs=1e-12)
        assert bounds["sharpened"] == pytest.approx(0.7866494329091136, abs=1e-12)
        assert bounds["bc"] == pytest.approx(0.7424533248940002, abs=1e-12)
        assert bounds["bv"] == pytest.approx(math.log(2.0), abs=1e-15)
        assert gaussian_reference(REFERENCE) == pytest.approx(
            0.8958797346140275, abs=1e-12
        )

    def test_bound_ordering(self):
        """Each refinement tightens the bound; none passes the Gaussian truth."""
        bounds = filter_bounds(REFERENCE)
        exact = gaussian_reference(REFERENCE)
        assert bounds["bv"] < bounds["bc"] < bounds["sharpened"] < bounds["optimized"] < exact

    def test_sign_irrelevance(self):
        """Negating taps changes nothing."""
        flipped = FilterSpec((-2.0, 1.0, -1.0), 1, 2.0)
        assert filter_bounds(flipped)["optimized"] == filter_bounds(REFERENCE)["optimized"]
        assert gaussian_reference(flipped) == gaussian_reference(REFERENCE)


class TestSingleTap:
    def test_collapses_to_log_tap(self):
        """One tap is lossless: optimized and n-aware bounds hit log|h| exactly."""
        for dim in (1, 3):
            bounds = filter_bounds(FilterSpec((3.0,), dim, 2.0))
            assert bounds["optimized"] == pytest.approx(math.log(3.0), abs=1e-14)
            assert bounds["sharpened"] == pytest.approx(math.log(3.0), abs=1e-14)

    def test_n_free_bound_keeps_slack(self):
        """The n-free constant stays strictly below log|h| even for one tap."""
        spec = FilterSpec((3.0,), 1, 2.0)
        assert filter_bounds(spec)["bc"] < math.log(3.0)


class TestConsistency:
    def test_sharpened_matches_constant(self):
        """The filter form equals (d/2)(log n-aware constant + log power sum)."""
        for taps, dim, alpha in (
            ((2.0, 1.0, 1.0), 1, 2.0),
            ((1.5, 0.5), 2, 5.0),
            ((3.0, 2.0, 1.0, 0.5), 3, 1.5),
        ):
            spec = FilterSpec(taps, dim, alpha)
            expected = 0.5 * dim * (
                math.log(sharpened_constant(alpha, len(taps)))
                + math.log(sum(t ** (2.0 / dim) for t in taps))
            )
            assert filter_bounds(spec)["sharpened"] == pytest.approx(expected, abs=1e-12)

    def test_equal_taps_close_the_gap(self):
        """Equal taps are the worst case: optimized equals the n-aware bound."""
        bounds = filter_bounds(FilterSpec((1.5, 1.5, 1.5), 1, 2.0))
        assert bounds["optimized"] == pytest.approx(bounds["sharpened"], abs=1e-9)

    def test_unequal_taps_strictly_improve(self):
        """Spread-out taps strictly separate optimized from the n-aware bound."""
        bounds = filter_bounds(REFERENCE)
        assert bounds["optimized"] > bounds["sharpened"] + 1e-3

    def test_bounds_scale_linearly_in_dimension(self):
        """With taps fixed as |det|^(d) the bounds scale by d."""
        base = FilterSpec((2.0, 1.0, 1.0), 1, 2.0)
        cubed = FilterSpec((8.0, 1.0, 1.0), 3, 2.0)
        assert filter_bounds(cubed)["optimized"] == pytest.approx(
            3.0 * filter_bounds(base)["optimized"], rel=1e-12
        )
        assert filter_bounds(cubed)["bc"] == pytest.approx(
            3.0 * filter_bounds(base)["bc"], rel=1e-12
        )


class TestFilterBounds:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [1.5, 2.0, math.inf])
    def test_tap_scaling_shifts_by_log(self, dim, alpha):
        """Scaling every tap by s adds log s to every bound and to the reference."""
        taps = (2.0, 1.0, 0.5, 1.5)
        base = FilterSpec(taps, dim, alpha)
        base_bounds = filter_bounds(base)
        for s in (1e-3, 0.37, 2.5, 1e4):
            scaled = FilterSpec(tuple(s * t for t in taps), dim, alpha)
            for method, value in filter_bounds(scaled).items():
                assert value == pytest.approx(base_bounds[method] + math.log(s), abs=1e-12)
            if dim == 1:
                assert gaussian_reference(scaled) == pytest.approx(
                    gaussian_reference(base) + math.log(s), abs=1e-12
                )

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_limit_order_meets_max_power_when_tight(self, dim):
        """At alpha = inf a dominant tap makes the optimized bound the max-power one."""
        for taps in ((3.0, 1.0, 1.0), (8.0, -2.0, 1.0, 0.5), (1.0, 0.2)):
            spec = FilterSpec(taps, dim, math.inf)
            assert bv_asymptotically_tight([abs(t) ** (2.0 / dim) for t in taps])
            bounds = filter_bounds(spec)
            assert bounds["optimized"] == pytest.approx(bounds["bv"], abs=1e-12)


class TestGaussianReference:
    def test_one_dimensional_form(self):
        """d = 1 uses the tap energy."""
        spec = FilterSpec((3.0, 4.0), 1, 2.0)
        assert gaussian_reference(spec) == pytest.approx(0.5 * math.log(25.0), rel=1e-14)

    def test_higher_dimensions_need_gram_determinant(self):
        """d > 1 requires det(sum H H^T) from the caller."""
        spec = FilterSpec((1.0, 1.0), 2, 2.0)
        assert gaussian_reference(spec, gram_det=4.0) == pytest.approx(
            0.5 * math.log(4.0), rel=1e-14
        )
        with pytest.raises(ValueError):
            gaussian_reference(spec)
        with pytest.raises(ValueError):
            gaussian_reference(spec, gram_det=-1.0)

    @pytest.mark.parametrize("det", [0.0, -1.0, math.nan, math.inf])
    def test_gram_determinant_positive_and_finite(self, det):
        """A gram determinant that is not positive and finite has no entropy."""
        with pytest.raises(ValueError, match="must be positive and finite"):
            gaussian_reference(FilterSpec((1.0, 1.0), 2, 2.0), gram_det=det)

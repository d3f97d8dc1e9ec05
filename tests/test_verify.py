"""Tests for grid densities, convolution and numerical certification."""

import bisect
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from repi import (
    GridDensity,
    bound_report,
    certify,
    collision_bound,
    concavity_slacks,
    convolve_many,
    entropy_power,
    exponential_density,
    from_function,
    gaussian_density,
    gaussian_mixture_density,
    gaussian_renyi_entropy,
    random_corpus,
    renyi_entropy,
    uniform_density,
)
from repi import verify
from repi.verify import DEFAULT_SPACING, MASS_TOL, MAX_GRID_SAMPLES, Certification

ORDERS = (1.1, 1.5, 2.0, 5.0, math.inf)


def _direct_reference(parts):
    """Convolution by direct summation, renormalized to mass 1."""
    spacing = parts[0].spacing
    raw = parts[0].values
    for d in parts[1:]:
        raw = np.convolve(raw, d.values) * spacing
    raw = raw / (spacing * raw.sum())
    return GridDensity(sum(d.origin for d in parts), spacing, raw)


def _weight_array_entropy(density, alpha):
    """Finite-order renyi_entropy with an explicit weight array w, every cell's
    width, and the terms in one expression: the reference.

    Both sums are numpy's pairwise ``sum``, as in ``renyi_entropy``.
    """
    peak = float(density.values.max())
    r = density.values / peak
    w = np.full(r.size, density.spacing)
    wr = w * r
    mass = float(wr.sum())
    with np.errstate(divide="ignore", over="ignore"):
        excess = float((wr * np.expm1((alpha - 1.0) * np.log(r))).sum()) / mass
    return math.log(mass) - math.log1p(excess) / (alpha - 1.0)


def _plain_spectral_product(parts):
    """The values of convolve_many as one spectral product: the reference."""
    spacing = parts[0].spacing
    n = sum(d.values.size for d in parts) - (len(parts) - 1)
    size = verify._transform_length(n)
    spectrum = np.fft.rfft(parts[0].values, size)
    for d in parts[1:]:
        spectrum = spectrum * np.fft.rfft(d.values * spacing, size)
    raw = np.maximum(np.fft.irfft(spectrum, size)[:n], 0.0)
    return raw / (spacing * float(raw.sum()))


def _unevaluated(x):
    """A density that must not be sampled: its window is refused first."""
    raise AssertionError("fn ran on a refused window")


class TestGridDensity:
    def test_axis_and_mass(self):
        """xs spans origin + i * spacing, half a cell past each end of a uniform; the mass is 1."""
        d = uniform_density(0.0, 1.0)
        assert d.xs()[0] == -0.5 * DEFAULT_SPACING
        assert d.xs()[-1] == pytest.approx(1.0 + 0.5 * DEFAULT_SPACING, abs=1e-12)
        assert d.integral() == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        """Negative values, wrong mass and bad spacing are rejected."""
        with pytest.raises(ValueError):
            GridDensity(0.0, 0.1, np.array([1.0, -0.1, 1.0]))
        with pytest.raises(ValueError):
            GridDensity(0.0, 0.1, np.array([2.0, 2.0, 2.0]))
        with pytest.raises(ValueError):
            GridDensity(0.0, -0.1, np.full(11, 1.0))
        with pytest.raises(ValueError):
            GridDensity(0.0, 0.1, np.array([10.0]))

    def test_translation_preserves_entropy_exactly(self):
        """Shifting the origin reuses the samples, so entropy is bit-identical."""
        d = gaussian_density(0.0, 1.0)
        shifted = GridDensity(d.origin + 3.7, d.spacing, d.values)
        assert shifted.origin == pytest.approx(d.origin + 3.7, abs=1e-15)
        for alpha in ORDERS:
            assert renyi_entropy(shifted, alpha) == renyi_entropy(d, alpha)

    def test_scaling_shifts_entropy_by_log_factor(self):
        """Entropy of s X is the entropy of X plus log s."""
        d = gaussian_density(0.0, 1.0)
        scaled = GridDensity(d.origin * 2.5, d.spacing * 2.5, d.values / 2.5)
        for alpha in ORDERS:
            assert renyi_entropy(scaled, alpha) == pytest.approx(
                renyi_entropy(d, alpha) + math.log(2.5), abs=1e-12
            )

    def test_constructor_copies_its_values(self):
        """A writable array and a read-only view of one are both copied: a later
        write to the array leaves every density built from it unchanged."""
        values = uniform_density(0.0, 1.0).values.copy()
        view = values[:]
        view.setflags(write=False)
        kept = [GridDensity(0.0, DEFAULT_SPACING, v) for v in (values, view)]
        expected = values.copy()
        values *= 3.0
        for d in kept:
            assert not d.values.flags.writeable
            assert np.array_equal(d.values, expected)

    def test_renormalized_keeps_its_array_and_every_check(self):
        """The private renormalizing path stores its fresh array without a copy,
        and still refuses what the constructor refuses."""
        fresh = np.array([0.0, 1.0, 1.0, 0.0])
        d = verify._renormalized(0.0, 0.5, fresh)
        assert d.values is fresh and not fresh.flags.writeable
        assert d.integral() == 1.0
        with pytest.raises(ValueError, match="^density values must be finite"):
            verify._renormalized(0.0, 0.5, np.array([math.nan, 1.0, 1.0]))
        with pytest.raises(ValueError, match="^origin must be finite"):
            verify._renormalized(math.inf, 0.5, np.array([0.0, 1.0, 1.0]))

    def test_infinite_spacing_rejected(self):
        """Zero samples on an infinite pitch have NaN mass, which is not 1."""
        with pytest.raises(ValueError, match="spacing"):
            GridDensity(0.0, math.inf, np.zeros(3))

    def test_infinite_translation_rejected(self):
        """An infinite origin is refused, even with valid samples."""
        values = uniform_density(0.0, 1.0).values
        with pytest.raises(ValueError, match="origin"):
            GridDensity(math.inf, DEFAULT_SPACING, values)


class TestConstructors:
    def test_uniform_is_exact(self):
        """Constant samples make the uniform mass exactly 1."""
        d = uniform_density(0.0, 1.0)
        assert d.integral() == 1.0
        assert d.spacing == DEFAULT_SPACING

    def test_uniform_width_snaps_to_grid(self):
        """Irrational widths snap to the nearest multiple of the spacing."""
        d = uniform_density(0.0, 1.0 + DEFAULT_SPACING / 3.0)
        assert d.spacing == DEFAULT_SPACING
        assert d.integral() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "density",
        [
            gaussian_density(0.0, 1.0),
            exponential_density(1.3, -0.5),
            gaussian_mixture_density((0.4, 0.6), (-1.0, 1.5), (0.5, 0.8)),
        ],
    )
    def test_mass_within_tolerance(self, density):
        """Truncated analytic densities renormalize to mass 1."""
        assert abs(density.integral() - 1.0) <= MASS_TOL

    def test_from_function_renormalizes(self):
        """Sampled shapes are scaled to unit mass."""
        d = from_function(lambda x: np.exp(-np.abs(x)) * 7.0, -20.0, 20.0)
        assert d.integral() == pytest.approx(1.0, abs=1e-12)

    def test_constructor_validation(self):
        """Bad parameters are rejected."""
        with pytest.raises(ValueError):
            gaussian_density(0.0, 0.0)
        with pytest.raises(ValueError):
            uniform_density(1.0, 0.0)
        with pytest.raises(ValueError, match="hi > lo"):
            uniform_density(0.5, 0.5)
        with pytest.raises(ValueError):
            exponential_density(-0.5)
        with pytest.raises(ValueError):
            gaussian_mixture_density((0.5, 0.4), (0.0, 1.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="vanishes"):
            from_function(np.zeros_like, 0.0, 1.0)

    def test_gaussian_is_a_one_component_mixture(self):
        """A Gaussian is sampled exactly as the one-component mixture."""
        g = gaussian_density(0.3, 0.8)
        mix = gaussian_mixture_density((1.0,), (0.3,), (0.8,))
        assert g.origin == mix.origin
        assert np.array_equal(g.values, mix.values)

    @pytest.mark.parametrize(
        "weights, means, stds, match",
        [
            ((1.0,), (0.0,), (math.inf,), "std"),
            ((1.0,), (0.0,), (math.nan,), "std"),
            ((1.0,), (math.nan,), (1.0,), "mean"),
            ((1.0,), (math.inf,), (1.0,), "mean"),
            ((math.nan, 1.0), (0.0, 1.0), (1.0, 1.0), "weights must be positive"),
            ((0.5, 0.4), (0.0, 1.0), (1.0, 1.0), "sum to 1"),
            ((0.5, 0.5), (0.0,), (1.0, 1.0), "equal positive length"),
        ],
    )
    def test_mixture_parameters_named(self, weights, means, stds, match):
        """Each bad parameter gets an error naming it (these used to read "math domain error" or "[nan, nan]")."""
        with pytest.raises(ValueError, match=match):
            gaussian_mixture_density(weights, means, stds)
        if len(weights) == 1:
            with pytest.raises(ValueError, match=match):
                gaussian_density(means[0], stds[0])

    def test_tiny_std_is_a_one_cell_spike(self):
        """A std far below the spacing gives the same one-cell spike as 1e-6, without overflow."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = gaussian_density(0.0, 1e-300)
        assert np.array_equal(tiny.values, gaussian_density(0.0, 1e-6).values)
        assert tiny.integral() == 1.0

    @pytest.mark.parametrize("std", [9e-309, 1e-310, 5e-324])
    def test_subnormal_std_is_the_same_spike(self, std):
        """A std below about 1e-308, whose density underflows at its cut, gives the spike of
        1e-300 too, alone and as a mixture component (it raised "density vanishes"), and so
        does one whose mean is a grid knot (its peak overflowed to inf)."""
        spike = gaussian_density(0.0, 1e-300).values
        means = (0.3, 1.0, 1e6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = gaussian_density(0.0, std)
            on_knots = [gaussian_density(mean, std) for mean in means]
            pair = gaussian_mixture_density((0.25, 0.75), (0.0, 0.0), (std, std))
            beside = gaussian_mixture_density((0.5, 0.5), (-1.0, 0.0), (std, 1.0))
        assert np.array_equal(alone.values, spike)
        for mean, density in zip(means, on_knots):
            assert np.array_equal(density.values, spike) and density.origin == mean
        assert np.array_equal(pair.values, spike)
        assert -1e-300 < alone.origin < 0.0
        reference = gaussian_mixture_density((0.5, 0.5), (-1.0, 0.0), (1e-308, 1.0))
        assert np.array_equal(beside.values, reference.values)

    @pytest.mark.parametrize(
        "mean, spacing",
        [(0.0, 2.0 ** -11), (0.3, 2.0 ** -11), (1.0, 2.0 ** -11), (1e6, 0.5), (-20.0, 2.0 ** -11)],
    )
    @pytest.mark.parametrize(
        "std", [5e-324, 1e-300, 1e-12, 1e-5, 3e-5, 1e-4, 4.9e-4, 9.7e-4, 0.1, 1.0]
    )
    def test_narrow_component_keeps_its_weight(self, mean, spacing, std):
        """Half of the mixture lies within max(10 std, 2 spacings) of the narrow component's
        mean, to 1e-9, at every std; it used to keep 0.0007 of its 0.5 below about spacing / 16.
        The stds are set against the spacing 2^-11 (4.9e-4 and 9.7e-4 are one and two cells).
        The wide N(0, 1) half, known at each knot, is subtracted; a window reaching 1e6 holds
        more than MAX_GRID_SAMPLES knots at 2^-11, so it is checked at 0.5. At -20 a narrow
        component sets the window's left end, and its mass lies in the end cell, as wide as
        every other."""
        d = gaussian_mixture_density((0.5, 0.5), (mean, 0.0), (std, 1.0), spacing)
        xs = d.xs()
        narrow = (d.values - 0.5 * np.exp(-0.5 * xs**2) / math.sqrt(2.0 * math.pi)) * spacing
        near = np.abs(xs - mean) <= max(10.0 * std, 2.0 * spacing)
        assert float(narrow[near].sum()) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize(
        "build, centre",
        [
            (lambda: gaussian_density(0.5, 1e-300), 0.5),
            (lambda: exponential_density(1e300, 0.5), 0.5),
            (lambda: gaussian_density(1e6, 1e-12), 1e6),
        ],
        ids=["gaussian-tiny-std", "exponential-huge-rate", "gaussian-far-mean"],
    )
    def test_spike_below_one_ulp_of_its_centre(self, build, centre):
        """A window narrower than one ulp of its centre gets one grid cell (it used to collapse to [c, c])."""
        spike = build()
        assert spike.values.size == 2
        assert abs(spike.origin - centre) <= DEFAULT_SPACING
        assert spike.integral() == 1.0

    @pytest.mark.parametrize(
        "rate, shift, match",
        [
            (math.inf, 0.0, "rate"),
            (math.nan, 0.0, "rate"),
            (1.0, math.inf, "shift"),
            (1.0, -math.inf, "shift"),
            (1.0, math.nan, "shift"),
        ],
    )
    def test_exponential_parameters_named(self, rate, shift, match):
        """A non-finite rate or shift gets an error naming it, not "[0.0, nan]" or "[inf, inf]"."""
        with pytest.raises(ValueError, match=match):
            exponential_density(rate, shift)

    def test_huge_rate_is_a_one_cell_spike(self):
        """Rate 1e300 gives the one-cell spike of a tiny-std Gaussian, without overflow."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spike = exponential_density(1e300)
        assert spike.origin == 0.0
        assert np.array_equal(spike.values, gaussian_density(0.0, 1e-300).values)
        assert spike.integral() == 1.0

    def test_grid_sample_limit(self):
        """A window one cell past MAX_GRID_SAMPLES samples is refused before allocating."""
        edge = (MAX_GRID_SAMPLES - 1) * DEFAULT_SPACING
        assert verify._grid_cells(0.0, edge, DEFAULT_SPACING) == MAX_GRID_SAMPLES - 1
        past = MAX_GRID_SAMPLES * DEFAULT_SPACING
        with pytest.raises(ValueError, match="too many grid cells"):
            uniform_density(0.0, past)
        with pytest.raises(ValueError, match="too many grid cells"):
            from_function(lambda x: np.ones_like(x), 0.0, past)

    @pytest.mark.parametrize("centre", [1e16, -1e16, 1e17])
    @pytest.mark.parametrize(
        "build",
        [
            lambda c, h: gaussian_density(c, 1.0, h),
            lambda c, h: exponential_density(1.0, c, h),
            lambda c, h: gaussian_mixture_density((0.4, 0.6), (c - 1.0, c + 1.0), (0.5, 1.0), h),
            lambda c, h: from_function(_unevaluated, c, c + 10.0, h),
        ],
        ids=["gaussian", "exponential", "mixture", "from_function"],
    )
    def test_far_window_refused(self, build, centre):
        """Where one ulp of the window exceeds spacing / 256 the knots round, so it is refused before fn runs."""
        with pytest.raises(ValueError, match=r"too far from 0 for grid cells of 0\.00048828125"):
            build(centre, 2.0 ** -11)

    @pytest.mark.parametrize("centre", [1e10, -1e10])
    @pytest.mark.parametrize(
        "build",
        [
            lambda c: gaussian_density(c, 0.7),
            lambda c: exponential_density(1.3, c),
            lambda c: gaussian_mixture_density((0.3, 0.7), (c - 1.0, c + 1.5), (0.5, 0.9)),
        ],
        ids=["gaussian", "exponential", "mixture"],
    )
    def test_far_window_keeps_its_shape(self, build, centre):
        """Inside the rule, a smooth family's entropy at +-1e10 matches its copy at 0 within 1e-9 nats."""
        far, near = build(centre), build(0.0)
        for alpha in ORDERS:
            assert renyi_entropy(far, alpha) == pytest.approx(renyi_entropy(near, alpha), abs=1e-9)

    @pytest.mark.parametrize("alpha", ORDERS)
    def test_gaussian_cut_is_scale_free(self, alpha):
        """At spacing 2^-11 std, a Gaussian's entropy misses its closed form by the same
        amount, to rounding, for every std from 2^-40 to 2^60: each window keeps +-8.58
        std. Cut at the absolute density 1e-16, the window kept +-1.59 std at 2^50,
        and the order-2 entropy was 0.21 nats low."""
        errors = []
        for k in range(-40, 61, 10):
            std = 2.0 ** k
            d = gaussian_density(0.0, std, 2.0 ** -11 * std)
            errors.append(renyi_entropy(d, alpha) - gaussian_renyi_entropy(alpha, 1, std * std))
        assert max(errors) - min(errors) <= 2e-14
        assert max(map(abs, errors)) <= 1e-8

    @pytest.mark.parametrize("alpha", ORDERS)
    def test_exponential_cut_is_scale_free(self, alpha):
        """At spacing 2^-11 / rate, an exponential's entropy misses its closed form
        log(alpha) / (alpha - 1) - log(rate) by the same amount, to rounding, for every
        rate from 1e-30 to 1e10: each window keeps 36.8 means. At alpha = inf the
        histogram's first cell lowers the peak by a factor (1 - q) / (rate h) with
        q = exp(-rate h), a first-order miss below rate h / 2 = 2^-12 nats. Cut at the
        absolute density 1e-16, rate 1e-16 kept one mean and lost 0.77 nats at order 2."""
        errors = []
        for k in range(-30, 11, 5):
            rate = 10.0 ** k
            d = exponential_density(rate, 0.0, 2.0 ** -11 / rate)
            exact = (0.0 if math.isinf(alpha) else math.log(alpha) / (alpha - 1.0)) - math.log(rate)
            errors.append(renyi_entropy(d, alpha) - exact)
        assert max(errors) - min(errors) <= 2e-14
        assert max(map(abs, errors)) <= (2.0 ** -12 if math.isinf(alpha) else 1e-7)

    @pytest.mark.parametrize(
        "build",
        [
            lambda s: uniform_density(0.0, 1.0, s),
            lambda s: from_function(lambda x: np.ones_like(x), 0.0, 1.0, s),
            lambda s: random_corpus(1, 1, s),
        ],
        ids=["uniform", "from_function", "random_corpus"],
    )
    @pytest.mark.parametrize("spacing", [0.0, -1e-3, math.nan, math.inf])
    def test_bad_spacing_rejected(self, build, spacing):
        """Zero, negative, NaN and infinite pitches are a clear ValueError."""
        with pytest.raises(ValueError, match="spacing must be positive and finite"):
            build(spacing)

    @pytest.mark.parametrize(
        "build",
        [
            lambda s: gaussian_density(0.0, 1e-313, spacing=s),
            lambda s: gaussian_mixture_density((0.5, 0.5), (0.0, 1e-312), (1e-320, 1e-311), s),
            lambda s: uniform_density(0.0, 1e-310, s),
            lambda s: random_corpus(1, 1, s),
        ],
        ids=["gaussian", "mixture", "uniform", "random_corpus"],
    )
    @pytest.mark.parametrize("spacing", [5e-324, 4e-316, 2.2e-308])
    def test_subnormal_spacing_rejected(self, build, spacing):
        """A subnormal pitch is refused by name. Over it a cell's mass can overflow and a
        trapezoid mass underflow; gaussian_density(0, 1e-313, spacing=4e-316) said "density
        vanishes on its grid", and other subnormal grids warned of overflow."""
        with pytest.raises(ValueError, match="spacing must be a normal float"):
            build(spacing)

    @pytest.mark.parametrize("std", [3e-308, 1e-306])
    def test_smallest_normal_spacing_accepted(self, std):
        """At the smallest normal pitch a cell-mass component (std below two spacings) and a
        sampled one both build a finite density of unit mass."""
        d = gaussian_density(0.0, std, spacing=sys.float_info.min)
        assert d.spacing == sys.float_info.min
        assert np.isfinite(d.values).all()
        assert d.integral() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "build",
        [
            lambda s: uniform_density(0.0, 1.0, s),
            lambda s: from_function(lambda x: 1.0 + x, 0.0, 1.0, s),
            lambda s: exponential_density(1.0, 0.0, s),
            lambda s: gaussian_density(0.0, 1.0, s),
        ],
        ids=["uniform", "from_function", "exponential", "gaussian"],
    )
    def test_numeric_string_spacing_is_a_float(self, build):
        """Each constructor reads its spacing once, as a float: "0.25" builds the grid of 0.25."""
        a, b = build("0.25"), build(0.25)
        assert (a.origin, a.spacing) == (b.origin, b.spacing)
        assert np.array_equal(a.values, b.values)

    def test_exponential_refuses_rate_before_spacing(self):
        """A bad rate is named even when the spacing is bad too."""
        with pytest.raises(ValueError, match="^rate must be positive"):
            exponential_density(-1, 0, 0)

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: gaussian_density(0, 1e308, 1e305), r"std 1e\+308 is too wide: its cut at \+-8\.58 std"),
            (
                lambda: exponential_density(1e-310, 0, 1e300),
                r"rate 1e-310 is too small: its cut at 36\.8 means",
            ),
            (
                lambda: gaussian_mixture_density((0.5, 0.5), (0, 1), (1, 1e308)),
                r"std 1e\+308 is too wide: its cut at \+-8\.58 std",
            ),
        ],
        ids=["gaussian", "exponential", "mixture"],
    )
    def test_cut_past_float_range_names_its_parameter(self, build, match):
        """A cut window that overflows the float range is refused by the std or the
        rate that widened it, not as a window with an infinite end."""
        with pytest.raises(ValueError, match=f"^{match} overflows the float range$"):
            build()

    @pytest.mark.parametrize(
        "fn", [lambda x: x[:2], lambda x: 1.0, lambda x: np.stack((x, x))], ids=["short", "scalar", "2-d"]
    )
    def test_from_function_needs_one_sample_per_knot(self, fn):
        """Samples that are not one per knot are a ValueError: a short array used to give a
        2-sample density on a 5-knot window, a scalar an IndexError, a 2-d array a TypeError."""
        with pytest.raises(ValueError, match=r"^fn must return one sample per knot, shape \(5,\)"):
            from_function(fn, 0.0, 1.0, 0.25)

    @pytest.mark.parametrize(
        "lo, hi", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (-1e308, 1e308)]
    )
    def test_non_finite_window_rejected(self, lo, hi):
        """Windows with an infinite end, or too wide to count, are a clear ValueError."""
        with pytest.raises(ValueError, match="finite|grid cells"):
            uniform_density(lo, hi)
        with pytest.raises(ValueError, match="finite|grid cells"):
            from_function(lambda x: np.ones_like(x), lo, hi)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: uniform_density(10 ** 400, 10 ** 401),
            lambda: from_function(lambda x: np.ones_like(x), 10 ** 400, 10 ** 401),
        ],
        ids=["uniform_density", "from_function"],
    )
    def test_integer_window_past_float_range(self, build):
        """Integer ends with no float are a ValueError naming their bit length."""
        with pytest.raises(
            ValueError,
            match="^window ends must lie within the float range, got an integer of 1329 bits$",
        ):
            build()


class TestEntropy:
    def test_unit_uniform_has_zero_entropy(self):
        """Uniform on [0, 1] has entropy 0 at every order, exactly on the grid."""
        d = uniform_density(0.0, 1.0)
        for alpha in ORDERS:
            assert renyi_entropy(d, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_wide_uniform_entropy_is_log_width(self):
        """Uniform on [0, 2] has entropy log 2 at every order."""
        d = uniform_density(0.0, 2.0)
        for alpha in ORDERS:
            assert renyi_entropy(d, alpha) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_gaussian_matches_closed_form(self):
        """Grid entropies track the closed-form Gaussian values at 2^-11."""
        d = gaussian_density(0.0, 1.0, 2.0 ** -11)
        for alpha in (1.1, 2.0, 10.0, math.inf):
            assert renyi_entropy(d, alpha) == pytest.approx(
                gaussian_renyi_entropy(alpha, 1, 1.0), abs=1e-6
            )

    def test_closed_form_frozen_values(self):
        """Reference closed-form Gaussian entropies."""
        assert gaussian_renyi_entropy(2.0, 1, 1.0) == pytest.approx(
            1.2655121234846454, abs=1e-14
        )
        assert gaussian_renyi_entropy(2.0, 3, 2.0) == pytest.approx(
            4.143109960733908, abs=1e-14
        )

    def test_closed_form_validation(self):
        """Bad dimension or determinant is rejected."""
        with pytest.raises(ValueError):
            gaussian_renyi_entropy(2.0, 0, 1.0)
        with pytest.raises(ValueError):
            gaussian_renyi_entropy(2.0, 1, -1.0)

    @pytest.mark.parametrize("det", [0.0, -1.0, math.nan, math.inf])
    def test_determinant_positive_and_finite(self, det):
        """A determinant that is not positive and finite has no entropy."""
        with pytest.raises(ValueError, match="must be positive and finite"):
            gaussian_renyi_entropy(2.0, 1, det)

    def test_monotone_in_order(self):
        """Grid entropies inherit exact monotonicity in the order."""
        d = gaussian_mixture_density((0.3, 0.7), (-1.0, 1.0), (0.4, 1.1))
        grid = [1.1, 1.3, 2.0, 3.0, 5.0, 10.0, 50.0, math.inf]
        vals = [renyi_entropy(d, a) for a in grid]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-9

    def test_huge_order_does_not_overflow(self):
        """At alpha = 1e308, (alpha - 1) log r overflows to -inf silently, and h is h_inf."""
        d = gaussian_density(0.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = renyi_entropy(d, 1e308)
        assert h == pytest.approx(renyi_entropy(d, math.inf), abs=1e-12)

    @pytest.mark.parametrize("spacing", [2.0 ** -12, 2.0 ** -9, 0.01, 1e-3 * math.pi])
    def test_weights_applied_in_place_match_weight_array(self, spacing):
        """Weighting the ratios and forming the terms in place gives the sum of the
        weight array and the one-line expm1((alpha - 1) log r) bit for bit."""
        for inst in random_corpus(seed=3, count=3, spacing=spacing):
            for d in inst.densities + (convolve_many(inst.densities),):
                for alpha in (1.1, 2.0, 5.0, 1e6):
                    assert renyi_entropy(d, alpha) == _weight_array_entropy(d, alpha)

    def test_entropy_power_relation(self):
        """entropy_power is exp(2 h) on the one-dimensional grid."""
        d = uniform_density(0.0, 2.0)
        assert entropy_power(d, 2.0) == pytest.approx(4.0, rel=1e-10)

    def test_entropy_power_overflow_rejected(self):
        """A window of width 1e160 has entropy 368, whose power exp(737) is a ValueError."""
        d = uniform_density(0.0, 1e160, spacing=1e157)
        with pytest.raises(ValueError, match="no finite entropy power"):
            entropy_power(d, 2.0)


class TestConvolve:
    def test_matches_direct_summation(self):
        """The spectral product matches direct summation renormalized to mass 1."""
        f = uniform_density(0.0, 1.0)
        g = uniform_density(-0.25, 0.25)
        fft = convolve_many((f, g))
        direct = _direct_reference([f, g])
        assert direct.values.size == fft.values.size
        assert float(np.max(np.abs(direct.values - fft.values))) <= 1e-10
        assert renyi_entropy(direct, 2.0) == pytest.approx(
            renyi_entropy(fft, 2.0), abs=1e-12
        )

    def test_two_sample_pair(self):
        """Two flat two-cell histograms convolve to the cell masses [1/4, 1/2, 1/4]."""
        pair = GridDensity(0.0, 2.0 ** -12, np.array([2.0 ** 11, 2.0 ** 11]))
        conv = convolve_many((pair, pair))
        assert conv.values == pytest.approx(np.array([1.0, 2.0, 1.0]) / 4.0 * 2.0 ** 12, rel=1e-15)

    def test_gaussian_sum_is_gaussian(self):
        """Two standard Gaussians convolve to the variance-2 Gaussian pointwise."""
        g = gaussian_density(0.0, 1.0)
        conv = convolve_many((g, g))
        xs = conv.xs()
        exact = np.exp(-0.25 * xs ** 2) / math.sqrt(4.0 * math.pi)
        assert float(np.max(np.abs(conv.values - exact))) <= 1e-5

    def test_support_adds(self):
        """The output grid starts at the sum of the input origins."""
        f = uniform_density(1.0, 2.0)
        g = uniform_density(-0.5, 0.5)
        conv = convolve_many((f, g))
        assert conv.origin == pytest.approx(0.5 - DEFAULT_SPACING, abs=1e-12)
        assert conv.values.size == f.values.size + g.values.size - 1
        assert conv.integral() == pytest.approx(1.0, abs=1e-12)

    def test_near_point_mass_barely_moves_entropy(self):
        """Convolving with a one-cell spike changes the entropy only slightly."""
        f = gaussian_density(0.0, 1.0)
        spike = uniform_density(0.0, DEFAULT_SPACING)
        conv = convolve_many((f, spike))
        assert entropy_power(conv, 2.0) == pytest.approx(
            entropy_power(f, 2.0), rel=1e-3
        )

    def test_spacing_mismatch_rejected(self):
        """Grids with different pitches cannot be convolved."""
        f = uniform_density(0.0, 1.0, spacing=2.0 ** -10)
        g = uniform_density(0.0, 1.0, spacing=2.0 ** -9)
        with pytest.raises(ValueError):
            convolve_many((f, g))

    def test_third_summand_spacing_mismatch_rejected(self):
        """Every summand, not only the second, must share the first one's pitch."""
        f = uniform_density(0.0, 1.0, spacing=2.0 ** -10)
        g = uniform_density(0.0, 1.0, spacing=2.0 ** -9)
        with pytest.raises(ValueError, match="share spacing"):
            convolve_many((f, f, g))

    def test_convolve_many_matches_direct_and_nested(self):
        """Three-way convolution matches direct summation and nested pairs."""
        parts = [uniform_density(0.0, 1.0), uniform_density(0.0, 0.5), uniform_density(-1.0, 0.0)]
        product = convolve_many(parts)
        direct = _direct_reference(parts)
        nested = convolve_many((convolve_many(parts[:2]), parts[2]))
        assert product.origin == direct.origin == nested.origin
        assert float(np.max(np.abs(product.values - direct.values))) <= 1e-14
        assert float(np.max(np.abs(product.values - nested.values))) <= 1e-14
        with pytest.raises(ValueError):
            convolve_many(parts[:1])

    def test_sum_sample_limit(self, monkeypatch):
        """A sum of more than MAX_GRID_SAMPLES samples is refused before any transform:
        seventeen uniforms of 2^20 cells (8 MiB each) would need 17 * 2^20 + 18."""

        def no_transform(*args):
            raise AssertionError("a transform was computed")

        monkeypatch.setattr(np.fft, "rfft", no_transform)
        wide = uniform_density(0.0, 1.0, 2.0 ** -20)
        message = "^the sum spans too many grid cells of 9.5367431640625e-07: 17825810 samples$"
        with pytest.raises(ValueError, match=message):
            convolve_many([wide] * 17)

    def test_buffers_match_the_plain_spectral_product(self):
        """The values are the plain spectral product with fresh arrays, bit for bit,
        at 2, 3 and 4 summands."""
        by_count = {}
        for inst in random_corpus(seed=1, count=12, spacing=2.0 ** -9):
            by_count.setdefault(len(inst.densities), inst.densities)
        assert sorted(by_count) == [2, 3, 4]
        for parts in by_count.values():
            conv = convolve_many(parts)
            assert conv.origin == verify._left_sum(d.origin for d in parts)
            assert np.array_equal(conv.values, _plain_spectral_product(parts))

    def test_transform_length_is_smallest_5_smooth(self):
        """The transform length is the least 2^a 3^b 5^c at or above n."""
        smooth = sorted(
            2 ** a * 3 ** b * 5 ** c
            for a in range(16)
            for b in range(10)
            for c in range(7)
            if 2 ** a * 3 ** b * 5 ** c <= 40000
        )
        for n in range(1, 20001):
            assert verify._transform_length(n) == smooth[bisect.bisect_left(smooth, n)]


class TestCertify:
    def test_two_uniforms_at_limit_order(self):
        """The tight two-summand case: the measured ratio is 1/2, on the bound."""
        u = uniform_density(0.0, 1.0)
        cert = certify((u, u), math.inf)
        assert cert.ratio == pytest.approx(0.5, abs=1e-12)
        assert cert.ok
        assert min(cert.margins().values()) == pytest.approx(0.0, abs=1e-12)
        assert set(cert.margins()) == {"bc", "sharpened", "optimized", "bv"}

    def test_holds_the_bound_report(self):
        """The certificate carries the report of the summand powers, and every margin is
        the ratio less a constant on the summed powers, bv's share of them included."""
        u, g = uniform_density(0.0, 1.0), gaussian_density(0.5, 0.7)
        cert = certify((u, g), 2.0)
        report = bound_report((entropy_power(u, 2.0), entropy_power(g, 2.0)), 2.0)
        assert cert.report == report
        assert cert.ratio == cert.conv_power / report.powers.total
        assert cert.margins() == {
            "bc": cert.ratio - report.bc,
            "sharpened": cert.ratio - report.sharpened,
            "optimized": cert.ratio - report.optimized,
            "bv": cert.ratio - report.bv / report.powers.total,
        }

    def test_verdicts_compare_against_bound_minus_slack(self):
        """A check fails exactly when its margin, a share of the summed powers, is below -slack."""
        report = bound_report((1.0, 1.0), 2.0)
        total = report.powers.total
        on_edge = Certification(report, (report.optimized - 0.25) * total, 0.25)
        assert on_edge.ratio == report.optimized - 0.25
        assert on_edge.ok
        share = report.bv / total
        assert share == 0.5
        # ratios within a factor 2 of the share subtract exactly, so one ulp shows
        bv_edge = Certification(report, (share - 0.125) * total, 0.125)
        assert bv_edge.margins()["bv"] == -0.125
        assert "bv" not in bv_edge.violations
        below = Certification(report, math.nextafter((share - 0.125) * total, 0.0), 0.125)
        assert below.margins()["bv"] < -0.125
        assert below.violations[-1] == "bv" and not below.ok

    @pytest.mark.parametrize(
        "hi, spacing",
        [(236234.67176712624, 86.43786014164883), (29260676.189544488, 23597.319507697168)],
    )
    def test_wide_uniform_pairs_certify_at_limit_order(self, hi, spacing):
        """Wide uniform pairs sit on the tight share 1/2 at alpha = inf; the bv check
        reads that share to rounding, not the sum's power less an absolute slack."""
        u = uniform_density(0.0, hi, spacing=spacing)
        cert = certify((u, u), math.inf)
        assert cert.violations == ()
        assert abs(cert.margins()["bv"]) < 1e-12

    @pytest.mark.parametrize("conv_power, slack", [(math.nan, 1e-4), (1.0, math.nan)])
    def test_nan_fails_every_check(self, conv_power, slack):
        """A NaN measurement or slack is a violation of all four checks, not a pass."""
        cert = Certification(bound_report((1.0, 2.0), 2.0), conv_power, slack)
        assert not cert.ok
        assert cert.violations == ("bc", "sharpened", "optimized", "bv")

    @pytest.mark.parametrize(
        "make, alpha",
        [
            (lambda s, h: uniform_density(0.0, s, h), math.inf),
            (lambda s, h: gaussian_density(0.0, s, h), 2.0),
        ],
    )
    def test_verdict_does_not_depend_on_scale(self, make, alpha):
        """Scaling a pair and its spacing by 2^k leaves every margin and the verdict as they are."""

        def certified(k):
            d = make(2.0 ** k, DEFAULT_SPACING * 2.0 ** k)
            return certify((d, d), alpha)

        unit = certified(0)
        for k in range(-30, 31):
            cert = certified(k)
            assert cert.violations == unit.violations, k
            for name, margin in cert.margins().items():
                assert margin == pytest.approx(unit.margins()[name], abs=1e-12), (k, name)

    def test_two_gaussians_attain_one(self):
        """Gaussians are additive: the measured ratio is 1 to 1e-12 (1.6e-15 measured), since
        a Gaussian's cell heights sum like its integral to far below rounding at the default spacing."""
        g = gaussian_density(0.0, 1.0)
        for alpha in (1.1, 2.0, 10.0):
            cert = certify((g, g), alpha)
            assert cert.ratio == pytest.approx(1.0, abs=1e-12)
            assert cert.ok

    @pytest.mark.parametrize("alpha", [2000.0, 1e6])
    def test_two_gaussians_at_large_orders(self, alpha):
        """Large finite orders keep the Gaussian ratio at 1 (f^alpha used to underflow)."""
        g = gaussian_density(0.0, 1.0)
        cert = certify((g, g), alpha)
        assert cert.ratio == pytest.approx(1.0, abs=1e-4)
        assert cert.ok

    @pytest.mark.parametrize("alpha", [1.0 + 1e-12, 1.0 + 1e-9])
    def test_two_gaussians_near_order_one(self, alpha):
        """Orders just above 1 keep the Gaussian ratio at 1 (a 1e-16 mass error used to be divided by alpha - 1)."""
        g = gaussian_density(0.0, 1.0)
        assert certify((g, g), alpha).ratio == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("alpha", [1e6, 1e300])
    def test_two_uniforms_at_large_orders(self, alpha):
        """At huge orders the uniform pair sits next to its alpha = inf ratio of 1/2."""
        u = uniform_density(0.0, 1.0)
        cert = certify((u, u), alpha)
        assert cert.ratio == pytest.approx(0.5, abs=1e-3)
        assert cert.ok

    def test_mixed_pair(self):
        """A uniform plus a Gaussian certifies cleanly at alpha = 2."""
        cert = certify((uniform_density(0.0, 1.0), gaussian_density(0.5, 0.7)), 2.0)
        assert cert.ok
        assert cert.ratio >= cert.report.optimized

    def test_negative_slack_flags_violations(self):
        """An impossible tolerance reports every check as violated."""
        u = uniform_density(0.0, 1.0)
        cert = certify((u, u), math.inf, slack=-1.0)
        assert not cert.ok
        assert set(cert.violations) == {"bc", "sharpened", "optimized", "bv"}

    @pytest.mark.parametrize("slack", [math.nan, math.inf, -math.inf])
    def test_non_finite_slack_rejected(self, slack):
        """NaN or infinite slack would pass every check, so it is refused."""
        u = uniform_density(0.0, 1.0)
        with pytest.raises(ValueError, match="slack"):
            certify((u, u), 2.0, slack=slack)

    def test_needs_two_summands(self):
        """A single density is not a sum."""
        with pytest.raises(ValueError):
            certify((uniform_density(0.0, 1.0),), 2.0)

    @pytest.mark.parametrize(
        "spacings, match",
        [((2.0 ** -10,), "at least two densities"), ((2.0 ** -10, 2.0 ** -9), "share spacing")],
    )
    def test_refused_before_any_entropy(self, monkeypatch, spacings, match):
        """One density, or mismatched spacings, is refused by the convolution, before any entropy."""

        def no_entropy(*args):
            raise AssertionError("an entropy was computed")

        monkeypatch.setattr(verify, "renyi_entropy", no_entropy)
        densities = tuple(uniform_density(0.0, 1.0, spacing=h) for h in spacings)
        with pytest.raises(ValueError, match=match):
            certify(densities, 2.0)


def _exact_power(alpha, integral, peak):
    """exp(2 h_alpha) from the closed form of the integral of f^alpha, or of max f at alpha = inf."""
    if math.isinf(alpha):
        return peak ** -2.0
    return math.exp(2.0 * math.log(integral(alpha)) / (1.0 - alpha))


def _two_uniforms_error(a, b, alpha, spacing):
    """Measured minus exact ratio of U[0, a] + U[0, b], with a <= b multiples of the spacing."""
    parts = (uniform_density(0.0, a, spacing), uniform_density(0.0, b, spacing))
    power = _exact_power(alpha, lambda s: b ** -s * (2.0 * a / (s + 1.0) + b - a), 1.0 / b)
    return certify(parts, alpha).ratio - power / (a * a + b * b)


def _gamma_relative_error(rate, alpha, spacing):
    """Relative error of the measured ratio of Exp(rate) + Exp(rate) = Gamma(2, rate)."""
    e = exponential_density(rate, spacing=spacing)
    total = _exact_power(
        alpha, lambda s: rate ** (s - 1.0) * math.gamma(s + 1.0) / s ** (s + 1.0), rate / math.e
    )
    one = _exact_power(alpha, lambda s: rate ** (s - 1.0) / s, rate)
    exact = total / (2.0 * one)
    return (certify((e, e), alpha).ratio - exact) / exact


def _geometric_pair_ratio_at_inf(rate, spacing):
    """The alpha = inf ratio of the sum of two copies of the sampled exponential histogram.

    Its cell masses are c q^k for k = 0..K, with q = exp(-rate h) and
    c = (1 - q) / (1 - q^(K + 1)); the masses of the pair's sum are
    c^2 (k + 1) q^k up to k = K and smaller past it. So the ratio of the
    summands' peak c to the sum's is 1 / (2 c^2 max_k ((k + 1) q^k)^2).
    A histogram misses the jump of Exp(rate) at first order, so this, not
    Gamma(2, rate), is the exact value at inf.
    """
    size = exponential_density(rate, spacing=spacing).values.size
    c = -math.expm1(-rate * spacing) / -math.expm1(-rate * spacing * size)
    k = np.arange(size)
    peak = float(np.max((k + 1) * np.exp(-rate * spacing * k)))
    return 1.0 / (2.0 * (c * peak) ** 2)


def _irwin_hall_square_integral(n):
    """int f^2 for the sum of n unit uniforms, exactly.

    f is symmetric about n/2, so int f(x)^2 dx = int f(x) f(n - x) dx is the
    density of the sum of 2n unit uniforms at n:
    (1 / (2n - 1)!) sum_{k=0}^{n} (-1)^k C(2n, k) (n - k)^(2n - 1).
    """
    terms = sum((-1) ** k * math.comb(2 * n, k) * (n - k) ** (2 * n - 1) for k in range(n + 1))
    return Fraction(terms, math.factorial(2 * n - 1))


def _irwin_hall_error(n, spacing):
    """Measured minus exact order-2 entropy, in nats, of the sum of n unit uniforms."""
    total = convolve_many([uniform_density(0.0, 1.0, spacing)] * n)
    return renyi_entropy(total, 2.0) + math.log(_irwin_hall_square_integral(n))


class TestClosedForms:
    """Measured ratios of sums against their exact Renyi entropies.

    Each summand is its histogram, and the measured sum is the histogram of
    the convolved cell masses. The bounds of test_two_uniforms and
    test_two_exponentials hold at 2^-12; at 2^-11, the spacing the
    ``*_at_default_spacing`` tests and test_irwin_hall[default] name, every
    oracle is within 2.5e-5 in the ratio.
    """

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (0.5, 1.0), (0.75, 2.0), (1.25, 3.0)])
    def test_two_uniforms(self, a, b):
        """U[0, a] + U[0, b] with a <= b has a trapezoid density:
        int f^alpha = b^-alpha (2a / (alpha + 1) + b - a) and max f = 1/b,
        and each summand has power its width squared."""
        parts = (uniform_density(0.0, a, 2.0 ** -12), uniform_density(0.0, b, 2.0 ** -12))
        for alpha in (1.1, 2.0, 5.0, math.inf):
            power = _exact_power(alpha, lambda s: b ** -s * (2.0 * a / (s + 1.0) + b - a), 1.0 / b)
            tol = 1e-14 if math.isinf(alpha) else 1e-6
            assert certify(parts, alpha).ratio == pytest.approx(power / (a * a + b * b), abs=tol)

    @pytest.mark.parametrize("rate", [0.7, 2.5])
    def test_two_exponentials(self, rate):
        """Exp(rate) + Exp(rate) is Gamma(2, rate):
        int f^alpha = rate^(alpha - 1) Gamma(alpha + 1) / alpha^(alpha + 1) and
        max f = rate / e; one summand has rate^(alpha - 1) / alpha and rate.
        At alpha = inf the ratio is the sampled geometric histogram's, to rounding."""
        e = exponential_density(rate, spacing=2.0 ** -12)
        for alpha in (1.1, 2.0, 5.0):
            total = _exact_power(
                alpha, lambda s: rate ** (s - 1.0) * math.gamma(s + 1.0) / s ** (s + 1.0), rate / math.e
            )
            one = _exact_power(alpha, lambda s: rate ** (s - 1.0) / s, rate)
            assert certify((e, e), alpha).ratio == pytest.approx(total / (2.0 * one), rel=1e-5)
        exact = _geometric_pair_ratio_at_inf(rate, 2.0 ** -12)
        assert certify((e, e), math.inf).ratio == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (0.5, 1.0), (0.75, 2.0), (1.25, 3.0)])
    def test_two_uniforms_at_default_spacing(self, a, b):
        """test_two_uniforms at 2^-11: 1.46e-6 measured at worst, stated as 4e-6."""
        for alpha in (1.1, 2.0, 5.0, math.inf):
            tol = 1e-14 if math.isinf(alpha) else 4e-6
            assert abs(_two_uniforms_error(a, b, alpha, 2.0 ** -11)) <= tol

    @pytest.mark.parametrize("rate", [0.7, 2.5])
    def test_two_exponentials_at_default_spacing(self, rate):
        """test_two_exponentials at 2^-11: 1.7e-6 measured at worst, stated as 2e-5; at
        alpha = inf the sampled geometric histogram's ratio, to rounding."""
        for alpha in (1.1, 2.0, 5.0):
            assert abs(_gamma_relative_error(rate, alpha, 2.0 ** -11)) <= 2e-5
        e = exponential_density(rate, spacing=2.0 ** -11)
        exact = _geometric_pair_ratio_at_inf(rate, 2.0 ** -11)
        assert certify((e, e), math.inf).ratio == pytest.approx(exact, rel=1e-14)

    def test_irwin_hall_square_integrals(self):
        """The exact sums behind the Irwin-Hall oracle."""
        assert _irwin_hall_square_integral(3) == Fraction(11, 20)
        assert _irwin_hall_square_integral(4) == Fraction(151, 315)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize(
        "spacing, tol", [(2.0 ** -12, 6e-8), (2.0 ** -11, 2.5e-7)], ids=["2^-12", "default"]
    )
    def test_irwin_hall(self, n, spacing, tol):
        """n unit uniforms at alpha = 2: 2.8e-8 nats measured at 2^-12 and 1.1e-7 at 2^-11,
        that is 2.4e-7 in the ratio at 2^-11."""
        assert abs(_irwin_hall_error(n, spacing)) <= tol

    def test_second_order_convergence(self):
        """Halving the spacing divides the error by about 4 (measured 3.8 to 4.0): a first-order
        error, such as point-sampled uniform jumps, would divide it by about 2."""
        coarse, fine = 2.0 ** -11, 2.0 ** -12
        for alpha in (1.1, 2.0, 5.0):
            uniforms = [_two_uniforms_error(0.5, 1.0, alpha, h) for h in (coarse, fine)]
            assert 3.0 <= uniforms[0] / uniforms[1] <= 5.0
            gammas = [_gamma_relative_error(0.7, alpha, h) for h in (coarse, fine)]
            assert 3.0 <= gammas[0] / gammas[1] <= 5.0
        assert 3.0 <= _irwin_hall_error(3, coarse) / _irwin_hall_error(3, fine) <= 5.0

    def test_snapped_uniform_widths(self):
        """U[0, 0.3] + U[0, 0.7] at h = 2^-11 is measured for the widths snapped to
        614 h and 1434 h: their closed form holds to the tolerance of test_two_uniforms,
        4x at finite orders for the doubled spacing (the error is second order), while
        the requested widths miss at alpha = inf by log(1434 h / 0.7) = 2.8e-4 nats."""
        h = 2.0 ** -11
        parts = (uniform_density(0.0, 0.3, h), uniform_density(0.0, 0.7, h))
        a, b = 614 * h, 1434 * h
        for alpha in (1.1, 2.0, 5.0, math.inf):
            power = _exact_power(alpha, lambda s: b ** -s * (2.0 * a / (s + 1.0) + b - a), 1.0 / b)
            tol = 1e-14 if math.isinf(alpha) else 4e-6
            assert certify(parts, alpha).ratio == pytest.approx(power / (a * a + b * b), abs=tol)
        miss = renyi_entropy(convolve_many(parts), math.inf) - math.log(0.7)
        assert miss == pytest.approx(math.log(1434 * h / 0.7), abs=1e-14)

    def test_two_gaussian_mixtures(self):
        """The sum of two mixtures is the mixture of all pairs, and at alpha = 2
        int f^2 = sum_ij w_i w_j phi(mu_i - mu_j; var_i + var_j), phi the centred
        normal density of that variance; the grid matches it to 1e-12 nats."""
        first = ((0.3, 0.7), (-1.0, 1.0), (0.4, 1.1))
        second = ((0.6, 0.4), (0.5, -2.0), (0.9, 0.5))
        total = convolve_many((gaussian_mixture_density(*first), gaussian_mixture_density(*second)))
        pairs = [
            (w * v, m + n, s * s + t * t)
            for w, m, s in zip(*first)
            for v, n, t in zip(*second)
        ]
        integral = sum(
            w * v * math.exp(-0.5 * (m - n) ** 2 / (s + t)) / math.sqrt(2.0 * math.pi * (s + t))
            for w, m, s in pairs
            for v, n, t in pairs
        )
        assert renyi_entropy(total, 2.0) == pytest.approx(-math.log(integral), abs=1e-12)


def _exact_pair_power(f, g, alpha):
    """Entropy power of the exact density of the sum of the histograms f and g.

    The sum is sum_j M_j delta(z_j), M the convolved cell masses, convolved with
    the triangle of two cells: the line through M_j / h at each knot z_j, down to
    0 one cell past either end. On a piece of width h from a down to b = t a,
    int f^alpha = h a^alpha (1 - t^(alpha + 1)) / ((alpha + 1) (1 - t)), whose
    quotient is formed as expm1((alpha + 1) log t) / expm1(log t), alpha + 1 at t = 1.
    """
    h = f.spacing
    masses = np.convolve(f.values, g.values)
    heights = np.concatenate(([0.0], masses / (h * masses.sum()), [0.0]))
    peak = float(heights.max())
    if math.isinf(alpha):
        return peak ** -2.0
    r = heights / peak
    top, low = np.maximum(r[:-1], r[1:]), np.minimum(r[:-1], r[1:])
    with np.errstate(divide="ignore"):
        log_t = np.log(np.divide(low, top, out=np.zeros_like(low), where=top > 0.0))
    flat = log_t == 0.0
    quotient = np.expm1((alpha + 1.0) * log_t) / np.expm1(np.where(flat, 1.0, log_t))
    quotient[flat] = alpha + 1.0
    integral = h * float((top ** alpha * quotient).sum()) / (alpha + 1.0)
    return math.exp(2.0 * (math.log(integral) + alpha * math.log(peak)) / (1.0 - alpha))


class TestHistogramSum:
    """The measured power of a sum is the power of the histogram of the convolved cell
    masses. The exact sum of n histograms adds n - 1 independent cell uniforms to it,
    which by Young's inequality cannot lower an order-alpha power: for n = 2 the exact
    density is piecewise linear, and these tests compare against its closed form."""

    @pytest.mark.parametrize("alpha", [1.1, 2.0, 5.0, math.inf])
    def test_measured_power_is_a_lower_bound(self, alpha):
        """On seeded random histograms, of 2 to 40 cells with about a third of them
        empty, at spacings from 2^-12 to 8: the measured power is at most the exact
        one (to 1e-13), and equal to it at alpha = inf (to 1e-14)."""
        rng = np.random.default_rng(20)

        def histogram(h):
            v = rng.exponential(size=int(rng.integers(2, 41)))
            v[rng.uniform(size=v.size) < 1.0 / 3.0] = 0.0
            v[int(rng.integers(v.size))] += 1.0
            return GridDensity(float(rng.uniform(-5.0, 5.0)), h, v / (h * v.sum()))

        for _ in range(60):
            h = 2.0 ** float(rng.uniform(-12.0, 3.0))
            f, g = histogram(h), histogram(h)
            measured = entropy_power(convolve_many((f, g)), alpha)
            exact = _exact_pair_power(f, g, alpha)
            if math.isinf(alpha):
                assert measured == pytest.approx(exact, rel=1e-14)
            else:
                assert measured <= exact * (1.0 + 1e-13)

    @pytest.mark.parametrize("alpha", [1.1, 2.0, 5.0, math.inf])
    def test_gap_is_second_order(self, alpha):
        """For the first two summands of seeded corpus instances, whose histograms sample
        smooth or piecewise smooth families, the relative gap (exact - measured) / exact
        lies in [0, 5 h^2] at h = 2^-6 and 2^-8 (3.9 h^2 measured at worst, at alpha = 1.1),
        and is rounding at alpha = inf."""
        for h in (2.0 ** -6, 2.0 ** -8):
            for inst in random_corpus(seed=7, count=12, spacing=h):
                f, g = inst.densities[:2]
                exact = _exact_pair_power(f, g, alpha)
                gap = (exact - entropy_power(convolve_many((f, g)), alpha)) / exact
                bound = 1e-14 if math.isinf(alpha) else 5.0 * h * h
                assert -1e-14 <= gap <= bound, (h, inst.label)


class TestCollisionBound:
    def test_frozen_values(self):
        """Reference evaluations of the collision probability bound."""
        assert collision_bound(1.0, 1.0, 2) == pytest.approx(16.0 / 27.0, rel=1e-14)
        assert collision_bound(0.5, 0.5, 1) == pytest.approx(0.3849001794597505, rel=1e-12)

    def test_decreasing_in_dimension(self):
        """More coordinates mean more chances to differ."""
        vals = [collision_bound(0.9, 0.8, d) for d in (1, 2, 3, 8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_tiny_probability_stays_finite(self):
        """p^-2 past the float range no longer overflows: the bound factors through min(p)."""
        expected = 1.0886621079036347e-200
        assert collision_bound(1e-200, 0.5, 1) == pytest.approx(expected, rel=1e-15)
        assert collision_bound(0.5, 1e-200, 1) == collision_bound(1e-200, 0.5, 1)

    def test_huge_dimension_underflows_to_zero(self):
        """A bound far below the float range is 0.0, not an OverflowError."""
        assert collision_bound(0.1, 1.0, 10_000) == 0.0
        assert collision_bound(1e-200, 0.5, 2**53) == 0.0

    def test_validation(self):
        """Probabilities outside (0, 1] and bad dimensions are rejected."""
        with pytest.raises(ValueError):
            collision_bound(0.0, 0.5, 1)
        with pytest.raises(ValueError):
            collision_bound(0.5, 1.5, 1)
        with pytest.raises(ValueError):
            collision_bound(0.5, 0.5, 0)


class TestRandomCorpus:
    def test_deterministic(self):
        """Identical seeds reproduce the corpus exactly."""
        a = list(random_corpus(seed=9, count=6, spacing=2.0 ** -9))
        b = list(random_corpus(seed=9, count=6, spacing=2.0 ** -9))
        assert [i.label for i in a] == [i.label for i in b]
        assert [i.order.alpha for i in a] == [i.order.alpha for i in b]
        for left, right in zip(a, b):
            for dl, dr in zip(left.densities, right.densities):
                assert np.array_equal(dl.values, dr.values)

    def test_shapes(self):
        """Each instance has 2 to 4 labeled summands."""
        for inst in random_corpus(seed=4, count=10, spacing=2.0 ** -9):
            assert 2 <= len(inst.densities) <= 4
            assert len(inst.label.split("+")) == len(inst.densities)
            assert inst.order.alpha > 1.0

    def test_count_validation(self):
        """Empty corpora and counts that are not integers up to 2**53 are rejected on the call."""
        for count in (0, 2.5, 2 ** 53 + 1):
            with pytest.raises(ValueError, match="^count must be a positive integer"):
                random_corpus(1, count)

    @pytest.mark.parametrize("seed", [1.5, -1, None, True, False])
    def test_seed_validation(self, seed):
        """A seed that is not an integer from 0 up, or is a bool, is refused on the call, by
        name, by the corpus and by the concavity probe alike."""
        message = f"^seed must be a non-negative integer, got {seed!r}$"
        with pytest.raises(ValueError, match=message):
            random_corpus(seed, 1)
        with pytest.raises(ValueError, match=message):
            concavity_slacks(3.0, seed=seed)

    def test_seed_past_printable_digits(self):
        """A negative seed of 5001 digits is refused and named by its bit length."""
        with pytest.raises(
            ValueError,
            match="^seed must be a non-negative integer, got a negative integer of 16610 bits$",
        ):
            random_corpus(-10 ** 5000, 1)

    @pytest.mark.parametrize("seed", [np.int64(4), 2 ** 70])
    def test_integer_seeds_of_any_type(self, seed):
        """numpy integers and integers past 64 bits seed the corpus like a plain int."""
        inst = next(random_corpus(seed, 1, spacing=2.0 ** -9))
        same = next(random_corpus(int(seed), 1, spacing=2.0 ** -9))
        assert inst.label == same.label
        assert all(np.array_equal(a.values, b.values) for a, b in zip(inst.densities, same.densities))

    def test_sample_certifies_cleanly(self):
        """A slice of the default corpus passes certification."""
        for inst in random_corpus(seed=1, count=25):
            cert = certify(inst.densities, inst.order)
            assert cert.ok, f"{inst.label}: {cert.violations}"

"""Tests for grid densities, convolution and numerical certification."""

import bisect
import math
import warnings

import numpy as np
import pytest

from repi import (
    GridDensity,
    bound_report,
    certify,
    collision_bound,
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
    """Convolution by direct summation, renormalized to trapezoid mass 1."""
    spacing = parts[0].spacing
    raw = parts[0].values
    for d in parts[1:]:
        raw = np.convolve(raw, d.values) * spacing
    raw = raw / np.trapezoid(raw, dx=spacing)
    return GridDensity(sum(d.origin for d in parts), spacing, raw)


def _weight_array_entropy(density, alpha):
    """Finite-order renyi_entropy with an explicit trapezoid weight array w: the reference."""
    peak = float(density.values.max())
    r = density.values / peak
    w = np.full(r.size, density.spacing)
    w[0] = w[-1] = 0.5 * density.spacing
    wr = w * r
    mass = float(wr.sum())
    with np.errstate(divide="ignore", over="ignore"):
        excess = float(np.dot(wr, np.expm1((alpha - 1.0) * np.log(r)))) / mass
    return math.log(mass) - math.log1p(excess) / (alpha - 1.0)


class TestGridDensity:
    def test_axis_and_mass(self):
        """xs spans origin + i * spacing, half a cell past each end of a uniform; the trapezoid mass is 1."""
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
        shifted = d.translated(3.7)
        assert shifted.origin == pytest.approx(d.origin + 3.7, abs=1e-15)
        for alpha in ORDERS:
            assert renyi_entropy(shifted, alpha) == renyi_entropy(d, alpha)

    def test_scaling_shifts_entropy_by_log_factor(self):
        """Entropy of s X is the entropy of X plus log s."""
        d = gaussian_density(0.0, 1.0)
        scaled = d.scaled(2.5)
        for alpha in ORDERS:
            assert renyi_entropy(scaled, alpha) == pytest.approx(
                renyi_entropy(d, alpha) + math.log(2.5), abs=1e-12
            )

    def test_scaling_validation(self):
        """Nonpositive scale factors are rejected."""
        with pytest.raises(ValueError):
            uniform_density(0.0, 1.0).scaled(-1.0)

    def test_infinite_spacing_rejected(self):
        """Zero samples on an infinite pitch have NaN mass, which is not 1."""
        with pytest.raises(ValueError, match="spacing"):
            GridDensity(0.0, math.inf, np.zeros(3))

    def test_infinite_scale_rejected(self):
        """Scaling by inf used to give an all-zero density at origin NaN."""
        with pytest.raises(ValueError, match="scale factor"):
            uniform_density(0.0, 1.0).scaled(math.inf)

    def test_infinite_translation_rejected(self):
        """Translating by inf used to give a density at origin inf."""
        with pytest.raises(ValueError, match="origin"):
            uniform_density(0.0, 1.0).translated(math.inf)

    def test_csv_round_trip(self, tmp_path):
        """to_csv and from_csv reproduce the density bit for bit."""
        d = uniform_density(0.0, 1.0, spacing=2.0 ** -4)
        path = str(tmp_path / "density.csv")
        d.to_csv(path)
        back = GridDensity.from_csv(path)
        assert back.origin == d.origin
        assert back.spacing == d.spacing
        assert np.array_equal(back.values, d.values)

    def test_csv_header_enforced(self, tmp_path):
        """Files without the x,f header are rejected."""
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0.0,1.0\n1.0,1.0\n")
        with pytest.raises(ValueError):
            GridDensity.from_csv(str(path))

    def test_csv_trailing_blank_line_skipped(self, tmp_path):
        """A blank line at the end of the file is skipped, not an IndexError."""
        d = uniform_density(0.0, 1.0, spacing=2.0 ** -4)
        path = tmp_path / "density.csv"
        d.to_csv(str(path))
        path.write_text(path.read_text() + "\n")
        assert np.array_equal(GridDensity.from_csv(str(path)).values, d.values)

    def test_csv_short_row_names_its_line(self, tmp_path):
        """A row with one field is a ValueError that names its line."""
        path = tmp_path / "bad.csv"
        path.write_text("x,f\n0.0,1.0\n0.5\n1.0,1.0\n")
        with pytest.raises(ValueError, match="line 3"):
            GridDensity.from_csv(str(path))

    def test_csv_empty_file_rejected(self, tmp_path):
        """An empty file is a ValueError, not a StopIteration."""
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            GridDensity.from_csv(str(path))

    def test_csv_single_sample_rejected(self, tmp_path):
        """A header and one row make no grid."""
        path = tmp_path / "one.csv"
        path.write_text("x,f\n0.0,1.0\n")
        with pytest.raises(ValueError, match="at least 2 samples"):
            GridDensity.from_csv(str(path))

    def test_csv_uniform_grid_enforced(self, tmp_path):
        """Files with irregular x spacing are rejected."""
        path = tmp_path / "bad.csv"
        path.write_text("x,f\n0.0,1.0\n0.5,1.0\n2.0,1.0\n")
        with pytest.raises(ValueError):
            GridDensity.from_csv(str(path))


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
        "lo, hi", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (-1e308, 1e308)]
    )
    def test_non_finite_window_rejected(self, lo, hi):
        """Windows with an infinite end, or too wide to count, are a clear ValueError."""
        with pytest.raises(ValueError, match="finite|grid cells"):
            uniform_density(lo, hi)
        with pytest.raises(ValueError, match="finite|grid cells"):
            from_function(lambda x: np.ones_like(x), lo, hi)


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
        """Grid entropies track the closed-form Gaussian values."""
        d = gaussian_density(0.0, 1.0)
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
        """Weighting the ratios in place gives the weight-array sum bit for bit."""
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
        """Two flat two-sample grids convolve to the triangle [1/3, 2/3, 1/3] / spacing."""
        pair = GridDensity(0.0, 2.0 ** -12, np.array([2.0 ** 12, 2.0 ** 12]))
        conv = convolve_many((pair, pair))
        assert conv.values == pytest.approx(np.array([1.0, 2.0, 1.0]) / 3.0 * 2.0 ** 12, rel=1e-15)

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
        """The certificate carries the report of the summand powers, and reads every check from it."""
        u, g = uniform_density(0.0, 1.0), gaussian_density(0.5, 0.7)
        cert = certify((u, g), 2.0)
        report = bound_report((entropy_power(u, 2.0), entropy_power(g, 2.0)), 2.0)
        assert cert.report == report
        assert cert.ratio == cert.conv_power / report.powers.total
        assert cert.margins() == {
            "bc": cert.ratio - report.bc,
            "sharpened": cert.ratio - report.sharpened,
            "optimized": cert.ratio - report.optimized,
            "bv": cert.conv_power - report.bv,
        }

    def test_verdicts_compare_against_bound_minus_slack(self):
        """A check fails exactly when the measured value is below bound - slack."""
        report = bound_report((1.0, 1.0), 2.0)
        total = report.powers.total
        on_edge = Certification(report, (report.optimized - 0.25) * total, 0.25)
        assert on_edge.ratio == report.optimized - 0.25
        assert on_edge.ok
        below = Certification(report, math.nextafter(report.bv - 0.5, 0.0), 0.5)
        assert below.violations[-1] == "bv" and not below.ok

    def test_two_gaussians_attain_one(self):
        """Gaussians are additive: the measured ratio is 1 to high accuracy."""
        g = gaussian_density(0.0, 1.0)
        for alpha in (1.1, 2.0, 10.0):
            cert = certify((g, g), alpha)
            assert cert.ratio == pytest.approx(1.0, abs=1e-6)
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


class TestClosedForms:
    """Measured ratios of sums against their exact Renyi entropies, at the default spacing."""

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (0.5, 1.0), (0.75, 2.0), (1.25, 3.0)])
    def test_two_uniforms(self, a, b):
        """U[0, a] + U[0, b] with a <= b has a trapezoid density:
        int f^alpha = b^-alpha (2a / (alpha + 1) + b - a) and max f = 1/b,
        and each summand has power its width squared."""
        parts = (uniform_density(0.0, a), uniform_density(0.0, b))
        for alpha in (1.1, 2.0, 5.0, math.inf):
            power = _exact_power(alpha, lambda s: b ** -s * (2.0 * a / (s + 1.0) + b - a), 1.0 / b)
            tol = 1e-14 if math.isinf(alpha) else 1e-6
            assert certify(parts, alpha).ratio == pytest.approx(power / (a * a + b * b), abs=tol)

    @pytest.mark.parametrize("rate", [0.7, 2.5])
    def test_two_exponentials(self, rate):
        """Exp(rate) + Exp(rate) is Gamma(2, rate):
        int f^alpha = rate^(alpha - 1) Gamma(alpha + 1) / alpha^(alpha + 1) and
        max f = rate / e; one summand has rate^(alpha - 1) / alpha and rate."""
        e = exponential_density(rate)
        for alpha in (1.1, 2.0, 5.0, math.inf):
            total = _exact_power(
                alpha, lambda s: rate ** (s - 1.0) * math.gamma(s + 1.0) / s ** (s + 1.0), rate / math.e
            )
            one = _exact_power(alpha, lambda s: rate ** (s - 1.0) / s, rate)
            assert certify((e, e), alpha).ratio == pytest.approx(total / (2.0 * one), rel=1e-5)


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

    def test_sample_certifies_cleanly(self):
        """A slice of the default corpus passes certification."""
        for inst in random_corpus(seed=1, count=25):
            cert = certify(inst.densities, inst.order)
            assert cert.ok, f"{inst.label}: {cert.violations}"

"""Tests for the shared domain types and conversions."""

import ast
import dataclasses
import importlib
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repi
import repi.cli
from repi import (
    BoundReport,
    Order,
    PowerVector,
    SimplexWeights,
    as_order,
    as_power_vector,
    as_simplex_weights,
    bound_report,
    entropy_from_power,
    holder_conjugate,
    power_from_entropy,
    sharpened_constant,
)
from repi.core import _simplex_rows

finite_orders = st.floats(min_value=1.0 + 1e-9, max_value=1e6, exclude_min=True)


class TestHolderConjugate:
    @given(finite_orders)
    def test_involution(self, alpha):
        """Applying the conjugate twice returns the original finite order."""
        back = holder_conjugate(holder_conjugate(alpha))
        assert back == pytest.approx(alpha, rel=1e-9)

    @given(finite_orders)
    def test_reciprocals_sum_to_one(self, alpha):
        """1/alpha + 1/conjugate = 1."""
        assert 1.0 / alpha + 1.0 / holder_conjugate(alpha) == pytest.approx(1.0, abs=1e-12)

    def test_infinite_order(self):
        """alpha = inf maps to conjugate 1."""
        assert holder_conjugate(math.inf) == 1.0

    def test_two_is_self_conjugate(self):
        """alpha = 2 is the fixed point."""
        assert holder_conjugate(2.0) == 2.0

    @pytest.mark.parametrize("bad", [1.0, 0.5, 0.0, -3.0, math.nan])
    def test_domain(self, bad):
        """Orders at or below 1 (and nan) are rejected."""
        with pytest.raises(ValueError):
            holder_conjugate(bad)

    @pytest.mark.parametrize("build", [holder_conjugate, Order, as_order])
    def test_integer_past_float_range(self, build):
        """An integer order with no float is a ValueError naming its bit length."""
        with pytest.raises(
            ValueError, match="^order must lie within the float range, got an integer of 1329 bits$"
        ):
            build(10 ** 400)


class TestOrder:
    def test_conjugate_field(self):
        """The conjugate is computed on construction."""
        order = Order(3.0)
        assert order.alpha_conj == holder_conjugate(3.0)

    def test_slope_at_two(self):
        """log(alpha)/(alpha-1) equals log 2 at alpha = 2."""
        assert Order(2.0).log_alpha_slope == math.log(2.0)

    def test_slope_at_infinity(self):
        """The slope vanishes in the limit order."""
        order = Order(math.inf)
        assert order.is_infinite
        assert order.log_alpha_slope == 0.0

    def test_frozen(self):
        """Orders are immutable."""
        with pytest.raises(dataclasses.FrozenInstanceError):
            Order(2.0).alpha = 3.0

    def test_as_order_passthrough(self):
        """as_order keeps Order instances and coerces floats."""
        order = Order(2.5)
        assert as_order(order) is order
        assert as_order(2.5) == order


class TestPowerEntropyConversions:
    @given(st.floats(min_value=-50, max_value=50), st.integers(min_value=1, max_value=5))
    def test_round_trip(self, entropy, dim):
        """power_from_entropy and entropy_from_power invert each other."""
        back = entropy_from_power(power_from_entropy(entropy, dim), dim)
        assert back == pytest.approx(entropy, abs=1e-9)

    def test_zero_power(self):
        """Entropy -inf corresponds to power 0 in both directions."""
        assert power_from_entropy(-math.inf) == 0.0
        assert entropy_from_power(0.0) == -math.inf

    def test_dimension_scaling(self):
        """Fixed entropy gives power exp(2h/d)."""
        assert power_from_entropy(3.0, 2) == pytest.approx(math.exp(3.0), rel=1e-12)

    def test_validation(self):
        """Negative powers and bad dimensions are rejected."""
        with pytest.raises(ValueError):
            entropy_from_power(-1.0)
        with pytest.raises(ValueError):
            power_from_entropy(1.0, 0)
        with pytest.raises(ValueError):
            entropy_from_power(1.0, 1.5)

    @pytest.mark.parametrize("entropy", [400.0, 1e308, math.inf, math.nan])
    def test_entropy_without_finite_power_rejected(self, entropy):
        """An entropy whose power overflows or is not a number is a ValueError naming it."""
        with pytest.raises(ValueError, match=re.escape(repr(entropy))):
            power_from_entropy(entropy)

    def test_underflowing_power_is_zero(self):
        """An entropy whose power underflows, an integer past the float range
        included, has power 0, as -inf does, and a numpy float raises no overflow warning."""
        for entropy in (-10**400, -1e308, -4000.0, np.float64(-1e308)):
            assert power_from_entropy(entropy) == 0.0
            assert power_from_entropy(entropy, 3) == 0.0

    def test_integer_entropy_past_float_range_rejected(self):
        """A positive integer entropy past the float range is named by its bit length,
        not by its 401 digits."""
        with pytest.raises(
            ValueError,
            match="^entropy an integer of 1329 bits has no finite entropy power in dimension 1$",
        ):
            power_from_entropy(10**400)

    def test_largest_finite_power(self):
        """Just below the overflow edge the power is finite; dimension divides the exponent."""
        assert power_from_entropy(354.0) == math.exp(708.0)
        assert power_from_entropy(400.0, 2) == math.exp(400.0)

    @pytest.mark.parametrize("power", [math.inf, math.nan])
    def test_non_finite_power_rejected(self, power):
        """An infinite or NaN power is a ValueError naming it."""
        with pytest.raises(ValueError, match=re.escape(repr(power))):
            entropy_from_power(power)

    @pytest.mark.parametrize("two", [np.int64(2), np.int32(2), np.uint8(2)])
    def test_any_integer_type_counts(self, two):
        """Dimensions and summand counts of any integer type act as the int of that value."""
        assert power_from_entropy(0.5, two) == power_from_entropy(0.5, 2)
        assert entropy_from_power(3.0, two) == entropy_from_power(3.0, 2)
        assert sharpened_constant(2.0, two) == sharpened_constant(2.0, 2) == 27 / 32

    @pytest.mark.parametrize("bad", [2.0, "2", 0, -1, np.float64(2.0), None, True, np.True_])
    def test_non_integers_refused(self, bad):
        """Floats, strings, bools and counts below 1 are refused, with the same message."""
        with pytest.raises(ValueError, match="^dimension must be a positive integer"):
            power_from_entropy(0.5, bad)
        with pytest.raises(ValueError, match="^dimension must be a positive integer"):
            entropy_from_power(3.0, bad)
        with pytest.raises(ValueError, match="^number of summands must be a positive integer"):
            sharpened_constant(2.0, bad)


class TestPowerVector:
    def test_aggregates(self):
        """total and largest reduce over the entries."""
        pv = PowerVector((1.0, 1.0, 4.0))
        assert pv.total == 6.0
        assert pv.largest == 4.0
        assert len(pv) == 3
        assert pv[2] == 4.0
        assert list(pv) == [1.0, 1.0, 4.0]

    def test_total_adds_left_to_right(self):
        """The total is the plain left-to-right float sum on every Python version.

        The built-in sum compensates from Python 3.12 on and gives 1.0000000000000002 here.
        """
        assert PowerVector((1.0, 1e-16, 1e-16)).total == 1.0

    def test_normalized(self):
        """normalized entries sum to one and keep ratios."""
        norm = PowerVector((1.0, 1.0, 4.0)).normalized()
        assert sum(norm) == pytest.approx(1.0, abs=1e-15)
        assert norm == (1.0 / 6.0, 1.0 / 6.0, 4.0 / 6.0)

    def test_zero_entries_allowed(self):
        """Zero powers are legal entries."""
        assert PowerVector((0.0, 2.0)).total == 2.0

    def test_all_zero_cannot_normalize(self):
        """An all-zero vector has no normalization."""
        with pytest.raises(ValueError):
            PowerVector((0.0, 0.0)).normalized()

    def test_overflowing_total_cannot_normalize(self):
        """Finite powers whose sum overflows are refused by name, not normalized to zeros."""
        pv = PowerVector((1e308, 1e308))
        assert pv.largest == 1e308
        assert pv.total == math.inf
        with pytest.raises(ValueError, match="sum past the float range"):
            pv.normalized()

    @pytest.mark.parametrize("bad", [(), (-1.0,), (math.nan,), (math.inf,)])
    def test_validation(self, bad):
        """Empty, negative and non-finite vectors are rejected."""
        with pytest.raises(ValueError):
            PowerVector(bad)

    @pytest.mark.parametrize(
        "powers, first",
        [((1.0, -2.0, math.nan), "-2.0"), ((0.0, math.inf, -1.0), "inf"), ((3.0, math.nan), "nan")],
    )
    def test_refusal_names_the_first_bad_entry(self, powers, first):
        """The message names the first negative or non-finite entry."""
        with pytest.raises(ValueError, match=f"^entropy powers must be finite and >= 0, got {first}$"):
            PowerVector(powers)

    @pytest.mark.parametrize(
        "call", [lambda: PowerVector((10 ** 400,)), lambda: bound_report((10 ** 400, 1.0), 2)]
    )
    def test_integer_past_float_range(self, call):
        """A power of 10**400 is refused by its bit length as a ValueError, not an OverflowError."""
        message = "^entropy powers must lie within the float range, got an integer of 1329 bits$"
        with pytest.raises(ValueError, match=message):
            call()

    def test_held_array_is_read_only_and_invisible(self):
        """The private array refuses writes and plays no part in equality, hashing or repr."""
        pv = PowerVector((1.0, 2.0))
        with pytest.raises(ValueError, match="read-only"):
            pv._array[0] = 5.0
        twin = PowerVector([1, 2.0])
        assert pv == twin and hash(pv) == hash(twin)
        assert repr(pv) == "PowerVector(powers=(1.0, 2.0))"

    def test_as_power_vector(self):
        """Lists coerce; existing vectors pass through."""
        pv = as_power_vector([2.0, 3.0])
        assert isinstance(pv, PowerVector)
        assert as_power_vector(pv) is pv


class TestSimplexWeights:
    def test_uniform(self):
        """The uniform point is accepted."""
        w = SimplexWeights((0.25,) * 4)
        assert len(w) == 4
        assert w[0] == 0.25

    def test_rounding_noise_tolerated(self):
        """Solver output a hair below zero still validates."""
        w = as_simplex_weights((-5e-13, 1.0 + 5e-13))
        assert len(w) == 2

    def test_sum_enforced(self):
        """Weights must sum to 1."""
        with pytest.raises(ValueError):
            SimplexWeights((0.5, 0.4))

    def test_negativity_enforced(self):
        """Genuinely negative weights are rejected."""
        with pytest.raises(ValueError):
            SimplexWeights((-0.1, 1.1))

    def test_empty_rejected(self):
        """A simplex point has at least one weight."""
        with pytest.raises(ValueError, match="at least one weight"):
            SimplexWeights(())

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
        st.sampled_from([0.0, 1e-11, -1e-11, 9.9e-11, 1e-10, -1e-10, 1.01e-10, 1e-3]),
        st.sampled_from([None, -5e-13, -2e-12, math.nan, math.inf]),
    )
    def test_array_check_matches_constructor(self, raw, shift, first):
        """Rows checked as one array pass and fail exactly as the constructor, with its message."""
        total = sum(raw)
        row = [r / total for r in raw] if total > 0.0 else raw
        row[-1] += shift
        if first is not None:
            row[0] = first
        unit = [1.0] + [0.0] * (len(row) - 1)
        try:
            expected = SimplexWeights(tuple(row))
        except ValueError as err:
            with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
                _simplex_rows(np.array([row, unit]))
        else:
            got, second = _simplex_rows(np.array([row, unit]))
            assert got == expected
            assert second.weights == tuple(unit)


class TestBoundReport:
    def test_chain_holds_on_real_instance(self):
        """The solver's report satisfies bc <= sharpened <= optimized <= 1."""
        report = bound_report((1.0, 1.0, 4.0), 2.0)
        assert report.bc <= report.sharpened <= report.optimized <= 1.0 + 1e-9
        assert not report.order.is_infinite

    def test_lower_bounds_scale_with_total(self):
        """Constants multiply the total power; bv stands alone."""
        report = bound_report((1.0, 1.0, 4.0), 2.0)
        bounds = report.lower_bounds()
        assert bounds["optimized"] == pytest.approx(report.optimized * 6.0, rel=1e-12)
        assert bounds["bv"] == 4.0
        assert set(bounds) == {"bc", "sharpened", "optimized", "bv"}

    def test_limit_flagged(self):
        """Reports at alpha = inf carry the infinite order their limit values are for."""
        assert bound_report((1.0, 2.0), math.inf).order.is_infinite

    def test_ordering_violation_rejected(self):
        """A report with bc above sharpened cannot be constructed."""
        with pytest.raises(ValueError):
            BoundReport(
                order=Order(2.0),
                powers=PowerVector((1.0, 1.0)),
                bc=0.9,
                sharpened=0.8,
                optimized=0.85,
                bv=1.0,
                weights=SimplexWeights((0.5, 0.5)),
            )

    @pytest.mark.parametrize(
        "sharpened, optimized, bv, match",
        [
            (0.9, 0.8, 1.0, "sharpened > optimized"),
            (0.35, 0.4, 1.0, "below the max-power bound"),
        ],
    )
    def test_chain_violation_named(self, sharpened, optimized, bv, match):
        """A sharpened constant above the optimized one, or an optimized bound below bv, cannot be constructed."""
        with pytest.raises(ValueError, match=match):
            BoundReport(
                order=Order(2.0),
                powers=PowerVector((1.0, 1.0)),
                bc=0.3,
                sharpened=sharpened,
                optimized=optimized,
                bv=bv,
                weights=SimplexWeights((0.5, 0.5)),
            )

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_max_power_share_checked_at_every_scale(self, scale):
        """An optimized constant below the largest power's share of the sum is refused
        whatever the scale of the powers: the check reads the share, not a power."""
        with pytest.raises(ValueError, match="below the max-power bound"):
            BoundReport(
                order=Order(2.0),
                powers=PowerVector((scale, 2.0 * scale)),
                bc=0.05,
                sharpened=0.05,
                optimized=0.1,
                bv=2.0 * scale,
                weights=SimplexWeights((0.5, 0.5)),
            )

    def test_max_power_share_edge(self):
        """An optimized constant exactly at share - 1e-9 is accepted, one ulp lower is refused."""
        edge = 0.5 - 1e-9

        def report(optimized):
            return BoundReport(
                order=Order(2.0),
                powers=PowerVector((1.0, 1.0)),
                bc=0.3,
                sharpened=0.4,
                optimized=optimized,
                bv=1.0,
                weights=SimplexWeights((0.5, 0.5)),
            )

        assert report(edge).optimized == edge
        with pytest.raises(ValueError, match="below the max-power bound"):
            report(math.nextafter(edge, 0.0))

    def test_nan_max_power_rejected(self):
        """A NaN max-power bound is refused, not passed by a comparison that reads False."""
        with pytest.raises(ValueError, match="below the max-power bound"):
            dataclasses.replace(bound_report((1.0, 2.0), 2.0), bv=math.nan)

    def test_excess_constant_rejected(self):
        """Constants above 1 cannot be constructed."""
        with pytest.raises(ValueError):
            BoundReport(
                order=Order(2.0),
                powers=PowerVector((1.0, 1.0)),
                bc=0.7,
                sharpened=0.8,
                optimized=1.2,
                bv=1.0,
                weights=SimplexWeights((0.5, 0.5)),
            )


#: 10**400 fed to each public float parameter outside the order and power rules,
#: with the name its ValueError gives it
HUGE = 10**400
FLOAT_PARAMETERS = [
    (lambda: repi.curvature(HUGE, 2.0), "curvature argument"),
    (lambda: repi.reduced_hessian((HUGE,), 2.0), "interior weights"),
    (lambda: repi.RankOneSymmetric((HUGE,), 1.0, (1.0,)), "diagonal"),
    (lambda: repi.RankOneSymmetric((1.0,), HUGE, (1.0,)), "rho"),
    (lambda: repi.RankOneSymmetric((1.0,), 1.0, (HUGE,)), "z"),
    (lambda: repi.young_constant(HUGE), "exponent"),
    (lambda: repi.binary_kl(HUGE, 0.5), "arguments"),
    (lambda: repi.binary_kl(0.5, HUGE), "arguments"),
    (lambda: repi.two_summand_weight(HUGE, 2.0), "power ratio"),
    (lambda: repi.two_summand_constant(HUGE, 2.0), "power ratio"),
    (lambda: repi.gaussian_density(0.0, HUGE), "stds"),
    (lambda: repi.gaussian_density(HUGE, 1.0), "means"),
    (lambda: repi.gaussian_mixture_density((HUGE,), (0.0,), (1.0,)), "mixture weights"),
    (lambda: repi.exponential_density(HUGE), "rate"),
    (lambda: repi.exponential_density(1.0, HUGE), "shift"),
    (lambda: repi.exponential_density(1.0, 0.0, HUGE), "spacing"),
    (lambda: repi.gaussian_renyi_entropy(2.0, 1, HUGE), "covariance determinant"),
    (lambda: entropy_from_power(HUGE), "entropy power"),
    (lambda: repi.FilterSpec((HUGE,), 1, 2.0), "taps"),
    (lambda: repi.certify((repi.uniform_density(0.0, 1.0),) * 2, 2.0, slack=HUGE), "slack"),
    (lambda: repi.collision_bound(HUGE, 0.5, 1), "collision probabilities"),
    (lambda: repi.collision_bound(0.5, HUGE, 1), "collision probabilities"),
    (lambda: repi.log_constant((HUGE, 1.0), (0.5, 0.5), 2.0), "weights"),
    (lambda: repi.SimplexWeights((HUGE, 1)), "weights"),
]


@pytest.mark.parametrize("call, what", FLOAT_PARAMETERS)
def test_integer_past_float_range_names_the_parameter(call, what):
    """An integer with no float is a ValueError naming the parameter and the bit length,
    never the OverflowError of a bare ``float()``."""
    with pytest.raises(
        ValueError, match=f"^{what} must lie within the float range, got an integer of 1329 bits$"
    ):
        call()


#: a string where a sequence of numbers is expected, which its characters used to fill
#: silently, and the name its TypeError gives it
STRING_SEQUENCES = [
    (lambda: bound_report("12", 2.0), "entropy powers"),  # was the bound for powers (1.0, 2.0)
    (lambda: repi.FilterSpec("21", 1, 2.0), "taps"),  # had taps (2.0, 1.0)
    (lambda: repi.gaussian_mixture_density("1", "0", "1"), "mixture weights"),  # built N(0, 1)
    (lambda: PowerVector(b"12"), "entropy powers"),
    (lambda: as_simplex_weights("1"), "weights"),
]


@pytest.mark.parametrize("call, what", STRING_SEQUENCES)
def test_string_is_not_a_sequence_of_numbers(call, what):
    """A str or bytes given for a sequence of numbers is a TypeError naming the parameter."""
    with pytest.raises(TypeError, match=f"^{what} must be a sequence of numbers, not a string$"):
        call()


def test_numeric_string_as_one_number_is_a_float():
    """A numeric string given for one number is read by ``float``, as every public float is."""
    assert entropy_from_power("2") == entropy_from_power(2.0)
    assert repi.gaussian_renyi_entropy(2.0, 1, "1") == repi.gaussian_renyi_entropy(2.0, 1, 1.0)
    assert bound_report((1.0, 2.0), "2") == bound_report((1.0, 2.0), 2.0)


class TestPackageExports:
    MODULES = ("core", "bounds", "optimizer", "diagnostics", "verify", "filters")

    def test_all_is_the_module_lists(self):
        """repi.__all__ is __version__ then each module's __all__, in order."""
        modules = [importlib.import_module(f"repi.{m}") for m in self.MODULES]
        assert repi.__all__ == ["__version__", *(n for mod in modules for n in mod.__all__)]

    def test_all_matches_module_exports(self):
        """The package re-exports every public function and class, and nothing else."""
        assert all(hasattr(repi, name) for name in repi.__all__)
        modules = [importlib.import_module(f"repi.{m}") for m in self.MODULES]
        listed = {name for mod in modules for name in mod.__all__}
        assert repi.__all__[0] == "__version__"
        assert set(repi.__all__[1:]) <= listed
        for mod in modules:
            for name in mod.__all__:
                obj = getattr(mod, name)
                if inspect.isfunction(obj) or inspect.isclass(obj):
                    assert name in repi.__all__, f"{mod.__name__}.{name} not re-exported"
                    assert getattr(repi, name) is obj

    @pytest.mark.parametrize("script", ["workloads.py", "test_bench.py"])
    def test_benchmark_names_resolve(self, script):
        """Every name the benchmark imports from repi is public (in repi.__all__, or a
        submodule such as cli), and every cli helper it calls exists."""
        tree = ast.parse((Path(__file__).resolve().parent.parent / "bench" / script).read_text())
        imported = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "repi"
            for alias in node.names
        ]
        helpers = [
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "cli"
        ]
        assert imported
        public = {*repi.__all__, *(name for name, v in vars(repi).items() if inspect.ismodule(v))}
        assert [name for name in imported if name not in public] == []
        assert [name for name in helpers if not hasattr(repi.cli, name)] == []

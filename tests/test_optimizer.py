"""Tests for the instance-optimal weight solver."""

import decimal
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repi import (
    DegeneratePowersError,
    PowerVector,
    RankOneSymmetric,
    RootBracketError,
    as_order,
    bc_constant,
    bound_report,
    bound_reports,
    bv_asymptotically_tight,
    log_constant,
    max_eigenvalue,
    optimal_weights,
    optimized_constant,
    reduced_hessian,
    secular_max_eigenvalue,
    sharpened_constant,
    two_summand_constant,
    two_summand_weight,
)
from repi import diagnostics, optimizer
from repi.core import _left_sum

ORDER_GRID = (1.1, 1.5, 2.0, 5.0, 100.0, math.inf)
#: Power ratios just below 1, down to three ulps.
NEAR_ONE = (1.0 - 5e-9, 1.0 - 1e-9, 1.0 - 3 * 2.0**-53)


def random_instances(count, rng, n_max=6):
    """Seeded stream of (powers, order) pairs with spread-out magnitudes."""
    for _ in range(count):
        n = int(rng.integers(2, n_max + 1))
        powers = tuple(float(p) for p in np.exp(rng.uniform(-3, 3, size=n)))
        order = ORDER_GRID[int(rng.integers(0, len(ORDER_GRID)))]
        yield powers, order


def mixed_power_vectors(count, rng):
    """Seeded power vectors, n in 1..12, cycling through plain, tied,
    dominant-lead and zero-padded shapes."""
    for i in range(count):
        n = int(rng.integers(1, 13))
        powers = np.exp(rng.uniform(-3.0, 3.0, n))
        top = int(np.argmax(powers))
        others = [k for k in range(n) if k != top]
        if others and i % 4 == 1:
            powers[rng.choice(others)] = powers[top]
        elif others and i % 4 == 2:
            powers[top] = (1.0 + rng.uniform(0.05, 1.0)) * (powers.sum() - powers[top])
        elif others and i % 4 == 3:
            powers[rng.choice(others, size=int(rng.integers(1, len(others) + 1)), replace=False)] = 0.0
        yield tuple(float(p) for p in powers)


def report_hexes(report):
    """Every float of a report, exactly."""
    values = (report.order.alpha, report.bc, report.sharpened, report.optimized, report.bv)
    return [v.hex() for v in values + tuple(report.weights)]


def leading_ratios(powers):
    """Every power but the first largest, divided by the largest."""
    rest = list(powers)
    top = rest.pop(rest.index(max(rest)))
    return [p / top for p in rest]


def psi(x, ratio, order):
    """The solver's companion weight psi(x, ratio) at one order."""
    return float(optimizer._psi(x, ratio, as_order(order).alpha_conj))


def weights_total(x, ratios, order):
    """W(x) = x + sum_k psi(x, c_k), at one leading weight or an array of them."""
    xs = np.asarray(x, dtype=float)
    ac = as_order(order).alpha_conj
    return xs + optimizer._psi(xs[..., None], np.asarray(ratios), ac).sum(axis=-1)


def leading_weight(ratios, order):
    """The solver's root of W(x) = 1 for one list of power ratios at one order.

    The prepended power 1 is the first largest, so it leads and the ratios
    reach the solver unchanged.
    """
    pv = PowerVector((1.0, *ratios))
    return float(optimizer._weight_rows(pv, (as_order(order),))[0, 0])


def kernel_gradient(t, power, order, total):
    """Per-summand gradient of the objective at weight t for a positive power."""
    ac = as_order(order).alpha_conj
    return -math.log1p(-t / ac) - math.log(t) - 2.0 + math.log(power / total)


class TestCompanionWeight:
    def test_frozen_value(self):
        """x = 3/4, ratio 1/4 at alpha = 2 forces weight exactly 1/8."""
        assert psi(0.75, 0.25, 2.0) == pytest.approx(0.125, abs=1e-15)

    def test_zero_ratio(self):
        """Ratio 0 forces weight 0."""
        assert psi(0.6, 0.0, 2.0) == 0.0

    def test_unit_ratio(self):
        """Ratio 1 forces the smaller root min(x, conjugate - x)."""
        assert psi(0.3, 1.0, 2.0) == pytest.approx(0.3, rel=1e-12)

    def test_quadratic_identity(self):
        """The weight t solves t (a' - t) = ratio x (a' - x)."""
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = float(rng.uniform(0.05, 0.95))
            c = float(rng.uniform(0.0, 1.0))
            alpha = float(rng.uniform(1.05, 50.0))
            ac = alpha / (alpha - 1.0)
            t = psi(x, c, alpha)
            assert t * (ac - t) == pytest.approx(c * x * (ac - x), rel=1e-12, abs=1e-13)
            assert 0.0 <= t <= x + 1e-15


class TestWeightSum:
    def test_grid_matches_scalar(self):
        """An array of leading weights gives x + sum of companion weights pointwise."""
        rng = np.random.default_rng(11)
        xs = np.linspace(0.01, 0.99, 37)
        for _ in range(20):
            ratios = tuple(float(r) for r in rng.uniform(0, 1, size=3))
            alpha = float(rng.uniform(1.05, 30.0))
            grid = weights_total(xs, ratios, alpha)
            assert grid.shape == xs.shape
            for x, val in zip(xs, grid):
                expected = x + sum(psi(float(x), c, alpha) for c in ratios)
                assert val == pytest.approx(expected, abs=1e-13)

    def test_infinity_endpoints(self):
        """At the limit order the sum is pinned at both simplex corners."""
        ratios = (0.7, 0.8)
        assert weights_total(0.0, ratios, math.inf) == 0.0
        assert weights_total(1.0, ratios, math.inf) == pytest.approx(1.0, abs=1e-15)


class TestSolveLeadingWeight:
    def test_frozen_root(self):
        """Ratios (1/4, 1/4) at alpha = 2 give leading weight 3/4."""
        assert leading_weight((0.25, 0.25), 2.0) == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_equal_ratios_split_evenly(self, n):
        """All-equal powers put weight 1/n on the leader."""
        root = leading_weight((1.0,) * (n - 1), 2.0)
        assert root == pytest.approx(1.0 / n, abs=1e-12)

    def test_all_zero_ratios(self):
        """A lone positive power takes all the weight."""
        assert leading_weight((0.0, 0.0), 2.0) == 1.0

    def test_residuals_on_random_instances(self):
        """The simplex constraint holds to tolerance on 500 seeded instances."""
        rng = np.random.default_rng(2)
        worst = 0.0
        for powers, order in random_instances(500, rng):
            ratios = leading_ratios(powers)
            root = leading_weight(ratios, order)
            if math.isinf(order) and root == 1.0:
                continue  # endpoint root, exact by construction
            worst = max(worst, abs(weights_total(root, ratios, order) - 1.0))
        assert worst <= 1e-12

    def test_root_is_unique(self):
        """W(x) - 1 changes sign exactly once on (0, 1) for finite orders."""
        rng = np.random.default_rng(3)
        xs = np.linspace(1e-9, 1.0, 10 ** 4)
        for powers, order in random_instances(500, rng):
            if math.isinf(order):
                order = 2.0
            signs = np.sign(weights_total(xs, leading_ratios(powers), order) - 1.0)
            crossings = int(np.count_nonzero(np.diff(signs[signs != 0.0])))
            assert crossings == 1

    def test_infinity_endpoint_when_ratios_small(self):
        """Ratios summing at most 1 give the endpoint root at the limit order."""
        assert leading_weight((0.2, 0.3), math.inf) == 1.0

    def test_infinity_interior_when_ratios_large(self):
        """Ratios summing above 1 give an interior root at the limit order."""
        root = leading_weight((1.0, 1.0), math.inf)
        assert root == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert abs(weights_total(root, (1.0, 1.0), math.inf) - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "c", [0.5000001, 0.500001, 0.50001, 0.5001, 0.501, 0.51, 0.6, 0.75, 0.9, 1.0]
    )
    def test_infinity_root_matches_closed_form(self, c):
        """Two equal ratios c > 1/2 at the limit order: x + 2 psi = 1 gives x = 1/(4c - 1).

        Near the threshold c = 1/2 the root crowds the endpoint x = 1, where
        W(x) - 1 vanishes too; the solver still lands within 4 ulp.
        """
        expected = 1.0 / (4.0 * c - 1.0)
        root = leading_weight((c, c), math.inf)
        assert abs(root - expected) <= 4 * math.ulp(expected)

    @pytest.mark.parametrize("powers", [(2.0, 1.0, 1.0), (1.0, 0.5, 0.25), (1.0, 0.9, 0.8), (3.0, 1.0)])
    def test_conjugate_rounding_to_one_is_the_limit_order(self, powers):
        """An order whose conjugate rounds to 1 takes the alpha = inf weights, and its bound is
        at least the max-power bound (alpha = 1e300 gave 0.49999999999999983 for (2, 1, 1))."""
        limit = tuple(optimal_weights(powers, math.inf))
        for alpha in (1e16, 1e17, 1e300):
            report = bound_report(powers, alpha)
            assert tuple(report.weights) == limit
            assert report.optimized * math.fsum(powers) >= report.bv

    def test_ratio_domain(self):
        """Powers whose ratios would leave [0, 1] are rejected before solving."""
        with pytest.raises(ValueError):
            bound_report((1.5, -1.0), 2.0)
        with pytest.raises(ValueError):
            bound_report((1.0, 0.5, math.nan), math.inf)

    def test_iteration_cap_raises_with_bracket(self, monkeypatch):
        """Capped at two residual evaluations, the solver raises with a bracket around the root."""
        ratios = (1.0 / 3.0, 2.0 / 3.0)
        root = leading_weight(ratios, 2.0)
        monkeypatch.setattr(optimizer, "MAX_ITERATIONS", 2)
        with pytest.raises(RootBracketError) as err:
            leading_weight(ratios, 2.0)
        lo, hi = err.value.bracket
        assert 0.0 <= lo < root < hi <= 1.0
        assert 0.0 < abs(err.value.residual) < 1.0
        with pytest.raises(RootBracketError):
            bound_reports((1.0, 2.0, 3.0), (1.5, 2.0, math.inf))
        for rho in (0.5, -0.5):
            with pytest.raises(RootBracketError) as err:
                secular_max_eigenvalue(RankOneSymmetric((0.0, 1.0, 3.0), rho, (1.0, 1.0, 1.0)))
            lo, hi = err.value.bracket
            assert (1.0 if rho < 0.0 else 3.0) <= lo < hi <= 3.0 + max(rho, 0.0) * 3.0

    def test_bracket_error_carries_state(self):
        """The no-convergence error exposes its bracket and residual."""
        err = RootBracketError(0.1, 0.9, 0.5)
        assert err.bracket == (0.1, 0.9)
        assert err.residual == 0.5


def ulps_above(lo, k):
    """The float k ulps above lo."""
    for _ in range(k):
        lo = math.nextafter(lo, math.inf)
    return lo


@st.composite
def bracket_rows(draw):
    """Brackets from adjacent floats to widths of 1e16, each with the sign change
    s of a residual a (x - s) + atan((x - s) / scale) somewhere in it, ends included."""
    lo = draw(st.floats(-1e6, 1e6))
    if draw(st.booleans()):
        hi = ulps_above(lo, draw(st.integers(1, 8)))
    else:
        hi = max(lo + 10.0 ** draw(st.floats(-12.0, 16.0)), math.nextafter(lo, math.inf))
    s = min(max(lo + draw(st.floats(0.0, 1.0)) * (hi - lo), lo), hi)
    slope = draw(st.sampled_from((0.0, 1e-3, 1.0, 1e3)))
    scale = max((hi - lo) * 10.0 ** draw(st.floats(-6.0, 2.0)), 1e-300)
    return lo, hi, s, slope, scale


def raw_floats():
    """Finite floats from raw 64-bit patterns, with the zeros, the smallest subnormals and
    +-1.7e308 mixed in."""
    return st.one_of(
        st.integers(0, 2**64 - 1).map(lambda u: struct.unpack("<d", u.to_bytes(8, "little"))[0]),
        st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e-323, -1e-323, 1.7e308, -1.7e308)),
    ).filter(math.isfinite)


def arctan_residual(x, s, slope, scale, lo, hi):
    """Increasing residual with one sign change, at s; asserts no bracket end is evaluated."""
    assert np.all((lo < x) & (x < hi))
    u = (x - s) / scale
    return slope * (x - s) + np.arctan(u), slope + 1.0 / (scale * (1.0 + u * u))


class TestBracketedNewton:
    @given(st.lists(bracket_rows(), min_size=1, max_size=5))
    def test_contract(self, rows):
        """No evaluation lands on a bracket end, each root sits between adjacent floats
        that bracket the sign change, and rows solved together equal rows solved alone."""
        lo, hi, *params = (np.array(c) for c in zip(*rows))
        roots = optimizer._bracketed_newton(arctan_residual, lo, hi, *params, lo, hi)
        for i, root in enumerate(roots):
            one = [a[i : i + 1] for a in (lo, hi, *params)]
            assert optimizer._bracketed_newton(arctan_residual, *one, *one[:2]) == root
            assert lo[i] <= root <= hi[i]
            around = np.array([math.nextafter(root, -math.inf), math.nextafter(root, math.inf)])
            f, _ = arctan_residual(around, *(p[i] for p in params), -math.inf, math.inf)
            assert f[0] <= 0.0 <= f[1]

    @settings(derandomize=True)
    @given(st.lists(raw_floats(), min_size=3, max_size=3))
    def test_bisection_closes_any_bracket(self, points):
        """With derivative 0 every step after the first bisects, and any finite bracket,
        across both zeros, subnormals and +-1.7e308, closes around the sign change in at
        most 65 evaluations (plain halving took up to about 2100)."""
        lo, s, hi = sorted(points)
        assume(lo < hi)
        calls = []

        def flat(x):
            assert np.all((lo < x) & (x < hi))
            calls.append(x.size)
            return np.sign(x - s), np.zeros_like(x)

        root = float(optimizer._bracketed_newton(flat, np.array([lo]), np.array([hi]))[0])
        assert len(calls) <= 65
        assert lo <= root <= hi
        assert math.nextafter(root, -math.inf) <= s <= math.nextafter(root, math.inf)

    @pytest.mark.parametrize("r", [1.0, 0.0, 1.5e-323, -1.5e-323])
    def test_closed_bracket_returns_its_end(self, r):
        """[r, r] returns r unevaluated, also at an odd subnormal, where 0.5 r + 0.5 r
        rounds to a neighbour."""

        def residual(x):
            raise AssertionError("residual called")

        assert optimizer._bracketed_newton(residual, np.array([r]), np.array([r]))[0] == r

    def test_zero_rows_return_at_once(self):
        """No rows give an empty float array without a residual call."""

        def residual(x):
            raise AssertionError("residual called")

        roots = optimizer._bracketed_newton(residual, np.zeros(0), np.ones(0))
        assert roots.dtype == np.float64
        assert roots.size == 0


class TestEvaluationCounts:
    """Residual evaluations per solve, pinned: the steps the loop takes are part of its result.

    The reduced Hessians take the one-ulp walking step, which must start
    from the evaluated point x: a loop that walks from the bisection or
    Newton step instead returns the same roots after many more evaluations.
    """

    @pytest.fixture
    def evaluations(self, monkeypatch):
        calls = []
        solve = optimizer._bracketed_newton

        def counting(residual, lo, hi, *params):
            def counted(x, *args):
                calls.append(x.size)
                return residual(x, *args)

            return solve(counted, lo, hi, *params)

        monkeypatch.setattr(optimizer, "_bracketed_newton", counting)
        monkeypatch.setattr(diagnostics, "_bracketed_newton", counting)
        return calls

    @pytest.mark.parametrize(
        "powers, alpha, expected",
        [
            ((1.0, 2.0, 3.0), 2.0, 5),
            ((10.0, 20.0, 90.0), 1.1, 4),
            ((1.0, 0.9, 0.8), math.inf, 5),
            ((3.0, 1.0), 5.0, 6),
            ((1.0, 0.5, 0.25, 0.125), 1e6, 8),
            (tuple(range(1, 21)), 5.0, 6),
            (tuple(range(1, 101)), math.inf, 5),
        ],
    )
    def test_weight_solves(self, evaluations, powers, alpha, expected):
        """One order, one row: Newton from 1/2 closes in a handful of evaluations."""
        bound_report(powers, alpha)
        assert len(evaluations) == expected

    def test_mixed_grid(self, evaluations):
        """The rows of one grid are evaluated together until each closes."""
        bound_reports((1.0, 2.0, 2.5, 3.0), (2.0, math.inf, 5.0))
        assert evaluations == [3, 3, 3, 3, 3, 1]

    @pytest.mark.parametrize(
        "interior, alpha, expected",
        [
            ((0.1, 0.2, 0.3, 0.15), 5.0, 7),
            ((0.05, 0.05, 0.6), 1.1, 8),
            ((0.4, 0.1, 0.1, 0.1), 1.01, 9),
        ],
    )
    def test_walking_secular_solves(self, evaluations, interior, alpha, expected):
        """Secular equations whose last steps walk one ulp at a time from x."""
        secular_max_eigenvalue(reduced_hessian(interior, alpha))
        assert len(evaluations) == expected

    @pytest.mark.parametrize(
        "m",
        [
            reduced_hessian((0.1, 0.2, 0.3, 0.15), 5.0),
            reduced_hessian((0.05, 0.05, 0.6), 1.1),
            reduced_hessian((0.4, 0.1, 0.1, 0.1), 1.01),
            RankOneSymmetric((-1.0, 0.0), -1e-300, (1.0, 1.0)),
        ],
        ids=["walking-5", "walking-1.1", "walking-1.01", "next-to-a-pole"],
    )
    def test_agreeing_routes_call_no_root_finder(self, monkeypatch, m):
        """max_eigenvalue places the secular root by the residual's signs next to LAPACK's
        value: where the routes agree no root is solved for, even beside a pole."""

        def refuse(*args):
            raise AssertionError("root finder called")

        monkeypatch.setattr(diagnostics, "_bracketed_newton", refuse)
        assert max_eigenvalue(m) == float(np.linalg.eigvalsh(m.as_matrix())[-1])

    def test_seeded_root_next_to_a_pole(self, evaluations):
        """A root 1e-300 below the pole at 0 is approached by bisection in the floats' order."""
        secular_max_eigenvalue(RankOneSymmetric((-1.0, 0.0), -1e-300, (1.0, 1.0)))
        assert len(evaluations) == 63

    @pytest.mark.parametrize(
        "m, root",
        [
            (RankOneSymmetric((-1.0, 0.0), -1e-300, (1.0, 1.0)), -9.999999999999999e-301),
            (RankOneSymmetric((-1.0, 0.0), -1.0, (1.0, 1e-200)), 0.0),
        ],
        ids=["1e-300-below-the-pole", "at-the-pole"],
    )
    def test_roots_many_binades_from_the_middle(self, evaluations, m, root):
        """Roots next to the pole at 0 of the bracket (-1, 0), where Newton leaves the
        bracket at every step: plain halving took 1049 and 1074 evaluations to the same
        roots (the second one as -0.0), bisection in the floats' order takes 63."""
        assert secular_max_eigenvalue(m) == root
        assert len(evaluations) == 63


class TestOptimalWeights:
    def test_frozen_three_summand_solution(self):
        """Powers (1, 1, 4) at alpha = 2 give weights (1/8, 1/8, 3/4)."""
        w = optimal_weights((1.0, 1.0, 4.0), 2.0)
        assert tuple(w) == pytest.approx((0.125, 0.125, 0.75), abs=1e-12)

    def test_zero_power_gets_zero_weight(self):
        """Zero powers are excluded, the rest solved as usual."""
        w = optimal_weights((0.0, 1.0, 1.0), 2.0)
        assert w[0] == 0.0
        assert tuple(w)[1:] == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_single_positive_power(self):
        """One positive power takes weight 1 wherever it sits."""
        assert tuple(optimal_weights((0.0, 3.0), 2.0)) == (0.0, 1.0)

    def test_all_zero_rejected(self):
        """Degenerate instances raise instead of guessing."""
        with pytest.raises(DegeneratePowersError):
            optimal_weights((0.0, 0.0), 2.0)

    def test_largest_leads(self):
        """The largest power takes the root; the others keep their order."""
        w = optimal_weights((1.0, 1.0, 4.0), 2.0)
        lead = leading_weight((0.25, 0.25), 2.0)
        companion = psi(lead, 0.25, 2.0)
        assert tuple(w) == (companion, companion, lead)

    def test_ties_pick_first(self):
        """Equal maxima: the first one takes the root, the later one its companion.

        At alpha = 1.5 the two differ in the last bit, so the weights show
        which of the tied powers leads.
        """
        lead = leading_weight((0.5, 1.0), 1.5)
        tied = psi(lead, 1.0, 1.5)
        assert lead != tied
        w = optimal_weights((2.0, 1.0, 2.0), 1.5)
        assert tuple(w) == (lead, psi(lead, 0.5, 1.5), tied)

    @given(
        st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=6),
        st.lists(st.integers(0, 6), max_size=3),
        st.integers(-20, 20),
        st.sampled_from(ORDER_GRID),
    )
    def test_zeros_and_scaling_leave_weights(self, powers, slots, k, order):
        """Inserting zero powers or scaling by 2^k moves no weight by a bit.

        The zeros get exactly 0.0, and the optimized constant is unchanged.
        """
        padded = list(powers)
        for slot in slots:
            padded.insert(min(slot, len(padded)), 0.0)
        scaled = [math.ldexp(p, k) for p in padded]
        base = bound_report(powers, order)
        for variant in (padded, scaled):
            report = bound_report(variant, order)
            assert report.optimized == base.optimized
            assert [t for t, p in zip(report.weights, variant) if p > 0.0] == list(base.weights)
            assert all(t == 0.0 for t, p in zip(report.weights, variant) if p == 0.0)

    def test_stationarity_on_random_instances(self):
        """Interior KKT: per-summand gradients agree to 1e-9 on 500 instances."""
        rng = np.random.default_rng(5)
        worst = 0.0
        for powers, order in random_instances(500, rng):
            if math.isinf(order):
                continue  # interior stationarity is a finite-order condition
            weights = optimal_weights(powers, order)
            total = sum(powers)
            grads = [
                kernel_gradient(t, p, order, total)
                for t, p in zip(weights, powers)
                if t > 1e-12
            ]
            worst = max(worst, max(grads) - min(grads))
        assert worst <= 1e-9

    def test_objective_dominates_simplex_samples(self):
        """No random simplex point beats the solver's objective value."""
        rng = np.random.default_rng(17)
        for powers, order in random_instances(60, rng, n_max=5):
            pv_norm = tuple(p / sum(powers) for p in powers)
            best = log_constant(optimal_weights(powers, order), pv_norm, order)
            for _ in range(40):
                trial = rng.dirichlet(np.ones(len(powers)))
                value = log_constant(tuple(trial), pv_norm, order)
                assert value <= best + 1e-9


class TestBatchedReports:
    ORDERS = tuple(float(a) for a in np.geomspace(1.0001, 1e6, 12)) + (1e12, math.inf)

    def test_batch_equals_one_order_reports(self):
        """bound_reports(pv, orders)[i] is bound_report(pv, orders[i]) in every float.

        Over 60 seeded vectors with zeros, ties and dominant leads, each on
        a shuffled order grid that includes inf.
        """
        rng = np.random.default_rng(29)
        for powers in mixed_power_vectors(60, rng):
            orders = tuple(rng.permutation(self.ORDERS))
            batch = bound_reports(powers, orders)
            assert len(batch) == len(orders)
            for order, report in zip(orders, batch):
                assert report_hexes(report) == report_hexes(bound_report(powers, order))
                assert report.weights == optimal_weights(powers, order)

    @pytest.mark.parametrize(
        "powers", [(1.0, 2.0, 2.5, 3.0), (1.0, 2.0, 3.0), (2.0, 0.0, 2.0, 1.0), (5.0, 0.25, 1.0)]
    )
    def test_mixed_grid_rows_equal_one_order_rows(self, powers):
        """The weight rows of the grid (2, inf, 5) are the one-order rows, in every bit.

        The alpha = inf row is interior, an endpoint, a tie and a dominant lead in turn.
        """
        pv = PowerVector(powers)
        grid = tuple(as_order(a) for a in (2.0, math.inf, 5.0))
        rows = optimizer._weight_rows(pv, grid)
        for row, order in zip(rows, grid):
            alone = optimizer._weight_rows(pv, (order,))[0]
            assert [v.hex() for v in row.tolist()] == [v.hex() for v in alone.tolist()]

    def test_thousand_summand_grid_equals_one_order_reports(self):
        """At n = 1000 the reports of the grid (1.1, 2, inf) equal the one-order reports in every bit."""
        powers = tuple(float(p) for p in np.exp(np.random.default_rng(53).uniform(-3.0, 3.0, 1000)))
        orders = (1.1, 2.0, math.inf)
        for order, report in zip(orders, bound_reports(powers, orders)):
            assert report_hexes(report) == report_hexes(bound_report(powers, order))

    def test_empty_grid(self):
        """No orders, no reports."""
        assert bound_reports((1.0, 2.0), ()) == []

    def test_frank_wolfe_gap_on_random_reports(self):
        """No simplex vertex improves the objective's linearization by more than 1e-12.

        The Frank-Wolfe gap max_k d_k - sum_k t_k d_k, with d_k the
        objective's partial derivatives at the reported weights, bounds how
        far the reported log-constant sits below the maximum. It uses no
        solver code. 300 seeded finite-order reports, n from 2 to 1000.
        """
        rng = np.random.default_rng(37)
        finite = (1.01, 1.1, 1.5, 2.0, 5.0, 100.0, 1e4)
        worst = 0.0
        for _ in range(300):
            n = int(round(2.0 * 500.0 ** rng.uniform()))
            powers = tuple(float(p) for p in np.exp(rng.uniform(-3.0, 3.0, n)))
            order = finite[int(rng.integers(len(finite)))]
            weights = bound_report(powers, order).weights
            total = math.fsum(powers)
            grads = [kernel_gradient(t, p, order, total) for t, p in zip(weights, powers)]
            gap = max(grads) - math.fsum(t * g for t, g in zip(weights, grads))
            worst = max(worst, gap)
        assert worst <= 1e-12


def edge_power_vectors(rng):
    """Seeded vectors at n = 1, 2, 3, 17 and 1000, plain and with zeros, ties for
    the largest, -0.0 entries or subnormals, then (1e308, 1e308)."""
    for n in (1, 2, 3, 17, 1000):
        for shape in range(5):
            powers = np.exp(rng.uniform(-3.0, 3.0, n))
            picked = rng.integers(0, n, size=max(1, n // 4))
            if shape == 1:
                powers[picked] = 0.0
            elif shape == 2:
                powers[picked] = powers.max()
            elif shape == 3:
                powers[picked] = -0.0
            elif shape == 4:
                powers[picked] = 5e-324 * rng.integers(1, 1000, size=picked.size)
            yield tuple(float(p) for p in powers)
    yield (1e308, 1e308)


class TestArrayPath:
    def test_matches_the_loop_formulas(self):
        """Every O(n) step on the held array equals the per-entry formula it replaced, in every bit.

        The total is the left-to-right sum (inf for (1e308, 1e308), with no
        warning), the lead is the first largest power, and the ratios and
        the alpha = inf endpoint test are those of the plain list.
        """
        def hexes(values):
            return [float(v).hex() for v in values]

        for powers in edge_power_vectors(np.random.default_rng(47)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                pv = PowerVector(powers)
            total, top = _left_sum(powers), max(powers)
            assert pv.total.hex() == total.hex()
            assert pv.largest.hex() == top.hex()
            if 0.0 < total < math.inf:
                assert hexes(pv.normalized()) == hexes(p / total for p in powers)
            if top == 0.0:
                with pytest.raises(DegeneratePowersError):
                    optimizer._leading_ratios(pv)
                continue
            lead, ratios = optimizer._leading_ratios(pv)
            assert lead == powers.index(top)
            expected = [p / top for i, p in enumerate(powers) if i != lead]
            assert hexes(ratios) == hexes(expected)
            assert optimizer._max_power_tight(ratios) == (_left_sum(expected) <= 1.0 + 1e-12)
        assert pv.total == math.inf


class TestOptimizedConstant:
    def test_equal_powers_recover_n_aware_constant(self):
        """Equal powers are the worst case: the optimum is the n-aware constant."""
        for alpha in ORDER_GRID:
            for n in (2, 3, 5):
                assert optimized_constant((7.0,) * n, alpha) == pytest.approx(
                    sharpened_constant(alpha, n), rel=1e-11
                )

    def test_dominates_n_aware_constant(self):
        """The instance optimum is never below the n-aware constant."""
        rng = np.random.default_rng(19)
        for powers, order in random_instances(200, rng):
            opt = optimized_constant(powers, order)
            assert opt >= sharpened_constant(order, len(powers)) - 1e-12
            assert opt <= 1.0 + 1e-12

    def test_unequal_powers_strictly_improve(self):
        """Spread-out powers beat the equal-power constant strictly."""
        assert optimized_constant((1.0, 1.0, 4.0), 2.0) > sharpened_constant(2.0, 3) + 1e-3

    def test_scale_invariance(self):
        """Rescaling all powers leaves the constant unchanged."""
        base = optimized_constant((1.0, 2.0, 7.0), 2.5)
        scaled = optimized_constant((10.0, 20.0, 70.0), 2.5)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_permutation_invariance(self):
        """Reordering powers leaves the constant unchanged."""
        base = optimized_constant((1.0, 2.0, 7.0), 2.5)
        perm = optimized_constant((7.0, 1.0, 2.0), 2.5)
        assert perm == pytest.approx(base, rel=1e-12)

    def test_frozen_three_summand_value(self):
        """Powers (1, 1, 4) at alpha = 2: frozen optimum."""
        assert optimized_constant((1.0, 1.0, 4.0), 2.0) == pytest.approx(
            0.8583068847656249, rel=1e-12
        )

    def test_near_one_order(self):
        """The constant tends to 1 as the order approaches 1."""
        assert optimized_constant((1.0, 3.0, 9.0), 1.0 + 1e-6) > 0.999


class TestTwoSummandClosedForm:
    def test_frozen_weight(self):
        """beta = 1/4 at alpha = 2: frozen closed-form weight."""
        assert two_summand_weight(0.25, 2.0) == pytest.approx(0.13148290817867023, abs=1e-14)

    def test_frozen_constant(self):
        """beta = 1/4 at alpha = 2: frozen closed-form constant."""
        assert two_summand_constant(0.25, 2.0) == pytest.approx(0.9096907397892431, rel=1e-12)

    def test_limit_order_value(self):
        """At the limit order the constant is 1/(1 + beta)."""
        assert two_summand_constant(0.25, math.inf) == pytest.approx(0.8, rel=1e-12)
        assert two_summand_weight(0.25, math.inf) == 0.0

    def test_degenerate_ratio(self):
        """beta = 0 collapses to a single summand: weight 0, constant 1."""
        assert two_summand_weight(0.0, 2.0) == 0.0
        assert two_summand_constant(0.0, 2.0) == 1.0

    def test_equal_ratio(self):
        """beta = 1 gives the even split and the two-summand constant."""
        assert two_summand_weight(1.0, 2.0) == 0.5
        assert two_summand_constant(1.0, 2.0) == pytest.approx(
            sharpened_constant(2.0, 2), rel=1e-12
        )

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 5.0])
    @pytest.mark.parametrize("beta", NEAR_ONE)
    def test_near_equal_ratio(self, beta, alpha):
        """Just below beta = 1 the closed form is used, not the 1/2 limit."""
        solved = optimal_weights((beta, 1.0), alpha)[0]
        assert abs(two_summand_weight(beta, alpha) - solved) <= 1e-15

    @pytest.mark.parametrize("alpha", [1e6, 1e12, math.inf])
    @pytest.mark.parametrize("beta", NEAR_ONE)
    def test_near_equal_ratio_huge_order(self, beta, alpha):
        """With a' near 1 as well, the closed form neither cancels nor fails.

        Checked against the textbook root evaluated in 120 digits from the
        same a'; at alpha = inf the weight is exactly 0, as the solver's.
        """
        ac = as_order(alpha).alpha_conj
        with decimal.localcontext(prec=120):
            a, b = decimal.Decimal(ac), decimal.Decimal(beta)
            p = a * (b + 1) - 2 * b
            exact = (p - (p * p - 4 * b * (1 - b) * (a - 1)).sqrt()) / (2 * (1 - b))
        t = two_summand_weight(beta, alpha)
        assert abs(t - float(exact)) <= 1e-15 * float(exact)
        if math.isinf(alpha):
            assert t == optimal_weights((beta, 1.0), alpha)[0] == 0.0
        assert two_summand_constant(beta, alpha) == pytest.approx(
            optimized_constant((beta, 1.0), alpha), rel=1e-12
        )

    def test_matches_solver_on_grid(self):
        """Closed form equals the generic solver over a 30 x 6 grid."""
        betas = np.linspace(0.001, 1.0, 30)
        worst = 0.0
        for alpha in ORDER_GRID:
            for beta in betas:
                closed = two_summand_constant(float(beta), alpha)
                solved = optimized_constant((float(beta), 1.0), alpha)
                worst = max(worst, abs(closed - solved))
        assert worst <= 1e-9

    def test_matches_objective_route(self):
        """The relative-entropy form agrees with the kernel-sum objective."""
        for alpha in (1.1, 2.0, 5.0, 50.0):
            for beta in (0.05, 0.3, 0.9):
                t = two_summand_weight(beta, alpha)
                direct = log_constant(
                    (t, 1.0 - t), (beta / (1.0 + beta), 1.0 / (1.0 + beta)), alpha
                )
                assert math.log(two_summand_constant(beta, alpha)) == pytest.approx(
                    direct, abs=1e-12
                )

    def test_ratio_domain(self):
        """Ratios outside [0, 1] are rejected."""
        with pytest.raises(ValueError):
            two_summand_weight(1.5, 2.0)
        with pytest.raises(ValueError):
            two_summand_constant(-0.1, 2.0)


class TestInfinityDichotomy:
    def test_dominant_summand_makes_bv_tight(self):
        """A summand holding half the total collapses the bound to max-power."""
        powers = (10.0, 20.0, 90.0)
        assert bv_asymptotically_tight(powers)
        assert optimized_constant(powers, math.inf) == pytest.approx(0.75, rel=1e-12)

    def test_balanced_summands_keep_margin(self):
        """Without a dominant summand the optimized bound stays above max-power."""
        powers = (40.0, 40.0, 40.0)
        assert not bv_asymptotically_tight(powers)
        margin = optimized_constant(powers, math.inf) * 120.0 - 40.0
        assert margin == pytest.approx(120.0 * 4.0 / 9.0 - 40.0, rel=1e-12)
        assert margin > 13.0

    def test_margin_persists_at_large_finite_orders(self):
        """The gap over max-power survives alpha = 1e2, 1e3, 1e4."""
        for alpha in (1e2, 1e3, 1e4):
            assert optimized_constant((40.0, 40.0, 40.0), alpha) * 120.0 - 40.0 > 13.0

    def test_two_summands_always_tight(self):
        """With two summands the smaller ratio never exceeds 1."""
        assert bv_asymptotically_tight((3.0, 5.0))
        assert bv_asymptotically_tight((1.0, 1.0))

    def test_huge_powers_judged_by_ratio(self):
        """Powers whose total overflows are judged by their ratios."""
        assert bv_asymptotically_tight((1e308, 1e308))

    def test_agrees_with_endpoint_solution(self):
        """The rule carries the solver's slack: within it the weights take the endpoint."""
        near = (1.0, 0.5, 0.5 * (1.0 + 4e-13))
        assert bv_asymptotically_tight(near)
        assert tuple(optimal_weights(near, math.inf)) == (1.0, 0.0, 0.0)
        past = (1.0, 0.5, 0.5 * (1.0 + 2e-11))
        assert not bv_asymptotically_tight(past)
        assert optimal_weights(past, math.inf)[0] < 1.0

    def test_endpoint_row_runs_no_residual(self, monkeypatch):
        """The endpoint limit is a closed bracket: psi runs once, for the companion weights."""
        calls = []
        psi = optimizer._psi

        def counting_psi(*args, **kwargs):
            calls.append(kwargs.get("slope", False))
            return psi(*args, **kwargs)

        monkeypatch.setattr(optimizer, "_psi", counting_psi)
        report = bound_report((10.0, 20.0, 90.0), math.inf)
        assert calls == [False]
        assert tuple(report.weights) == (0.0, 0.0, 1.0)

    @pytest.mark.parametrize("powers", [(3.0, 0.0, 0.0), (3.0,)])
    def test_lead_only_runs_no_residual(self, monkeypatch, powers):
        """With no positive ratio every order is the closed bracket [1, 1]: psi runs once,
        for the companion weights, and the lead takes weight 1."""
        calls = []
        psi = optimizer._psi

        def counting_psi(*args, **kwargs):
            calls.append(kwargs.get("slope", False))
            return psi(*args, **kwargs)

        monkeypatch.setattr(optimizer, "_psi", counting_psi)
        lead_only = (1.0,) + (0.0,) * (len(powers) - 1)
        assert tuple(bound_report(powers, 2.0).weights) == lead_only
        assert calls == [False]
        reports = bound_reports(powers, (1.01, 2.0, 1e17, math.inf))
        assert [tuple(r.weights) for r in reports] == [lead_only] * 4
        assert calls == [False, False]

    def test_all_zero_powers(self):
        """All-zero powers count as tight, as the max-power rule reads them."""
        assert bv_asymptotically_tight((0.0, 0.0))

    @pytest.mark.parametrize(
        "powers, expected", [((2.0, 2.0), (0.5, 0.5)), ((2.0, 0.0, 2.0), (0.5, 0.0, 0.5))]
    )
    def test_tied_largest_powers_share_weight(self, powers, expected):
        """A tie for the largest power is tight, yet the weights stay the finite-order ones."""
        assert bv_asymptotically_tight(powers)
        for alpha in (2.0, 1e6, 1e12, math.inf):
            assert tuple(optimal_weights(powers, alpha)) == expected
        assert optimized_constant(powers, math.inf) == 0.5


class TestBoundReport:
    def test_integer_order_past_float_range(self):
        """An order of 10**400 is refused by the order rule, not by an OverflowError."""
        with pytest.raises(ValueError, match="^order must lie within the float range"):
            bound_report((1, 2), 10 ** 400)

    def test_chain_on_random_instances(self):
        """bc <= sharpened <= optimized <= 1 and optimized covers max-power."""
        rng = np.random.default_rng(23)
        for powers, order in random_instances(100, rng):
            report = bound_report(powers, order)
            assert report.bc == pytest.approx(bc_constant(order), rel=1e-12)
            assert report.bc <= report.sharpened <= report.optimized * (1 + 1e-12)
            assert report.optimized <= 1.0 + 1e-12
            assert report.optimized * report.powers.total >= report.bv - 1e-9 * max(
                1.0, report.bv
            )

    def test_subnormal_power_under_the_total(self):
        """A subnormal power whose ratio to the lead rounds up but whose share of the
        total underflows to 0 still gives a finite constant: its weight 5e-324 is
        priced at log p - log total, not at log 0."""
        report = bound_report((1.731091603520131, 5e-324, 0.3, 0.2), 1.5)
        assert report.weights[1] == 5e-324
        assert report.optimized == bound_report((1.731091603520131, 0.3, 0.2), 1.5).optimized

    def test_one_subnormal_power_sweep(self):
        """Vectors that each hold one subnormal power report what the vector without it does.

        Odd vectors hold 5e-324 with the largest power in [1, 2), where
        5e-324 over the lead rounds up and over a total of 2 or more rounds
        down to 0; 19 of the 300 reach that case.
        """
        rng = np.random.default_rng(61)
        orders = (1.01, 1.1, 1.5, 2.0, 10.0, 1e6, math.inf)
        underflowed = 0
        for i in range(300):
            n = int(rng.integers(2, 12))
            powers = np.exp(rng.uniform(-3.0, 3.0, n))
            k = int(rng.integers(n))
            if i % 2:
                powers *= rng.uniform(1.0, 2.0) / powers.max()
                powers[k] = 5e-324
            else:
                powers[k] = float(rng.choice([5e-324, 1e-323, 3e-320, 1e-310]))
            order = orders[int(rng.integers(len(orders)))]
            report = bound_report(tuple(powers.tolist()), order)
            rest = bound_report(tuple(np.delete(powers, k).tolist()), order)
            underflowed += report.weights[k] > 0.0 and powers[k] / report.powers.total == 0.0
            assert report.optimized == pytest.approx(rest.optimized, rel=1e-14)
            assert report.bc <= report.sharpened <= report.optimized
        assert underflowed == 19

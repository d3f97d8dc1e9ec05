"""Tests for the instance-optimal weight solver."""

import math

import numpy as np
import pytest

from repi import (
    DegeneratePowersError,
    RatioVector,
    RootBracketError,
    as_order,
    bc_constant,
    bound_report,
    bv_asymptotically_tight,
    companion_weight,
    log_constant,
    normalize_ratios,
    optimal_weights,
    optimized_constant,
    sharpened_constant,
    solve_leading_weight,
    two_summand_constant,
    two_summand_weight,
    weight_sum,
    weight_sum_grid,
)

ORDER_GRID = (1.1, 1.5, 2.0, 5.0, 100.0, math.inf)


def random_instances(count, rng, n_max=6):
    """Seeded stream of (powers, order) pairs with spread-out magnitudes."""
    for _ in range(count):
        n = int(rng.integers(2, n_max + 1))
        powers = tuple(float(p) for p in np.exp(rng.uniform(-3, 3, size=n)))
        order = ORDER_GRID[int(rng.integers(0, len(ORDER_GRID)))]
        yield powers, order


def kernel_gradient(t, power, order, total):
    """Per-summand gradient of the objective at weight t for a positive power."""
    ac = as_order(order).alpha_conj
    return -math.log1p(-t / ac) - math.log(t) - 2.0 + math.log(power / total)


class TestNormalizeRatios:
    def test_largest_moves_last(self):
        """The leading summand is the largest power; others keep their order."""
        rv = normalize_ratios((1.0, 1.0, 4.0))
        assert rv.permutation == (0, 1, 2)
        assert rv.ratios == (0.25, 0.25)

    def test_ties_pick_first(self):
        """Equal maxima resolve to the first index, deterministically."""
        rv = normalize_ratios((2.0, 2.0))
        assert rv.permutation == (1, 0)
        assert rv.ratios == (1.0,)

    def test_all_zero_rejected(self):
        """An all-zero vector has no leading summand."""
        with pytest.raises(DegeneratePowersError):
            normalize_ratios((0.0, 0.0))

    def test_ratio_vector_validation(self):
        """Ratios above 1 and mismatched permutations are rejected."""
        with pytest.raises(ValueError):
            RatioVector((1.5,), (0, 1))
        with pytest.raises(ValueError):
            RatioVector((0.5,), (0,))


class TestCompanionWeight:
    def test_frozen_value(self):
        """x = 3/4, ratio 1/4 at alpha = 2 forces weight exactly 1/8."""
        assert companion_weight(0.75, 0.25, 2.0) == pytest.approx(0.125, abs=1e-15)

    def test_zero_ratio(self):
        """Ratio 0 forces weight 0."""
        assert companion_weight(0.6, 0.0, 2.0) == 0.0

    def test_unit_ratio(self):
        """Ratio 1 forces the smaller root min(x, conjugate - x)."""
        assert companion_weight(0.3, 1.0, 2.0) == pytest.approx(0.3, rel=1e-12)

    def test_quadratic_identity(self):
        """The weight t solves t (a' - t) = ratio x (a' - x)."""
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = float(rng.uniform(0.05, 0.95))
            c = float(rng.uniform(0.0, 1.0))
            alpha = float(rng.uniform(1.05, 50.0))
            ac = alpha / (alpha - 1.0)
            t = companion_weight(x, c, alpha)
            assert t * (ac - t) == pytest.approx(c * x * (ac - x), rel=1e-12, abs=1e-13)
            assert 0.0 <= t <= x + 1e-15

    def test_ratio_domain(self):
        """Ratios outside [0, 1] are rejected."""
        with pytest.raises(ValueError):
            companion_weight(0.5, 1.2, 2.0)


class TestWeightSum:
    def test_grid_matches_scalar(self):
        """The vectorized evaluation agrees with the scalar one pointwise."""
        rng = np.random.default_rng(11)
        xs = np.linspace(0.01, 0.99, 37)
        for _ in range(20):
            ratios = tuple(float(r) for r in rng.uniform(0, 1, size=3))
            alpha = float(rng.uniform(1.05, 30.0))
            grid = weight_sum_grid(xs, ratios, alpha)
            for x, val in zip(xs, grid):
                assert val == pytest.approx(weight_sum(float(x), ratios, alpha), abs=1e-13)

    def test_infinity_endpoints(self):
        """At the limit order the sum is pinned at both simplex corners."""
        ratios = (0.7, 0.8)
        assert weight_sum(0.0, ratios, math.inf) == 0.0
        assert weight_sum(1.0, ratios, math.inf) == pytest.approx(1.0, abs=1e-15)


class TestSolveLeadingWeight:
    def test_frozen_root(self):
        """Ratios (1/4, 1/4) at alpha = 2 give leading weight 3/4."""
        assert solve_leading_weight((0.25, 0.25), 2.0) == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_equal_ratios_split_evenly(self, n):
        """All-equal powers put weight 1/n on the leader."""
        root = solve_leading_weight((1.0,) * (n - 1), 2.0)
        assert root == pytest.approx(1.0 / n, abs=1e-12)

    def test_all_zero_ratios(self):
        """A lone positive power takes all the weight."""
        assert solve_leading_weight((0.0, 0.0), 2.0) == 1.0

    def test_residuals_on_random_instances(self):
        """The simplex constraint holds to tolerance on 500 seeded instances."""
        rng = np.random.default_rng(2)
        worst = 0.0
        for powers, order in random_instances(500, rng):
            rv = normalize_ratios(powers)
            root = solve_leading_weight(rv, order)
            if math.isinf(order) and root == 1.0:
                continue  # endpoint root, exact by construction
            worst = max(worst, abs(weight_sum(root, rv, order) - 1.0))
        assert worst <= 1e-12

    def test_root_is_unique(self):
        """weight_sum - 1 changes sign exactly once on (0, 1) for finite orders."""
        rng = np.random.default_rng(3)
        xs = np.linspace(1e-9, 1.0, 10 ** 4)
        for powers, order in random_instances(500, rng):
            if math.isinf(order):
                order = 2.0
            rv = normalize_ratios(powers)
            signs = np.sign(weight_sum_grid(xs, rv, order) - 1.0)
            crossings = int(np.count_nonzero(np.diff(signs[signs != 0.0])))
            assert crossings == 1

    def test_infinity_endpoint_when_ratios_small(self):
        """Ratios summing at most 1 give the endpoint root at the limit order."""
        assert solve_leading_weight((0.2, 0.3), math.inf) == 1.0

    def test_infinity_interior_when_ratios_large(self):
        """Ratios summing above 1 give an interior root at the limit order."""
        root = solve_leading_weight((1.0, 1.0), math.inf)
        assert root == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert abs(weight_sum(root, (1.0, 1.0), math.inf) - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "c", [0.5000001, 0.500001, 0.50001, 0.5001, 0.501, 0.51, 0.6, 0.75, 0.9, 1.0]
    )
    def test_infinity_root_matches_closed_form(self, c):
        """Two equal ratios c > 1/2 at the limit order: x + 2 psi = 1 gives x = 1/(4c - 1).

        Near the threshold c = 1/2 the root crowds the endpoint x = 1, where
        weight_sum - 1 vanishes too; the solver still lands within 4 ulp.
        """
        expected = 1.0 / (4.0 * c - 1.0)
        root = solve_leading_weight((c, c), math.inf)
        assert abs(root - expected) <= 4 * math.ulp(expected)

    def test_bracket_error_carries_state(self):
        """The no-convergence error exposes its bracket and residual."""
        err = RootBracketError(0.1, 0.9, 0.5)
        assert err.bracket == (0.1, 0.9)
        assert err.residual == 0.5


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


class TestBoundReport:
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

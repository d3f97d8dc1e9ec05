"""Tests for the curvature and eigenvalue diagnostics."""

import math

import numpy as np
import pytest

from repi import (
    CurvatureSlackReport,
    Order,
    RankOneSymmetric,
    concavity_slacks,
    curvature,
    jacobi_eigenvalues,
    max_eigenvalue,
    reduced_hessian,
    secular_max_eigenvalue,
)


def order_from_conjugate(ac):
    """Order whose Holder conjugate is ac (the map is an involution)."""
    return Order(ac / (ac - 1.0))


def random_rank_one(rng, size):
    """A random factored symmetric matrix with distinct diagonal."""
    diag = tuple(float(d) for d in np.sort(rng.uniform(-5, 5, size=size)) + np.arange(size) * 1e-3)
    rho = float(rng.uniform(-2, 2))
    z = tuple(float(v) for v in rng.uniform(-1.5, 1.5, size=size))
    return RankOneSymmetric(diag, rho, z)


class TestCurvature:
    def test_frozen_values(self):
        """Reference evaluations on both sides of the sign change."""
        assert curvature(0.5, 2.0) == pytest.approx(-4.0 / 3.0, rel=1e-14)
        assert curvature(1.0 / 3.0, 2.0) == pytest.approx(-2.4, rel=1e-14)
        assert curvature(0.9, 3.0) == pytest.approx(5.0 / 9.0, rel=1e-12)

    def test_sign_change_at_half_conjugate(self):
        """The curvature vanishes exactly at half the conjugate."""
        assert curvature(0.75, 3.0) == 0.0
        assert curvature(0.74, 3.0) < 0.0 < curvature(0.76, 3.0)

    def test_negative_everywhere_for_small_orders(self):
        """Conjugates of 2 or more keep the curvature negative on (0, 1)."""
        for alpha in (1.2, 1.5, 2.0):
            for x in np.linspace(0.01, 0.99, 25):
                assert curvature(float(x), alpha) < 0.0

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.0, 2.0])
    def test_domain(self, bad):
        """Arguments at or beyond the poles are rejected."""
        with pytest.raises(ValueError):
            curvature(bad, 2.0)

    def test_limit_order_value(self):
        """At the limit order the conjugate is 1 and q(x) = (2x-1)/(x(1-x))."""
        assert curvature(0.25, math.inf) == pytest.approx(-8.0 / 3.0, rel=1e-14)


class TestRankOneSymmetric:
    def test_materialization(self):
        """as_matrix builds diag(d) + rho z z^T entry by entry."""
        m = RankOneSymmetric((-2.0, -1.0), 1.0, (1.0, 1.0))
        assert np.allclose(m.as_matrix(), [[-1.0, 1.0], [1.0, 0.0]], atol=0.0)
        assert m.size == 2

    def test_validation(self):
        """Length mismatch and non-finite data are rejected."""
        with pytest.raises(ValueError):
            RankOneSymmetric((1.0,), 0.5, (1.0, 2.0))
        with pytest.raises(ValueError):
            RankOneSymmetric((math.inf,), 0.5, (1.0,))


class TestReducedHessian:
    def test_structure_at_reference_point(self):
        """Interior weights map to curvature diagonal plus curvature rank-one."""
        m = reduced_hessian((0.125, 0.125), 2.0)
        assert m.diagonal == pytest.approx((-112.0 / 15.0, -112.0 / 15.0), rel=1e-13)
        assert m.rho == pytest.approx(-8.0 / 15.0, rel=1e-13)
        assert m.z == (1.0, 1.0)

    def test_interior_required(self):
        """Boundary and infeasible weights are rejected."""
        with pytest.raises(ValueError):
            reduced_hessian((0.0, 0.5), 2.0)
        with pytest.raises(ValueError):
            reduced_hessian((0.6, 0.5), 2.0)
        with pytest.raises(ValueError):
            reduced_hessian((), 2.0)


class TestJacobiEigenvalues:
    def test_diagonal_is_fixed_point(self):
        """A diagonal matrix returns its sorted diagonal unchanged."""
        vals = jacobi_eigenvalues(np.diag([3.0, -1.0, 2.0]))
        assert np.array_equal(vals, [-1.0, 2.0, 3.0])

    def test_known_two_by_two(self):
        """[[2,1],[1,2]] has eigenvalues 1 and 3."""
        vals = jacobi_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert vals == pytest.approx([1.0, 3.0], abs=1e-13)

    def test_single_entry(self):
        """1 x 1 matrices are their own spectrum."""
        assert jacobi_eigenvalues(np.array([[4.5]]))[0] == 4.5

    def test_matches_library_eigensolver(self):
        """Full agreement with numpy's symmetric eigensolver on random input."""
        rng = np.random.default_rng(31)
        for _ in range(50):
            size = int(rng.integers(2, 17))
            a = rng.standard_normal((size, size))
            sym = (a + a.T) / 2.0
            ours = jacobi_eigenvalues(sym)
            ref = np.linalg.eigvalsh(sym)
            assert np.max(np.abs(ours - ref)) <= 1e-10

    def test_validation(self):
        """Non-square, asymmetric and oversized inputs are rejected."""
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.ones((2, 3)))
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.eye(65))


class TestSecularMaxEigenvalue:
    def test_rank_zero_cases(self):
        """Zero rho or zero z reduce to the diagonal maximum."""
        assert secular_max_eigenvalue(RankOneSymmetric((1.0, 3.0), 0.0, (1.0, 1.0))) == 3.0
        assert secular_max_eigenvalue(RankOneSymmetric((1.0, 3.0), 2.0, (0.0, 0.0))) == 3.0

    def test_single_entry(self):
        """1 x 1 case is d + rho z^2 exactly."""
        assert secular_max_eigenvalue(RankOneSymmetric((2.0,), 0.5, (3.0,))) == pytest.approx(
            6.5, rel=1e-14
        )

    def test_frozen_two_by_two(self):
        """diag(-2,-1) + ones ones^T has top eigenvalue (sqrt 5 - 1)/2."""
        m = RankOneSymmetric((-2.0, -1.0), 1.0, (1.0, 1.0))
        expected = (math.sqrt(5.0) - 1.0) / 2.0
        assert secular_max_eigenvalue(m) == pytest.approx(expected, abs=1e-12)
        assert max_eigenvalue(m) == pytest.approx(expected, abs=1e-12)

    def test_duplicate_diagonal_merges(self):
        """Repeated diagonal entries with weight merge instead of splitting poles."""
        m = RankOneSymmetric((1.0, 1.0, 0.0), 0.5, (1.0, 1.0, 1.0))
        ref = float(np.linalg.eigvalsh(m.as_matrix())[-1])
        assert secular_max_eigenvalue(m) == pytest.approx(ref, abs=1e-10)

    def test_zero_coordinate_deflates(self):
        """Coordinates outside the rank-one range stay plain eigenvalues."""
        m = RankOneSymmetric((0.0, 5.0), 0.1, (1.0, 0.0))
        assert secular_max_eigenvalue(m) == pytest.approx(5.0, abs=1e-12)

    def test_negative_rho_interior_bracket(self):
        """Downdates land between the top two diagonal entries."""
        m = RankOneSymmetric((0.0, 1.0), -0.3, (1.0, 1.0))
        ref = float(np.linalg.eigvalsh(m.as_matrix())[-1])
        root = secular_max_eigenvalue(m)
        assert 0.0 < root < 1.0
        assert root == pytest.approx(ref, abs=1e-10)

    def test_negative_rho_single_merged_entry(self):
        """Equal diagonal collapses to one pole; the shift is exact."""
        m = RankOneSymmetric((1.0, 1.0), -0.25, (1.0, 1.0))
        assert secular_max_eigenvalue(m) == pytest.approx(1.0, abs=1e-14)

    def test_root_next_to_a_pole(self):
        """The bracket ends are the poles themselves, so a root close to one stays inside.

        An inward nudge of 1e-15 times the bracket width shut these roots out:
        the Hessian's secular value was -3.20000025, the first downdate's -9e-8
        and the second's -1e-15.
        """
        m = reduced_hessian((1e-8, 0.25 + 1e-9 - 1e-8), 3.0)
        ref = float(np.linalg.eigvalsh(m.as_matrix())[-1])
        assert max_eigenvalue(m) == pytest.approx(ref, rel=1e-14, abs=0.0)
        m = RankOneSymmetric((1e-8, -1e8), -1e-8, (1.0, 1.0))
        assert secular_max_eigenvalue(m) == pytest.approx(1e-24, abs=1e-20)
        m = RankOneSymmetric((-1.0, 0.0), -1e-300, (1.0, 1.0))
        assert secular_max_eigenvalue(m) == pytest.approx(-1e-300, rel=1e-15)

    def test_agreement_with_dense_route(self):
        """Secular and dense routes agree on 500 random factored matrices."""
        rng = np.random.default_rng(37)
        for _ in range(500):
            size = int(rng.integers(1, 11))
            m = random_rank_one(rng, size)
            dense = float(jacobi_eigenvalues(m.as_matrix())[-1])
            assert abs(secular_max_eigenvalue(m) - dense) <= 1e-8
            max_eigenvalue(m)  # raises on disagreement

    def test_matches_library_eigensolver(self):
        """Sizes 1 to 63, both signs of rho: within 1e-13 of LAPACK relative to ||A||."""
        rng = np.random.default_rng(53)
        for size in range(1, 64):
            for sign in (1.0, -1.0):
                m = random_rank_one(rng, size)
                m = RankOneSymmetric(m.diagonal, sign * abs(m.rho), m.z)
                eigs = np.linalg.eigvalsh(m.as_matrix())
                scale = max(1.0, float(np.max(np.abs(eigs))))
                assert abs(secular_max_eigenvalue(m) - float(eigs[-1])) <= 1e-13 * scale


class TestInterlacing:
    def test_update_shifts_upward(self):
        """For rho > 0 eigenvalues interlace the diagonal from above."""
        rng = np.random.default_rng(41)
        for _ in range(200):
            size = int(rng.integers(2, 9))
            diag = np.sort(rng.uniform(-4, 4, size=size) + np.arange(size) * 1e-2)
            z = rng.uniform(0.1, 1.0, size=size)
            rho = float(rng.uniform(0.1, 2.0))
            m = RankOneSymmetric(tuple(diag), rho, tuple(z))
            lams = jacobi_eigenvalues(m.as_matrix())
            assert np.all(lams >= diag - 1e-10)
            assert np.all(lams[:-1] <= diag[1:] + 1e-10)
            assert lams[-1] <= diag[-1] + rho * float(z @ z) + 1e-10

    def test_shift_fractions_form_a_distribution(self):
        """Eigenvalue shifts are nonnegative and exhaust rho ||z||^2."""
        rng = np.random.default_rng(43)
        for _ in range(200):
            size = int(rng.integers(2, 9))
            diag = np.sort(rng.uniform(-4, 4, size=size) + np.arange(size) * 1e-2)
            z = rng.uniform(0.1, 1.0, size=size)
            rho = float(rng.uniform(0.1, 2.0))
            m = RankOneSymmetric(tuple(diag), rho, tuple(z))
            shifts = jacobi_eigenvalues(m.as_matrix()) - diag
            fractions = shifts / (rho * float(z @ z))
            assert np.all(fractions >= -1e-9)
            assert float(fractions.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_update_shifts_downward_for_negative_rho(self):
        """For rho < 0 the interlacing mirrors below the diagonal."""
        rng = np.random.default_rng(47)
        for _ in range(100):
            size = int(rng.integers(2, 9))
            diag = np.sort(rng.uniform(-4, 4, size=size) + np.arange(size) * 1e-2)
            z = rng.uniform(0.1, 1.0, size=size)
            rho = float(rng.uniform(-2.0, -0.1))
            m = RankOneSymmetric(tuple(diag), rho, tuple(z))
            lams = jacobi_eigenvalues(m.as_matrix())
            assert np.all(lams <= diag + 1e-10)
            assert np.all(lams[1:] >= diag[:-1] - 1e-10)


class TestConcavity:
    def test_hessian_never_positive(self):
        """1000 seeded interior points give max eigenvalue at most 1e-10."""
        rng = np.random.default_rng(53)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(2, 9))
            point = rng.dirichlet(np.ones(n))
            if float(point.min()) < 1e-3:
                continue
            if checked % 2 == 0:
                ac = float(rng.uniform(1.05, 1.999))
            else:
                ac = float(rng.uniform(2.0, 10.0))
            order = order_from_conjugate(ac)
            top = max_eigenvalue(reduced_hessian(tuple(point[:-1]), order))
            assert top <= 1e-10
            checked += 1

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_hessian_at_equal_weights(self, n):
        """The equal-split point (duplicate diagonal) stays nonpositive."""
        for ac in (1.1, 1.5, 1.9, 2.5, 6.0):
            order = order_from_conjugate(ac)
            top = max_eigenvalue(reduced_hessian((1.0 / n,) * (n - 1), order))
            assert top <= 1e-10

    def test_slack_report_positive(self):
        """All three reciprocal-curvature minima are positive in (1, 2)."""
        for ac in (1.2, 1.5, 1.9):
            report = concavity_slacks(order_from_conjugate(ac), samples=400, seed=0)
            assert isinstance(report, CurvatureSlackReport)
            assert report.all_positive
            assert report.points == 400

    def test_slack_report_deterministic(self):
        """Identical seeds reproduce identical minima."""
        a = concavity_slacks(3.0, samples=200, seed=5)
        b = concavity_slacks(3.0, samples=200, seed=5)
        assert (a.pair_min, a.chain_min, a.partition_min) == (
            b.pair_min,
            b.chain_min,
            b.partition_min,
        )

    def test_conjugate_domain_enforced(self):
        """Conjugates outside (1, 2) are rejected."""
        with pytest.raises(ValueError):
            concavity_slacks(2.0)  # conjugate exactly 2
        with pytest.raises(ValueError):
            concavity_slacks(1.5)  # conjugate 3

    @pytest.mark.parametrize("samples", [0, -5, 2.5])
    def test_samples_below_one_rejected(self, samples):
        """No samples probe nothing, and a fractional count is no count; both are a ValueError."""
        with pytest.raises(ValueError, match="samples"):
            concavity_slacks(2.5, samples=samples)

    def test_thin_domain_rejected(self):
        """A conjugate so close to 2 that the margin cannot fit is rejected."""
        with pytest.raises(ValueError):
            concavity_slacks(2.0002)

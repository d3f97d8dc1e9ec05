"""Tests for the curvature and eigenvalue diagnostics."""

import math

import numpy as np
import pytest

from repi import (
    CurvatureSlackReport,
    EigenvalueMismatchError,
    Order,
    RankOneSymmetric,
    concavity_slacks,
    curvature,
    max_eigenvalue,
    reduced_hessian,
    secular_max_eigenvalue,
)
from repi import diagnostics


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

    def test_value_past_the_float_range_refused(self):
        """At x = 5e-324 the curvature is about -1/x, past the float range: a ValueError, not -inf."""
        with pytest.raises(ValueError, match="past the float range"):
            curvature(5e-324, 2.0)
        assert curvature(1e-300, 2.0) == pytest.approx(-1e300, rel=1e-15)

    def test_limit_order_value(self):
        """At the limit order the conjugate is 1 and q(x) = (2x-1)/(x(1-x))."""
        assert curvature(0.25, math.inf) == pytest.approx(-8.0 / 3.0, rel=1e-14)


class TestRankOneSymmetric:
    def test_materialization(self):
        """as_matrix builds diag(d) + rho z z^T entry by entry."""
        m = RankOneSymmetric((-2.0, -1.0), 1.0, (1.0, 1.0))
        assert np.allclose(m.as_matrix(), [[-1.0, 1.0], [1.0, 0.0]], atol=0.0)
        assert len(m.diagonal) == 2

    def test_validation(self):
        """Length mismatch and non-finite data are rejected."""
        with pytest.raises(ValueError):
            RankOneSymmetric((1.0,), 0.5, (1.0, 2.0))
        with pytest.raises(ValueError):
            RankOneSymmetric((math.inf,), 0.5, (1.0,))

    @pytest.mark.parametrize(
        "diagonal, rho, z",
        [
            ((0.0, 1.0), 1e300, (1e10, 1.0)),
            ((0.0, 1.0), 0.0, (1e200, 1.0)),
            ((1e308, 0.0), 1e308, (1.0, 0.0)),
            ((0.0, 1.0), 1e308, (2.0, 1.0)),
        ],
    )
    def test_overflowing_entries_rejected(self, diagonal, rho, z):
        """Finite factors whose entries or rank-one part overflow are refused, so no NaN escapes."""
        with pytest.raises(ValueError, match="^matrix entries and rank-one part must be finite$"):
            max_eigenvalue(RankOneSymmetric(diagonal, rho, z))

    def test_large_finite_entries_accepted(self):
        """Below the float range both routes agree on the top eigenvalue d + rho ||z||^2."""
        assert max_eigenvalue(RankOneSymmetric((0.0,), 1e280, (1e10,))) == 1e300


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


def rank_one_family(rng, family):
    """A matrix of one family: reduced Hessians, with a 1e-9 weight among them, random
    matrices with zero z entries and either sign of rho, and integer diagonals that merge."""
    size = int(rng.integers(2, 30))
    if family in ("reduced", "weight-1e-9"):
        weights = rng.dirichlet(np.ones(size + 1))
        if family == "weight-1e-9":
            weights = np.insert(weights * (1.0 - 1e-9), rng.integers(size + 2), 1e-9)
        conjugate = float(rng.uniform(1.05, 10.0))
        return reduced_hessian(tuple(weights[:-1]), order_from_conjugate(conjugate))
    if family == "zero-z":
        m = random_rank_one(rng, size)
        z = np.where(rng.random(size) < 0.3, 0.0, m.z)
        return RankOneSymmetric(m.diagonal, m.rho, tuple(z.tolist()))
    diag = rng.integers(-3, 4, size=size).astype(float)
    z = rng.uniform(-1.5, 1.5, size=size)
    return RankOneSymmetric(tuple(diag.tolist()), float(rng.uniform(-2, 2)), tuple(z.tolist()))


def shifted_eigvalsh(offset, eigvalsh=np.linalg.eigvalsh):
    """np.linalg.eigvalsh with the top eigenvalue moved by ``offset()``."""

    def shifted(a):
        eigs = eigvalsh(a)
        eigs[-1] += offset()
        return eigs

    return shifted


def route_scale(m):
    """LAPACK's top eigenvalue of m and max(1, ||m||_2) from the same spectrum."""
    eigs = np.linalg.eigvalsh(m.as_matrix())
    return float(eigs[-1]), max(1.0, abs(float(eigs[0])), abs(float(eigs[-1])))


class TestMaxEigenvalue:
    def test_zero_rho_is_the_top_diagonal_entry(self):
        """With rho = 0 the matrix is diagonal and its top entry comes back exactly."""
        assert max_eigenvalue(RankOneSymmetric((3.0, -1.0, 2.0), 0.0, (1.0, 1.0, 1.0))) == 3.0

    def test_single_entry(self):
        """1 x 1 matrices give d + rho z^2 exactly."""
        assert max_eigenvalue(RankOneSymmetric((2.0,), 0.5, (3.0,))) == 6.5

    def test_known_two_by_two(self):
        """diag(1, 1) + ones ones^T = [[2, 1], [1, 2]] has top eigenvalue 3."""
        m = RankOneSymmetric((1.0, 1.0), 1.0, (1.0, 1.0))
        assert max_eigenvalue(m) == pytest.approx(3.0, rel=1e-15, abs=0.0)

    def test_oversize_refused_before_materializing(self, monkeypatch):
        """Size 65 is a ValueError raised before the dense matrix is built; 64 still runs."""
        m = RankOneSymmetric(tuple(float(k) for k in range(64)), 1.0, (1.0,) * 64)
        assert max_eigenvalue(m) > 63.0

        def refuse(self):
            raise AssertionError("as_matrix called for an oversize matrix")

        monkeypatch.setattr(RankOneSymmetric, "as_matrix", refuse)
        with pytest.raises(ValueError, match="limited to size 64, got 65"):
            max_eigenvalue(RankOneSymmetric((0.0,) * 65, 1.0, (1.0,) * 65))

    @pytest.mark.parametrize("small", [1e-6, 1e-9, 1e-12])
    def test_small_weight_within_relative_tolerance(self, small):
        """One tiny weight drives the curvature like 1/x; the routes still agree relative to ||A||.

        max_eigenvalue must not raise, and it returns LAPACK's value.
        """
        rng = np.random.default_rng(59)
        for _ in range(200):
            size = int(rng.integers(2, 40))
            weights = np.insert(
                rng.dirichlet(np.ones(size)) * (1.0 - small), rng.integers(size + 1), small
            )
            m = reduced_hessian(tuple(weights[:-1]), order_from_conjugate(float(rng.uniform(1.05, 10.0))))
            top, scale = route_scale(m)
            assert max_eigenvalue(m) == top
            assert abs(secular_max_eigenvalue(m) - top) <= 1e-13 * scale

    @pytest.mark.parametrize(
        "m",
        [
            RankOneSymmetric((0.1, 0.2, 0.3), 0.05, (1.0, 1.0, 1.0)),
            reduced_hessian((1e-6, 0.3, 0.2), 3.0),
        ],
        ids=["unit-scale", "weight-1e-6"],
    )
    def test_route_gap_past_the_tolerance_raises(self, monkeypatch, m):
        """A dense value 1e-12 * max(1, ||A||) off or NaN raises, naming it and the full
        secular solve; 1e-14 * max(1, ||A||) off is returned."""
        top, scale = route_scale(m)
        secular = secular_max_eigenvalue(m)
        monkeypatch.setattr(np.linalg, "eigvalsh", shifted_eigvalsh(lambda: offset))
        offset = 1e-12 * scale
        with pytest.raises(EigenvalueMismatchError) as raised:
            max_eigenvalue(m)
        assert str(raised.value) == f"dense route {top + offset!r} vs secular route {secular!r}"
        offset = math.nan
        with pytest.raises(EigenvalueMismatchError):
            max_eigenvalue(m)
        offset = 1e-14 * scale
        assert max_eigenvalue(m) == top + offset

    @pytest.mark.parametrize("family", ["reduced", "weight-1e-9", "zero-z", "merging"])
    def test_two_point_verdict_equals_the_full_solve(self, monkeypatch, family):
        """With LAPACK's value moved by 0, +-0.8, +-1.2 or +-3 times the tolerance,
        max_eigenvalue raises exactly where the full secular solve is farther than the
        tolerance from it, and returns the moved value otherwise."""
        rng = np.random.default_rng(61)
        monkeypatch.setattr(np.linalg, "eigvalsh", shifted_eigvalsh(lambda: shift))
        verdicts = set()
        for _ in range(150):
            m = rank_one_family(rng, family)
            secular = secular_max_eigenvalue(m)
            shift = 0.0
            tol = diagnostics.ROUTE_AGREEMENT * route_scale(m)[1]
            for k in (0.0, 0.8, -0.8, 1.2, -1.2, 3.0, -3.0):
                shift = k * tol
                dense, scale = route_scale(m)
                agree = abs(dense - secular) <= diagnostics.ROUTE_AGREEMENT * scale
                verdicts.add(agree)
                if agree:
                    assert max_eigenvalue(m) == dense
                else:
                    with pytest.raises(EigenvalueMismatchError):
                        max_eigenvalue(m)
        assert verdicts == {True, False}


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

    @pytest.mark.parametrize(
        "diagonal, rho, expected",
        [
            ((1e308, 2.0), -1.0, 1e308),
            ((1e308, 2.0), 1.0, 1e308),
            ((9e307, 9.5e307), -1.0, 9.5e307),
            ((-1e308, -9e307), -1.0, math.nextafter(-9e307, -math.inf)),
        ],
    )
    def test_bracket_near_the_float_range_edge(self, diagonal, rho, expected):
        """Poles past 2**1023 on one side of 0 overflowed the midpoint to inf (and a
        mismatch error); the root is finite and max_eigenvalue returns LAPACK's value."""
        m = RankOneSymmetric(diagonal, rho, (1.0, 1.0))
        assert secular_max_eigenvalue(m) == expected
        assert max_eigenvalue(m) == route_scale(m)[0]

    def test_agreement_with_dense_route(self):
        """Secular and dense routes agree on 500 random factored matrices."""
        rng = np.random.default_rng(37)
        for _ in range(500):
            size = int(rng.integers(1, 11))
            m = random_rank_one(rng, size)
            dense, scale = route_scale(m)
            assert abs(secular_max_eigenvalue(m) - dense) <= 1e-13 * scale
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
            lams = np.linalg.eigvalsh(m.as_matrix())
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
            shifts = np.linalg.eigvalsh(m.as_matrix()) - diag
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
            lams = np.linalg.eigvalsh(m.as_matrix())
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
            if float(point.min()) < 1e-6:
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

    @pytest.mark.parametrize("samples", [0, -5, 2.5, 2**20 + 1])
    def test_samples_below_one_rejected(self, samples):
        """No samples probe nothing, a fractional count is no count, and a count above
        2**20 is refused to bound the memory; each is a ValueError, raised before any
        allocation."""
        with pytest.raises(ValueError, match="samples"):
            concavity_slacks(2.5, samples=samples)

    def test_thin_domain_rejected(self):
        """A conjugate so close to 2 that the margin cannot fit is rejected: the chain
        draw needs three margins (it failed inside numpy at 2.0006) and a six-part
        partition six (its heads fell inside the margin at 2.001)."""
        with pytest.raises(ValueError):
            concavity_slacks(2.0002)
        for alpha in (2.0006, 2.001):
            with pytest.raises(ValueError, match="too thin"):
                concavity_slacks(alpha)

"""Acceptance suite: frozen anchors, asymptotics, property sweeps, budgets.

Each test pins one externally checkable behavior: exact small constants,
the reference filter table, crossover between the bound families on a wide
order grid, limiting regimes, closed-form agreement for two summands,
seeded property sweeps over the optimizer and its Hessian, and numerical
certification of the inequality on synthetic densities. Timed blocks warm
up before the clock starts so budgets measure computation, not imports.
"""

import io
import math
import time
from pathlib import Path

import numpy as np
import pytest

import repi
from repi import (
    FilterSpec,
    Order,
    RankOneSymmetric,
    bc_constant,
    binary_kl,
    bound_report,
    certify,
    concavity_slacks,
    filter_bounds,
    gaussian_density,
    gaussian_reference,
    max_eigenvalue,
    optimal_weights,
    optimized_constant,
    random_corpus,
    reduced_hessian,
    secular_max_eigenvalue,
    sharpened_constant,
    two_summand_constant,
    uniform_density,
)
from repi.bounds import _kernel
from repi.cli import SweepSpec, cmd_compare, write_json
from repi.core import as_order
from repi.optimizer import _psi

ORDER_GRID = (1.1, 1.5, 2.0, 5.0, 100.0, math.inf)


def kernel_gradient(weight, power, order, total):
    """Reduced objective gradient; equal across summands at stationarity."""
    ac = as_order(order).alpha_conj
    return -math.log1p(-weight / ac) - math.log(weight) - 2.0 + math.log(power / total)


def best_of(fn, repeats=5):
    """Smallest wall time of several runs, after one untimed warmup."""
    fn()
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class TestExactSmallConstants:
    def test_two_summand_constant_at_order_two(self):
        """The n = 2 constant at order 2 is exactly 27/32."""
        assert sharpened_constant(2.0, 2) == pytest.approx(27.0 / 32.0, rel=1e-12)

    def test_summand_free_constant_at_order_two(self):
        """The n-free constant at order 2 is exactly 2/e."""
        assert bc_constant(2.0) == pytest.approx(2.0 / math.e, rel=1e-12)

    def test_limit_order_two_summands(self):
        """At order infinity the two-summand constant is the optimal 1/2."""
        assert sharpened_constant(math.inf, 2) == pytest.approx(0.5, rel=1e-12)

    def test_constant_ordering(self):
        """2/e < 27/32 < 1: the n-aware constant strictly improves."""
        assert bc_constant(2.0) < sharpened_constant(2.0, 2) < 1.0

    def test_evaluation_budget(self):
        """All three anchor constants evaluate in under a millisecond."""

        def work():
            sharpened_constant(2.0, 2)
            bc_constant(2.0)
            sharpened_constant(math.inf, 2)

        assert best_of(work) < 1e-3


class TestReferenceFilterTable:
    SPEC = FilterSpec((2.0, 1.0, 1.0), 1, 2.0)
    TABLE = [("optimized", 0.8195), ("sharpened", 0.7866), ("bc", 0.7425), ("bv", 0.6931)]

    # the ids keep the names of the former one-function-per-method API
    @pytest.mark.parametrize(
        "method, expected", TABLE, ids=[f"filter_bound_{m}-{v}" for m, v in TABLE]
    )
    def test_output_entropy_bounds(self, method, expected):
        """Taps (2, 1, 1) in one dimension reproduce the frozen table."""
        assert filter_bounds(self.SPEC)[method] == pytest.approx(expected, abs=5e-4)

    def test_gaussian_reference(self):
        """The matched Gaussian output entropy is 0.8959 nats."""
        assert gaussian_reference(self.SPEC) == pytest.approx(0.8959, abs=5e-4)

    def test_evaluation_budget(self):
        """The full five-entry table evaluates in under ten milliseconds."""

        def work():
            filter_bounds(self.SPEC)
            gaussian_reference(self.SPEC)

        assert best_of(work) < 1e-2


class TestBoundFamiliesAcrossOrders:
    GRID = np.geomspace(1.01, 1e4, 200)

    def test_equal_powers_collapse_to_shared_constant(self):
        """For (40, 40, 40) the optimized and n-aware bounds coincide."""
        gap = max(
            abs(optimized_constant((40.0, 40.0, 40.0), a) - sharpened_constant(a, 3))
            for a in self.GRID
        )
        assert gap <= 1e-10

    def test_skewed_powers_beat_the_max_power_baseline(self):
        """For (10, 20, 90) the optimized bound stays above the max power.

        At very large orders it approaches the max power 90 from above while
        remaining strictly larger at every finite order on the grid.
        """
        totals = [optimized_constant((10.0, 20.0, 90.0), a) * 120.0 for a in self.GRID]
        assert all(v > 90.0 for v in totals)
        assert abs(totals[-1] - 90.0) <= 0.01 * 90.0
        assert self.GRID[-1] == pytest.approx(1e4, rel=1e-12)

    def test_sweep_budget(self):
        """Both 200-point sweeps complete within one second."""

        def work():
            for a in self.GRID:
                optimized_constant((40.0, 40.0, 40.0), a)
                sharpened_constant(a, 3)
                optimized_constant((10.0, 20.0, 90.0), a)

        assert best_of(work, repeats=2) < 1.0


class TestSolverBudgets:
    """The weight solver's cost grows with n, compare's with its grid; these budgets leave room over the measured times."""

    COMPARE = SweepSpec(
        alphas=tuple(float(a) for a in np.geomspace(1.01, 1e4, 200)),
        powers=tuple(float(p) for p in np.exp(np.random.default_rng(43).uniform(-3.0, 3.0, 10))),
    )

    @pytest.mark.parametrize("alpha", [2.0, math.inf])
    def test_thousand_summand_report(self, alpha):
        """bound_report at n = 1000 takes at most 10 ms (0.75 to 1 ms measured)."""
        powers = tuple(float(p) for p in np.exp(np.random.default_rng(41).uniform(-3.0, 3.0, 1000)))
        assert best_of(lambda: bound_report(powers, alpha)) <= 10e-3

    def test_compare_over_two_hundred_orders(self):
        """compare over 1.01:10000:200 at n = 10 takes at most 15 ms (3 to 3.5 ms measured)."""
        assert best_of(lambda: cmd_compare(self.COMPARE)) <= 15e-3

    def test_json_of_two_hundred_orders(self):
        """The JSON of that compare, 800 rows, is written in at most 8 ms (0.9 to 2 ms measured)."""
        rows = cmd_compare(self.COMPARE)
        assert best_of(lambda: write_json(rows, io.StringIO(), "compare")) <= 8e-3


class TestConcavityBudget:
    def test_probe_at_the_sample_cap(self):
        """concavity_slacks at its cap of 2**20 samples takes under 3 s (0.25 to 0.35 s measured;
        about 25 s when every point called the checked curvature)."""
        start = time.perf_counter()
        report = concavity_slacks(2.5, samples=2**20)
        assert time.perf_counter() - start < 3.0
        assert report.all_positive


class TestLimitingRegimes:
    @pytest.mark.parametrize("n", [2, 10])
    def test_order_one_limit_recovers_classical_constant(self, n):
        """As the order approaches 1 every constant approaches 1."""
        assert abs(sharpened_constant(1.001, n) - 1.0) <= 2e-3

    @pytest.mark.parametrize("alpha", [2.0, 10.0])
    def test_many_summands_recover_summand_free_constant(self, alpha):
        """As n grows the n-aware constant falls to the n-free one."""
        assert abs(sharpened_constant(alpha, 10**7) - bc_constant(alpha)) <= 1e-6


class TestTwoSummandClosedForm:
    def test_matches_generic_solver_on_grid(self):
        """The closed form and the n-summand solver agree to 1e-9."""
        betas = np.linspace(1.0 / 30.0, 1.0, 30)
        worst = max(
            abs(two_summand_constant(b, a) - optimized_constant((b, 1.0), a))
            for b in betas
            for a in ORDER_GRID
        )
        assert worst <= 1e-9


class TestSeededPropertySweeps:
    """Stationarity, root uniqueness, concavity and spectral structure."""

    def _stationarity_residuals(self):
        rng = np.random.default_rng(101)
        finite = (1.1, 1.5, 2.0, 5.0, 100.0)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            powers = np.exp(rng.uniform(-3.0, 3.0, n))
            order = Order(float(finite[rng.integers(len(finite))]))
            weights = optimal_weights(powers, order)
            assert abs(sum(weights) - 1.0) <= 1e-12
            grads = [
                kernel_gradient(t, p, order, float(powers.sum()))
                for t, p in zip(weights, powers)
                if t > 1e-12
            ]
            assert max(grads) - min(grads) <= 1e-9

    def _root_uniqueness(self):
        rng = np.random.default_rng(202)
        finite = (1.1, 1.5, 2.0, 5.0, 100.0)
        xs = np.linspace(1e-6, 1.0, 2000)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            ratios = rng.uniform(0.0, 1.0, n - 1)
            order = Order(float(finite[rng.integers(len(finite))]))
            vals = xs + _psi(xs[:, None], ratios, order.alpha_conj).sum(axis=1) - 1.0
            crossings = int(np.count_nonzero(np.diff(np.signbit(vals))))
            assert crossings == 1

    def _hessian_negativity(self):
        rng = np.random.default_rng(303)
        done = 0
        while done < 1000:
            n = int(rng.integers(2, 7))
            weights = rng.dirichlet(np.ones(n))
            if weights.min() < 1e-6:
                continue
            conj = float(rng.uniform(1.05, 1.999))
            order = Order(conj / (conj - 1.0))
            top = max_eigenvalue(reduced_hessian(tuple(weights[:-1]), order))
            assert top <= 1e-10
            done += 1

    def _interlacing_and_shift_mass(self):
        rng = np.random.default_rng(404)
        for _ in range(200):
            size = int(rng.integers(2, 9))
            diag = np.sort(rng.uniform(-3.0, 3.0, size)) + np.arange(size) * 1e-3
            rho = float(rng.uniform(0.1, 2.0))
            z = rng.uniform(-1.5, 1.5, size)
            matrix = RankOneSymmetric(tuple(diag), rho, tuple(z))
            lams = np.linalg.eigvalsh(matrix.as_matrix())
            mass = rho * float(z @ z)
            assert np.all(lams >= diag - 1e-9)
            assert np.all(lams[:-1] <= diag[1:] + 1e-9)
            assert lams[-1] <= diag[-1] + mass + 1e-9
            fractions = (lams - diag) / mass if mass > 0.0 else np.zeros(size)
            assert fractions.min() >= -1e-9
            assert abs(fractions.sum() - 1.0) <= 1e-9 or mass == 0.0
            scale = max(1.0, abs(float(lams[0])), abs(float(lams[-1])))
            assert abs(lams[-1] - secular_max_eigenvalue(matrix)) <= 1e-13 * scale

    def _positivity_grids(self):
        for conj in (1.2, 1.5, 1.9):
            order = Order(conj / (conj - 1.0))
            assert concavity_slacks(order, samples=400).all_positive
        probs = np.linspace(0.02, 0.98, 25)
        assert min(binary_kl(w, b) for w in probs for b in probs) >= -1e-15
        for alpha in (1.5, 2.0, 5.0, math.inf):
            order = Order(alpha)
            # the kernel is concave below half the conjugate; above it the
            # curvature turns positive and concavity is a joint, not
            # per-coordinate, property
            hi = min(1.0, order.alpha_conj / 2.0)
            ts = np.linspace(0.05 * hi, 0.95 * hi, 20)
            mid = _kernel(0.5 * (ts[:, None] + ts), order.alpha_conj)
            avg = 0.5 * (_kernel(ts[:, None], order.alpha_conj) + _kernel(ts, order.alpha_conj))
            assert np.all(mid >= avg - 1e-12)

    def test_property_sweeps_green_within_budget(self):
        """All seeded sweeps pass and finish inside thirty seconds."""
        start = time.perf_counter()
        self._stationarity_residuals()
        self._root_uniqueness()
        self._hessian_negativity()
        self._interlacing_and_shift_mass()
        self._positivity_grids()
        assert time.perf_counter() - start < 30.0


class TestNumericalCertification:
    def test_density_corpus_certifies_within_budget(self):
        """Grid densities meet every bound; anchors hit their frozen ratios.

        Two Uniform[0, 1] summands at order infinity give the tight constant
        1/2 to rounding; two standard Gaussians give ratio 1
        to 1e-4 at finite orders; a 200-instance random corpus certifies
        with zero violations at slack 1e-4. All inside two minutes.
        """
        start = time.perf_counter()

        box = uniform_density(0.0, 1.0)
        pair = certify((box, box), math.inf)
        assert pair.ok
        assert abs(pair.ratio - 0.5) <= 1e-14

        bell = gaussian_density(0.0, 1.0)
        for alpha in (1.1, 2.0, 10.0):
            cert = certify((bell, bell), alpha)
            assert cert.ok
            assert abs(cert.ratio - 1.0) <= 1e-4

        failures = [
            (inst.label, cert.violations)
            for inst in random_corpus(seed=1, count=200)
            for cert in (certify(inst.densities, inst.order, slack=1e-4),)
            if not cert.ok
        ]
        assert failures == []
        assert time.perf_counter() - start < 120.0


class TestHigherDimensionScope:
    def test_scope_statement_in_docs(self):
        """The docs state how d > 1 coverage is argued, not measured.

        Constants are dimension-free; the measured corpus is deliberately
        one-dimensional. Both the README and the certification module say
        so explicitly.
        """
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        assert "d > 1" in readme
        assert "dimension-free" in readme
        assert "one-dimensional" in readme
        assert "deliberately one-dimensional" in repi.verify.__doc__

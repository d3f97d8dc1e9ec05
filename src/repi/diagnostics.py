"""Concavity diagnostics for the weight objective.

After eliminating the last weight through the simplex constraint, the
objective's Hessian is diagonal-plus-rank-one,

    H = diag(q(t_1), ..., q(t_{n-1})) + q(t_n) * ones * ones^T,

with q the second derivative of the per-summand kernel. Structure of that
form has fully understood spectra: the eigenvalues interlace the diagonal
and shift by nonnegative multiples of rho summing to rho * ||z||^2. This
module checks concavity numerically through two eigenvalue routes
(LAPACK's dense symmetric eigensolver, and the secular equation, whose
residual's sign at the dense value plus and minus the tolerance places
its root), which must agree to a tolerance relative to the matrix norm,
and exposes the reciprocal-curvature quantities whose positivity underlies
the concavity proof for conjugates below 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Order, _as_float, _as_floats, _left_sum, _positive_int, _seed, as_order
from .optimizer import _bracketed_newton

__all__ = [
    "curvature",
    "RankOneSymmetric",
    "reduced_hessian",
    "secular_max_eigenvalue",
    "max_eigenvalue",
    "EigenvalueMismatchError",
    "CurvatureSlackReport",
    "concavity_slacks",
]

#: largest size the dense route materializes; the reduced Hessians are tiny
MAX_DENSE_SIZE = 64

#: disagreement between the two eigenvalue routes treated as an error,
#: relative to max(1, ||A||_2): the curvature grows like 1/x as a weight x
#: shrinks, so a fixed bound fails any correct solver at small weights
ROUTE_AGREEMENT = 1e-13


class EigenvalueMismatchError(RuntimeError):
    """The dense and secular eigenvalue routes disagreed beyond tolerance."""


def curvature(x: float, order: Order | float) -> float:
    """q(x) = (2x - a') / (x (a' - x)), the kernel's second derivative.

    Defined strictly between the poles at 0 and a', and only up to 1 since
    weights never exceed 1. Negative below a'/2, positive above. Near 0 it
    is about -1/x, so below about 5.6e-309 it is past the float range and
    refused with ValueError.
    """
    order = as_order(order)
    x = _as_float(x, "curvature argument")
    ac = order.alpha_conj
    if not 0.0 < x < min(1.0, ac):
        raise ValueError(
            f"curvature needs 0 < x < min(1, conjugate) = {min(1.0, ac)!r}, got {x!r}"
        )
    q = (2.0 * x - ac) / (x * (ac - x))
    if math.isinf(q):
        raise ValueError(f"curvature at x = {x!r} is past the float range (about -1/x)")
    return q


@dataclass(frozen=True, eq=False)
class RankOneSymmetric:
    """A symmetric matrix diag(d) + rho z z^T, kept in factored form; overflow is refused."""

    diagonal: tuple[float, ...]
    rho: float
    z: tuple[float, ...]

    def __post_init__(self) -> None:
        d = _as_floats(self.diagonal, "diagonal")
        z = _as_floats(self.z, "z")
        rho = _as_float(self.rho, "rho")
        if len(d) < 1 or len(z) != len(d):
            raise ValueError("diagonal and z must have equal positive length")
        # ||d|| + |rho| ||z||^2 bounds every entry and the secular bracket; it is
        # NaN or inf if a factor is, or if z_i z_j (formed before rho multiplies
        # it, as in as_matrix) or an entry would overflow
        norm = math.hypot(*z)
        if not math.isfinite(math.hypot(*d) + abs(rho) * (norm * norm)):
            raise ValueError("matrix entries and rank-one part must be finite")
        object.__setattr__(self, "diagonal", d)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "z", z)

    def as_matrix(self) -> np.ndarray:
        z = np.asarray(self.z)
        return np.diag(self.diagonal) + self.rho * np.outer(z, z)


def reduced_hessian(
    interior_weights: Sequence[float], order: Order | float
) -> RankOneSymmetric:
    """Hessian of the reduced objective at interior weights t_1..t_{n-1}.

    The last weight is 1 - sum(t_k) and must stay positive; each t_k must
    be positive. Poles of the curvature raise ValueError.
    """
    order = as_order(order)
    head = _as_floats(interior_weights, "interior weights")
    if len(head) < 1:
        raise ValueError("need at least one interior weight")
    tail = 1.0 - _left_sum(head)
    if min(head) <= 0.0 or tail <= 0.0:
        raise ValueError(f"weights must be interior to the simplex, got {head!r}")
    diag = tuple([curvature(t, order) for t in head])
    return RankOneSymmetric(diag, curvature(tail, order), (1.0,) * len(head))


def _secular_setup(m: RankOneSymmetric):
    """``(top, residual, lo, hi)`` of :func:`secular_max_eigenvalue`: the largest deflated
    entry (-inf for none), sign(rho) W with W', and W's bracket; a closed form r gives
    (top, None, r, r)."""
    norm2 = _left_sum(v * v for v in m.z)
    if m.rho == 0.0 or norm2 == 0.0:
        top = max(m.diagonal)
        return top, None, top, top
    merged: dict[float, float] = {}
    deflated: list[float] = []
    for dj, zj in zip(m.diagonal, m.z):
        if zj == 0.0:
            deflated.append(dj)
        elif dj in merged:
            merged[dj] += zj * zj
            deflated.append(dj)
        else:
            merged[dj] = zj * zj
    ds, ws = np.array(sorted(merged.items())).T
    rho, top = m.rho, max(deflated, default=-math.inf)
    if ds.size == 1:
        root = float(ds[0] + rho * ws[0])
        return top, None, root, root
    # sign * W rises through its root: from -inf to 1 across (d_max, inf)
    # for rho > 0, from -inf to inf across (d_{r-1}, d_r) for rho < 0
    sign, scale = math.copysign(1.0, rho), abs(rho)
    lo, hi = (ds[-1], ds[-1] + rho * norm2) if rho > 0.0 else (ds[-2], ds[-1])

    def residual(lam):
        gaps = ds - lam[:, None]
        terms = ws / gaps
        return sign + scale * terms.sum(axis=1), scale * (terms / gaps).sum(axis=1)

    return top, residual, float(lo), float(hi)


def secular_max_eigenvalue(m: RankOneSymmetric) -> float:
    """Largest eigenvalue of diag(d) + rho z z^T from the secular equation.

    Nonzero coordinates of z with equal diagonal entries merge (rotating
    inside the eigenspace concentrates them on one coordinate and leaves
    the rest as untouched eigenvalues), and zero coordinates deflate
    outright. One merged entry d with weight w gives d + rho w. Otherwise
    the largest eigenvalue is the root of

        W(lam) = 1 + rho * sum_j w_j / (d_j - lam),

    with W' = rho * sum_j w_j / (d_j - lam)^2, in a bracket where W is
    monotone: above the top diagonal entry and at most rho ||z||^2 past it
    for rho > 0, between the top two for rho < 0. The solver's bracketed
    Newton (:func:`repi.optimizer._bracketed_newton`) runs on W, or on -W
    for rho < 0, from the bracket's midpoint to adjacent floats with at most
    64 bisection steps, never evaluating the bracket ends: they are the poles.
    Deflated diagonal entries compete in the final max.
    """
    top, residual, lo, hi = _secular_setup(m)
    return max(float(_bracketed_newton(residual, np.array([lo]), np.array([hi]))[0]), top)


def max_eigenvalue(m: RankOneSymmetric) -> float:
    """Largest eigenvalue via LAPACK's dense route, cross-checked by the secular one.

    The dense route is ``np.linalg.eigvalsh`` on the materialized matrix,
    refused with ValueError above ``MAX_DENSE_SIZE`` before anything is
    allocated. It is returned if the secular value lies within tol =
    ``ROUTE_AGREEMENT`` max(1, ||A||_2) of it, which needs no solve: the
    residual's signs at dense -/+ tol, from one evaluation, or the bracket
    end a point is past, place the root, and deflated entries are compared
    directly; a NaN fails. Otherwise :class:`EigenvalueMismatchError` names
    the dense value and :func:`secular_max_eigenvalue`.
    """
    if len(m.diagonal) > MAX_DENSE_SIZE:
        raise ValueError(f"dense route limited to size {MAX_DENSE_SIZE}, got {len(m.diagonal)}")
    eigs = np.linalg.eigvalsh(m.as_matrix())
    dense = float(eigs[-1])
    tol = ROUTE_AGREEMENT * max(1.0, abs(float(eigs[0])), abs(dense))
    below, above = dense - tol, dense + tol
    top, residual, lo, hi = _secular_setup(m)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f = residual(np.array([below, above]))[0].tolist() if residual else [math.nan] * 2
    at_most = above >= hi or (lo < above and f[1] >= 0.0)
    at_least = below <= lo or (below < hi and f[0] <= 0.0)
    if not (top <= above and at_most and (at_least or top >= below)):
        raise EigenvalueMismatchError(
            f"dense route {dense!r} vs secular route {secular_max_eigenvalue(m)!r}"
        )
    return dense


@dataclass(frozen=True)
class CurvatureSlackReport:
    """Minimum slack observed for each reciprocal-curvature inequality."""

    pair_min: float
    chain_min: float
    partition_min: float
    points: int

    @property
    def all_positive(self) -> bool:
        return min(self.pair_min, self.chain_min, self.partition_min) > 0.0


#: sampling keeps this far from every pole and domain boundary
DOMAIN_MARGIN = 1e-4


def concavity_slacks(
    order: Order | float, samples: int = 2000, seed: int = 0
) -> CurvatureSlackReport:
    """Probe the three reciprocal-curvature inequalities behind concavity.

    Requires a conjugate a' strictly between 1 and 2, where the diagonal can carry both
    signs. With margin 1e-4 from every boundary, on a grid and seeded points, reports:

    * pair: 1/q(x) + 1/q(1-x) over 0 < x < 1 - a'/2,
    * chain: 1/q(u) + 1/q(1-u-v) - 1/q(1-v) over u, v > 0, u+v < 1 - a'/2,
    * partition: sum_k 1/q(t_k) at ceil(samples / 5) points for each n = 2..6: the first n-1
      of n Dirichlet(1, ..., 1) parts, scaled to sum anywhere below 1 - a'/2.

    All three minima are positive exactly when the concavity argument goes through; tests
    assert that. More than 2**20 ``samples`` (the arrays peak near 75 MiB at the cap) are
    refused, and so is a ``seed`` that is a bool or not an integer from 0 up.
    """
    samples = _positive_int(samples, "samples")
    if samples > 2**20:
        raise ValueError(f"samples must be at most 2**20, got {samples}")
    order = as_order(order)
    ac = order.alpha_conj
    if not 1.0 < ac < 2.0:
        raise ValueError(f"conjugate must lie strictly in (1, 2), got {ac!r}")
    hi = 1.0 - ac / 2.0
    if hi <= 6.0 * DOMAIN_MARGIN:
        raise ValueError(f"domain (0, {hi!r}) too thin for margin {DOMAIN_MARGIN!r}")
    rng = np.random.default_rng(_seed(seed))

    def inv_q(x: np.ndarray) -> np.ndarray:  # 1/q, finite: every x keeps the margin from its poles
        return x * (ac - x) / (2.0 * x - ac)

    grid = np.linspace(DOMAIN_MARGIN, hi - DOMAIN_MARGIN, max(samples, 2))
    u = rng.uniform(DOMAIN_MARGIN, hi - 2.0 * DOMAIN_MARGIN, samples)
    v = rng.uniform(DOMAIN_MARGIN, hi - DOMAIN_MARGIN - u)
    partition_min = math.inf
    for n in range(2, 7):
        raw = rng.dirichlet(np.ones(n), -(-samples // 5))[:, :-1]
        head = raw * (hi - n * DOMAIN_MARGIN) + DOMAIN_MARGIN
        slack = inv_q(head).sum(axis=1) + inv_q(1.0 - head.sum(axis=1))
        partition_min = min(partition_min, float(slack.min()))
    return CurvatureSlackReport(
        pair_min=float((inv_q(grid) + inv_q(1.0 - grid)).min()),
        chain_min=float((inv_q(u) + inv_q(1.0 - u - v) - inv_q(1.0 - v)).min()),
        partition_min=partition_min,
        points=samples,
    )

"""Concavity diagnostics for the weight objective.

After eliminating the last weight through the simplex constraint, the
objective's Hessian is diagonal-plus-rank-one,

    H = diag(q(t_1), ..., q(t_{n-1})) + q(t_n) * ones * ones^T,

with q the second derivative of the per-summand kernel. Structure of that
form has fully understood spectra: the eigenvalues interlace the diagonal
and shift by nonnegative multiples of rho summing to rho * ||z||^2. This
module checks concavity numerically through two independent eigenvalue
routes (a dense Jacobi sweep, and the secular equation solved by the
weight solver's bracketed Newton) and exposes the reciprocal-curvature
quantities whose positivity underlies the concavity proof for conjugates
below 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Order, _positive_int, as_order
from .optimizer import _bracketed_newton

__all__ = [
    "curvature",
    "RankOneSymmetric",
    "reduced_hessian",
    "jacobi_eigenvalues",
    "secular_max_eigenvalue",
    "max_eigenvalue",
    "EigenvalueMismatchError",
    "CurvatureSlackReport",
    "concavity_slacks",
]

#: dense route is meant for the reduced Hessians, which are tiny
MAX_DENSE_SIZE = 64

#: disagreement between the two eigenvalue routes treated as an error
ROUTE_AGREEMENT = 1e-8


class EigenvalueMismatchError(RuntimeError):
    """The dense and secular eigenvalue routes disagreed beyond tolerance."""


def curvature(x: float, order: Order | float) -> float:
    """q(x) = (2x - a') / (x (a' - x)), the kernel's second derivative.

    Defined strictly between the poles at 0 and a', and only up to 1 since
    weights never exceed 1. Negative below a'/2, positive above.
    """
    order = as_order(order)
    x = float(x)
    ac = order.alpha_conj
    if not 0.0 < x < min(1.0, ac):
        raise ValueError(
            f"curvature needs 0 < x < min(1, conjugate) = {min(1.0, ac)!r}, got {x!r}"
        )
    return (2.0 * x - ac) / (x * (ac - x))


@dataclass(frozen=True, eq=False)
class RankOneSymmetric:
    """A symmetric matrix diag(d) + rho z z^T, kept in factored form."""

    diagonal: tuple[float, ...]
    rho: float
    z: tuple[float, ...]

    def __post_init__(self) -> None:
        d = tuple(float(v) for v in self.diagonal)
        z = tuple(float(v) for v in self.z)
        if len(d) < 1 or len(z) != len(d):
            raise ValueError("diagonal and z must have equal positive length")
        for v in d + z + (float(self.rho),):
            if not math.isfinite(v):
                raise ValueError("matrix data must be finite")
        object.__setattr__(self, "diagonal", d)
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "z", z)

    @property
    def size(self) -> int:
        return len(self.diagonal)

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
    head = tuple(float(t) for t in interior_weights)
    if len(head) < 1:
        raise ValueError("need at least one interior weight")
    tail = 1.0 - sum(head)
    if min(head) <= 0.0 or tail <= 0.0:
        raise ValueError(f"weights must be interior to the simplex, got {head!r}")
    diag = tuple(curvature(t, order) for t in head)
    return RankOneSymmetric(diag, curvature(tail, order), (1.0,) * len(head))


def jacobi_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a small symmetric matrix by cyclic Jacobi rotations.

    Sweeps annihilate each off-diagonal pair in turn until the off-diagonal
    Frobenius mass falls below 1e-14 times the matrix norm. Cubic
    work per sweep, fine for the tiny reduced Hessians this package builds.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    m = a.shape[0]
    if m > MAX_DENSE_SIZE:
        raise ValueError(f"dense route limited to size {MAX_DENSE_SIZE}, got {m}")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(a).max()))):
        raise ValueError("matrix is not symmetric")
    if m == 1:
        return a[0, :1].copy()
    norm = max(float(np.linalg.norm(a)), 1e-300)
    for _ in range(60):
        off = math.sqrt(max(float(np.sum(a * a)) - float(np.sum(np.diag(a) ** 2)), 0.0))
        if off <= 1e-14 * norm:
            break
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = float(a[p, q])
                if apq == 0.0:
                    continue
                # plain float math: a denormal apq overflows to inf without
                # numpy warnings and yields the correct no-op rotation
                theta = float(a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                a[:, p], a[:, q] = c * a[:, p] - s * a[:, q], s * a[:, p] + c * a[:, q]
                a[p, q] = a[q, p] = 0.0
    return np.sort(np.diag(a))


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
    for rho < 0, from the bracket's midpoint to adjacent floats; it never
    evaluates the bracket ends, so they are the poles themselves.
    Deflated diagonal entries compete in the final max.
    """
    norm2 = sum(v * v for v in m.z)
    if m.rho == 0.0 or norm2 == 0.0:
        return max(m.diagonal)
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
    rho = m.rho
    if ds.size == 1:
        return max([float(ds[0] + rho * ws[0])] + deflated)
    # sign * W rises through its root: from -inf to 1 across (d_max, inf)
    # for rho > 0, from -inf to inf across (d_{r-1}, d_r) for rho < 0
    sign, scale = math.copysign(1.0, rho), abs(rho)
    lo, hi = (ds[-1], ds[-1] + rho * norm2) if rho > 0.0 else (ds[-2], ds[-1])

    def residual(lam):
        gaps = ds - lam[:, None]
        terms = ws / gaps
        return sign + scale * terms.sum(axis=1), scale * (terms / gaps).sum(axis=1)

    root = _bracketed_newton(residual, np.array([lo]), np.array([hi]))
    return max([float(root[0])] + deflated)


def max_eigenvalue(m: RankOneSymmetric) -> float:
    """Largest eigenvalue via the dense route, cross-checked by the secular one.

    The two computations share no code path; disagreement beyond 1e-8
    raises :class:`EigenvalueMismatchError` instead of returning either.
    """
    dense = float(jacobi_eigenvalues(m.as_matrix())[-1])
    secular = secular_max_eigenvalue(m)
    if abs(dense - secular) > ROUTE_AGREEMENT:
        raise EigenvalueMismatchError(
            f"dense route {dense!r} vs secular route {secular!r}"
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

    Requires a conjugate a' strictly between 1 and 2 (the regime where the
    diagonal can carry both signs). Over deterministic grids plus seeded
    random points, with margin 1e-4 from every boundary, reports:

    * pair: 1/q(x) + 1/q(1-x) over 0 < x < 1 - a'/2,
    * chain: 1/q(u) + 1/q(1-u-v) - 1/q(1-v) over u, v > 0, u+v < 1 - a'/2,
    * partition: sum_k 1/q(t_k) over simplex points whose first n-1
      coordinates sum below 1 - a'/2 (n up to 6).

    All three minima are positive exactly when the concavity argument goes
    through; tests assert that.
    """
    samples = _positive_int(samples, "samples")
    order = as_order(order)
    ac = order.alpha_conj
    if not 1.0 < ac < 2.0:
        raise ValueError(f"conjugate must lie strictly in (1, 2), got {ac!r}")
    hi = 1.0 - ac / 2.0
    if hi <= 2.0 * DOMAIN_MARGIN:
        raise ValueError(f"domain (0, {hi!r}) too thin for margin {DOMAIN_MARGIN!r}")
    rng = np.random.default_rng(seed)

    def inv_q(x: float) -> float:
        return 1.0 / curvature(x, order)

    grid = np.linspace(DOMAIN_MARGIN, hi - DOMAIN_MARGIN, max(samples, 2))
    pair_min = min(inv_q(float(x)) + inv_q(float(1.0 - x)) for x in grid)

    chain_min = math.inf
    for _ in range(samples):
        u = float(rng.uniform(DOMAIN_MARGIN, hi - 2.0 * DOMAIN_MARGIN))
        v = float(rng.uniform(DOMAIN_MARGIN, hi - DOMAIN_MARGIN - u))
        chain_min = min(chain_min, inv_q(u) + inv_q(1.0 - u - v) - inv_q(1.0 - v))

    partition_min = math.inf
    for _ in range(samples):
        n = int(rng.integers(2, 7))
        raw = rng.dirichlet(np.ones(n - 1))
        head = raw * (hi - DOMAIN_MARGIN - (n - 1) * DOMAIN_MARGIN) + DOMAIN_MARGIN
        tail = 1.0 - float(head.sum())
        slack = sum(inv_q(float(t)) for t in head) + inv_q(tail)
        partition_min = min(partition_min, slack)

    return CurvatureSlackReport(
        pair_min=float(pair_min),
        chain_min=float(chain_min),
        partition_min=float(partition_min),
        points=samples,
    )

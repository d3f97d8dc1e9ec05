"""Shared domain types and conventions.

Everything in this package works in nats and, where possible, with entropy
powers rather than entropies. The conversions and the Holder conjugate live
here so that every other module agrees on the conventions.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "Order",
    "PowerVector",
    "SimplexWeights",
    "BoundReport",
    "as_order",
    "as_power_vector",
    "as_simplex_weights",
    "holder_conjugate",
    "power_from_entropy",
    "entropy_from_power",
]


def holder_conjugate(alpha: float) -> float:
    """Return alpha / (alpha - 1), the Holder conjugate of ``alpha``.

    Defined for alpha > 1, with alpha = inf mapping to 1. On finite orders
    the map is an involution: ``holder_conjugate(holder_conjugate(a)) == a``.
    """
    alpha = float(alpha)
    if math.isnan(alpha) or alpha <= 1.0:
        raise ValueError(f"order must satisfy alpha > 1, got {alpha!r}")
    if math.isinf(alpha):
        return 1.0
    return alpha / (alpha - 1.0)


@dataclass(frozen=True)
class Order:
    """A Renyi order alpha > 1 (alpha = inf allowed) with its conjugate."""

    alpha: float
    alpha_conj: float = field(init=False, repr=False)
    _log_alpha_slope: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        alpha = float(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "alpha_conj", holder_conjugate(alpha))
        slope = 0.0 if math.isinf(alpha) else math.log(alpha) / (alpha - 1.0)
        object.__setattr__(self, "_log_alpha_slope", slope)

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.alpha)

    def log_alpha_slope(self) -> float:
        """log(alpha) / (alpha - 1), the recurring prefactor; 0 at alpha = inf."""
        return self._log_alpha_slope


def as_order(order: Order | float) -> Order:
    """Coerce a bare float into an :class:`Order`."""
    return order if isinstance(order, Order) else Order(float(order))


def power_from_entropy(entropy: float, dim: int = 1) -> float:
    """Entropy power exp(2 h / d) of a d-dimensional vector with entropy h.

    ``entropy = -inf`` maps to power 0; NaN, +inf or an overflowing power is a ``ValueError``.
    """
    dim = _positive_int(dim, "dimension")
    try:
        power = math.exp(2.0 * entropy / dim)
    except OverflowError:
        power = math.inf
    if not power < math.inf:
        raise ValueError(f"entropy {entropy!r} has no finite entropy power in dimension {dim}")
    return power


def entropy_from_power(power: float, dim: int = 1) -> float:
    """Inverse of :func:`power_from_entropy`; power 0 maps to -inf, and inf is a ``ValueError``."""
    dim = _positive_int(dim, "dimension")
    if not 0.0 <= power < math.inf:
        raise ValueError(f"entropy power must be finite and >= 0, got {power!r}")
    if power == 0.0:
        return -math.inf
    return 0.5 * dim * math.log(power)


def _positive_int(value: int, what: str) -> int:
    """``value`` as an int when it is an integer of any type, numpy's too, from 1 to 2**53.

    Every caller does float arithmetic with the count, and every integer
    up to 2**53 is an exact float.
    """
    try:
        n = operator.index(value)
    except TypeError:
        n = 0
    if not 1 <= n <= 2 ** 53:
        raise ValueError(f"{what} must be a positive integer up to 2**53, got {value!r}")
    return n


@dataclass(frozen=True)
class PowerVector:
    """Entropy powers of the independent summands, one entry per summand.

    Entries are finite and nonnegative. A zero entry is legal and marks a
    summand whose density is unbounded in the relevant norm; the optimizer
    assigns it zero weight. ``total``, their sum, is formed once here; it
    is inf when the sum overflows.
    """

    powers: tuple[float, ...]
    total: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vals = tuple(float(p) for p in self.powers)
        if len(vals) < 1:
            raise ValueError("need at least one summand")
        for p in vals:
            if not math.isfinite(p) or p < 0.0:
                raise ValueError(f"entropy powers must be finite and >= 0, got {p!r}")
        object.__setattr__(self, "powers", vals)
        object.__setattr__(self, "total", sum(vals))

    def __len__(self) -> int:
        return len(self.powers)

    def __iter__(self) -> Iterator[float]:
        return iter(self.powers)

    def __getitem__(self, i: int) -> float:
        return self.powers[i]

    @property
    def largest(self) -> float:
        return max(self.powers)

    def normalized(self) -> tuple[float, ...]:
        """Powers divided by their sum; requires a nonzero, finite total."""
        t = self.total
        if t <= 0.0:
            raise ValueError("cannot normalize an all-zero power vector")
        if math.isinf(t):
            raise ValueError("entropy powers sum past the float range")
        return tuple(p / t for p in self.powers)


def as_power_vector(powers: PowerVector | Sequence[float]) -> PowerVector:
    return powers if isinstance(powers, PowerVector) else PowerVector(tuple(powers))


#: slack accepted on the simplex constraints; the weight solver lands well
#: inside these.
WEIGHT_FLOOR = -1e-12
WEIGHT_SUM_TOL = 1e-10


@dataclass(frozen=True)
class SimplexWeights:
    """A simplex point (weights >= 0 summing to 1), checked by :func:`_check_simplex`."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(t) for t in self.weights)
        _check_simplex(np.array([vals]))
        object.__setattr__(self, "weights", vals)

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self) -> Iterator[float]:
        return iter(self.weights)

    def __getitem__(self, i: int) -> float:
        return self.weights[i]


def _check_simplex(w: np.ndarray) -> None:
    """The simplex rules, for one weight row or many.

    Every entry is finite and >= WEIGHT_FLOOR, and every row's left-to-right
    sum (0.0 for a row of -0.0) is within WEIGHT_SUM_TOL of 1.
    """
    if w.ndim != 2 or w.shape[1] < 1:
        raise ValueError("need at least one weight")
    bad = ~np.isfinite(w) | (w < WEIGHT_FLOOR)
    if bad.any():
        raise ValueError(f"weights must be >= 0, got {float(w[bad][0])!r}")
    sums = np.cumsum(w, axis=1)[:, -1] + 0.0
    off = np.abs(sums - 1.0) > WEIGHT_SUM_TOL
    if off.any():
        raise ValueError(f"weights must sum to 1, got {float(sums[off][0])!r}")


def _simplex_rows(weights: np.ndarray) -> list[SimplexWeights]:
    """One :class:`SimplexWeights` per row, all checked by one :func:`_check_simplex`."""
    w = np.asarray(weights, dtype=float)
    _check_simplex(w)
    rows = []
    for row in w.tolist():
        checked = object.__new__(SimplexWeights)
        object.__setattr__(checked, "weights", tuple(row))
        rows.append(checked)
    return rows


def as_simplex_weights(weights: SimplexWeights | Sequence[float]) -> SimplexWeights:
    return weights if isinstance(weights, SimplexWeights) else SimplexWeights(tuple(weights))


@dataclass(frozen=True)
class BoundReport:
    """All four lower bounds for one instance, in entropy power units.

    ``bc`` <= ``sharpened`` <= ``optimized`` <= 1 always holds for the
    constants, and the optimized bound dominates ``bv``. At alpha = inf the
    constants are limit values: each is the pointwise limit of the
    finite-alpha constant, and the reported bounds are valid by continuity.
    """

    order: Order
    powers: PowerVector
    bc: float
    sharpened: float
    optimized: float
    bv: float
    weights: SimplexWeights

    def __post_init__(self) -> None:
        tol = 1e-9
        if not (self.bc <= self.sharpened * (1.0 + tol)):
            raise ValueError("constant ordering violated: bc > sharpened")
        if not (self.sharpened <= self.optimized * (1.0 + tol) + tol):
            raise ValueError("constant ordering violated: sharpened > optimized")
        if not (self.optimized <= 1.0 + tol):
            raise ValueError("optimized constant exceeds 1")
        total = self.powers.total
        if self.optimized * total < self.bv - tol * max(1.0, self.bv):
            raise ValueError("optimized bound fell below the max-power bound")

    @property
    def is_limit(self) -> bool:
        """True when the constants are alpha = inf limit values."""
        return self.order.is_infinite

    def lower_bounds(self) -> dict[str, float]:
        """Lower bounds on the entropy power of the sum, by method."""
        total = self.powers.total
        return {
            "bc": self.bc * total,
            "sharpened": self.sharpened * total,
            "optimized": self.optimized * total,
            "bv": self.bv,
        }

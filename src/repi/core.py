"""Shared domain types and conventions.

Everything in this package works in nats and, where possible, with entropy
powers rather than entropies. The conversions and the Holder conjugate live
here so that every other module agrees on the conventions.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

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
    alpha = _as_float(alpha, "order")
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
    #: log(alpha) / (alpha - 1), the recurring prefactor; 0 at alpha = inf
    log_alpha_slope: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        alpha = _as_float(self.alpha, "order")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "alpha_conj", holder_conjugate(alpha))
        slope = 0.0 if math.isinf(alpha) else math.log(alpha) / (alpha - 1.0)
        object.__setattr__(self, "log_alpha_slope", slope)

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.alpha)


def as_order(order: Order | float) -> Order:
    """Coerce a bare float into an :class:`Order`."""
    return order if isinstance(order, Order) else Order(order)


def power_from_entropy(entropy: float, dim: int = 1) -> float:
    """Entropy power exp(2 h / d) of a d-dimensional vector with entropy h.

    ``entropy = -inf``, and any entropy whose power underflows, maps to power 0;
    NaN, +inf or an overflowing power is a ``ValueError``.
    """
    dim = _positive_int(dim, "dimension")
    try:
        power = math.exp(2.0 * float(entropy) / dim)
    except OverflowError:  # the exponent, or an integer entropy, past the float range
        power = 0.0 if entropy < 0 else math.inf
    if not power < math.inf:
        raise ValueError(f"entropy {_named(entropy)} has no finite entropy power in dimension {dim}")
    return power


def entropy_from_power(power: float, dim: int = 1) -> float:
    """Inverse of :func:`power_from_entropy`; power 0 maps to -inf, and inf is a ``ValueError``."""
    dim = _positive_int(dim, "dimension")
    power = _as_float(power, "entropy power")
    if not 0.0 <= power < math.inf:
        raise ValueError(f"entropy power must be finite and >= 0, got {power!r}")
    if power == 0.0:
        return -math.inf
    return 0.5 * dim * math.log(power)


def _left_sum(values: Iterable[float]) -> float:
    """The float sum of ``values``, added one at a time from the left, starting at 0.0.

    The built-in ``sum`` of floats compensates its rounding from Python
    3.12 on (``sum((1.0, 1e-16, 1e-16))`` is 1.0000000000000002 there and
    1.0 before), so a result formed with it depends on the interpreter.
    This is the plain sum of Python 3.10 and 3.11 on every version.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def _left_sum_array(values: np.ndarray) -> float:
    """:func:`_left_sum` of a 1-d float64 array, in every bit, with numpy doing the adding.

    ``np.add.accumulate`` adds strictly left to right (``np.sum`` adds
    pairwise); the final ``+ 0.0`` makes a sum of -0.0 entries 0.0, as the
    0.0 start of :func:`_left_sum` does. A sum past the float range is inf,
    without a warning.
    """
    if not values.size:
        return 0.0
    with np.errstate(over="ignore"):
        return float(np.add.accumulate(values)[-1]) + 0.0


def _positive_int(value: int, what: str) -> int:
    """``value`` as an int when it is an integer of any type, numpy's too, from 1 to 2**53.

    Every caller does float arithmetic with the count, and every integer
    up to 2**53 is an exact float. A bool is a flag, not a count, and is
    refused. A refused integer beyond that range is named by its bit
    length: its digits may be too many to print.
    """
    try:
        n = 0 if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = 0
    if not 1 <= n <= 2 ** 53:
        raise ValueError(f"{what} must be a positive integer up to 2**53, got {_named(value)}")
    return n


def _seed(value: int) -> int:
    """``value`` as an int when it is an integer of any type, numpy's too, from 0 up.

    A bool is a flag, not a seed, and is refused.
    """
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 0:
        raise ValueError(f"seed must be a non-negative integer, got {_named(value)}")
    return operator.index(value)


def _named(value) -> str:
    """``repr(value)``, except that an integer beyond 2**53 is named by its sign and bit length.

    The digits of a huge integer may be too many to print: past 4300 of
    them ``repr`` itself raises.
    """
    try:
        n = operator.index(value)
    except TypeError:
        return repr(value)
    if abs(n) <= 2 ** 53:
        return repr(value)
    return f"{'a negative' if n < 0 else 'an'} integer of {n.bit_length()} bits"


def _as_float(value, what: str) -> float:
    """``float(value)``, where a value beyond the float range is a ValueError naming ``what``.

    ``float`` of an integer past about 2**1024 raises OverflowError; every
    float input is already in range (inf included).
    """
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} must lie within the float range, got {_named(value)}") from None


def _as_floats(values, what: str) -> tuple[float, ...]:
    """:func:`_as_float` of each value, as a tuple; a ``str`` or ``bytes`` is a TypeError.

    Each value takes one plain ``float`` call unless some value is past the
    float range. The tuple is built from a list: ``tuple()`` of a generator
    starts at 10 entries and resizes, which in a long loop of calls strands
    megabytes of tuples on CPython's per-size free lists.
    """
    if isinstance(values, (str, bytes, bytearray)):
        raise TypeError(f"{what} must be a sequence of numbers, not a string")
    raw = tuple(values)
    try:
        return tuple([*map(float, raw)])
    except OverflowError:
        return tuple([_as_float(v, what) for v in raw])


@dataclass(frozen=True)
class PowerVector:
    """Entropy powers of the independent summands, one entry per summand.

    Entries are finite and nonnegative. A zero entry is legal and marks a
    summand whose density is unbounded in the relevant norm; the optimizer
    assigns it zero weight. The entries are converted with ``float`` and
    checked once, here, and held both as the tuple ``powers`` and as one
    private read-only float64 array that the solver's O(n) steps work on;
    the array takes no part in equality, hashing or ``repr``. ``total``,
    their left-to-right sum, is formed once here; it is inf when the sum
    overflows.
    """

    powers: tuple[float, ...]
    total: float = field(init=False, repr=False, compare=False)
    _array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vals = _as_floats(self.powers, "entropy powers")
        if len(vals) < 1:
            raise ValueError("need at least one summand")
        arr = np.array(vals)
        # argmin and argmax return the index of the first NaN if there is one
        if not (vals[arr.argmin()] >= 0.0 and vals[arr.argmax()] < math.inf):
            bad = vals[(~((arr >= 0.0) & (arr < math.inf))).argmax()]
            raise ValueError(f"entropy powers must be finite and >= 0, got {bad!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "powers", vals)
        object.__setattr__(self, "total", _left_sum_array(arr))
        object.__setattr__(self, "_array", arr)

    def __len__(self) -> int:
        return len(self.powers)

    def __iter__(self) -> Iterator[float]:
        return iter(self.powers)

    def __getitem__(self, i: int) -> float:
        return self.powers[i]

    @property
    def largest(self) -> float:
        """The first largest power, as ``max(powers)`` returns it."""
        return self.powers[self._array.argmax()]

    def normalized(self) -> tuple[float, ...]:
        """Powers divided by their sum; requires a nonzero, finite total."""
        return tuple(self._normalized().tolist())

    def _normalized(self) -> np.ndarray:
        """:meth:`normalized` as a new float64 array."""
        t = self.total
        if t <= 0.0:
            raise ValueError("cannot normalize an all-zero power vector")
        if math.isinf(t):
            raise ValueError("entropy powers sum past the float range")
        return self._array / t

    def _log_normalized(self) -> np.ndarray:
        """log of :meth:`_normalized`: -inf at a zero power, and log p - log total
        where a positive power p over the total underflows to 0."""
        normalized = self._normalized()
        with np.errstate(divide="ignore"):
            logs = np.log(normalized)
        if not normalized.all():
            lost = (normalized == 0.0) & (self._array > 0.0)
            logs[lost] = np.log(self._array[lost]) - math.log(self.total)
        return logs


def as_power_vector(powers: PowerVector | Sequence[float]) -> PowerVector:
    return powers if isinstance(powers, PowerVector) else PowerVector(powers)


#: slack accepted on the simplex constraints; the weight solver lands well
#: inside these.
WEIGHT_FLOOR = -1e-12
WEIGHT_SUM_TOL = 1e-10


@dataclass(frozen=True)
class SimplexWeights:
    """A simplex point (weights >= 0 summing to 1), checked by :func:`_check_simplex`."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = _as_floats(self.weights, "weights")
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
    return weights if isinstance(weights, SimplexWeights) else SimplexWeights(weights)


@dataclass(frozen=True)
class BoundReport:
    """All four lower bounds for one instance, each with a constant on the summed powers.

    ``bc``, ``sharpened`` and ``optimized`` are constants c in N_alpha(sum) >= c * sum_k
    N_alpha(X_k); ``bv`` is the largest power, and its constant is its share of the sum.
    ``bc`` <= ``sharpened`` <= ``optimized`` <= 1 always holds, and the
    optimized constant dominates that share. At alpha = inf the constants
    are limit values: each is the pointwise limit of the finite-alpha
    constant, and the reported bounds are valid by continuity.
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
        if not (self.optimized >= self._constants()["bv"] - tol):
            raise ValueError("optimized bound fell below the max-power bound")

    def _constants(self) -> dict[str, float]:
        """Each bound's constant on sum_k N_alpha(X_k), in :meth:`lower_bounds` order."""
        share = self.bv / self.powers.total
        return {"bc": self.bc, "sharpened": self.sharpened, "optimized": self.optimized, "bv": share}

    def lower_bounds(self) -> dict[str, float]:
        """Lower bounds on the entropy power of the sum, by method."""
        total = self.powers.total
        # bv is the largest power itself, not its share times the total
        return {**{name: c * total for name, c in self._constants().items()}, "bv": self.bv}

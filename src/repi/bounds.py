"""Closed-form constants and the weight objective.

Each constant c below certifies a lower bound of the form

    N_alpha(X_1 + ... + X_n) >= c * (N_alpha(X_1) + ... + N_alpha(X_n))

for independent random vectors. The constants are dimension free; the
dimension enters only through the entropy powers themselves. All logs are
natural.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import (
    Order,
    SimplexWeights,
    _as_float,
    _positive_int,
    as_order,
    as_power_vector,
    as_simplex_weights,
)

__all__ = [
    "bc_constant",
    "sharpened_constant",
    "young_constant",
    "log_constant",
    "binary_kl",
    "bv_bound",
]


def bc_constant(order: Order | float) -> float:
    """The n-free constant alpha^(1/(alpha-1)) / e.

    Decreases from 1 (alpha -> 1) to 1/e (alpha = inf) and is independent of
    the number of summands and of the dimension.
    """
    return math.exp(as_order(order).log_alpha_slope - 1.0)


def sharpened_constant(order: Order | float, n: int) -> float:
    """The n-aware constant alpha^(1/(alpha-1)) (1 - 1/(n a'))^(n a' - 1).

    Here a' is the Holder conjugate of alpha. The value strictly decreases
    in n and converges to :func:`bc_constant` as n grows; in exact
    arithmetic it exceeds it for every finite n. In floats the gap rounds
    away for huge n: the two are equal at n = 2^49 at alpha = 1.1 and at
    n = 2^52 at alpha = 2, and at some n between powers of two from about
    2^48 and 2^49.6 on (earlier as alpha nears 1), but this value never
    falls below ``bc_constant``. Evaluated in log space so that the large-n limit
    is accurate. A single summand needs no inequality at all, so n = 1
    short-circuits to 1.
    """
    order = as_order(order)
    n = _positive_int(n, "number of summands")
    if n == 1:
        return 1.0
    m = n * order.alpha_conj
    return math.exp(order.log_alpha_slope + (m - 1.0) * math.log1p(-1.0 / m))


def young_constant(t: float) -> float:
    """Sharpened Young constant A_t = t^(1/t) |t'|^(-1/|t'|), t' = t/(t-1).

    Defined for t > 0 with the continuous extensions A_1 = A_inf = 1.
    Conjugate exponents multiply to one: A_t * A_{t'} = 1 for t > 1.
    For t < 1 the two log terms nearly cancel, so there the log is taken
    as log t + (1 - t) log1p(-t) / t, which tends to log(t / e) as t -> 0.
    """
    t = _as_float(t, "exponent")
    if math.isnan(t) or t <= 0.0:
        raise ValueError(f"exponent must be > 0, got {t!r}")
    if t == 1.0 or math.isinf(t):
        return 1.0
    if t < 1.0:
        return math.exp(math.log(t) + (1.0 - t) * math.log1p(-t) / t)
    tc = t / (t - 1.0)
    return math.exp(math.log(t) / t - math.log(tc) / tc)


def _kernel(t: np.ndarray, ac) -> np.ndarray:
    """g(t) = (a' - t) log(1 - t/a') - t log t elementwise, strictly concave on (0, 1),
    with 0 log 0 = 0 at t = 0 and at t = a' (reached only at alpha = inf, a' = 1)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        left = np.where(t == ac, 0.0, (ac - t) * np.log1p(-t / ac))
        right = np.where(t == 0.0, 0.0, -t * np.log(t))
    return left + right


def log_constant(
    weights: SimplexWeights | Sequence[float],
    normalized_powers: Sequence[float],
    order: Order | float,
) -> float:
    """Log of the constant certified by an arbitrary simplex weighting.

    For any weights t on the simplex,

        log c(t) = log(alpha)/(alpha - 1) + sum_k g(t_k) + sum_k t_k log N_k

    with N the entropy powers normalized to sum to one. exp of the value is
    always a valid constant; the optimizer maximizes it. A positive weight
    on a zero power yields -inf (that weighting certifies nothing).
    """
    order = as_order(order)
    weights = as_simplex_weights(weights)
    powers = as_power_vector(normalized_powers)
    if len(weights) != len(powers):
        raise ValueError(
            f"{len(weights)} weights for {len(powers)} powers"
        )
    if abs(powers.total - 1.0) > 1e-10:
        raise ValueError(f"powers must be normalized to sum 1, got sum {powers.total!r}")
    with np.errstate(divide="ignore"):
        log_powers = np.log(powers._array)
    return _log_constants(np.array([weights.weights]), log_powers, (order,))[0]


def _log_constants(
    weights: np.ndarray, log_powers: np.ndarray, orders: Sequence[Order]
) -> list[float]:
    """:func:`log_constant` of each row of ``weights``, row i at ``orders[i]``,
    from the logs of the normalized powers, unchecked.

    Each row's terms are summed exactly (``math.fsum``), so a row's value
    depends neither on the other rows nor on where its zero weights sit.
    """
    t = np.clip(weights, 0.0, 1.0)  # SimplexWeights allows -1e-12 noise
    ac = np.array([o.alpha_conj for o in orders])[:, None]
    with np.errstate(invalid="ignore"):
        # t log N is -inf for a weighted zero power and nan for an unweighted one
        terms = np.where(t > 0.0, _kernel(t, ac) + t * log_powers, 0.0)
    return [
        math.fsum([o.log_alpha_slope, *row]) for o, row in zip(orders, terms.tolist())
    ]


def binary_kl(x: float, y: float) -> float:
    """Relative entropy d(x || y) between Bernoulli(x) and Bernoulli(y).

    Continuous in x on [0, 1] with 0 log 0 = 0. Endpoint reference values
    y in {0, 1} give +inf unless x matches exactly. The log of x / y is
    taken as log x - log y only where that quotient overflows (y subnormal).
    """
    x, y = _as_float(x, "arguments"), _as_float(y, "arguments")
    if not 0.0 <= x <= 1.0 or not 0.0 <= y <= 1.0:
        raise ValueError(f"arguments must lie in [0, 1], got {x!r}, {y!r}")
    if y == 0.0:
        return 0.0 if x == 0.0 else math.inf
    if y == 1.0:
        return 0.0 if x == 1.0 else math.inf
    if x == 0.0:
        left = 0.0
    else:
        ratio = x / y
        left = x * (math.log(x) - math.log(y) if math.isinf(ratio) else math.log(ratio))
    right = 0.0 if x == 1.0 else (1.0 - x) * math.log((1.0 - x) / (1.0 - y))
    return left + right


def bv_bound(powers: Sequence[float]) -> float:
    """Max-power lower bound: N_alpha of the sum is at least max_k N_alpha(X_k)."""
    return as_power_vector(powers).largest

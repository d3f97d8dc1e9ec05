"""Instance-optimal weights for the entropy power bound.

The best constant certified by :func:`repi.bounds.log_constant` is found by
maximizing over the simplex. The stationarity conditions collapse to a one
dimensional root problem: the first largest power leads, and with power
ratios c_k = N_k / N_lead in [0, 1] every other weight is a fixed algebraic
function of the leading weight x,

    psi(x, c) = (a' - sqrt(a'^2 - 4 c x (a' - x))) / 2,

and the leading weight solves weight_sum(x) = x + sum_k psi(x, c_k) = 1.
A zero power has ratio 0 and psi(x, 0) = 0, so it gets weight exactly 0.
weight_sum is continuous and increasing from 0 with weight_sum(1) > 1 for
finite alpha, so the root is unique in (0, 1]; bisection is exact enough
and never diverges. At alpha = inf, weight_sum(1) = 1 as well: when
sum(c_k) <= 1 and every c_k < 1 the limit solution is the endpoint x = 1
(the max-power bound is asymptotically tight), otherwise the limit is the
interior root. Every psi carries the factor (1 - x) at a' = 1, so that root
is the one sign change of the factored residual
sum_k psi(x, c_k) / (1 - x) - 1, which runs from -1 at x = 0 to
sum(c_k) - 1 >= 0 as x -> 1. A second largest power (c_k = 1) makes it
vanish on all of [1/2, 1), and bisection stops at its first midpoint 1/2,
the finite-order weight of two equal powers.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .bounds import bc_constant, binary_kl, log_constant, sharpened_constant
from .core import (
    BoundReport,
    Order,
    PowerVector,
    SimplexWeights,
    as_order,
    as_power_vector,
)

__all__ = [
    "DegeneratePowersError",
    "RootBracketError",
    "companion_weight",
    "weight_sum",
    "solve_leading_weight",
    "optimal_weights",
    "optimized_constant",
    "two_summand_weight",
    "two_summand_constant",
    "bv_asymptotically_tight",
    "bound_report",
]

#: |weight_sum(x) - 1| accepted as converged.
ROOT_TOL = 1e-12
MAX_ITERATIONS = 200


class DegeneratePowersError(ValueError):
    """All entropy powers are zero: any constant works and none is useful."""


class RootBracketError(RuntimeError):
    """Root refinement stalled; carries the final bracket for diagnosis."""

    def __init__(self, lo: float, hi: float, residual: float) -> None:
        super().__init__(
            f"no convergence: bracket [{lo!r}, {hi!r}], residual {residual!r}"
        )
        self.bracket = (lo, hi)
        self.residual = residual


def _check_ratios(ratios: Sequence[float]) -> tuple[float, ...]:
    cs = tuple(float(c) for c in ratios)
    for c in cs:
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"power ratios must lie in [0, 1], got {c!r}")
    return cs


def _leading_ratios(pv: PowerVector) -> tuple[int, list[float]]:
    """Index of the first largest power, and every other power divided by it."""
    top = pv.largest
    if top == 0.0:
        raise DegeneratePowersError("all entropy powers are zero")
    lead = pv.powers.index(top)
    return lead, [p / top for i, p in enumerate(pv) if i != lead]


def _max_power_tight(ratios: Sequence[float]) -> bool:
    """At alpha = inf the endpoint x = 1 is the limit iff the ratios sum to at most 1."""
    return sum(ratios) <= 1.0 + 1e-12


def _psi(x, c: float, ac: float, sqrt):
    """Companion weight at leading weight(s) x; ``sqrt`` is math's or numpy's."""
    disc = ac * ac * (1.0 - c) + c * (2.0 * x - ac) ** 2
    return 2.0 * c * x * (ac - x) / (ac + sqrt(disc))


def companion_weight(x: float, ratio: float, order: Order | float) -> float:
    """Weight forced on a summand with power ratio ``ratio`` by leading weight x.

    The smaller root of t (a' - t) = ratio * x (a' - x), evaluated as

        2 ratio x (a' - x) / (a' + sqrt(a'^2 (1 - ratio) + ratio (2x - a')^2))

    which avoids the cancellation of the textbook quadratic formula for
    ratios near 1.
    """
    (c,) = _check_ratios((ratio,))
    return _psi(float(x), c, as_order(order).alpha_conj, math.sqrt)


def weight_sum(x, ratios: Sequence[float], order: Order | float) -> float | np.ndarray:
    """x plus the companion weight of every ratio; the simplex constraint pins this to 1.

    ``x`` is one leading weight, giving a float, or an array of them, giving
    an array of its shape.
    """
    order = as_order(order)
    cs = _check_ratios(ratios)
    xs = np.asarray(x, dtype=float)
    out = xs + sum(_psi(xs, c, order.alpha_conj, np.sqrt) for c in cs)
    return float(out) if out.ndim == 0 else out


def _bisect(f, lo: float, hi: float, tol: float, max_iter: int) -> float:
    """Sign-based bisection of f with f(lo) < 0 < f(hi).

    Runs the bracket down to adjacent floats so the returned root is exact
    to one ulp; tol only backstops brackets that stall before collapsing.
    A residual at the 1e-12 level would leave the recovered weights off
    the simplex by as much, a first-order error in the constant.
    """
    mid = 0.5 * (lo + hi)
    fm = math.inf
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
    if abs(fm) <= tol or hi - lo < 1e-14:
        return mid
    raise RootBracketError(lo, hi, fm)


def solve_leading_weight(ratios: Sequence[float], order: Order | float) -> float:
    """Solve weight_sum(x) = 1 for the weight of the leading summand.

    For finite alpha the root is unique in (0, 1] and bracketed by [0, 1]
    from the start, so plain bisection converges unconditionally to float
    resolution. At alpha = inf the endpoint x = 1 is always a root; it is
    the correct limit iff sum(ratios) <= 1 and no ratio is 1. Otherwise the
    limit of the finite-alpha solutions is the interior root, where the
    factored residual sum_k psi(x, c_k) / (1 - x) - 1 first reaches 0 on
    (0, 1). Bisection never evaluates an endpoint, so the division by 1 - x
    is safe.
    """
    order = as_order(order)
    cs = _check_ratios(ratios)
    ac = order.alpha_conj
    if all(c == 0.0 for c in cs):
        return 1.0
    if not order.is_infinite:
        def resid(x: float) -> float:
            return x + sum(_psi(x, c, ac, math.sqrt) for c in cs) - 1.0
    elif _max_power_tight(cs) and max(cs) < 1.0:
        return 1.0
    else:
        def resid(x: float) -> float:
            return sum(_psi(x, c, ac, math.sqrt) for c in cs) / (1.0 - x) - 1.0
    return _bisect(resid, 0.0, 1.0, ROOT_TOL, MAX_ITERATIONS)


def optimal_weights(
    powers: PowerVector | Sequence[float], order: Order | float
) -> SimplexWeights:
    """The simplex weights maximizing :func:`repi.bounds.log_constant`.

    The first largest power leads; every other summand gets the companion
    weight of its power ratio, which is exactly 0 for a zero power.
    """
    order = as_order(order)
    lead, ratios = _leading_ratios(as_power_vector(powers))
    x = solve_leading_weight(ratios, order)
    weights = [_psi(x, c, order.alpha_conj, math.sqrt) for c in ratios]
    weights.insert(lead, x)
    return SimplexWeights(tuple(weights))


def optimized_constant(powers: PowerVector | Sequence[float], order: Order | float) -> float:
    """The best constant for this power vector: exp of the maximized objective."""
    return bound_report(powers, order).optimized


def two_summand_weight(beta: float, order: Order | float) -> float:
    """Closed-form optimal weight of the smaller of two summands.

    ``beta`` is the power ratio N_1 / N_2 <= 1. With g = a'(1 - beta) and
    e = 2 beta (a' - 1), evaluated in the rationalized form
    e / (g + e + sqrt(g^2 + 2 e (a' - 1))). Every term is non-negative, so
    nothing cancels for beta near 0 or 1, nor for a' near 1. Only at
    beta = 1 with alpha = inf is the quotient 0/0; beta = 1 returns its
    limit 1/2 at every order.
    """
    order = as_order(order)
    (beta,) = _check_ratios((beta,))
    if beta == 0.0:
        return 0.0
    if beta == 1.0:
        return 0.5
    ac = order.alpha_conj
    gap, excess = ac * (1.0 - beta), 2.0 * beta * (ac - 1.0)
    disc = gap * gap + 2.0 * excess * (ac - 1.0)
    return excess / (gap + excess + math.sqrt(disc))


def two_summand_constant(beta: float, order: Order | float) -> float:
    """Closed-form best constant for two summands with power ratio ``beta``.

    Equals exp of the two-term objective at the weight from
    :func:`two_summand_weight`; beta = 0 reduces to the single-summand
    constant 1, beta = 1 to the equal-power constant
    ``sharpened_constant(order, 2)``.
    """
    order = as_order(order)
    (beta,) = _check_ratios((beta,))
    if beta == 0.0:
        return 1.0
    t = two_summand_weight(beta, order)
    ac = order.alpha_conj

    def xlog1p(coef: float, u: float) -> float:
        return 0.0 if coef == 0.0 else coef * math.log1p(u)

    value = (
        order.log_alpha_slope()
        - binary_kl(t, beta / (1.0 + beta))
        + xlog1p(ac - t, -t / ac)
        + xlog1p(ac - 1.0 + t, -(1.0 - t) / ac)
    )
    return math.exp(value)


def bv_asymptotically_tight(infinity_powers: PowerVector | Sequence[float]) -> bool:
    """Whether the optimized bound collapses to the max-power bound at alpha = inf.

    True iff the non-leading powers at alpha = inf sum to at most the
    leading one, with the weight solver's slack. The optimized weights then
    take the endpoint, all weight on the leading power, unless another power
    ties it; a tie shares the weight as at every finite order, and the
    constant is the same. For two summands this always holds, and for
    all-zero powers too.
    """
    pv = as_power_vector(infinity_powers)
    if pv.largest == 0.0:
        return True
    return _max_power_tight(_leading_ratios(pv)[1])


def bound_report(powers: PowerVector | Sequence[float], order: Order | float) -> BoundReport:
    """Assemble every constant and lower bound for one instance."""
    order = as_order(order)
    pv = as_power_vector(powers)
    weights = optimal_weights(pv, order)
    return BoundReport(
        order=order,
        powers=pv,
        bc=bc_constant(order),
        sharpened=sharpened_constant(order, len(pv)),
        optimized=math.exp(log_constant(weights, pv.normalized(), order)),
        bv=pv.largest,
        weights=weights,
    )

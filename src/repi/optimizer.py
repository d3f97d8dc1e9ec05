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
finite alpha, so the root is unique in (0, 1]. At alpha = inf,
weight_sum(1) = 1 as well: when sum(c_k) <= 1 and every c_k < 1 the limit
solution is the endpoint x = 1 (the max-power bound is asymptotically
tight), otherwise the limit is the interior root. Every psi carries the
factor (1 - x) at a' = 1, so that root is the one sign change of the
factored residual sum_k psi(x, c_k) / (1 - x) - 1, which runs from -1 at
x = 0 to sum(c_k) - 1 >= 0 as x -> 1. A second largest power (c_k = 1)
makes it vanish on all of [1/2, 1), and the solver stops at its first
point 1/2, the finite-order weight of two equal powers.

The root is found by bracketed Newton on [0, 1] from the midpoint 1/2,
falling back to bisection whenever a Newton step would leave the bracket.
On any pass where a Newton step rounds to no move, the row steps one ulp
towards the sign change instead; the step keeps no state between passes.
A row ends when its bracket ends are adjacent floats, and the root is
their midpoint, so it is exact to one ulp. One call solves a whole grid
of orders as the rows of an (orders x ratios) array; :func:`bound_reports`
is its batched front.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .bounds import _log_constants, _unit_weights, bc_constant, binary_kl, sharpened_constant
from .core import (
    BoundReport,
    Order,
    PowerVector,
    SimplexWeights,
    _simplex_rows,
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
    "bound_reports",
]

#: residual evaluations allowed per root: room for plain bisection of any
#: finite bracket down to adjacent floats (2^1025 / 2^-1074 takes 2099 halvings)
MAX_ITERATIONS = 2200


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


def _psi(x, c, ac, slope: bool = False):
    """Companion weight at leading weight(s) x, elementwise over arrays.

    With ``slope`` also returns its x-derivative c (a' - 2x) / (a' - 2 psi),
    whose denominator is the square root below, free of cancellation.
    """
    root = np.sqrt(ac * ac * (1.0 - c) + c * (2.0 * x - ac) ** 2)
    psi = 2.0 * c * x * (ac - x) / (ac + root)
    return (psi, c * (ac - 2.0 * x) / root) if slope else psi


def companion_weight(x: float, ratio: float, order: Order | float) -> float:
    """Weight forced on a summand with power ratio ``ratio`` by leading weight x.

    The smaller root of t (a' - t) = ratio * x (a' - x), evaluated as

        2 ratio x (a' - x) / (a' + sqrt(a'^2 (1 - ratio) + ratio (2x - a')^2))

    which avoids the cancellation of the textbook quadratic formula for
    ratios near 1. The leading weight x must lie in [0, 1].
    """
    (c,) = _check_ratios((ratio,))
    return float(_psi(float(_unit_weights(x)), c, as_order(order).alpha_conj))


def weight_sum(x, ratios: Sequence[float], order: Order | float) -> float | np.ndarray:
    """x plus the companion weight of every ratio; the simplex constraint pins this to 1.

    ``x`` is one leading weight, giving a float, or an array of them, giving
    an array of its shape; every entry must lie in [0, 1].
    """
    order = as_order(order)
    cs = _check_ratios(ratios)
    xs = _unit_weights(x)
    out = xs + sum(_psi(xs, c, order.alpha_conj) for c in cs)
    return float(out) if out.ndim == 0 else out


def _bracketed_newton(residual, lo, hi, *params) -> np.ndarray:
    """Root of an increasing residual in each row's bracket, run to adjacent floats.

    ``residual(x, *params)`` returns the residual and its derivative at
    the points x, one per row; ``params`` are per-row arrays that stay
    with their rows as rows close. Each row is safeguarded Newton (rtsafe,
    Numerical Recipes 9.4) inside [lo, hi], starting at the midpoint and
    never evaluating either end, so the ends may be poles (the residual
    may overflow next to them): every evaluation moves one end of the
    bracket to x by the residual's sign, and a Newton step that leaves the
    bracket or has a non-finite derivative becomes a bisection step.
    rtsafe's test that the step halves is left out: after one-ulp steps
    near the root it forces bisection of a bracket whose far end is still
    where Newton started. On any pass where a finite Newton step rounds
    to no move, the row steps one ulp towards the sign change instead;
    the test is made afresh each pass and keeps no state. A row ends when
    its bracket ends are adjacent floats, or equal at an exact zero, and
    returns their midpoint; a row still open after MAX_ITERATIONS
    evaluations raises :class:`RootBracketError`. Rows share nothing but
    the loop, so a row's root does not depend on the others.
    """
    roots = np.empty(lo.size)
    rows = np.arange(lo.size)
    x = mid = 0.5 * (lo + hi)
    f = df = np.full(lo.size, np.nan)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for evaluations in range(MAX_ITERATIONS + 1):
            done = (mid <= lo) | (mid >= hi)
            if done.any():
                roots[rows[done]] = mid[done]
                if done.all():
                    return roots
                keep = ~done
                rows, x, f, df, lo, hi, mid, *params = (
                    a[keep] for a in (rows, x, f, df, lo, hi, mid, *params)
                )
            if evaluations == MAX_ITERATIONS:
                raise RootBracketError(float(lo[0]), float(hi[0]), float(f[0]))
            if evaluations:
                newton = x - f / df
                finite = np.isfinite(df)
                walking = finite & (newton == x)
                inside = finite & (lo < newton) & (newton < hi)
                x = np.where(
                    walking, np.nextafter(x, np.where(f < 0.0, hi, lo)), np.where(inside, newton, mid)
                )
            f, df = residual(x, *params)
            lo = np.where(f <= 0.0, x, lo)
            hi = np.where(f >= 0.0, x, hi)
            mid = 0.5 * (lo + hi)


def _leading_weights(ratios: Sequence[float], orders: Sequence[Order]) -> np.ndarray:
    """Leading weight at every order for one list of power ratios.

    Zero ratios have psi = 0 and drop out. At alpha = inf the endpoint
    x = 1 is the limit when the ratios sum to at most 1 and none is 1;
    those orders get 1 without iterating. Every other order is one row of
    :func:`_bracketed_newton` on [0, 1], with residual x + sum_k psi(x, c_k) - 1
    at conjugate ac, or at alpha = inf the factored residual
    sum_k psi(x, c_k) / (1 - x) - 1.
    """
    roots = np.ones(len(orders))
    cs = np.asarray(ratios, dtype=float)
    cs = cs[cs > 0.0]
    if cs.size == 0:
        return roots
    infinite = np.array([o.is_infinite for o in orders], dtype=bool)
    solve = ~(infinite & (_max_power_tight(ratios) and cs.max() < 1.0))
    if solve.any():

        def residual(x, ac, infinite):
            psi, slope = _psi(x[:, None], cs, ac[:, None], slope=True)
            total, dtotal = psi.sum(axis=1), slope.sum(axis=1)
            gap = 1.0 - x
            f = np.where(infinite, total / gap - 1.0, x + total - 1.0)
            return f, np.where(infinite, (dtotal + total / gap) / gap, 1.0 + dtotal)

        ac = np.array([o.alpha_conj for o in orders])[solve]
        roots[solve] = _bracketed_newton(
            residual, np.zeros(ac.size), np.ones(ac.size), ac, infinite[solve]
        )
    return roots


def solve_leading_weight(ratios: Sequence[float], order: Order | float) -> float:
    """Solve weight_sum(x) = 1 for the weight of the leading summand.

    For finite alpha the root is unique in (0, 1] and bracketed by [0, 1]
    from the start. Bracketed Newton (:func:`_bracketed_newton`) runs the
    bracket down to adjacent floats and returns its midpoint, so the root
    is exact to one ulp. At alpha = inf the endpoint x = 1 is always a
    root; it is the correct limit iff sum(ratios) <= 1 and no ratio is 1.
    Otherwise the limit of the finite-alpha solutions is the interior root,
    where the factored residual sum_k psi(x, c_k) / (1 - x) - 1 changes
    sign on (0, 1). Newton never evaluates an endpoint, so the division by
    1 - x is safe.
    """
    return float(_leading_weights(_check_ratios(ratios), (as_order(order),))[0])


def _weight_rows(pv: PowerVector, orders: Sequence[Order]) -> np.ndarray:
    """Optimal weights, one row per order: the root at the lead, psi elsewhere."""
    lead, ratios = _leading_ratios(pv)
    x = _leading_weights(ratios, orders)[:, None]
    ac = np.array([o.alpha_conj for o in orders])[:, None]
    psi = _psi(x, np.array(ratios), ac)
    return np.hstack((psi[:, :lead], x, psi[:, lead:]))


def optimal_weights(
    powers: PowerVector | Sequence[float], order: Order | float
) -> SimplexWeights:
    """The simplex weights maximizing :func:`repi.bounds.log_constant`.

    The first largest power leads; every other summand gets the companion
    weight of its power ratio, which is exactly 0 for a zero power.
    """
    rows = _weight_rows(as_power_vector(powers), (as_order(order),))
    return _simplex_rows(rows)[0]


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


def bound_reports(
    powers: PowerVector | Sequence[float], orders: Iterable[Order | float]
) -> list[BoundReport]:
    """:func:`bound_report` at every order, with one weight solve for all of them.

    Each report equals the one-order ``bound_report`` in every float.
    """
    orders = [as_order(o) for o in orders]
    pv = as_power_vector(powers)
    rows = _weight_rows(pv, orders)
    log_optimized = _log_constants(rows, pv.normalized(), orders)
    n, bv = len(pv), pv.largest
    return [
        BoundReport(
            order=order,
            powers=pv,
            bc=bc_constant(order),
            sharpened=sharpened_constant(order, n),
            optimized=math.exp(value),
            bv=bv,
            weights=weights,
        )
        for order, value, weights in zip(orders, log_optimized, _simplex_rows(rows))
    ]


def bound_report(powers: PowerVector | Sequence[float], order: Order | float) -> BoundReport:
    """Assemble every constant and lower bound for one instance."""
    return bound_reports(powers, (order,))[0]

"""Instance-optimal weights for the entropy power bound.

The best constant certified by :func:`repi.bounds.log_constant` is found by
maximizing over the simplex. The stationarity conditions collapse to a one
dimensional root problem: the first largest power leads, and with power
ratios c_k = N_k / N_lead in [0, 1] every other weight is a fixed algebraic
function of the leading weight x,

    psi(x, c) = (a' - sqrt(a'^2 - 4 c x (a' - x))) / 2,

and the leading weight solves the weight sum W(x) = x + sum_k psi(x, c_k) = 1.
A zero power has ratio 0 and psi(x, 0) = 0, so it gets weight exactly 0.
W is continuous and increasing from 0 with W(1) > 1 for finite alpha, so
the root is unique in (0, 1]. At alpha = inf, W(1) = 1 as well: when
sum(c_k) <= 1 and every c_k < 1 the limit solution is the endpoint x = 1
(the max-power bound is asymptotically tight), otherwise the limit is the
interior root. Every psi carries the factor (1 - x) at a' = 1, so that
root is the one sign change of the factored residual
sum_k psi(x, c_k) / (1 - x) - 1, which runs from -1 at x = 0 to
sum(c_k) - 1 >= 0 as x -> 1. A second largest power (c_k = 1) makes it
vanish on all of [1/2, 1), and the solver stops at its first point 1/2,
the finite-order weight of two equal powers.

The root is found by :func:`_bracketed_newton`, safeguarded Newton on
[0, 1] from the midpoint 1/2, run until the bracket's ends are adjacent
floats around a sign change of the residual as computed in floats. That
is not always the float nearest the exact root: a 50-digit probe of 3600
seeded solves (n = 2 to 1000, alpha 1.1, 2 and 5) found the leading
weight a median of about 0.4 ulp and at worst 2.7 ulp from it, and the
tests hold it within 3 ulp. One call solves a whole grid
of orders as the rows of an (orders x ratios) array, and a single order
takes the same steps on float64 scalars; an order whose conjugate rounds
to 1 (alpha above about 1e16) is solved as alpha = inf. A row whose
limit is the endpoint x = 1 is the closed bracket [1, 1], which returns
1 unevaluated, and an empty grid closes on the loop's first pass.
:func:`_bound_columns` reads every weight and constant of a grid from one
solve; :func:`bound_reports`, its one-order call :func:`bound_report` and
``repi compare`` read them there. The one other public caller of the
solver is :func:`optimal_weights`, which returns the weights alone.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .bounds import _log_constants, bc_constant, binary_kl, sharpened_constant
from .core import (
    BoundReport,
    Order,
    PowerVector,
    SimplexWeights,
    _as_float,
    _check_constants,
    _check_simplex,
    _left_sum_array,
    _simplex_rows,
    as_order,
    as_power_vector,
)

__all__ = [
    "DegeneratePowersError",
    "RootBracketError",
    "optimal_weights",
    "optimized_constant",
    "two_summand_weight",
    "two_summand_constant",
    "bv_asymptotically_tight",
    "bound_report",
    "bound_reports",
]

#: residual evaluations allowed per root: a bisection step halves the count of
#: floats in the bracket, so at most 64 of them close any finite bracket, and
#: the rest is room for Newton and one-ulp steps
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


def _leading_ratios(pv: PowerVector) -> tuple[int, np.ndarray]:
    """Index of the first largest power, and every other power divided by it, in order."""
    powers = pv._array
    lead = int(powers.argmax())
    top = powers[lead]
    if top == 0.0:
        raise DegeneratePowersError("all entropy powers are zero")
    return lead, np.concatenate((powers[:lead], powers[lead + 1:])) / top


def _max_power_tight(ratios: np.ndarray) -> bool:
    """At alpha = inf the endpoint x = 1 is the limit iff the ratios sum to at most 1."""
    return _left_sum_array(ratios) <= 1.0 + 1e-12


def _psi_invariants(c, ac):
    """The terms of :func:`_psi` that do not depend on x: a'^2 (1 - c) and 2c."""
    return ac * ac * (1.0 - c), 2.0 * c


def _psi(x, c, ac, slope: bool = False, invariants=None):
    """Companion weight at leading weight(s) x, elementwise over arrays.

    The smaller root t of t (a' - t) = c x (a' - x), rationalized so that
    nothing cancels for ratios c near 1. With ``slope`` also returns its
    x-derivative c (a' - 2x) / (a' - 2 psi), whose denominator is the
    square root below, free of cancellation. A caller evaluating many x
    at the same c and a' passes ``invariants = _psi_invariants(c, ac)``,
    formed once; the result is the same in every bit.
    """
    fixed, twice_c = _psi_invariants(c, ac) if invariants is None else invariants
    twice_x = 2.0 * x
    root = np.sqrt(fixed + c * (twice_x - ac) ** 2)
    psi = twice_c * x * (ac - x) / (ac + root)
    return (psi, c * (ac - twice_x) / root) if slope else psi


def _order_keys(bits):
    """int64 float bit patterns as keys in the floats' order (both zeros 0), and back."""
    return np.where(bits < 0, -(2**63) - bits, bits)


def _bisect(lo, hi):
    """The float halfway between lo and hi in :func:`_order_keys`, elementwise: no overflow,
    and half the floats of the bracket on each side. Scalars give a 0-d array."""
    a, b = _order_keys(lo.view(np.int64)), _order_keys(hi.view(np.int64))
    return _order_keys((a >> 1) + (b >> 1) + (a & b & 1)).view(np.float64)


def _bracketed_newton(residual, lo, hi, *params) -> np.ndarray:
    """Root of an increasing residual in each row's bracket, run to adjacent floats.

    ``residual(x, *params)`` returns the residual and its derivative at
    the points x, one per row; ``params`` are per-row arrays that stay
    with their rows as rows close. Each row is safeguarded Newton (rtsafe,
    Numerical Recipes 9.4) inside [lo, hi], starting at the midpoint and
    never evaluating either end, so the ends may be poles (the residual
    may overflow next to them): every evaluation moves one end of the
    bracket to x by the residual's sign, and a Newton step that is not
    strictly inside the bracket becomes a bisection step. That test alone
    also catches a non-finite derivative: unless the residual is NaN, x is
    one of the bracket ends after every evaluation, and an infinite or NaN
    derivative gives a step of x itself or NaN. rtsafe's test that the
    step halves is left out: after one-ulp steps near the root it forces
    bisection of a bracket whose far end is still where Newton started. On
    any pass where a Newton step with a finite derivative rounds to no
    move, the row steps one ulp from x towards the sign change instead;
    the test is made afresh each pass and keeps no state. A bisection step
    goes to :func:`_bisect` of the ends, halving the count of floats in
    the bracket, so at most 64 close any finite bracket; the one-ulp steps
    and the keys are formed only on passes where some row walks or
    bisects. A row ends when its bracket ends are adjacent floats, or
    equal at an exact zero, and returns the midpoint 0.5 lo + 0.5 hi, kept
    in the bracket where halving a subnormal rounds (a closed bracket
    [r, r] returns r unevaluated, and zero rows an empty array); a row
    still open after MAX_ITERATIONS evaluations raises
    :class:`RootBracketError`. Rows share nothing but the loop, so a row's
    root does not depend on the others.

    A single row runs the same steps on float64 scalars, where each
    operation costs a fraction of a one-element array's: x is a float64
    scalar and each param its row, so ``residual`` must accept both ranks
    (``x[..., None]``, ``axis=-1``). Its roots and evaluation counts are
    the grid loop's, bit for bit; float64 rather than Python floats keep
    a zero derivative's step infinite.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if lo.size == 1:
            return np.array([_newton_row(residual, lo[0], hi[0], [p[0] for p in params])])
        roots = np.empty(lo.size)
        rows = np.arange(lo.size)
        f = df = np.full(lo.size, np.nan)
        x = 0.5 * lo + 0.5 * hi
        for evaluations in range(MAX_ITERATIONS + 1):
            done = np.nextafter(lo, hi) >= hi
            if np.count_nonzero(done):
                roots[rows[done]] = np.minimum(np.maximum(0.5 * lo + 0.5 * hi, lo), hi)[done]
                keep = ~done
                rows = rows[keep]
                if rows.size:  # the rest travel with their rows; the last pass moves none
                    x, f, df, lo, hi, *params = (a[keep] for a in (x, f, df, lo, hi, *params))
            if not rows.size:
                return roots
            if evaluations == MAX_ITERATIONS:
                raise RootBracketError(float(lo[0]), float(hi[0]), float(f[0]))
            if evaluations:
                step = x - f / df
                walking = step == x
                if np.count_nonzero(walking):
                    walking &= np.isfinite(df)
                    step = np.where(walking, np.nextafter(x, np.where(f < 0.0, hi, lo)), step)
                inside = (lo < step) & (step < hi)
                if not inside.all():
                    step = np.where(inside, step, _bisect(lo, hi))
                x = step
            f, df = residual(x, *params)
            lo = np.where(f <= 0.0, x, lo)
            hi = np.where(f >= 0.0, x, hi)


def _newton_row(residual, lo, hi, params):
    """One row of :func:`_bracketed_newton` on float64 scalars, step for step."""
    f = np.float64(np.nan)
    x = 0.5 * lo + 0.5 * hi
    for evaluations in range(MAX_ITERATIONS + 1):
        if math.nextafter(lo, hi) >= hi:
            return np.minimum(np.maximum(0.5 * lo + 0.5 * hi, lo), hi)
        if evaluations == MAX_ITERATIONS:
            raise RootBracketError(float(lo), float(hi), float(f))
        if evaluations:
            step = x - f / df
            if step == x and math.isfinite(df):
                step = np.nextafter(x, hi if f < 0.0 else lo)
            if not lo < step < hi:
                step = _bisect(lo, hi)[()]
            x = step
        f, df = residual(x, *params)
        if f <= 0.0:
            lo = x
        if f >= 0.0:
            hi = x


def _weight_rows(pv: PowerVector, orders: Sequence[Order]) -> np.ndarray:
    """Optimal weights, one row per order: the root at the lead, psi elsewhere.

    Zero ratios have psi = 0 and drop out of the root problem. Every order
    is one row of :func:`_bracketed_newton`, with residual W(x) - 1 at
    conjugate ac, or at ac = 1 (alpha = inf, or a conjugate that rounds
    to 1) the factored residual sum_k psi(x, c_k) / (1 - x) - 1, which
    only a grid holding ac = 1 computes. The residual takes x as an array
    of rows or, for one order, a float64 scalar, which enters :func:`_psi`
    as a one-element array: there a scalar's ``** 2`` would be a pow,
    which can differ from the array's square in the last bit. Newton never
    evaluates an endpoint, so the division by 1 - x is safe. The x-free
    terms of psi (:func:`_psi_invariants`) are formed once per call and
    travel with their rows. The bracket is [0, 1], except where the limit
    is the endpoint x = 1: at ac = 1 when the ratios sum to at most 1 and
    none is 1, and at every order when no ratio is positive, as W(x) = x.
    The closed bracket [1, 1] returns it before any evaluation.
    """
    lead, cs = _leading_ratios(pv)
    ac = np.array([o.alpha_conj for o in orders])[:, None]
    positive = cs[cs > 0.0]
    infinite = ac[:, 0] == 1.0
    has_infinite = bool(infinite.any())
    endpoint = infinite & (has_infinite and _max_power_tight(cs) and positive.max(initial=0.0) < 1.0)
    endpoint |= not positive.size
    fixed, twice_c = _psi_invariants(positive, ac)

    def residual(x, ac, fixed, infinite):
        psi, slope = _psi(x[..., None], positive, ac, slope=True, invariants=(fixed, twice_c))
        total, dtotal = np.add.reduce(psi, axis=-1), np.add.reduce(slope, axis=-1)
        f, df = x + total - 1.0, 1.0 + dtotal
        if has_infinite:
            gap = 1.0 - x
            f = np.where(infinite, total / gap - 1.0, f)
            df = np.where(infinite, (dtotal + total / gap) / gap, df)
        return f, df

    x = _bracketed_newton(residual, endpoint.astype(float), np.ones(ac.size), ac, fixed, infinite)
    psi = _psi(x[:, None], cs, ac)
    rows = np.empty((x.size, cs.size + 1))
    rows[:, :lead], rows[:, lead], rows[:, lead + 1:] = psi[:, :lead], x, psi[:, lead:]
    return rows


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
    beta = _as_float(beta, "power ratio")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"power ratios must lie in [0, 1], got {beta!r}")
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
    beta = _as_float(beta, "power ratio")
    if beta == 0.0:
        return 1.0
    t = two_summand_weight(beta, order)
    ac = order.alpha_conj

    def xlog1p(coef: float, u: float) -> float:
        return 0.0 if coef == 0.0 else coef * math.log1p(u)

    value = (
        order.log_alpha_slope
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


def _bound_columns(
    pv: PowerVector, orders: Sequence[Order]
) -> tuple[np.ndarray, list[float], list[float], list[float]]:
    """The weight rows and the bc, sharpened and optimized constants at every order,
    as plain lists of floats, from one weight solve.

    This is the one place that builds the four bounds. The rows pass the
    simplex rules once, as one array, and each order's constants pass
    :class:`BoundReport`'s ordering rules against the largest power's share
    of the summed powers, so a bad grid is refused with the message its
    report would raise. :func:`bound_reports` wraps each order in a report;
    ``repi compare`` multiplies the columns by the summed powers and builds none.
    """
    rows = _weight_rows(pv, orders)
    log_optimized = _log_constants(rows, pv._log_normalized(), orders)
    _check_simplex(rows)
    n = len(pv)
    bc = [bc_constant(o) for o in orders]
    sharpened = [sharpened_constant(o, n) for o in orders]
    optimized = [math.exp(value) for value in log_optimized]
    share = pv.largest / pv.total
    for row in zip(bc, sharpened, optimized):
        _check_constants(*row, share)
    return rows, bc, sharpened, optimized


def bound_reports(
    powers: PowerVector | Sequence[float], orders: Iterable[Order | float]
) -> list[BoundReport]:
    """:func:`bound_report` at every order, with one weight solve for all of them.

    The columns of :func:`_bound_columns` with one report per order, whose
    constructor checks the ordering again. Each report equals the one-order
    ``bound_report`` in every float.
    """
    orders = [as_order(o) for o in orders]
    pv = as_power_vector(powers)
    rows, bc, sharpened, optimized = _bound_columns(pv, orders)
    bv = pv.largest
    return [
        BoundReport(
            order=order,
            powers=pv,
            bc=b,
            sharpened=s,
            optimized=o,
            bv=bv,
            weights=weights,
        )
        for order, b, s, o, weights in zip(
            orders, bc, sharpened, optimized, _simplex_rows(rows, checked=True)
        )
    ]


def bound_report(powers: PowerVector | Sequence[float], order: Order | float) -> BoundReport:
    """Assemble every constant and lower bound for one instance."""
    return bound_reports(powers, (order,))[0]

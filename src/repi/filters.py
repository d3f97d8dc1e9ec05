"""Entropy bounds for linear filters driven by i.i.d. vector noise.

The output of an L-tap filter with nonsingular tap matrices H_k applied to
an i.i.d. d-dimensional sequence U is a sum of independent terms H_k U_k,
and N_alpha(H U) = |det H|^(2/d) N_alpha(U). With the input normalized to
N_alpha(U) = 1 the summand entropy powers are |det H_k|^(2/d), so every
constant in this package turns into a lower bound on the output entropy
h_alpha in nats: :func:`filter_bounds` takes (d/2) log of each lower bound
in the package's bound report. Only the tap determinant magnitudes matter;
signs are irrelevant throughout, including for the Gaussian reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Order, _positive_int, as_order, entropy_from_power
from .optimizer import bound_report

__all__ = [
    "FilterSpec",
    "filter_bounds",
    "gaussian_reference",
]


@dataclass(frozen=True)
class FilterSpec:
    """Tap determinant magnitudes |det H_k|, the dimension, and the order.

    Taps may be given with signs; magnitudes are stored. Zero taps are
    rejected (a singular tap matrix has no finite-entropy output term).
    """

    taps: tuple[float, ...]
    dim: int
    order: Order

    def __post_init__(self) -> None:
        vals = tuple(abs(float(t)) for t in self.taps)
        if len(vals) < 1:
            raise ValueError("need at least one tap")
        if any(not math.isfinite(t) or t == 0.0 for t in vals):
            raise ValueError(f"taps must be finite and nonzero, got {self.taps!r}")
        object.__setattr__(self, "dim", _positive_int(self.dim, "dimension"))
        object.__setattr__(self, "taps", vals)
        object.__setattr__(self, "order", as_order(self.order))

    @property
    def length(self) -> int:
        return len(self.taps)


def filter_bounds(spec: FilterSpec) -> dict[str, float]:
    """All four output entropy bounds, in nats, keyed by method.

    Each is (d/2) log of the matching :meth:`BoundReport.lower_bounds`
    entry for the summand powers, so a single tap gives log|det H| (to
    rounding) for every method except the n-free one. The report is built
    on the powers (|t_k| / t_max)^(2/d), which cannot overflow, and each
    bound adds back log t_max.
    """
    top = max(spec.taps)
    powers = tuple((t / top) ** (2.0 / spec.dim) for t in spec.taps)
    bounds = bound_report(powers, spec.order).lower_bounds()
    return {
        method: entropy_from_power(bounds[method], spec.dim) + math.log(top)
        for method in ("optimized", "sharpened", "bc", "bv")
    }


def gaussian_reference(spec: FilterSpec, gram_det: float | None = None) -> float:
    """Exact output entropy power exponent for Gaussian input, in nats.

    For d = 1 this is (1/2) log sum_k h_k^2, formed from h_k / h_max so no
    square overflows. For d > 1 the module holds only determinant
    magnitudes, so the determinant of sum_k H_k H_k^T must be supplied by
    the caller.
    """
    if spec.dim == 1:
        top = max(spec.taps)
        return math.log(top) + 0.5 * math.log(sum((t / top) ** 2 for t in spec.taps))
    if gram_det is None:
        raise ValueError("d > 1 needs det(sum_k H_k H_k^T) passed as gram_det")
    if not 0.0 < gram_det < math.inf:
        raise ValueError(f"gram determinant must be positive and finite, got {gram_det!r}")
    return 0.5 * math.log(gram_det)

"""Numerical certification of the bounds on one-dimensional densities.

Every density is a histogram on a uniform grid of cells of width h, so its
Renyi entropy (1/(1-alpha)) log sum_i h f_i^alpha is exact and monotone in
alpha. A sum of n independent summands is measured as the histogram of the
convolved cell masses, which the exact sum smooths by n - 1 one-cell
uniforms; by Young's inequality ||f * g||_alpha <= ||f||_alpha ||g||_1 that
cannot lower an order-alpha entropy power. So the measured ratio, compared
against every constant the package computes, is a lower bound for the
histograms themselves at any spacing.

Certification here is deliberately one-dimensional. The constants are
dimension free, so d > 1 adds no new content to them; what the grids check
is the analytic machinery feeding those constants.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .bounds import sharpened_constant
from .core import (
    BoundReport,
    Order,
    _as_float,
    _as_floats,
    _left_sum,
    _positive_int,
    _seed,
    as_order,
    power_from_entropy,
)
from .optimizer import bound_report

__all__ = [
    "DEFAULT_SPACING",
    "GridDensity",
    "from_function",
    "gaussian_density",
    "uniform_density",
    "exponential_density",
    "gaussian_mixture_density",
    "gaussian_renyi_entropy",
    "renyi_entropy",
    "entropy_power",
    "convolve_many",
    "Certification",
    "certify",
    "collision_bound",
    "CorpusInstance",
    "random_corpus",
]

#: grid pitch used by every built-in constructor: a cost knob, since every check
#: holds for the histograms at any pitch. Their distance from the sampled families
#: is second order in it; at 2^-8 the closed-form oracles measure at most 8.1e-5
#: abs in the ratio for U + U, 8.8e-5 rel for Gamma(2, rate) at finite alpha,
#: 7.1e-6 nats for Irwin-Hall n = 3, 4 at alpha = 2, and 1e-15 nats for mixtures
DEFAULT_SPACING = 2.0 ** -8

#: analytic tails are cut where a density (each mixture component) falls to this
#: share of its peak, at +-8.58 std or 36.8 means, then the grid is renormalized
TRUNCATION_LEVEL = 1e-16

#: tolerance on the unit mass, spacing * sum(values), enforced on construction
MASS_TOL = 1e-6

#: most samples a constructor or a convolution puts on one grid (128 MiB of float64)
MAX_GRID_SAMPLES = 2 ** 24

#: a mixture component with a std below this many spacings is integrated over
#: the grid cells, not sampled: sampled, its mass is off by up to
#: 2 exp(-2 pi^2 (std / spacing)^2), 5e-9 at one spacing and 1e-34 at two
_CELL_MASS_STDS = 2.0


@dataclass(frozen=True, eq=False)
class GridDensity:
    """A probability density on a uniform grid: the histogram of its values.

    ``values[i]`` is the height on the cell of width ``spacing`` centred at the
    knot ``origin + i * spacing``: the density there for the smooth constructors,
    and its average over the cell for :func:`uniform_density`. Values are
    nonnegative, origin and spacing are finite, and the mass
    ``spacing * values.sum()`` is 1 within ``MASS_TOL``.
    """

    origin: float
    spacing: float
    values: np.ndarray

    def __post_init__(self) -> None:
        self._keep(np.array(self.values, dtype=float))

    @classmethod
    def _adopt(cls, origin: float, spacing: float, values: np.ndarray) -> GridDensity:
        """``cls(origin, spacing, values)`` without the copy, for a fresh float64
        array that nothing else holds: every check still runs."""
        density = object.__new__(cls)
        object.__setattr__(density, "origin", origin)
        object.__setattr__(density, "spacing", spacing)
        density._keep(values)
        return density

    def _keep(self, v: np.ndarray) -> None:
        """Freeze ``v``, check it with this density's origin and spacing, and store all three."""
        v.setflags(write=False)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("values must be a 1-d array with at least 2 samples")
        if not np.all(np.isfinite(v)) or float(v.min()) < 0.0:
            raise ValueError("density values must be finite and nonnegative")
        spacing = _check_spacing(self.spacing)
        origin = _as_float(self.origin, "origin")
        if not math.isfinite(origin):
            raise ValueError(f"origin must be finite, got {origin!r}")
        mass = spacing * float(v.sum())
        if not abs(mass - 1.0) <= MASS_TOL:
            raise ValueError(f"density must integrate to 1, got {mass!r}")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "values", v)

    def xs(self) -> np.ndarray:
        return self.origin + self.spacing * np.arange(self.values.size)

    def integral(self) -> float:
        return self.spacing * float(self.values.sum())


def _check_spacing(spacing: float) -> float:
    spacing = _as_float(spacing, "spacing")
    if not 0.0 < spacing < math.inf:
        raise ValueError(f"spacing must be positive and finite, got {spacing!r}")
    if spacing < sys.float_info.min:  # a cell's mass over a subnormal spacing can overflow
        raise ValueError(
            f"spacing must be a normal float, at least {sys.float_info.min!r}, got {spacing!r}"
        )
    return spacing


def _grid_cells(lo: float, hi: float, spacing: float) -> float:
    """(hi - lo) / spacing for a finite window of at most MAX_GRID_SAMPLES samples."""
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"need finite hi > lo, got [{lo!r}, {hi!r}]")
    cells = (hi - lo) / spacing
    if not cells <= MAX_GRID_SAMPLES - 1:
        raise ValueError(f"[{lo!r}, {hi!r}] spans too many grid cells of {spacing!r}")
    return cells


def _renormalized(origin: float, spacing: float, values: np.ndarray) -> GridDensity:
    """The grid density of ``values`` clipped at 0 and scaled to unit mass.

    ``values`` must be a fresh float64 array: it is clipped and scaled in
    place, and the density keeps it without a copy.
    """
    np.maximum(values, 0.0, out=values)
    mass = spacing * float(values.sum())
    if mass <= 0.0:
        raise ValueError("density vanishes on its grid")
    values /= mass
    return GridDensity._adopt(origin, spacing, values)


def from_function(
    fn: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    spacing: float = DEFAULT_SPACING,
) -> GridDensity:
    """Sample an analytic density on [lo, hi] and renormalize to mass 1.

    ``fn`` returns one sample per knot, so a feature narrower than a cell is
    sampled, not integrated: it can fall between knots and lose its mass.

    The knots lo + k h must be exact to h / 256: a window where one ulp of
    its ends is larger is refused before ``fn`` runs, since rounded knots
    describe another shape. At the default spacing that accepts |x| < 2^37.
    """
    lo, hi = _as_float(lo, "window ends"), _as_float(hi, "window ends")
    spacing = _check_spacing(spacing)
    far = max(abs(lo), abs(hi))
    if math.isfinite(far) and math.ulp(far) > spacing / 256:
        raise ValueError(
            f"[{lo!r}, {hi!r}] is too far from 0 for grid cells of {spacing!r}:"
            " its knots would round by more than 1/256 of a cell"
        )
    n = int(math.ceil(_grid_cells(lo, hi, spacing)))
    xs = lo + spacing * np.arange(n + 1)
    values = np.array(fn(xs), dtype=float)
    if values.shape != xs.shape:
        raise ValueError(f"fn must return one sample per knot, shape {xs.shape}, got {values.shape}")
    return _renormalized(lo, spacing, values)


def gaussian_density(mean: float, std: float, spacing: float = DEFAULT_SPACING) -> GridDensity:
    """Gaussian sampled out to where it falls to TRUNCATION_LEVEL times its peak."""
    return gaussian_mixture_density((1.0,), (mean,), (std,), spacing)


def uniform_density(lo: float, hi: float, spacing: float = DEFAULT_SPACING) -> GridDensity:
    """Uniform on [lo, hi], stored as the averages of its n cells.

    The width snaps to the nearest positive multiple n of ``spacing`` = h so
    the grid stays convolvable with every other density at the same spacing.
    The values are [0, 1/(n h), ..., 1/(n h), 0] at origin lo - h/2: each
    cell's average at the cell's centre, padded by a zero on each side, so
    both jumps fall midway between samples. The histogram is the uniform
    itself, and the convolved cell masses of two such uniforms are the exact
    density of their sum at its knots, times the spacing.
    """
    lo, hi = _as_float(lo, "window ends"), _as_float(hi, "window ends")
    spacing = _check_spacing(spacing)
    n = max(int(round(_grid_cells(lo, hi, spacing))), 1)
    values = np.zeros(n + 2)
    values[1:-1] = 1.0 / (n * spacing)
    return GridDensity(lo - 0.5 * spacing, spacing, values)


def exponential_density(
    rate: float, shift: float = 0.0, spacing: float = DEFAULT_SPACING
) -> GridDensity:
    """Exponential with the given rate, support starting at ``shift``.

    The window ends where the density falls to TRUNCATION_LEVEL times its
    peak, -log(TRUNCATION_LEVEL) means past ``shift`` at every rate. It is at
    least half a spacing wide, so a huge rate gives a one-cell spike that
    needs no room above one ulp of ``shift``. A rate so small that the cut
    overflows the float range is refused by name.
    """
    rate, shift = _as_float(rate, "rate"), _as_float(shift, "shift")
    if not 0.0 < rate < math.inf:
        raise ValueError(f"rate must be positive and finite, got {rate!r}")
    if not math.isfinite(shift):
        raise ValueError(f"shift must be finite, got {shift!r}")
    spacing = _check_spacing(spacing)
    cut = -math.log(TRUNCATION_LEVEL)  # in means
    if not shift + cut / rate < math.inf:
        raise ValueError(f"rate {rate!r} is too small: its cut at {cut:.3g} means overflows the float range")
    hi = max(shift + cut / rate, shift + 0.5 * spacing)

    def fn(x: np.ndarray) -> np.ndarray:
        return rate * np.exp(-rate * (x - shift))

    return from_function(fn, shift, hi, spacing)


def gaussian_mixture_density(
    weights: Sequence[float],
    means: Sequence[float],
    stds: Sequence[float],
    spacing: float = DEFAULT_SPACING,
) -> GridDensity:
    """Convex mixture of Gaussians, each cut where it falls to TRUNCATION_LEVEL times its own peak.

    A component with a std of at least two spacings is sampled at the knots. A narrower one
    is integrated: each knot gets the component's probability over its cell, Phi(b) - Phi(a),
    divided by the spacing, so the component keeps its mixture weight however
    narrow it is or wherever its mean falls between knots. The window is at least half a
    spacing wide, so a std far below the spacing gives the one-cell spike at any mean.
    A std so wide that its cut overflows the float range is refused by name.
    """
    weights = _as_floats(weights, "mixture weights")
    means, stds = _as_floats(means, "means"), _as_floats(stds, "stds")
    if not len(weights) == len(means) == len(stds) or len(weights) == 0:
        raise ValueError("weights, means, stds must have equal positive length")
    cut = math.sqrt(-2.0 * math.log(TRUNCATION_LEVEL))  # in stds
    for w, m, s in zip(weights, means, stds):
        if not w > 0.0:
            raise ValueError(f"mixture weights must be positive, got {w!r}")
        if not (0.0 < s < math.inf and math.isfinite(m)):
            raise ValueError(f"need finite mean and finite std > 0, got {m!r}, {s!r}")
        if not abs(m) + s * cut < math.inf:
            raise ValueError(f"std {s!r} is too wide: its cut at +-{cut:.3g} std overflows the float range")
    total = _left_sum(weights)
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"mixture weights must sum to 1, got {total!r}")
    spacing = _check_spacing(spacing)
    halves = [s * cut for s in stds]
    lo = min(m - h for m, h in zip(means, halves))
    hi = max(max(m + h for m, h in zip(means, halves)), lo + 0.5 * spacing)

    def fn(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        for w, m, s, half in zip(weights, means, stds, halves):
            if s < _CELL_MASS_STDS * spacing:
                _add_cell_masses(out, x, spacing, w, m, s, half)
            else:
                # |x - m| / s < 2^23 on a window of at most MAX_GRID_SAMPLES knots: no overflow;
                # s is at least two normal spacings, so the peak w / (s sqrt(2 pi)) is finite
                out += w * np.exp(-0.5 * ((x - m) / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
        return out

    return from_function(fn, lo, hi, spacing)


def _add_cell_masses(
    out: np.ndarray, xs: np.ndarray, spacing: float, weight: float, mean: float, std: float, half: float
) -> None:
    """Add ``weight`` times the N(mean, std) probability of each cell that meets
    [mean - half, mean + half] to ``out`` at its knot, divided by the spacing.

    Knot k's cell is [xs[k] - spacing/2, xs[k] + spacing/2], and neighbouring cells
    share one computed edge, so no mass falls between them. Each probability is the
    difference of two tails on the cell's side of the mean, from scalar ``math.erfc``.
    """
    first, stop = (int(i) for i in np.searchsorted(xs, (mean - half - spacing, mean + half + spacing)))
    edges = [float(x) - 0.5 * spacing for x in xs[first:stop]] + [float(xs[stop - 1]) + 0.5 * spacing]
    z = [(edge - mean) / std for edge in edges]  # +-inf for a std far below the spacing
    root2 = math.sqrt(2.0)
    for k, a, b in zip(range(first, stop), z, z[1:]):
        if a > 0.0:  # right of the mean: mirror the cell to the left, where the tails are small
            a, b = -b, -a
        mass = 0.5 * (math.erfc(-b / root2) - math.erfc(-a / root2))
        out[k] += weight * mass / spacing


def gaussian_renyi_entropy(order: Order | float, dim: int, det_cov: float) -> float:
    """Closed-form Renyi entropy of a Gaussian with covariance determinant det_cov.

        h_alpha = d log(alpha) / (2 (alpha - 1)) + (1/2) log((2 pi)^d det_cov)

    The first term vanishes at alpha = inf and tends to d/2 as alpha -> 1,
    recovering the Shannon value (1/2) log((2 pi e)^d det_cov).
    """
    order = as_order(order)
    dim = _positive_int(dim, "dimension")
    det_cov = _as_float(det_cov, "covariance determinant")
    if not 0.0 < det_cov < math.inf:
        raise ValueError(f"covariance determinant must be positive and finite, got {det_cov!r}")
    return 0.5 * dim * order.log_alpha_slope + 0.5 * (
        dim * math.log(2.0 * math.pi) + math.log(det_cov)
    )


def renyi_entropy(density: GridDensity, order: Order | float) -> float:
    """Renyi entropy of a grid density's histogram, in nats: exact for it.

    alpha = inf is minus the log of the grid maximum m. Finite alpha takes
    the entropy of the histogram renormalized to unit mass: with r = f/m,
    cell width w, J = sum w r and q = w r / J,

        h = log J - log1p(sum q expm1((alpha - 1) log r)) / (alpha - 1).

    Since r <= 1 no term overflows at any order, and as alpha -> 1 no
    mass error of order 1e-16 is divided by alpha - 1. The terms are
    formed in one array, in place: after the logs, r is scaled in place
    by the spacing, which makes it w r. The weighted sum of the terms is
    numpy's pairwise sum, not a BLAS dot, whose rounding would follow the
    BLAS thread count.
    """
    order = as_order(order)
    peak = float(density.values.max())
    if order.is_infinite:
        return -math.log(peak)
    r = density.values / peak
    # log 0 = -inf, and (alpha - 1) log r overflows to -inf at huge alpha: expm1 is -1 for both
    with np.errstate(divide="ignore", over="ignore"):
        terms = np.log(r)
        terms *= order.alpha - 1.0
        np.expm1(terms, out=terms)
    r *= density.spacing
    mass = float(r.sum())
    terms *= r
    excess = float(terms.sum()) / mass
    return math.log(mass) - math.log1p(excess) / (order.alpha - 1.0)


def entropy_power(density: GridDensity, order: Order | float) -> float:
    """exp(2 h_alpha) of a grid density (grids are one-dimensional)."""
    return power_from_entropy(renyi_entropy(density, order), 1)


def _transform_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: a length numpy's FFT handles quickly."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def convolve_many(densities: Sequence[GridDensity]) -> GridDensity:
    """Histogram of the convolved cell masses of two or more independent summands.

    The exact density of the sum of n histograms is this histogram plus
    n - 1 independent uniforms on one cell, which by Young's inequality
    cannot lower an order-alpha entropy power: the power of the result is
    a lower bound on the sum's. Each summand is transformed once by the
    real FFT, zero-padded to the smallest 5-smooth length that holds the
    full linear convolution; the spectra are multiplied and inverted once.
    Transform roundoff is clipped at 0 and the output is renormalized to
    mass 1, absorbing the mass lost to tail truncation of the inputs. Fewer
    than two summands, summands on different spacings, or a sum of more
    than MAX_GRID_SAMPLES samples are refused before any transform.
    """
    if len(densities) < 2:
        raise ValueError("need at least two densities")
    spacing = densities[0].spacing
    for d in densities[1:]:
        if abs(d.spacing - spacing) > 1e-12 * spacing:
            raise ValueError(f"grids must share spacing, got {spacing!r} and {d.spacing!r}")
    n = sum(d.values.size for d in densities) - (len(densities) - 1)
    if n > MAX_GRID_SAMPLES:
        raise ValueError(f"the sum spans too many grid cells of {spacing!r}: {n} samples")
    size = _transform_length(n)
    spectrum = np.fft.rfft(densities[0].values, size)
    for d in densities[1:]:
        # each product carries one factor of the spacing, so the spectrum
        # keeps the scale of a density whatever the number of summands
        spectrum *= np.fft.rfft(d.values * spacing, size)
    raw = np.fft.irfft(spectrum, size)[:n]
    return _renormalized(_left_sum(d.origin for d in densities), spacing, raw)


@dataclass(frozen=True)
class Certification:
    """Measured entropy power of a sum against the bounds in its ``report``.

    ``ratio`` is N_alpha(sum) / sum_k N_alpha(X_k). Every margin is ratio - constant, with
    the share max_k N_alpha(X_k) / sum_k N_alpha(X_k) as the max-power bound's
    constant, so ``slack`` is one share of the summed powers for all four checks.
    """

    report: BoundReport
    conv_power: float
    slack: float

    @property
    def ratio(self) -> float:
        return self.conv_power / self.report.powers.total

    @property
    def violations(self) -> tuple[str, ...]:
        """Names of the checks whose margin is not >= -slack; a NaN fails."""
        return tuple(name for name, m in self.margins().items() if not m >= -self.slack)

    @property
    def ok(self) -> bool:
        return not self.violations

    def margins(self) -> dict[str, float]:
        return {name: self.ratio - c for name, c in self.report._constants().items()}


def certify(
    densities: Sequence[GridDensity],
    order: Order | float,
    slack: float = 1e-4,
) -> Certification:
    """Convolve the densities and measure every bound on the result.

    Summand powers are exact for the histograms and the sum's is a lower bound
    (:func:`convolve_many`), so a check passing at slack 0 holds for them.
    :func:`convolve_many` runs first, so fewer than two summands or
    mismatched spacings are refused before any entropy is computed. A
    non-finite slack is rejected: NaN or inf would pass every check.
    """
    order = as_order(order)
    slack = _as_float(slack, "slack")
    if not math.isfinite(slack):
        raise ValueError(f"slack must be finite, got {slack!r}")
    total = convolve_many(densities)
    report = bound_report([entropy_power(d, order) for d in densities], order)
    return Certification(report, entropy_power(total, order), slack)


def collision_bound(p_x: float, p_y: float, dim: int) -> float:
    """Upper bound on P(X1 + Y1 = X2 + Y2) from per-coordinate collisions.

    ``p_x`` and ``p_y`` are the per-coordinate collision probabilities of
    two i.i.d. copies of X and of Y. The bound is

        (c (p_x^-2 + p_y^-2))^(-d/2),  c = sharpened_constant(2, 2) = 27/32,

    which improves on the n-free constant 2/e; independent Gaussians attain
    coefficient 1, so 27/32 measures how far the bound is from optimal.
    """
    p_x, p_y = _as_floats((p_x, p_y), "collision probabilities")
    if not 0.0 < p_x <= 1.0 or not 0.0 < p_y <= 1.0:
        raise ValueError(f"collision probabilities must lie in (0, 1], got {p_x!r}, {p_y!r}")
    dim = _positive_int(dim, "dimension")
    c = sharpened_constant(Order(2.0), 2)
    # factored through the smaller probability, so p^-2 cannot overflow, and
    # one base of at most sqrt(16/27) raised to d, so no power can overflow
    lo, hi = sorted((p_x, p_y))
    return (lo / math.sqrt(c * (1.0 + (lo / hi) ** 2))) ** dim


@dataclass(frozen=True)
class CorpusInstance:
    """One randomized certification case: labeled densities plus an order."""

    label: str
    densities: tuple[GridDensity, ...]
    order: Order


#: orders sampled by the random corpus; inf exercises the limit pipeline
CORPUS_ORDERS = (1.1, 2.0, 5.0, math.inf)


def random_corpus(
    seed: int = 1,
    count: int = 200,
    spacing: float = DEFAULT_SPACING,
) -> Iterator[CorpusInstance]:
    """Seeded corpus of mixed-shape instances for certification sweeps.

    Each instance draws 2 to 4 summands among Gaussians, uniforms, shifted
    exponentials and two-component Gaussian mixtures, plus an order from
    ``CORPUS_ORDERS``. Identical seeds yield identical instances. ``seed``
    (an integer from 0 up, not a bool), ``count`` and ``spacing`` are
    checked on the call; instances are drawn lazily, one at a time.
    """
    seed = _seed(seed)
    count = _positive_int(count, "count")
    return _corpus_draws(np.random.default_rng(seed), count, _check_spacing(spacing))


def _corpus_draws(rng: np.random.Generator, count: int, spacing: float) -> Iterator[CorpusInstance]:
    for _ in range(count):
        n = int(rng.integers(2, 5))
        order = Order(float(rng.choice(CORPUS_ORDERS)))
        parts: list[GridDensity] = []
        labels: list[str] = []
        for _ in range(n):
            kind = str(rng.choice(["gauss", "unif", "expo", "mix2"]))
            if kind == "gauss":
                parts.append(
                    gaussian_density(float(rng.uniform(-2, 2)), float(rng.uniform(0.4, 1.6)), spacing)
                )
            elif kind == "unif":
                lo = float(rng.uniform(-2, 0))
                parts.append(uniform_density(lo, lo + float(rng.uniform(0.5, 3.0)), spacing))
            elif kind == "expo":
                parts.append(
                    exponential_density(float(rng.uniform(0.7, 2.5)), float(rng.uniform(-1, 1)), spacing)
                )
            else:
                w = float(rng.uniform(0.25, 0.75))
                parts.append(
                    gaussian_mixture_density(
                        (w, 1.0 - w),
                        (float(rng.uniform(-2.5, 0.0)), float(rng.uniform(0.0, 2.5))),
                        (float(rng.uniform(0.3, 1.2)), float(rng.uniform(0.3, 1.2))),
                        spacing,
                    )
                )
            labels.append(kind)
        yield CorpusInstance("+".join(labels), tuple(parts), order)

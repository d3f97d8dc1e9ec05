"""Numerical certification of the bounds on one-dimensional densities.

Densities live on uniform grids; integrals are trapezoidal. With the
trapezoid weights w the discrete Renyi entropy is
(1/(1-alpha)) log sum_i w_i f_i^alpha, which inherits the exact
monotonicity in alpha of the continuous quantity, so order-related sanity
checks hold to roundoff rather than to quadrature accuracy. Sums of
independent summands are formed by discrete convolution and the measured
entropy power ratio is compared against every constant the package
computes.

Certification here is deliberately one-dimensional. The constants are
dimension free, so d > 1 adds no new content to them; what the grids check
is the analytic machinery feeding those constants.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .bounds import sharpened_constant
from .core import BoundReport, Order, _positive_int, as_order, power_from_entropy
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

#: grid pitch used by every built-in constructor
DEFAULT_SPACING = 2.0 ** -12

#: analytic tails are cut where the density falls below this, then the grid
#: is renormalized
TRUNCATION_LEVEL = 1e-16

#: integral-of-one tolerance enforced on construction
MASS_TOL = 1e-6

#: most samples a constructor puts on one grid (128 MiB of float64)
MAX_GRID_SAMPLES = 2 ** 24


@dataclass(frozen=True, eq=False)
class GridDensity:
    """A probability density sampled on a uniform grid.

    ``values[i]`` belongs to the knot ``origin + i * spacing``: the density
    there for the smooth constructors, and the average of the density over
    the cell of width ``spacing`` centred there for :func:`uniform_density`.
    Values are nonnegative, origin and spacing are finite, and the
    trapezoid integral is 1 within ``MASS_TOL``.
    """

    origin: float
    spacing: float
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=float)
        v.setflags(write=False)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("values must be a 1-d array with at least 2 samples")
        if not np.all(np.isfinite(v)) or float(v.min()) < 0.0:
            raise ValueError("density values must be finite and nonnegative")
        spacing = _check_spacing(self.spacing)
        origin = float(self.origin)
        if not math.isfinite(origin):
            raise ValueError(f"origin must be finite, got {origin!r}")
        mass = float(np.trapezoid(v, dx=spacing))
        if not abs(mass - 1.0) <= MASS_TOL:
            raise ValueError(f"density must integrate to 1, got {mass!r}")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "values", v)

    def xs(self) -> np.ndarray:
        return self.origin + self.spacing * np.arange(self.values.size)

    def integral(self) -> float:
        return float(np.trapezoid(self.values, dx=self.spacing))

    def translated(self, offset: float) -> "GridDensity":
        """The density of X + offset: same samples, shifted origin."""
        return GridDensity(self.origin + float(offset), self.spacing, self.values)

    def scaled(self, factor: float) -> "GridDensity":
        """The density of factor * X for finite factor > 0."""
        factor = float(factor)
        if not 0.0 < factor < math.inf:
            raise ValueError(f"scale factor must be positive and finite, got {factor!r}")
        return GridDensity(self.origin * factor, self.spacing * factor, self.values / factor)

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x", "f"])
            for x, f in zip(self.xs(), self.values):
                writer.writerow([repr(float(x)), repr(float(f))])

    @staticmethod
    def from_csv(path: str) -> "GridDensity":
        xs: list[float] = []
        vals: list[float] = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if header[:2] != ["x", "f"]:
                raise ValueError(f"expected header x,f, got {header!r}")
            for row in filter(None, reader):  # blank lines read as []
                if len(row) < 2:
                    raise ValueError(f"line {reader.line_num}: expected x,f, got {row!r}")
                xs.append(float(row[0]))
                vals.append(float(row[1]))
        if len(xs) < 2:
            raise ValueError("need at least 2 samples")
        steps = np.diff(xs)
        spacing = float(steps[0])
        if not np.allclose(steps, spacing, rtol=1e-9, atol=0.0):
            raise ValueError("grid is not uniform")
        return GridDensity(xs[0], spacing, np.asarray(vals))


def _check_spacing(spacing: float) -> float:
    spacing = float(spacing)
    if not 0.0 < spacing < math.inf:
        raise ValueError(f"spacing must be positive and finite, got {spacing!r}")
    return spacing


def _grid_cells(lo: float, hi: float, spacing: float) -> float:
    """(hi - lo) / spacing for a finite window of at most MAX_GRID_SAMPLES samples."""
    spacing = _check_spacing(spacing)
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"need finite hi > lo, got [{lo!r}, {hi!r}]")
    cells = (hi - lo) / spacing
    if not cells <= MAX_GRID_SAMPLES - 1:
        raise ValueError(f"[{lo!r}, {hi!r}] spans too many grid cells of {spacing!r}")
    return cells


def _renormalized(origin: float, spacing: float, values: np.ndarray) -> GridDensity:
    """The grid density of ``values`` clipped at 0 and scaled to unit trapezoid mass.

    ``values`` must be a fresh array: it is clipped and scaled in place.
    """
    np.maximum(values, 0.0, out=values)
    mass = float(np.trapezoid(values, dx=spacing))
    if mass <= 0.0:
        raise ValueError("density vanishes on its grid")
    values /= mass
    return GridDensity(origin, spacing, values)


def from_function(
    fn: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    spacing: float = DEFAULT_SPACING,
) -> GridDensity:
    """Sample an analytic density on [lo, hi] and renormalize to mass 1."""
    n = int(math.ceil(_grid_cells(lo, hi, spacing)))
    xs = lo + spacing * np.arange(n + 1)
    return _renormalized(lo, spacing, np.array(fn(xs), dtype=float))


def gaussian_density(mean: float, std: float, spacing: float = DEFAULT_SPACING) -> GridDensity:
    """Gaussian sampled out to where the tail drops below TRUNCATION_LEVEL."""
    return gaussian_mixture_density((1.0,), (mean,), (std,), spacing)


def uniform_density(lo: float, hi: float, spacing: float = DEFAULT_SPACING) -> GridDensity:
    """Uniform on [lo, hi], stored as the averages of its n cells.

    The width snaps to the nearest positive multiple n of ``spacing`` = h so
    the grid stays convolvable with every other density at the same spacing.
    The values are [0, 1/(n h), ..., 1/(n h), 0] at origin lo - h/2: each
    cell's average at the cell's centre, padded by a zero on each side, so
    both jumps fall midway between samples. The trapezoid mass and the
    summand's own entropy are exact, and the discrete convolution of two
    such uniforms is the exact density of their sum at its knots.
    """
    n = max(int(round(_grid_cells(lo, hi, spacing))), 1)
    values = np.zeros(n + 2)
    values[1:-1] = 1.0 / (n * spacing)
    return GridDensity(lo - 0.5 * spacing, spacing, values)


def exponential_density(
    rate: float, shift: float = 0.0, spacing: float = DEFAULT_SPACING
) -> GridDensity:
    """Exponential with the given rate, support starting at ``shift``.

    The window ends where the density falls to TRUNCATION_LEVEL, at least
    one mean past ``shift``; it is formed from logarithms, so a huge rate
    gives a one-cell spike instead of an overflow. It is at least half a
    spacing wide, so that spike needs no room above one ulp of ``shift``.
    """
    if not 0.0 < rate < math.inf:
        raise ValueError(f"rate must be positive and finite, got {rate!r}")
    if not math.isfinite(shift):
        raise ValueError(f"shift must be finite, got {shift!r}")
    tail = max(math.log(rate) - math.log(TRUNCATION_LEVEL), 1.0) / rate
    # a tail below one ulp of shift would collapse the window to a point;
    # from_function rounds half a spacing up to one grid cell
    hi = max(shift + tail, shift + 0.5 * spacing)

    def fn(x: np.ndarray) -> np.ndarray:
        return rate * np.exp(-rate * (x - shift))

    return from_function(fn, shift, hi, spacing)


def gaussian_mixture_density(
    weights: Sequence[float],
    means: Sequence[float],
    stds: Sequence[float],
    spacing: float = DEFAULT_SPACING,
) -> GridDensity:
    """Convex mixture of Gaussians, each cut where its tail falls below TRUNCATION_LEVEL.

    The window is at least half a spacing wide, so a std far below one ulp
    of its mean gives the same one-cell spike as at mean 0.
    """
    if not len(weights) == len(means) == len(stds) or len(weights) == 0:
        raise ValueError("weights, means, stds must have equal positive length")
    for w, m, s in zip(weights, means, stds):
        if not w > 0.0:
            raise ValueError(f"mixture weights must be positive, got {w!r}")
        if not (0.0 < s < math.inf and math.isfinite(m)):
            raise ValueError(f"need finite mean and finite std > 0, got {m!r}, {s!r}")
    if not abs(sum(weights) - 1.0) <= 1e-9:
        raise ValueError(f"mixture weights must sum to 1, got {sum(weights)!r}")
    log_peak_cut = -math.log(TRUNCATION_LEVEL * math.sqrt(2.0 * math.pi))
    halves = [
        s * math.sqrt(2.0 * max(log_peak_cut + math.log(w) - math.log(s), 1.0))
        for w, s in zip(weights, stds)
    ]
    lo = min(m - h for m, h in zip(means, halves))
    hi = max(max(m + h for m, h in zip(means, halves)), lo + 0.5 * spacing)

    def fn(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        with np.errstate(over="ignore"):  # a std far below the spacing: exp(-inf) = 0 is right
            for w, m, s in zip(weights, means, stds):
                out += w * np.exp(-0.5 * ((x - m) / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
        return out

    return from_function(fn, lo, hi, spacing)


def gaussian_renyi_entropy(order: Order | float, dim: int, det_cov: float) -> float:
    """Closed-form Renyi entropy of a Gaussian with covariance determinant det_cov.

        h_alpha = d log(alpha) / (2 (alpha - 1)) + (1/2) log((2 pi)^d det_cov)

    The first term vanishes at alpha = inf and tends to d/2 as alpha -> 1,
    recovering the Shannon value (1/2) log((2 pi e)^d det_cov).
    """
    order = as_order(order)
    dim = _positive_int(dim, "dimension")
    if not 0.0 < det_cov < math.inf:
        raise ValueError(f"covariance determinant must be positive and finite, got {det_cov!r}")
    return 0.5 * dim * order.log_alpha_slope() + 0.5 * (
        dim * math.log(2.0 * math.pi) + math.log(det_cov)
    )


def renyi_entropy(density: GridDensity, order: Order | float) -> float:
    """Renyi entropy of a grid density, in nats.

    alpha = inf is minus the log of the grid maximum m. Finite alpha takes
    the entropy of the grid density renormalized to unit trapezoid mass:
    with r = f/m, trapezoid weights w, J = sum w r and q = w r / J,

        h = log J - log1p(sum q expm1((alpha - 1) log r)) / (alpha - 1).

    Since r <= 1 no term overflows at any order, and as alpha -> 1 no
    mass error of order 1e-16 is divided by alpha - 1. No weight array is
    built: after the logs, r is scaled in place by the spacing and its two
    end entries are halved, which makes it w r.
    """
    order = as_order(order)
    peak = float(density.values.max())
    if order.is_infinite:
        return -math.log(peak)
    r = density.values / peak
    # log 0 = -inf, and (alpha - 1) log r overflows to -inf at huge alpha: expm1 is -1 for both
    with np.errstate(divide="ignore", over="ignore"):
        terms = np.expm1((order.alpha - 1.0) * np.log(r))
    r *= density.spacing
    r[[0, -1]] *= 0.5
    mass = float(r.sum())
    excess = float(np.dot(r, terms)) / mass
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
    """Density of the sum of two or more independent summands on one grid.

    Each summand is transformed once by the real FFT, zero-padded to the
    smallest 5-smooth length that holds the full linear convolution; the
    spectra are multiplied and inverted once. Transform roundoff is clipped
    at 0 and the output is renormalized to mass 1, absorbing the mass lost
    to tail truncation of the inputs. Fewer than two summands, or summands
    on different spacings, are refused before any transform.
    """
    if len(densities) < 2:
        raise ValueError("need at least two densities")
    spacing = densities[0].spacing
    for d in densities[1:]:
        if abs(d.spacing - spacing) > 1e-12 * spacing:
            raise ValueError(f"grids must share spacing, got {spacing!r} and {d.spacing!r}")
    n = sum(d.values.size for d in densities) - (len(densities) - 1)
    size = _transform_length(n)
    spectrum = np.fft.rfft(densities[0].values, size)
    for d in densities[1:]:
        # each product carries one factor of the spacing, so the spectrum
        # keeps the scale of a density whatever the number of summands
        spectrum *= np.fft.rfft(d.values * spacing, size)
    raw = np.fft.irfft(spectrum, size)[:n]
    return _renormalized(sum(d.origin for d in densities), spacing, raw)


@dataclass(frozen=True)
class Certification:
    """Measured entropy power of a sum against the bounds in its ``report``.

    ``ratio`` is N_alpha(sum) / sum_k N_alpha(X_k). Constants are checked as
    ratio >= constant - slack, the max-power bound as conv_power >= bv - slack.
    """

    report: BoundReport
    conv_power: float
    slack: float

    @property
    def ratio(self) -> float:
        return self.conv_power / self.report.powers.total

    def _checks(self) -> dict[str, tuple[float, float]]:
        """Each check as (measured, bound): the ratio per constant, conv_power for bv."""
        r, ratio = self.report, self.ratio
        checks = {name: (ratio, getattr(r, name)) for name in ("bc", "sharpened", "optimized")}
        return {**checks, "bv": (self.conv_power, r.bv)}

    @property
    def violations(self) -> tuple[str, ...]:
        """Names of the checks that fail by more than the slack."""
        return tuple(name for name, (x, b) in self._checks().items() if x < b - self.slack)

    @property
    def ok(self) -> bool:
        return not self.violations

    def margins(self) -> dict[str, float]:
        return {name: x - b for name, (x, b) in self._checks().items()}


def certify(
    densities: Sequence[GridDensity],
    order: Order | float,
    slack: float = 1e-4,
) -> Certification:
    """Convolve the densities and measure every bound on the result.

    :func:`convolve_many` runs first, so fewer than two summands or
    mismatched spacings are refused before any entropy is computed. A
    non-finite slack is rejected: NaN or inf would pass every check.
    """
    order = as_order(order)
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
    if not 0.0 < p_x <= 1.0 or not 0.0 < p_y <= 1.0:
        raise ValueError(f"collision probabilities must lie in (0, 1], got {p_x!r}, {p_y!r}")
    dim = _positive_int(dim, "dimension")
    c = sharpened_constant(Order(2.0), 2)
    # factored through the smaller probability, so p^-2 cannot overflow
    lo, hi = sorted((p_x, p_y))
    return lo ** dim * (c * (1.0 + (lo / hi) ** 2)) ** (-dim / 2.0)


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
    ``CORPUS_ORDERS``. Identical seeds yield identical instances. ``count``
    and ``spacing`` are checked on the call; instances are drawn lazily,
    one at a time.
    """
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

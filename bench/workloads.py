"""The four workloads: seeded inputs, the timed operation, its traced
decomposition and the output check.

Each workload yields its inputs in blocks; the runner checks a block's
outputs after the block, outside the timed region. The sizes that set an
operation's cost follow a low-discrepancy sequence with a seeded start,
and orders and kinds follow a fixed pattern, so every prefix of a run
covers the size range evenly: two seeds differ in the draws, not in the
mix, and the percentiles do not jump between seeds.

A workload's ``traced`` method performs the same work as ``op`` but calls
the layers one public function at a time, inside spans. It mirrors the
package code as of this benchmark's writing: ``certify`` and ``cmd_verify``
for ``corpus``, ``bound_report`` for ``solver`` and the ``cmd_*`` bodies
for ``cli``. ``test_bench.py`` pins that the two paths give the same
output, so a change to those functions shows up there first.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from repi import (
    BoundReport,
    Order,
    as_order,
    as_power_vector,
    bc_constant,
    bound_report,
    bv_bound,
    convolve_many,
    entropy_power,
    log_constant,
    max_eigenvalue,
    optimal_weights,
    optimized_constant,
    random_corpus,
    reduced_hessian,
    secular_max_eigenvalue,
    sharpened_constant,
)
from repi import cli

#: relative tolerance of the bound-ordering checks, as in ``BoundReport``
ORDER_TOL = 1e-9

#: per-summand gradients at the optimum must agree to this (finite orders)
STATIONARITY_TOL = 1e-9

#: concavity: the reduced Hessian's top eigenvalue stays below this
EIGENVALUE_TOL = 1e-10

#: ``repi verify``'s default slack
SLACK = 1e-4

ORDERS = (1.1, 2.0, 5.0, math.inf)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


#: steps of the low-discrepancy sequences (golden ratio and silver ratio,
#: fractional parts); distinct so that two sequences stay independent
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SILVER = math.sqrt(2.0) - 1.0


def _even(rng: np.random.Generator, step: float = GOLDEN):
    """Points of [0, 1): a seeded start, then steps of an irrational ``step``.

    Any run of consecutive points covers the interval nearly evenly, far
    more so than independent uniform draws.
    """
    u = float(rng.uniform())
    while True:
        yield u
        u = (u + step) % 1.0


def _read(path: str) -> str:
    with open(path, newline="") as fh:
        return fh.read()


def parse_rows(text: str, fmt: str, command: str) -> list[tuple]:
    """Rows (alpha, method, value, n) of a CLI output; raises ValueError if malformed."""
    if fmt == "json":
        doc = json.loads(text)
        if doc.get("command") != command or doc.get("columns") != list(cli.COLUMNS):
            raise ValueError("unexpected JSON header")
        return [
            (
                None if r["alpha"] is None else float(r["alpha"]),
                r["method"],
                float(r["value"]),
                r["n"],
            )
            for r in doc["rows"]
        ]
    lines = list(csv.reader(text.splitlines()))
    if not lines or lines[0] != list(cli.COLUMNS):
        raise ValueError("unexpected CSV header")
    rows = []
    for line in lines[1:]:
        if len(line) != 4:
            raise ValueError(f"bad CSV row {line!r}")
        alpha, method, value, n = line
        rows.append(
            (float(alpha) if alpha else None, method, float(value), int(n) if n else None)
        )
    return rows


def _ordered(lower: float, upper: float) -> bool:
    """lower <= upper up to the relative tolerance ``BoundReport`` uses."""
    return lower <= upper + ORDER_TOL * max(1.0, abs(upper))


class Workload:
    """What the runner needs of a workload; see the module docstring."""

    #: kind of reference kernel whose speed the workload's code follows
    reference = "interpreter"

    def units(self, item) -> int:
        """Operations one item stands for in ``attempted`` and ``throughput``."""
        return 1

    def warmup(self, seed: int) -> tuple[int, int]:
        """One checked operation outside the timed phase: (attempted, failed)."""
        item = next(iter(self.blocks(seed)))[0]
        return 1, self.check(item, self.op(item))


# --- corpus ----------------------------------------------------------------


def check_corpus(code: int, text: str, count: int) -> int:
    """Failed instances in one ``repi verify`` batch.

    Exit code 0, ``2 count + 1`` rows, a ratio and a margin row per
    instance with the margin at least ``-SLACK``, and a zero violation
    count. A malformed batch fails every instance.
    """
    try:
        rows = parse_rows(text, "csv", "verify")
    except ValueError:
        return count
    if code != 0 or len(rows) != 2 * count + 1 or rows[-1] != (None, "violations", 0.0, None):
        return count
    failed = 0
    for ratio, margin in zip(rows[0:-1:2], rows[1:-1:2]):
        if (
            ratio[1] != "ratio"
            or margin[1] != "margin"
            or not ratio[2] > 0.0
            or not margin[2] >= -SLACK
        ):
            failed += 1
    return failed


def check_anchor(text: str, target: float, tol: float) -> bool:
    """A built-in pair certifies and its measured ratio sits within tol of target."""
    try:
        rows = parse_rows(text, "csv", "verify")
    except ValueError:
        return False
    return (
        len(rows) == 3
        and rows[0][1] == "ratio"
        and abs(rows[0][2] - target) <= tol
        and rows[1][2] >= -SLACK
        and rows[2][2] == 0.0
    )


class Corpus(Workload):
    """``repi verify`` on seeded random corpora, in process, one batch per op."""

    name = "corpus"
    reference = "array"

    def __init__(self, out_dir: str, count: int = 50) -> None:
        self.count = count
        self.path = os.path.join(out_dir, "corpus.csv")

    def units(self, item) -> int:
        return self.count

    def blocks(self, seed: int):
        rng = _rng(seed, 1)
        while True:
            yield [int(rng.integers(1, 2**31))]

    def argv(self, corpus_seed: int) -> list[str]:
        return ["verify", "--seed", str(corpus_seed), "--count", str(self.count), "--out", self.path]

    def op(self, corpus_seed: int) -> tuple[int, str]:
        code = cli.main(self.argv(corpus_seed))
        return code, _read(self.path)

    def check(self, corpus_seed: int, out: tuple[int, str]) -> int:
        return check_corpus(out[0], out[1], self.count)

    def warmup(self, seed: int) -> tuple[int, int]:
        """The pinned anchors: two uniforms at inf give 1/2, two Gaussians give 1."""
        failed = 0
        for corpus, alpha, target, tol in (
            ("two-uniforms", "inf", 0.5, 1e-3),
            ("two-gaussians", "2", 1.0, 1e-4),
        ):
            code = cli.main(["verify", "--corpus", corpus, "--alpha", alpha, "--out", self.path])
            failed += code != 0 or not check_anchor(_read(self.path), target, tol)
        return 2, failed

    def traced(self, corpus_seed: int, tr) -> tuple[int, str]:
        """``cmd_verify`` with ``certify`` split into its stages."""
        with tr.span("cli.parse"):
            args = cli.build_parser().parse_args(self.argv(corpus_seed))
        with tr.span("verify.construct"):
            instances = iter(random_corpus(args.seed, args.count))
        rows = []
        violations = 0
        while True:
            with tr.span("verify.construct"):
                inst = next(instances, None)
            if inst is None:
                break
            tr.op += 1
            tr.count("verify.instances")
            tr.count("verify.instance_bytes", sum(d.values.nbytes for d in inst.densities))
            n = len(inst.densities)
            with tr.span("verify.certify"):
                powers = []
                for d in inst.densities:
                    with tr.span("verify.entropy"):
                        powers.append(entropy_power(d, inst.order))
                with tr.span("verify.convolve"):
                    total_density = convolve_many(inst.densities)
                tr.count("verify.convolve_samples", sum(d.values.size for d in inst.densities))
                with tr.span("verify.entropy"):
                    conv_power = entropy_power(total_density, inst.order)
                with tr.span("bounds.constants"):
                    constants = [bc_constant(inst.order), sharpened_constant(inst.order, n)]
                tr.count("bounds.constants", 2)
                with tr.span("optimizer.weights"):
                    constants.append(optimized_constant(powers, inst.order))
                tr.count("optimizer.ratios", n)
                ratio = conv_power / sum(powers)
                margin = min([ratio - c for c in constants] + [conv_power - max(powers)])
            violations += margin < -args.slack
            rows.append((inst.order.alpha, "ratio", ratio, n))
            rows.append((inst.order.alpha, "margin", margin, n))
        rows.append((None, "violations", float(violations), None))
        with tr.span("cli.write"):
            with open(args.out, "w", newline="") as fh:
                cli.write_csv(rows, fh)
        return (1 if violations else 0), _read(self.path)


# --- solver ----------------------------------------------------------------


def kernel_gradient(weight: float, power: float, order: Order, total: float) -> float:
    """Per-summand gradient of the weight objective; equal across summands at the optimum."""
    ac = order.alpha_conj
    return -math.log1p(-weight / ac) - math.log(weight) - 2.0 + math.log(power / total)


def check_report(report: BoundReport) -> bool:
    """The ordering bc <= sharpened <= optimized <= 1, optimized * total >= bv,
    weights on the simplex, and at finite orders equal per-summand gradients."""
    total = report.powers.total
    if not (
        _ordered(report.bc, report.sharpened)
        and _ordered(report.sharpened, report.optimized)
        and _ordered(report.optimized, 1.0)
        and _ordered(report.bv, report.optimized * total)
        and abs(sum(report.weights) - 1.0) <= 1e-10
    ):
        return False
    if report.order.is_infinite:
        return True
    grads = [
        kernel_gradient(t, p, report.order, total)
        for t, p in zip(report.weights, report.powers)
        if t > 1e-12 and p > 0.0
    ]
    return max(grads) - min(grads) <= STATIONARITY_TOL


class Solver(Workload):
    """``bound_report`` on seeded power vectors, n log-uniform in [2, 1000].

    The orders cycle through 1.1, 2, 5 and inf. Every fourth vector of each
    order has a dominant lead (the others sum to less than the largest
    power), so at alpha = inf both the endpoint and the interior-hump branch
    run. One vector in sixteen of the others, with n >= 3, has 1 to 3 zero
    powers.
    """

    name = "solver"
    BLOCK = 64

    def blocks(self, seed: int):
        rng = _rng(seed, 2)
        sizes = _even(rng)
        k = 0
        while True:
            block = []
            for _ in range(self.BLOCK):
                n = int(round(2.0 * 500.0 ** next(sizes)))
                powers = np.exp(rng.uniform(-3.0, 3.0, n))
                if (k // len(ORDERS)) % 4 == 0:
                    powers[0] = (1.0 + rng.uniform(0.05, 1.0)) * powers[1:].sum()
                    powers = rng.permutation(powers)
                elif n >= 3 and rng.uniform() < 1.0 / 16.0:
                    others = np.delete(np.arange(n), int(np.argmax(powers)))
                    zeroed = rng.choice(others, size=int(rng.integers(1, min(3, n - 2) + 1)), replace=False)
                    powers[zeroed] = 0.0
                block.append((tuple(float(p) for p in powers), ORDERS[k % len(ORDERS)]))
                k += 1
            yield block

    def op(self, item) -> BoundReport:
        powers, alpha = item
        return bound_report(powers, alpha)

    def check(self, item, report: BoundReport) -> int:
        return 0 if check_report(report) else 1

    def traced(self, item, tr) -> BoundReport:
        """``bound_report`` one call at a time."""
        powers, alpha = item
        with tr.span("core.validate"):
            order = as_order(alpha)
            pv = as_power_vector(powers)
        with tr.span("optimizer.weights"):
            weights = optimal_weights(pv, order)
        tr.count("optimizer.ratios", len(pv))
        with tr.span("bounds.constants"):
            bc = bc_constant(order)
            sharpened = sharpened_constant(order, len(pv))
        tr.count("bounds.constants", 2)
        with tr.span("bounds.log_constant"):
            optimized = math.exp(log_constant(weights, pv.normalized(), order))
        with tr.span("core.validate"):
            return BoundReport(
                order=order,
                powers=pv,
                bc=bc,
                sharpened=sharpened,
                optimized=optimized,
                bv=pv.largest,
                weights=weights,
            )


# --- cli -------------------------------------------------------------------

#: the 200-point order grid of the compare and constants commands
GRID = "1.01:10000:200"
GRID_SIZE = 200
FILTER_ORDERS = ("1.5", "2", "5", "inf")


def check_cli(kind: str, params: dict, code: int, text: str, fmt: str) -> bool:
    """Exit code 0, the output parses, and rows come in the expected count and order."""
    if code != 0:
        return False
    try:
        rows = parse_rows(text, fmt, kind)
    except (ValueError, KeyError, TypeError):
        return False
    if kind == "compare":
        return _check_compare(rows, params["powers"])
    if kind == "constants":
        return _check_constants(rows, params["ns"])
    return _check_filter(rows, params["dim"], params["alpha"])


def _check_compare(rows: list, powers: tuple) -> bool:
    n = len(powers)
    total = sum(powers)
    if len(rows) != 4 * GRID_SIZE:
        return False
    previous = 1.0
    for i in range(0, len(rows), 4):
        group = rows[i : i + 4]
        if [r[1] for r in group] != ["bc", "sharpened", "optimized", "bv"]:
            return False
        alpha = group[0][0]
        if any(r[0] != alpha or r[3] != n for r in group) or not alpha > previous:
            return False
        previous = alpha
        bc, sharpened, optimized, bv = (r[2] for r in group)
        if not (
            _ordered(bc, sharpened)
            and _ordered(sharpened, optimized)
            and _ordered(optimized, total)
            and _ordered(bv, optimized)
            and bv == max(powers)
        ):
            return False
    return True


def _check_constants(rows: list, ns: tuple) -> bool:
    width = len(ns) + 1
    if len(rows) != width * GRID_SIZE:
        return False
    previous = 1.0
    for i in range(0, len(rows), width):
        group = rows[i : i + width]
        methods = [r[1] for r in group]
        alpha = group[0][0]
        if methods != ["sharpened"] * len(ns) + ["bc"] or not alpha > previous:
            return False
        if any(r[0] != alpha for r in group) or [r[3] for r in group] != list(ns) + [None]:
            return False
        previous = alpha
        values = [r[2] for r in group]
        # the n-aware constant falls with n towards the n-free one, from at most 1
        if not _ordered(values[0], 1.0) or not all(
            _ordered(b, a) for a, b in zip(values, values[1:])
        ):
            return False
    return True


def _check_filter(rows: list, dim: int, alpha: float) -> bool:
    methods = ["optimized", "sharpened", "bc", "bv"] + (["gaussian"] if dim == 1 else [])
    if [r[1] for r in rows] != methods or any(r[0] != alpha or r[3] is not None for r in rows):
        return False
    value = {r[1]: r[2] for r in rows}
    return (
        _ordered(value["bc"], value["sharpened"])
        and _ordered(value["sharpened"], value["optimized"])
        and _ordered(value["bv"], value["optimized"])
        and (dim != 1 or _ordered(value["optimized"], value["gaussian"]))
    )


class Cli(Workload):
    """In-process ``repi`` calls writing to a file, CSV and JSON alternating.

    A block holds 14 ``compare`` (2 to 10 powers over the 200-point grid),
    2 ``constants`` (several n over the same grid) and 4 ``filter`` calls
    (1 to 8 taps, d in 1..3), shuffled. Compare stays above half the calls:
    with a third each, the median fell on the constants/compare boundary
    and jumped between identical runs.
    """

    name = "cli"

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir

    def blocks(self, seed: int):
        rng = _rng(seed, 3)
        sizes = _even(rng)
        while True:
            items = []
            for i in range(14):
                n = 2 + int(9 * next(sizes))
                powers = tuple(float(p) for p in np.exp(rng.uniform(-3.0, 3.0, n)))
                argv = ["compare", "--powers", ",".join(map(repr, powers)), "--alpha-grid", GRID]
                items.append(("compare", argv, {"powers": powers}, i % 2))
            for i in range(2):
                k = int(rng.integers(2, 6))
                ns = tuple(sorted({int(round(v)) for v in np.exp(rng.uniform(0.0, math.log(1000), k))}))
                argv = ["constants", "--alpha-grid", GRID, "--n", ",".join(map(str, ns))]
                items.append(("constants", argv, {"ns": ns}, i % 2))
            for i in range(4):
                taps = np.exp(rng.uniform(-1.5, 1.5, int(rng.integers(1, 9))))
                taps *= rng.choice((-1.0, 1.0), size=taps.size)
                dim = int(rng.integers(1, 4))
                alpha = FILTER_ORDERS[int(rng.integers(len(FILTER_ORDERS)))]
                argv = [
                    "filter",
                    "--taps=" + ",".join(repr(float(t)) for t in taps),
                    "--dim",
                    str(dim),
                    "--alpha",
                    alpha,
                ]
                items.append(("filter", argv, {"dim": dim, "alpha": float(alpha)}, i % 2))
            block = []
            for j in rng.permutation(len(items)):
                kind, argv, params, json_out = items[j]
                fmt = "json" if json_out else "csv"
                path = os.path.join(self.out_dir, f"cli-{len(block)}.{fmt}")
                block.append((kind, argv + ["--format", fmt, "--out", path], params, fmt, path))
            yield block

    def op(self, item) -> tuple[int, str]:
        kind, argv, params, fmt, path = item
        code = cli.main(argv)
        return code, _read(path)

    def check(self, item, out: tuple[int, str]) -> int:
        kind, argv, params, fmt, path = item
        return 0 if check_cli(kind, params, out[0], out[1], fmt) else 1

    def traced(self, item, tr) -> tuple[int, str]:
        """``cli.main`` with parsing, each ``cmd_*`` body and the writer apart."""
        kind, argv, params, fmt, path = item
        with tr.span("cli.parse"):
            args = cli.build_parser().parse_args(argv)
            if kind == "compare":
                spec = cli.SweepSpec(
                    alphas=cli._parse_alpha_grid(args.alpha_grid),
                    powers=cli._parse_floats(args.powers, "powers"),
                )
            elif kind == "constants":
                spec = cli.SweepSpec(
                    alphas=cli._parse_alpha_grid(args.alpha_grid),
                    ns=cli._parse_ints(args.n, "summand counts"),
                )
            else:
                taps = cli._parse_floats(args.taps, "taps")
                alpha = cli._parse_alpha(args.alpha)
        with tr.span("cli.compute"):
            if kind == "compare":
                rows = self._compare(spec, tr)
            elif kind == "constants":
                rows = self._constants(spec, tr)
            else:
                with tr.span("filters.bounds"):
                    rows = cli.cmd_filter(taps, args.dim, alpha)
        with tr.span("cli.write"):
            with open(args.out, "w", newline="") as fh:
                if fmt == "csv":
                    cli.write_csv(rows, fh)
                else:
                    cli.write_json(rows, fh, kind)
        return 0, _read(path)

    @staticmethod
    def _compare(spec, tr) -> list:
        with tr.span("core.validate"):
            pv = as_power_vector(spec.powers)
        total = pv.total
        n = len(pv)
        rows = []
        for alpha in spec.alphas:
            with tr.span("bounds.constants"):
                bc = bc_constant(alpha)
                sharpened = sharpened_constant(alpha, n)
                bv = bv_bound(pv)
            tr.count("bounds.constants", 3)
            with tr.span("optimizer.weights"):
                optimized = optimized_constant(pv, alpha)
            tr.count("optimizer.ratios", n)
            rows.append((alpha, "bc", bc * total, n))
            rows.append((alpha, "sharpened", sharpened * total, n))
            rows.append((alpha, "optimized", optimized * total, n))
            rows.append((alpha, "bv", bv, n))
        return rows

    @staticmethod
    def _constants(spec, tr) -> list:
        rows = []
        for alpha in spec.alphas:
            with tr.span("bounds.constants"):
                for n in spec.ns:
                    rows.append((alpha, "sharpened", sharpened_constant(alpha, n), n))
                rows.append((alpha, "bc", bc_constant(alpha), None))
            tr.count("bounds.constants", len(spec.ns) + 1)
        return rows


# --- hessian ---------------------------------------------------------------


#: smallest Hessian weight, as in the package's own Hessian sweep. Below
#: about 3e-4 the dense route drifts from the secular one by more than
#: ROUTE_AGREEMENT and max_eigenvalue raises; test_bench.py pins a case.
WEIGHT_FLOOR = 1e-3


def check_top_eigenvalue(top: float) -> bool:
    """Concavity: the reduced Hessian's largest eigenvalue is finite and <= 1e-10."""
    return math.isfinite(top) and top <= EIGENVALUE_TOL


class Hessian(Workload):
    """``max_eigenvalue(reduced_hessian(w[:-1], order))`` at seeded interior weights.

    The size is log-uniform in 1..63 and the conjugate uniform in
    (1.05, 2). Weights are uniform on the part of the simplex where every
    weight is at least ``WEIGHT_FLOOR``.
    """

    name = "hessian"
    BLOCK = 32

    def blocks(self, seed: int):
        rng = _rng(seed, 4)
        sizes, conjugates = _even(rng), _even(rng, SILVER)
        while True:
            block = []
            for _ in range(self.BLOCK):
                m = int(round(63.0 ** next(sizes)))
                conj = 1.05 + 0.95 * next(conjugates)
                weights = WEIGHT_FLOOR + (1.0 - (m + 1) * WEIGHT_FLOOR) * rng.dirichlet(np.ones(m + 1))
                block.append((tuple(float(t) for t in weights[:-1]), Order(conj / (conj - 1.0))))
            yield block

    def op(self, item) -> float:
        head, order = item
        return max_eigenvalue(reduced_hessian(head, order))

    def check(self, item, top: float) -> int:
        return 0 if check_top_eigenvalue(top) else 1

    def traced(self, item, tr) -> float:
        head, order = item
        with tr.span("diagnostics.hessian"):
            matrix = reduced_hessian(head, order)
        with tr.span("diagnostics.max_eigenvalue"):
            top = max_eigenvalue(matrix)
        # timed apart so that diagnostics.dense_ms can be split off
        with tr.span("diagnostics.secular"):
            secular_max_eigenvalue(matrix)
        return top


def make(name: str, out_dir: str):
    """The workload called ``name``, writing CLI output under ``out_dir``."""
    if name == "corpus":
        return Corpus(out_dir)
    if name == "solver":
        return Solver()
    if name == "cli":
        return Cli(out_dir)
    if name == "hessian":
        return Hessian()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("corpus", "solver", "cli", "hessian")

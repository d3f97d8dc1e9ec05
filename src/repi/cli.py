"""Command line front end.

Four subcommands, one output shape. Every command emits rows with the
columns (alpha, method, value, n); fields that do not apply stay empty in
CSV and null in JSON. alpha = inf is spelled "inf" both on the command
line and in the output. Identical invocations produce byte-identical
output. Exit codes: 0 on success, 1 when verification reports a
violation, 2 on usage errors.

    repi constants --alpha-grid 1.5,2,inf --n 2,3
    repi compare --powers 10,20,90 --alpha-grid 1.01:10000:200
    repi filter --taps 2,-1,-1 --dim 1 --alpha 2
    repi verify --corpus two-uniforms --alpha inf
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from typing import IO, Sequence

import numpy as np

from .bounds import bc_constant, sharpened_constant
from .core import Order, _positive_int, as_power_vector, holder_conjugate
from .filters import FilterSpec, filter_bounds, gaussian_reference
from .optimizer import bound_reports
from .verify import certify, gaussian_density, random_corpus, uniform_density

__all__ = ["SweepSpec", "main", "entry"]

COLUMNS = ("alpha", "method", "value", "n")

#: row = (alpha or None, method, value, n or None)
Row = tuple

#: most orders a start:stop:count grid may hold
MAX_GRID_ORDERS = 2 ** 12

#: most cells, orders x max(summand counts, powers), a table may hold;
#: compare peaks near 7 float64 arrays of that size, 224 MiB at the cap
MAX_TABLE_CELLS = 2 ** 22


@dataclass(frozen=True)
class SweepSpec:
    """Parsed sweep parameters shared by the table-producing commands.

    The order grid must be non-empty, strictly increasing and entirely
    above 1; summand counts must be positive integers up to 2**53; the
    table must hold at most MAX_TABLE_CELLS cells. ``orders`` holds one
    :class:`Order` per entry of ``alphas``, built once here.
    """

    alphas: tuple[float, ...]
    ns: tuple[int, ...] = ()
    powers: tuple[float, ...] = ()
    orders: tuple[Order, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.alphas:
            raise ValueError("empty order grid")
        object.__setattr__(self, "orders", tuple(Order(a) for a in self.alphas))
        if any(b <= a for a, b in zip(self.alphas, self.alphas[1:])):
            raise ValueError("order grid must be strictly increasing")
        for n in self.ns:
            _positive_int(n, "summand count")
        cells = len(self.alphas) * max(len(self.ns), len(self.powers))
        if cells > MAX_TABLE_CELLS:
            raise ValueError(
                f"tables hold at most {MAX_TABLE_CELLS} cells"
                f" (orders x powers or counts), got {cells}"
            )


def _parse_alpha(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"cannot parse order {text!r}")
    holder_conjugate(value)  # raises unless alpha > 1
    return value


def _parse_alpha_grid(text: str) -> tuple[float, ...]:
    """Comma list of orders, or start:stop:count for a geometric grid."""
    if ":" in text:
        try:  # three fields, the last an integer
            start_text, stop_text, count_text = text.split(":")
            count = int(count_text)
        except ValueError:
            raise ValueError(f"grid syntax is start:stop:count, got {text!r}") from None
        start, stop = _parse_alpha(start_text), _parse_alpha(stop_text)
        if math.isinf(start) or math.isinf(stop) or count < 2:
            raise ValueError(f"geometric grids need finite ends and count >= 2, got {text!r}")
        if count > MAX_GRID_ORDERS:
            raise ValueError(f"geometric grids hold at most {MAX_GRID_ORDERS} orders, got {count}")
        return tuple(float(a) for a in np.geomspace(start, stop, count))
    return _parse_floats(text, "order grid")


def _parse_list(text: str, what: str, kind: type) -> tuple:
    """Comma list of ``kind`` values; blank entries are skipped."""
    try:
        vals = tuple(kind(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ValueError(f"cannot parse {what} {text!r}")
    if not vals:
        raise ValueError(f"empty {what}")
    return vals


_parse_floats = functools.partial(_parse_list, kind=float)
_parse_ints = functools.partial(_parse_list, kind=int)


def _fmt_alpha(alpha: float | None) -> str:
    if alpha is None:
        return ""
    return "inf" if math.isinf(alpha) else repr(float(alpha))


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value: float) -> str:
    """A float as ``json.dump`` spells it: its repr, or NaN, Infinity, -Infinity."""
    text = repr(float(value))
    return _JSON_NONFINITE.get(text, text)


#: the columns member and one row object, at the depth and with the
#: separators of json.dump(indent=2)
_JSON_COLUMNS = '  "columns": [\n' + ",\n".join(f'    "{c}"' for c in COLUMNS) + "\n  ],\n"
_JSON_ROW = "    {\n" + ",\n".join(f'      "{c}": %s' for c in COLUMNS) + "\n    }"


def write_csv(rows: Sequence[Row], out: IO[str]) -> None:
    out.write(",".join(COLUMNS) + "\n")
    for alpha, method, value, n in rows:
        out.write(
            f"{_fmt_alpha(alpha)},{method},{repr(float(value))},"
            f"{'' if n is None else n}\n"
        )


def write_json(rows: Sequence[Row], out: IO[str], command: str) -> None:
    """The document {command, columns, rows} as ``json.dump(doc, out, indent=2)``
    writes it, byte for byte, then a newline, in one write.

    alpha = inf is the string "inf"; a missing alpha or n is null.
    """
    body = ",\n".join(
        _JSON_ROW
        % (
            "null" if alpha is None else '"inf"' if math.isinf(alpha) else _json_float(alpha),
            _json_str(method),
            _json_float(value),
            "null" if n is None else repr(int(n)),
        )
        for alpha, method, value, n in rows
    )
    rows_text = f"[\n{body}\n  ]" if body else "[]"
    out.write(f'{{\n  "command": {_json_str(command)},\n{_JSON_COLUMNS}  "rows": {rows_text}\n}}\n')


def cmd_constants(spec: SweepSpec) -> list[Row]:
    """The n-aware constant per requested n, and the n-free limit column."""
    rows: list[Row] = []
    for order in spec.orders:
        for n in spec.ns:
            rows.append((order.alpha, "sharpened", sharpened_constant(order, n), n))
        rows.append((order.alpha, "bc", bc_constant(order), None))
    return rows


def cmd_compare(spec: SweepSpec) -> list[Row]:
    """Every lower bound on the entropy power of the sum, per order."""
    pv = as_power_vector(spec.powers)
    n = len(pv)
    return [
        (report.order.alpha, method, value, n)
        for report in bound_reports(pv, spec.orders)
        for method, value in report.lower_bounds().items()
    ]


def cmd_filter(taps: tuple[float, ...], dim: int, alpha: float) -> list[Row]:
    """All four output-entropy bounds plus the Gaussian reference, in nats."""
    spec = FilterSpec(taps, dim, alpha)  # type: ignore[arg-type]
    rows: list[Row] = [
        (alpha, method, value, None) for method, value in filter_bounds(spec).items()
    ]
    if dim == 1:
        rows.append((alpha, "gaussian", gaussian_reference(spec), None))
    return rows


def cmd_verify(
    corpus: str, alpha: float, seed: int, count: int, slack: float
) -> tuple[list[Row], int]:
    """Certification sweep; returns rows and the number of violating instances.

    Each instance contributes a measured power ratio row and a margin row
    holding the minimum slack across all four checks (margins below
    ``-slack`` are violations). A trailing row counts violating instances.
    """
    if corpus == "two-uniforms":
        u = uniform_density(0.0, 1.0)
        instances = [((u, u), alpha)]
    elif corpus == "two-gaussians":
        g = gaussian_density(0.0, 1.0)
        instances = [((g, g), alpha)]
    elif corpus == "default":
        instances = ((inst.densities, inst.order.alpha) for inst in random_corpus(seed, count))
    else:
        raise ValueError(f"unknown corpus {corpus!r}")
    rows: list[Row] = []
    violations = 0
    for densities, a in instances:
        cert = certify(densities, a, slack=slack)
        if not cert.ok:
            violations += 1
        rows.append((a, "ratio", cert.ratio, len(densities)))
        rows.append((a, "margin", min(cert.margins().values()), len(densities)))
    rows.append((None, "violations", float(violations), None))
    return rows, violations


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="repi",
        description="Lower bounds on Renyi entropy powers of sums of independent random vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default="-", metavar="PATH", help="output path, - for stdout")

    p = sub.add_parser("constants", help="n-aware and n-free constants over an order grid")
    p.add_argument("--alpha-grid", required=True, metavar="GRID")
    p.add_argument("--n", default="2", metavar="LIST")
    add_io(p)

    p = sub.add_parser("compare", help="all lower bounds for one power vector")
    p.add_argument("--alpha-grid", required=True, metavar="GRID")
    p.add_argument("--powers", required=True, metavar="LIST")
    add_io(p)

    p = sub.add_parser("filter", help="output entropy bounds for a linear filter")
    p.add_argument("--taps", required=True, metavar="LIST")
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--alpha", required=True)
    add_io(p)

    p = sub.add_parser("verify", help="numerical certification on grid densities")
    p.add_argument("--corpus", choices=("default", "two-uniforms", "two-gaussians"), default="default")
    p.add_argument("--alpha", default="2", help="order for the two-summand corpora")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--slack", type=float, default=1e-4, help="tolerance on every check")
    add_io(p)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        exit_code = 0
        if args.command == "constants":
            spec = SweepSpec(
                alphas=_parse_alpha_grid(args.alpha_grid),
                ns=_parse_ints(args.n, "summand counts"),
            )
            rows = cmd_constants(spec)
        elif args.command == "compare":
            spec = SweepSpec(
                alphas=_parse_alpha_grid(args.alpha_grid),
                powers=_parse_floats(args.powers, "powers"),
            )
            rows = cmd_compare(spec)
        elif args.command == "filter":
            rows = cmd_filter(
                _parse_floats(args.taps, "taps"), args.dim, _parse_alpha(args.alpha)
            )
        else:
            _positive_int(args.count, "corpus count")
            rows, violations = cmd_verify(
                args.corpus, _parse_alpha(args.alpha), args.seed, args.count, args.slack
            )
            exit_code = 1 if violations else 0
    except ValueError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")

    if args.out == "-":
        _write(rows, sys.stdout, args.format, args.command)
        return exit_code
    # opened only now, so a refused argument leaves no empty file behind
    try:
        fh = open(args.out, "w", newline="")
    except OSError as exc:
        parser.exit(2, f"{parser.prog}: error: cannot write {args.out!r}: {exc.strerror}\n")
    with fh:
        _write(rows, fh, args.format, args.command)
    return exit_code


def _write(rows: list[Row], out: IO[str], fmt: str, command: str) -> None:
    if fmt == "csv":
        write_csv(rows, out)
    else:
        write_json(rows, out, command)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""Frozen CLI output: each invocation in ``golden/manifest.json`` against its stored stdout.

The manifest lists every invocation with its argv, its exit code and the
file that holds its stdout, and records the numpy version and the top SIMD
feature that numpy dispatched when the files were written. The last bits of
numpy's ``log``, ``exp``, sums and FFTs can follow the SIMD level, so bytes
are compared exactly only when both match here. Elsewhere every row must
have the same text outside its float literals, and each float may move by
at most ``ULPS`` units in the last place of the larger of the two values
and 1.

Regenerate the files, after a change that moves output on purpose, with

    PYTHONPATH=src python tests/test_golden.py

and commit them with the change; the diff then shows every changed row.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core import _multiarray_umath as umath

from repi.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "manifest.json"

#: float-to-float bound off the recording build, in ulps of max(|a|, |b|, 1)
ULPS = 256

#: a float literal as repr writes one: it always holds a point or an exponent
FLOAT = re.compile(r"(-?\d+(?:\.\d+(?:e[-+]\d+)?|e[-+]\d+))")


def top_simd_feature() -> str:
    """The last of numpy's dispatched SIMD targets that is enabled in this process."""
    enabled = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    return enabled[-1] if enabled else "baseline"


def build() -> dict[str, str]:
    return {"numpy": np.__version__, "simd": top_simd_feature()}


def run(argv: list[str]) -> tuple[int, str]:
    """``repi.cli.main(argv)``, in process: its exit code and everything it wrote to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _row_gap(expected: str, actual: str) -> float | None:
    """The largest float difference of one row in ulps of max(|a|, |b|, 1),
    or None if the rows differ outside their float literals."""
    left, right = FLOAT.split(expected), FLOAT.split(actual)
    if len(left) != len(right) or left[::2] != right[::2]:
        return None
    gap = 0.0
    for a, b in zip(map(float, left[1::2]), map(float, right[1::2])):
        gap = max(gap, abs(a - b) / math.ulp(max(abs(a), abs(b), 1.0)))
    return gap


def _largest_relative(expected: str, actual: str) -> float:
    left, right = FLOAT.findall(expected), FLOAT.findall(actual)
    return max(
        (abs(float(a) - float(b)) / max(abs(float(a)), abs(float(b)), 5e-324) for a, b in zip(left, right)),
        default=math.nan,
    )


def mismatch(expected: str, actual: str, ulps: float | None) -> str | None:
    """None when ``actual`` matches ``expected``: byte for byte if ``ulps`` is None,
    else row by row with each float within ``ulps``. Otherwise a message that
    names the first differing row and its largest relative difference."""
    if expected == actual:
        return None
    want, got = expected.split("\n"), actual.split("\n")
    if len(want) != len(got):
        return f"{len(got)} lines where {len(want)} were frozen"
    differing = [(i, a, b) for i, (a, b) in enumerate(zip(want, got), 1) if a != b]
    if ulps is not None:
        gaps = [_row_gap(a, b) for _, a, b in differing]
        if all(g is not None and g <= ulps for g in gaps):
            return None
        differing = [d for d, g in zip(differing, gaps) if g is None or g > ulps]
    line, a, b = differing[0]
    return (
        f"{len(differing)} of {len(want)} lines differ; the first is line {line}:\n"
        f"  frozen: {a}\n  now:    {b}\n"
        f"  largest relative difference in that row: {_largest_relative(a, b):.3g}"
    )


def load() -> dict:
    return json.loads(MANIFEST.read_text())


RECORDED = load()


@pytest.mark.parametrize("case", RECORDED["cases"], ids=[c["file"] for c in RECORDED["cases"]])
def test_frozen_stdout(case):
    """stdout and exit code equal the frozen ones: exactly on the build that wrote them."""
    code, text = run(case["argv"])
    assert code == case["exit"]
    frozen = (GOLDEN / case["file"]).read_bytes().decode()
    problem = mismatch(frozen, text, None if RECORDED["build"] == build() else ULPS)
    assert problem is None, problem


class TestMismatch:
    ROWS = "alpha,method,value,n\n2.0,bc,0.7357588823428847,\ninf,bv,90.0,3\n"

    def test_exact_names_the_first_differing_row(self):
        moved = self.ROWS.replace("0.7357588823428847", "0.7357588823428848")
        problem = mismatch(self.ROWS, moved, None)
        assert "1 of 4 lines differ; the first is line 2" in problem
        assert "0.7357588823428848" in problem
        assert "1.51e-16" in problem

    def test_within_the_bound_passes_off_the_recording_build(self):
        moved = self.ROWS.replace("90.0", repr(90.0 + 3 * math.ulp(90.0)))
        assert mismatch(self.ROWS, moved, 4) is None
        assert mismatch(self.ROWS, moved, 2) is not None

    def test_text_outside_the_floats_is_exact(self):
        for moved in (self.ROWS.replace(",3\n", ",4\n"), self.ROWS.replace("bv", "bc"), self.ROWS[:-1]):
            assert mismatch(self.ROWS, moved, ULPS) is not None

    def test_float_literals(self):
        assert FLOAT.findall('"value": -1.5e-05, 5e-324, 2.0, 10, Infinity') == ["-1.5e-05", "5e-324", "2.0"]


def regenerate() -> None:
    """Rerun every manifest invocation and rewrite its file, its exit code and the build."""
    manifest = load()
    for case in manifest["cases"]:
        case["exit"], text = run(case["argv"])
        (GOLDEN / case["file"]).write_bytes(text.encode())
    manifest["build"] = build()
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit(f"usage: {sys.argv[0]} (no arguments): rewrites {GOLDEN}")
    regenerate()

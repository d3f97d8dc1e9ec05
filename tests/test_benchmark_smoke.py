"""Smoke test that the benchmark in ``bench/`` still drives the program.

``test_core.py`` checks only that the names the benchmark imports exist.
Here one block of every workload runs through the timed operation and the
output check, so a member the benchmark reads, a changed output shape or
a failing check shows up in this suite and not only as failed benchmark
operations.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402


def small(name, out_dir):
    """The workload called ``name``, with a two-instance corpus batch."""
    if name == "corpus":
        return workloads.Corpus(out_dir, count=2)
    return workloads.make(name, out_dir)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_block_runs_checks_and_traces(name, tmp_path):
    """Every item of one block passes its check, and the first one traces alike."""
    workload = small(name, str(tmp_path))
    block = next(iter(workload.blocks(7)))
    assert block
    failed = sum(workload.check(item, workload.op(item)) for item in block)
    assert failed == 0
    first = block[0]
    assert workload.traced(first, spans.Tracer()) == workload.op(first)

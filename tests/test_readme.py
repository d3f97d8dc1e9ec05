"""The README's Python examples run, and print what their comments say."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
# a line "<expr>  # <number> ..." states the value of <expr> to the digits shown
STATED = re.compile(r"^(\S.*?)\s+#\s+(-?\d+\.(\d+))\b", re.MULTILINE)


def test_examples_found():
    """Three blocks, stating four values, are still there to check."""
    assert len(BLOCKS) == 3
    assert sum(len(STATED.findall(block)) for block in BLOCKS) == 4


@pytest.mark.parametrize("block", BLOCKS, ids=range(len(BLOCKS)))
def test_example_runs_and_matches_comments(block):
    """Each block runs, and each value it states holds to its last digit."""
    namespace: dict = {}
    exec(block, namespace)
    for expr, shown, decimals in STATED.findall(block):
        value = eval(expr, namespace)
        assert abs(value - float(shown)) <= 0.5 * 10.0 ** -len(decimals), expr

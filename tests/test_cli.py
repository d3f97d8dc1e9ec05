"""Tests for the command line front end."""

import io
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import repi
from repi import cli
from repi.cli import (
    COLUMNS,
    MAX_GRID_ORDERS,
    MAX_TABLE_CELLS,
    SweepSpec,
    _parse_alpha_grid,
    build_parser,
    cmd_compare,
    cmd_verify,
    main,
    write_csv,
    write_json,
)

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "output_schema.json").read_text()
)


def module_env():
    """Environment in which ``python -m repi.cli`` finds the package under test."""
    src = str(Path(repi.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def scripted_corpus(monkeypatch, count, action):
    """Stand in ``count`` placeholder instances for ``cli.random_corpus``, each holding
    its index as its densities, and for ``cli.certify`` a call of ``action(index)``
    that returns the certification of two standard Gaussians."""
    g = repi.gaussian_density(0.0, 1.0)
    cert = repi.certify((g, g), 2.0)

    def placeholders(seed, n):
        for i in range(n):
            yield repi.CorpusInstance(str(i), (i,), repi.Order(2.0))

    def scripted_certify(densities, order, slack):
        action(densities[0])
        return cert

    monkeypatch.setattr(cli, "random_corpus", placeholders)
    monkeypatch.setattr(cli, "certify", scripted_certify)


def reference_json(rows, command):
    """The JSON document as ``json.dump(doc, indent=2)`` spells it, plus the final newline."""
    doc = {
        "command": command,
        "columns": list(COLUMNS),
        "rows": [
            {
                "alpha": None if a is None else "inf" if math.isinf(a) else a,
                "method": method,
                "value": value,
                "n": n,
            }
            for a, method, value, n in rows
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def reference_csv(rows):
    """The CSV as a per-row formatter spells it: the header, then one line a row."""

    def alpha_text(alpha):
        return "" if alpha is None else "inf" if math.isinf(alpha) else repr(float(alpha))

    lines = [",".join(COLUMNS) + "\n"]
    for alpha, method, value, n in rows:
        lines.append(f"{alpha_text(alpha)},{method},{repr(float(value))},{'' if n is None else n}\n")
    return "".join(lines)


def table_rows(alphas, methods, values, ns):
    """Rows whose alphas come from a pool of up to three objects, so neighbours
    often share one alpha object. A row may instead take an equal but distinct
    copy of its alpha (the same bits in a new float), and equal values of
    another type (0 after -0.0, 1 after True) stay apart."""

    def build(drawn):
        pool, picks = drawn
        rows = []
        for i, fresh, method, value, n in picks:
            alpha = pool[i % len(pool)]
            if fresh and isinstance(alpha, float):
                alpha = float.fromhex(alpha.hex())
            rows.append((alpha, method, value, n))
        return rows

    pick = st.tuples(st.integers(0, 2), st.booleans(), methods, values, ns)
    return st.tuples(st.lists(alphas, min_size=1, max_size=3), st.lists(pick, max_size=6)).map(build)


EDGE_FLOATS = st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e308, -1e308])
METHODS = st.one_of(st.text(alphabet='"\\/ab\u00e9\u20ac\U0001f600\n\t\x00\x7f'), st.text())
# json.dump spells an int alpha or value without a point, so JSON rows hold ints only as n
JSON_ROWS = table_rows(
    st.one_of(st.none(), EDGE_FLOATS, st.floats()),
    METHODS,
    st.one_of(EDGE_FLOATS, st.floats()),
    st.one_of(st.none(), st.integers(), st.sampled_from([1, 2, 10 ** 20])),
)
FLOAT_INTS = st.integers(-(2 ** 60), 2 ** 60)
CSV_ROWS = table_rows(
    st.one_of(st.none(), EDGE_FLOATS, st.floats(), FLOAT_INTS),
    METHODS,
    st.one_of(EDGE_FLOATS, st.floats(), FLOAT_INTS),
    st.one_of(st.none(), st.integers(), st.booleans(), st.sampled_from([0, 1, 10 ** 20])),
)
#: rows where an identity test and an equality test disagree
EQUAL_BUT_DISTINCT = [
    (-0.0, "bc", 1.0, 1),
    (0.0, "bc", -0.0, 1),
    (math.nan, "bv", math.inf, None),
    (math.nan, "bv", -math.inf, None),
    (None, "violations", 0.0, None),
]
#: and in CSV also ints and bools equal to those floats
CSV_EQUAL_BUT_DISTINCT = EQUAL_BUT_DISTINCT + [(0, "bv", 0, True), (0, "bv", 1, 1), (-0.0, "bv", 1, 1.0)]


def run_lines(argv, capsys):
    """Run the CLI in process and return (exit code, stdout lines)."""
    code = main(argv)
    out = capsys.readouterr().out
    return code, out.splitlines()


def parity_vectors():
    """205 seeded power vectors: 200 of n = 1 to 10 and 100 summands, then 5 of 1000,
    each plain, with ties to the largest, with zero powers, with one subnormal
    power, or with a lead above the sum of the rest."""
    rng = np.random.default_rng(37)
    vectors = []
    for i in range(205):
        n = 1000 if i >= 200 else (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 100)[i % 11]
        kind = i % 5 if i >= 200 else i // 11 % 5
        powers = np.exp(rng.uniform(-8.0, 8.0, n))
        picks = rng.permutation(n)
        if kind == 1 and n > 1:
            powers[picks[: max(2, n // 4)]] = powers.max()
        elif kind == 2 and n > 1:
            powers[picks[: rng.integers(1, min(3, n - 1) + 1)]] = 0.0
        elif kind == 3:
            powers[picks[0]] = 1e-310
        elif kind == 4:
            powers[picks[0]] = 2.0 * (powers.sum() - powers[picks[0]]) + 1.0
        vectors.append(tuple(powers.tolist()))
    return vectors


class TestSweepSpec:
    def test_invariants(self):
        """The order grid must be non-empty, increasing and above 1."""
        SweepSpec(alphas=(1.5, 2.0), ns=(2,))
        with pytest.raises(ValueError):
            SweepSpec(alphas=())
        with pytest.raises(ValueError):
            SweepSpec(alphas=(2.0, 1.5))
        with pytest.raises(ValueError):
            SweepSpec(alphas=(0.5, 2.0))
        with pytest.raises(ValueError):
            SweepSpec(alphas=(2.0,), ns=(0,))

    def test_repeated_order_refused(self):
        """A grid that repeats an order is not strictly increasing."""
        with pytest.raises(ValueError, match="strictly increasing"):
            SweepSpec(alphas=(2.0, 2.0))

    def test_orders_built_once(self, monkeypatch):
        """cmd_compare solves at the very Orders of ``spec.orders``, which repr and == ignore."""
        spec = SweepSpec(alphas=(1.5, 2.0, math.inf), powers=(1.0, 3.0))
        assert [o.alpha for o in spec.orders] == [1.5, 2.0, math.inf]
        assert "orders" not in repr(spec)
        assert spec == SweepSpec(alphas=(1.5, 2.0, math.inf), powers=(1.0, 3.0))
        real, solved = cli._bound_columns, []

        def recording(pv, orders):
            solved.extend(orders)
            return real(pv, orders)

        monkeypatch.setattr(cli, "_bound_columns", recording)
        rows = cmd_compare(spec)
        assert len(solved) == 3
        assert all(s is o for s, o in zip(solved, spec.orders))
        assert all(row[0] is o.alpha for row, o in zip(rows[::4], spec.orders))

    def test_table_cell_cap(self):
        """Orders x max(counts, powers) past MAX_TABLE_CELLS is refused; 4096 x 1000 is not."""
        alphas = tuple(1.5 + k for k in range(MAX_GRID_ORDERS))
        SweepSpec(alphas=alphas, powers=(1.0,) * 1000)
        SweepSpec(alphas=alphas, ns=tuple(range(1, 1001)))
        for field in ("powers", "ns"):
            with pytest.raises(ValueError, match=f"{MAX_TABLE_CELLS} cells .*, got 4198400$"):
                SweepSpec(alphas=alphas, **{field: (1,) * 1025})

    def test_table_cell_cap_exit(self, monkeypatch, capsys):
        """compare refuses an oversized table with exit 2 and one line, before solving."""

        def no_solve(*args, **kwargs):
            raise AssertionError("the table was solved")

        monkeypatch.setattr(cli, "_bound_columns", no_solve)
        powers = ",".join(["1"] * 1025)
        with pytest.raises(SystemExit) as err:
            main(["compare", "--powers", powers, "--alpha-grid", f"1.01:2:{MAX_GRID_ORDERS}"])
        assert err.value.code == 2
        assert capsys.readouterr().err.count("\n") == 1


class TestConstantsCommand:
    def test_golden_rows(self, capsys):
        """Known constants appear verbatim in the CSV."""
        code, lines = run_lines(["constants", "--alpha-grid", "2,inf", "--n", "2,10"], capsys)
        assert code == 0
        assert lines[0] == "alpha,method,value,n"
        assert "2.0,sharpened,0.84375,2" in lines
        assert "2.0,bc,0.7357588823428847," in lines
        assert "inf,sharpened,0.5,2" in lines
        assert "inf,sharpened,0.387420489,10" in lines

    def test_geometric_grid(self, capsys):
        """start:stop:count expands to a strictly increasing grid."""
        code, lines = run_lines(["constants", "--alpha-grid", "1.01:10000:5", "--n", "2"], capsys)
        assert code == 0
        alphas = [float(line.split(",")[0]) for line in lines[1:] if line]
        assert alphas == sorted(alphas)
        assert alphas[0] == pytest.approx(1.01)
        assert alphas[-1] == pytest.approx(10000.0)

    def test_geometric_grid_count_cap(self, monkeypatch):
        """A count past MAX_GRID_ORDERS is a usage error raised before any grid is allocated."""
        assert len(_parse_alpha_grid(f"1.01:2:{MAX_GRID_ORDERS}")) == MAX_GRID_ORDERS

        def no_grid(*args, **kwargs):
            raise AssertionError("the grid was allocated")

        monkeypatch.setattr(cli.np, "geomspace", no_grid)
        with pytest.raises(ValueError, match=f"at most {MAX_GRID_ORDERS} orders, got {MAX_GRID_ORDERS + 1}$"):
            _parse_alpha_grid(f"1.01:2:{MAX_GRID_ORDERS + 1}")
        with pytest.raises(SystemExit) as err:
            main(["constants", "--alpha-grid", "1.01:2:1000000000000"])
        assert err.value.code == 2

    def test_row_layout(self, capsys):
        """Each order gets one row per n plus one bc row with blank n."""
        code, lines = run_lines(["constants", "--alpha-grid", "1.5", "--n", "2,3"], capsys)
        assert code == 0
        assert len(lines) == 4
        assert lines[3].startswith("1.5,bc,")
        assert lines[3].endswith(",")


class TestCompareCommand:
    def test_dominant_summand_rows(self, capsys):
        """Powers (10, 20, 90) at a large order: bounds straddle the max power."""
        code, lines = run_lines(
            ["compare", "--powers", "10,20,90", "--alpha-grid", "10000"], capsys
        )
        assert code == 0
        values = {line.split(",")[1]: float(line.split(",")[2]) for line in lines[1:]}
        assert values["bv"] == 90.0
        assert values["optimized"] > 90.0
        assert values["sharpened"] < 90.0  # the n-aware bound has crossed below bv
        assert values["bc"] < values["sharpened"] < values["optimized"]

    @pytest.mark.parametrize(
        "powers",
        [(10.0, 20.0, 90.0), (1.0, 1.0, 1.0, 2.0), (3.0, 0.0, 3.0, 1.0), (0.5, 7.0, 0.0, 2.5, 7.0, 1e-3)],
    )
    def test_rows_match_one_order_reports(self, powers):
        """The one batched solve gives every row of the per-order ``bound_report``."""
        alphas = _parse_alpha_grid("1.01:10000:200") + (math.inf,)
        rows = cmd_compare(SweepSpec(alphas=alphas, powers=powers))
        expected = [
            (alpha, method, value, len(powers))
            for alpha in alphas
            for method, value in repi.bound_report(powers, alpha).lower_bounds().items()
        ]
        assert [(a, m, v.hex(), n) for a, m, v, n in rows] == [
            (a, m, v.hex(), n) for a, m, v, n in expected
        ]

    @pytest.mark.parametrize("grid", ["1.01:10000:200", "1.5,1e16,1e17,inf"])
    def test_rows_equal_the_grid_reports(self, grid):
        """cmd_compare's rows are the ``lower_bounds()`` of ``bound_reports`` over the
        same orders, in float.hex, for seeded vectors with ties, zero and subnormal
        powers and a dominant lead, from one summand to a thousand."""
        alphas = _parse_alpha_grid(grid)
        for powers in parity_vectors():
            spec = SweepSpec(alphas=alphas, powers=powers)
            expected = [
                (report.order.alpha, method, value.hex(), len(powers))
                for report in repi.bound_reports(powers, spec.orders)
                for method, value in report.lower_bounds().items()
            ]
            rows = cmd_compare(spec)
            assert [(a, m, v.hex(), n) for a, m, v, n in rows] == expected, powers

    def test_builds_no_report_objects(self, monkeypatch):
        """The table comes from the constant columns: no BoundReport, no SimplexWeights."""

        def refuse(*args, **kwargs):
            raise AssertionError("cmd_compare built a report object")

        monkeypatch.setattr(repi.BoundReport, "__init__", refuse)
        monkeypatch.setattr(repi.SimplexWeights, "__init__", refuse)
        # _simplex_rows builds SimplexWeights without calling __init__
        for module in (repi.core, repi.optimizer):
            monkeypatch.setattr(module, "_simplex_rows", refuse)
        alphas = _parse_alpha_grid("1.01:10000:200") + (math.inf,)
        rows = cmd_compare(SweepSpec(alphas=alphas, powers=(10.0, 20.0, 90.0)))
        assert len(rows) == 4 * len(alphas)

    @pytest.mark.parametrize(
        "sharpened, rule", [(math.nan, "bc > sharpened"), (2.0, "sharpened > optimized")]
    )
    def test_ordering_refusal_matches_bound_report(self, monkeypatch, capsys, sharpened, rule):
        """A sharpened constant that breaks the ordering at the second of three orders
        stops compare with exit 2 and the one line that ``bound_report`` raises there."""
        real = repi.optimizer.sharpened_constant

        def broken(order, n):
            return sharpened if order.alpha == 2.0 else real(order, n)

        monkeypatch.setattr(repi.optimizer, "sharpened_constant", broken)
        for alpha in (1.5, 3.0):
            repi.bound_report((1.0, 2.0, 3.0), alpha)
        with pytest.raises(ValueError, match=rule) as refused:
            repi.bound_report((1.0, 2.0, 3.0), 2.0)
        with pytest.raises(SystemExit) as err:
            main(["compare", "--powers", "1,2,3", "--alpha-grid", "1.5,2,3"])
        assert err.value.code == 2
        assert capsys.readouterr() == ("", f"repi: error: {refused.value}\n")

    def test_degenerate_powers_exit(self, capsys):
        """All-zero powers are a usage error."""
        with pytest.raises(SystemExit) as err:
            main(["compare", "--powers", "0,0", "--alpha-grid", "2"])
        assert err.value.code == 2

    def test_overflowing_total_exit(self, capsys):
        """Powers that sum past the float range are a usage error that says so."""
        with pytest.raises(SystemExit) as err:
            main(["compare", "--powers", "1e308,1e308", "--alpha-grid", "2"])
        assert err.value.code == 2
        assert "sum past the float range" in capsys.readouterr().err


class TestFilterCommand:
    def test_reference_rows(self, capsys):
        """The three-tap reference filter reproduces its frozen table."""
        code, lines = run_lines(["filter", "--taps", "2,1,1", "--dim", "1", "--alpha", "2"], capsys)
        assert code == 0
        assert lines[1:] == [
            "2.0,optimized,0.8194829501677983,",
            "2.0,sharpened,0.7866494329091136,",
            "2.0,bc,0.7424533248940002,",
            "2.0,bv,0.6931471805599453,",
            "2.0,gaussian,0.8958797346140275,",
        ]

    def test_no_gaussian_row_above_one_dimension(self, capsys):
        """Without the gram determinant the reference row is omitted."""
        code, lines = run_lines(["filter", "--taps", "2,1", "--dim", "2", "--alpha", "2"], capsys)
        assert code == 0
        assert len(lines) == 5
        assert not any("gaussian" in line for line in lines)

    def test_zero_tap_exit(self):
        """Singular taps are a usage error."""
        with pytest.raises(SystemExit) as err:
            main(["filter", "--taps", "2,0", "--dim", "1", "--alpha", "2"])
        assert err.value.code == 2

    def test_huge_taps_print_finite_rows(self, capsys):
        """Taps whose power |t|^2 overflows print the finite bounds, about 460.8 nats."""
        code, lines = run_lines(["filter", "--taps", "1e200,1e200", "--alpha", "2"], capsys)
        assert code == 0
        values = {line.split(",")[1]: float(line.split(",")[2]) for line in lines[1:]}
        assert list(values) == ["optimized", "sharpened", "bc", "bv", "gaussian"]
        assert values["optimized"] == pytest.approx(460.77864267069145, rel=1e-15)
        assert values["bv"] == pytest.approx(200.0 * math.log(10.0), rel=1e-15)
        assert all(value < values["gaussian"] < 461.0 for value in list(values.values())[:-1])


class TestVerifyCommand:
    def test_tight_two_summand_case(self, capsys):
        """The uniform pair at the limit order sits on the tight constant 1/2.

        The convolved cell masses of two uniform histograms peak at exactly the
        summands' own height, so the ratio is 1/2, and the margin is
        ratio - 1/2 = 0 for sharpened, optimized and bv alike: bv's constant is
        the largest power's share of the sum, 1/2.
        """
        code, lines = run_lines(["verify", "--corpus", "two-uniforms", "--alpha", "inf"], capsys)
        assert code == 0
        assert "inf,ratio,0.5,2" in lines
        assert "inf,margin,0.0,2" in lines
        assert lines[-1] == ",violations,0.0,"

    @pytest.mark.parametrize("slack", [-1.0, 0.0, 1e-16, 1e-4])
    def test_violations_count_the_margin_rows_below_slack(self, slack):
        """An instance violates exactly when its printed margin row is not >= -slack."""
        rows = cmd_verify("default", 2.0, 5, 12, slack)
        margins = [value for _, method, value, _ in rows if method == "margin"]
        assert len(margins) == 12
        assert rows[-1] == (None, "violations", float(sum(not m >= -slack for m in margins)), None)

    def test_stdout_does_not_follow_the_blas_thread_count(self, capsys):
        """A corpus run prints the same bytes with one BLAS thread as in process with
        the default count: no entropy sum goes through a threaded BLAS call."""
        argv = ["verify", "--count", "20", "--seed", "1"]
        main(argv)
        in_process = capsys.readouterr().out
        proc = subprocess.run(
            [sys.executable, "-m", "repi.cli", *argv],
            capture_output=True,
            env={**module_env(), "OPENBLAS_NUM_THREADS": "1"},
        )
        assert proc.returncode == 0
        assert proc.stdout == in_process.encode()

    def test_unknown_corpus_rejected(self):
        """A corpus name that argparse would refuse is also refused by the command itself."""
        with pytest.raises(ValueError, match="unknown corpus 'nope'"):
            cmd_verify("nope", 2.0, 1, 1, 1e-4)

    def test_gaussian_pair(self, capsys):
        """The Gaussian pair certifies with ratio 1."""
        code, lines = run_lines(["verify", "--corpus", "two-gaussians", "--alpha", "2"], capsys)
        assert code == 0
        ratio = float(next(l for l in lines if ",ratio," in l).split(",")[2])
        assert ratio == pytest.approx(1.0, abs=1e-6)

    def test_small_default_corpus(self, capsys):
        """A truncated random corpus certifies with exit code 0."""
        code, lines = run_lines(["verify", "--count", "3", "--seed", "2"], capsys)
        assert code == 0
        assert lines[-1] == ",violations,0.0,"

    def test_rows_equal_a_serial_loop(self):
        """The rows are those of a plain loop over certify, bit for bit."""
        serial = []
        violations = 0
        for inst in repi.random_corpus(5, 12):
            cert = repi.certify(inst.densities, inst.order.alpha, slack=1e-4)
            a, n = inst.order.alpha, len(inst.densities)
            violations += not cert.ok
            serial += [(a, "ratio", cert.ratio, n), (a, "margin", min(cert.margins().values()), n)]
        serial.append((None, "violations", float(violations), None))
        rows = cmd_verify("default", 2.0, 5, 12, 1e-4)
        assert [tuple(map(repr, row)) for row in rows] == [tuple(map(repr, row)) for row in serial]

    def test_at_most_two_instances_alive(self, monkeypatch):
        """Weak references to every drawn instance: at each draw and each
        certification, no more than two instances' densities are alive."""
        drawn = []
        counts = []

        def alive():
            return sum(ref() is not None for ref in drawn)

        def tracked_corpus(seed, count):
            for inst in repi.random_corpus(seed, count):
                drawn.append(weakref.ref(inst.densities[0]))
                counts.append(alive())
                yield inst

        def tracked_certify(densities, alpha, slack):
            counts.append(alive())
            return repi.certify(densities, alpha, slack=slack)

        monkeypatch.setattr(cli, "random_corpus", tracked_corpus)
        monkeypatch.setattr(cli, "certify", tracked_certify)
        cmd_verify("default", 2.0, 5, 12, 1e-4)
        assert len(drawn) == 12 and len(counts) == 24
        assert max(counts) <= 2

    def test_first_error_in_instance_order(self, monkeypatch):
        """When instances 3 and 4 both fail, instance 3's error is raised, as in a
        serial loop."""
        keys = [tuple(d.origin for d in inst.densities) for inst in repi.random_corpus(5, 6)]

        def failing_certify(densities, alpha, slack):
            i = keys.index(tuple(d.origin for d in densities)) + 1
            if i in (3, 4):
                raise ValueError(f"instance {i}")
            return repi.certify(densities, alpha, slack=slack)

        def serial():
            for inst in repi.random_corpus(5, 6):
                failing_certify(inst.densities, inst.order.alpha, 1e-4)

        monkeypatch.setattr(cli, "certify", failing_certify)
        with pytest.raises(ValueError, match="^instance 3$") as err:
            cmd_verify("default", 2.0, 5, 6, 1e-4)
        assert err.value.__context__ is None
        with pytest.raises(ValueError, match="^instance 3$"):
            serial()

    def test_corpus_memory_flat_in_count(self, monkeypatch):
        """Instances are certified one at a time: 12 peak at most 1.25x the memory of 3.

        Every instance is a fresh copy of one three-summand shape, so the peak
        does not depend on which instances are drawn.
        Its grids are at 2^-11, where the instances' arrays dominate the peak.
        """

        def same_shape(seed, count):
            for _ in range(count):
                parts = (
                    repi.gaussian_density(0.0, 1.6, 2.0 ** -11),
                    repi.exponential_density(0.7, 0.0, 2.0 ** -11),
                    repi.gaussian_density(1.0, 1.2, 2.0 ** -11),
                )
                yield repi.CorpusInstance("gauss+expo+gauss", parts, repi.Order(2.0))

        def peak(count):
            tracemalloc.start()
            try:
                cmd_verify("default", 2.0, 5, count, 1e-4)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(cli, "random_corpus", same_shape)
        assert peak(12) <= 1.25 * peak(3)

    def test_failure_stops_the_draws(self, monkeypatch):
        """Once instance 2 fails, no instance after it is certified, of 1000."""
        calls = []

        def failing(i):
            calls.append(i)
            if i == 2:
                raise ValueError("instance 2")

        scripted_corpus(monkeypatch, 1000, failing)
        with pytest.raises(ValueError, match="^instance 2$") as err:
            cmd_verify("default", 2.0, 5, 1000, 1e-4)
        assert err.value.__context__ is None
        assert calls == [0, 1, 2]

    def test_certifies_on_the_calling_thread(self, monkeypatch):
        """Every certify call runs on the thread that calls cmd_verify, and no
        thread is started, during the run or after it."""
        threads = []
        counts = []

        def on_thread(i):
            threads.append(threading.get_ident())
            counts.append(threading.active_count())

        baseline = threading.active_count()
        scripted_corpus(monkeypatch, 6, on_thread)
        rows = cmd_verify("default", 2.0, 5, 6, 1e-4)
        assert len(rows) == 13
        assert threads == [threading.get_ident()] * 6
        assert counts == [baseline] * 6
        assert threading.active_count() == baseline

    def test_violation_exit_code(self, capsys):
        """An impossible tolerance turns into exit code 1."""
        code, lines = run_lines(
            ["verify", "--corpus", "two-uniforms", "--alpha", "inf", "--slack", "-1"], capsys
        )
        assert code == 1
        assert lines[-1] == ",violations,1.0,"

    @pytest.mark.parametrize("slack, k", [(1e-4, 0), (-1.0, 1)])
    def test_table_ends_with_the_violation_count(self, slack, k):
        """cmd_verify returns its table; the final row is the only copy of the count."""
        rows = cmd_verify("two-uniforms", math.inf, 1, 1, slack)
        assert isinstance(rows, list)
        assert rows[-1] == (None, "violations", float(k), None)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_exit_code_reads_the_final_row(self, monkeypatch, capsys, k):
        """main exits 1 exactly when the final violations row is nonzero."""
        rows = [(2.0, "ratio", 1.0, 2), (None, "violations", float(k), None)]
        monkeypatch.setattr(cli, "cmd_verify", lambda *args: rows)
        assert main(["verify"]) == (1 if k else 0)
        assert capsys.readouterr().out.splitlines()[-1] == f",violations,{float(k)!r},"

    def test_negative_seed_exit(self, capsys):
        """A negative seed is a usage error that names the seed."""
        with pytest.raises(SystemExit) as err:
            main(["verify", "--seed", "-1", "--count", "1"])
        assert err.value.code == 2
        assert capsys.readouterr().err == "repi: error: seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize("slack", ["nan", "inf"])
    def test_non_finite_slack_exit(self, slack):
        """A slack that would pass every check is a usage error."""
        with pytest.raises(SystemExit) as err:
            main(["verify", "--corpus", "two-uniforms", "--slack", slack])
        assert err.value.code == 2

    def test_empty_corpus_exit(self):
        """A zero-instance corpus is a usage error."""
        with pytest.raises(SystemExit) as err:
            main(["verify", "--count", "0"])
        assert err.value.code == 2


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["constants", "--alpha-grid", "0.5", "--n", "2"],
            ["constants", "--alpha-grid", "2,1.5", "--n", "2"],
            ["constants", "--alpha-grid", "2", "--n", "0"],
            ["constants", "--alpha-grid", "2", "--n", "x"],
            ["constants", "--alpha-grid", "1.5:2:1", "--n", "2"],
            ["constants", "--alpha-grid", "1.5:inf:5", "--n", "2"],
            ["compare", "--powers", "1,-2", "--alpha-grid", "2"],
            ["filter", "--taps", "", "--dim", "1", "--alpha", "2"],
            ["filter", "--taps", "1", "--alpha", "x"],
            ["constants", "--alpha-grid", "1.5:2", "--n", "2"],
            ["constants", "--alpha-grid", "1.5:2:x", "--n", "2"],
            ["constants", "--alpha-grid", "1.5:2:2.5", "--n", "2"],
            ["constants", "--alpha-grid", "2", "--n", str(2 ** 53 + 1)],
            ["constants", "--alpha-grid", "1.0000000000001", "--n", str(10 ** 300)],
            ["filter", "--taps", "2,1", "--alpha", "2", "--dim", str(10 ** 399)],
            ["constants", "--alpha-grid", "2,x", "--n", "2"],
            ["constants", "--alpha-grid", "2,nan", "--n", "2"],
        ],
    )
    def test_bad_values(self, argv, capsys):
        """Malformed parameters exit with code 2 and one stderr line; a bad grid names its syntax.

        Counts past 2**53 are refused before any float arithmetic overflows.
        """
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("repi: error: ") and stderr.count("\n") == 1
        if argv[2] in ("1.5:2", "1.5:2:x", "1.5:2:2.5"):
            assert stderr == f"repi: error: grid syntax is start:stop:count, got {argv[2]!r}\n"
        if argv[2] == "2,x":
            assert stderr == "repi: error: cannot parse order grid '2,x'\n"

    @pytest.mark.parametrize("target", ["directory", "missing/x.csv"])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys, target):
        """An --out that cannot be opened exits 2 with one stderr line naming the path."""
        out = tmp_path if target == "directory" else tmp_path / target
        with pytest.raises(SystemExit) as err:
            main(["constants", "--alpha-grid", "2", "--n", "2", "--out", str(out)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repi: error: cannot write {str(out)!r}: ")
        assert captured.err.count("\n") == 1

    def test_path_with_a_nul_is_a_usage_error(self, capsys):
        """An --out path that open refuses with ValueError exits 2 like any unwritable path."""
        with pytest.raises(SystemExit) as err:
            main(["filter", "--taps", "2,-1,-1", "--alpha", "2", "--out", "a\0b"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repi: error: cannot write 'a\\x00b': ")
        assert captured.err.count("\n") == 1

    def test_refused_argument_leaves_no_file(self, tmp_path):
        """Arguments are checked before --out is opened, so a refusal creates no file."""
        out = tmp_path / "t.csv"
        with pytest.raises(SystemExit):
            main(["constants", "--alpha-grid", "1.5:2:x", "--n", "2", "--out", str(out)])
        assert not out.exists()

    def test_unknown_subcommand(self):
        """argparse rejects unknown commands with code 2."""
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2


class TestOutputFormats:
    def test_byte_identical_reruns(self, tmp_path):
        """Identical invocations produce byte-identical files."""
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            code = main(
                ["verify", "--count", "2", "--seed", "7", "--out", str(target)]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["constants", "--alpha-grid", "1.5,2,inf", "--n", "2,10"],
            ["compare", "--powers", "1,1,0,3,7.5", "--alpha-grid", "1.1,2,5,inf"],
            ["filter", "--taps", "3,1,0.5,0.25", "--dim", "3", "--alpha", "inf"],
            ["verify", "--corpus", "two-uniforms", "--alpha", "inf", "--slack", "-1"],
        ],
        ids=["constants", "compare", "filter", "verify"],
    )
    def test_out_file_matches_stdout(self, tmp_path, capsys, argv, fmt):
        """Every command writes the same bytes, and exits the same way, to --out as to stdout."""
        code = main(argv + ["--format", fmt])
        stdout = capsys.readouterr().out
        target = tmp_path / "t.out"
        assert main(argv + ["--format", fmt, "--out", str(target)]) == code
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == stdout.encode()

    def test_csv_line_endings(self, tmp_path):
        """Files use bare newline terminators."""
        target = tmp_path / "t.csv"
        main(["constants", "--alpha-grid", "2", "--n", "2", "--out", str(target)])
        raw = target.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["constants", "--alpha-grid", "1.5,2,inf", "--n", "1,2,10"],
            ["compare", "--powers", "40,40,40", "--alpha-grid", "2,inf"],
            ["filter", "--taps", "2,1,1", "--dim", "1", "--alpha", "2"],
            ["verify", "--corpus", "two-uniforms", "--alpha", "inf"],
        ],
    )
    def test_json_validates_against_schema(self, argv, capsys):
        """Every command's JSON output satisfies the published schema."""
        code = main(argv + ["--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        jsonschema.validate(instance=doc, schema=SCHEMA)
        assert doc["command"] == argv[0]

    @given(rows=JSON_ROWS, command=st.sampled_from(["constants", "compare", "filter", "verify"]))
    @example(rows=[], command="compare")
    @example(rows=EQUAL_BUT_DISTINCT, command="verify")
    def test_json_bytes_are_json_dump(self, rows, command):
        """The JSON writer prints json.dump(doc, indent=2) and a newline, byte for byte."""
        out = io.StringIO()
        write_json(rows, out, command)
        assert out.getvalue() == reference_json(rows, command)

    @given(rows=CSV_ROWS)
    @example(rows=[])
    @example(rows=CSV_EQUAL_BUT_DISTINCT)
    def test_csv_bytes_match_the_row_formatter(self, rows):
        """The CSV writer prints what formatting each row on its own prints, byte for byte."""
        out = io.StringIO()
        write_csv(rows, out)
        assert out.getvalue() == reference_csv(rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_write_per_table(self, fmt):
        """Each writer hands the whole table to the file in one write."""
        calls = []

        class Counting(io.StringIO):
            def write(self, text):
                calls.append(text)
                return super().write(text)

        rows = cmd_compare(SweepSpec(alphas=(1.5, 2.0, math.inf), powers=(1.0, 2.0)))
        out = Counting()
        if fmt == "csv":
            write_csv(rows, out)
            assert out.getvalue() == reference_csv(rows)
        else:
            write_json(rows, out, "compare")
            assert out.getvalue() == reference_json(rows, "compare")
        assert len(calls) == 1

    def test_json_spells_infinity(self, capsys):
        """alpha = inf serializes as the string "inf", blanks as null."""
        main(["constants", "--alpha-grid", "inf", "--n", "2", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"][0]["alpha"] == "inf"
        assert doc["rows"][1]["method"] == "bc"
        assert doc["rows"][1]["n"] is None


class TestParserReuse:
    def test_defaults_survive_earlier_calls(self, capsys):
        """One parser serves every call in a process, and no call's options become the next one's defaults."""
        assert build_parser() is build_parser()
        assert main(["compare", "--powers", "1,2", "--alpha-grid", "2", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["command"] == "compare"
        assert main(["constants", "--alpha-grid", "3", "--n", "5,7", "--format", "json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == 3
        code, lines = run_lines(["constants", "--alpha-grid", "2"], capsys)
        assert code == 0
        assert lines == ["alpha,method,value,n", "2.0,sharpened,0.84375,2", "2.0,bc,0.7357588823428847,"]


class TestConsoleScript:
    def test_installed_entry_point(self):
        """The repi executable is wired to the CLI main."""
        proc = subprocess.run(
            [sys.executable, "-m", "repi.cli", "--help"],
            capture_output=True,
            text=True,
            env=module_env(),
        )
        assert proc.returncode == 0
        assert "constants" in proc.stdout

    def test_module_invocation_matches_api(self):
        """Running the module emits the same table as the in-process call."""
        proc = subprocess.run(
            [sys.executable, "-m", "repi.cli", "constants", "--alpha-grid", "2", "--n", "2"],
            capture_output=True,
            text=True,
            env=module_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1] == "2.0,sharpened,0.84375,2"

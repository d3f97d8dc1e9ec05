"""Tests for the command line front end."""

import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
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


EDGE_FLOATS = st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e308, -1e308])
JSON_ROWS = st.lists(
    st.tuples(
        st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False), st.just(math.inf)),
        st.one_of(st.text(alphabet='"\\/ab\u00e9\u20ac\U0001f600\n\t\x00\x7f'), st.text()),
        st.one_of(EDGE_FLOATS, st.floats()),
        st.one_of(st.none(), st.integers()),
    ),
    max_size=6,
)


def run_lines(argv, capsys):
    """Run the CLI in process and return (exit code, stdout lines)."""
    code = main(argv)
    out = capsys.readouterr().out
    return code, out.splitlines()


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

    def test_orders_built_once(self, monkeypatch):
        """cmd_compare's reports hold the very Orders of ``spec.orders``, which repr and == ignore."""
        spec = SweepSpec(alphas=(1.5, 2.0, math.inf), powers=(1.0, 3.0))
        assert [o.alpha for o in spec.orders] == [1.5, 2.0, math.inf]
        assert "orders" not in repr(spec)
        assert spec == SweepSpec(alphas=(1.5, 2.0, math.inf), powers=(1.0, 3.0))
        real, reports = cli.bound_reports, []

        def recording(*args):
            reports.extend(real(*args))
            return reports

        monkeypatch.setattr(cli, "bound_reports", recording)
        cmd_compare(spec)
        assert len(reports) == 3
        assert all(r.order is o for r, o in zip(reports, spec.orders))

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

        monkeypatch.setattr(cli, "bound_reports", no_solve)
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

        Cell-average uniforms convolve to the exact peak of the sum, so the
        ratio is 1/2 to rounding. The spectral product leaves the sum's power
        4 ulp below 1, and that is the tightest margin, on bv.
        """
        code, lines = run_lines(["verify", "--corpus", "two-uniforms", "--alpha", "inf"], capsys)
        assert code == 0
        assert "inf,ratio,0.4999999999999998,2" in lines
        assert "inf,margin,-4.440892098500626e-16,2" in lines
        assert lines[-1] == ",violations,0.0,"

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

    def test_corpus_memory_flat_in_count(self):
        """Instances are certified one at a time: 12 peak at most 1.25x the memory of 3."""

        def peak(count):
            tracemalloc.start()
            try:
                cmd_verify("default", 2.0, 5, count, 1e-4)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(12) <= 1.25 * peak(3)

    def test_violation_exit_code(self, capsys):
        """An impossible tolerance turns into exit code 1."""
        code, lines = run_lines(
            ["verify", "--corpus", "two-uniforms", "--alpha", "inf", "--slack", "-1"], capsys
        )
        assert code == 1
        assert lines[-1] == ",violations,1.0,"

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
    def test_json_bytes_are_json_dump(self, rows, command):
        """The JSON writer prints json.dump(doc, indent=2) and a newline, byte for byte."""
        out = io.StringIO()
        write_json(rows, out, command)
        assert out.getvalue() == reference_json(rows, command)

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

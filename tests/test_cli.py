import json
import subprocess
import sys

import numpy as np
import pytest

from antifourier import ValidationError, catalog
from antifourier.cli import MAX_HARMONICS, MAX_VALUES, _check_size, build_parser, main
from antifourier.diagnostics import REPORT_COLUMNS
from conftest import child_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestCoeffs:
    def test_identity_anti_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "coeffs", "--function", "named:identity", "--interval", "pi",
            "--kind", "anti", "--n", "16", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "antiperiodic"
        assert data["gamma"] == 0.0
        n = np.arange(17)
        expected = 8.0 * (-1.0) ** n / (np.pi * (2 * n + 1) ** 2)
        np.testing.assert_allclose(data["beta"], expected, atol=1e-8, rtol=0)

    def test_both_kinds_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "coeffs", "--function", "poly:1,2,1", "--interval", "1",
            "--kind", "both", "--n", "4",
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"classical", "antiperiodic"}
        assert data["antiperiodic"]["gamma"] == 2.0

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "coeffs", "--function", "named:identity", "--interval", "pi",
            "--kind", "both", "--n", "2", "--format", "csv",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["kind", "n", "cos", "sin", "gamma"]
        assert len(rows) == 3 + 3  # classical n=0..2 plus antiperiodic n=0..2


class TestEval:
    def test_quadratic_endpoint_behaviour(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--function", "poly:1,2,1", "--interval", "1",
            "--kind", "both", "--n", "64", "--grid", "101", "--format", "csv",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "f", "classical", "antiperiodic"]
        assert len(rows) == 101
        first, last = rows[0], rows[-1]
        for row in (first, last):
            x, f, classical, anti = map(float, row)
            assert abs(anti - f) <= 1e-2  # half-integer series matches at +-1
            assert abs(classical - f) > 0.5  # classical lands on the midpoint 2

    def test_json_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--function", "named:identity", "--interval", "pi",
            "--kind", "anti", "--n", "8", "--grid", "11", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"x", "f", "antiperiodic"}
        assert len(data["x"]) == 11


class TestRoundTrip:
    def test_coeffs_file_reproduces_eval_bytes(self, capsys, tmp_path):
        coeffs_path = tmp_path / "c.json"
        base = [
            "--function", "named:identity", "--interval", "pi",
            "--kind", "both", "--n", "24",
        ]
        code = main(["coeffs", *base, "--format", "json", "--out", str(coeffs_path)])
        capsys.readouterr()
        assert code == 0

        eval_args = ["eval", *base, "--grid", "51", "--format", "csv"]
        code, direct, _ = run_cli(capsys, *eval_args)
        assert code == 0
        code, loaded, _ = run_cli(capsys, *eval_args, "--coeffs-file", str(coeffs_path))
        assert code == 0
        assert loaded == direct  # bit-identical

    def test_missing_kind_in_file(self, capsys, tmp_path):
        coeffs_path = tmp_path / "c.json"
        code = main([
            "coeffs", "--function", "named:identity", "--interval", "pi",
            "--kind", "anti", "--n", "4", "--out", str(coeffs_path),
        ])
        capsys.readouterr()
        assert code == 0
        code, _, err = run_cli(
            capsys, "eval", "--function", "named:identity", "--interval", "pi",
            "--kind", "classical", "--n", "4", "--coeffs-file", str(coeffs_path),
        )
        assert code == 2
        assert "missing" in err


class TestCompare:
    def test_ladder_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--function", "named:identity", "--interval", "pi",
            "--orders", "10,25,50", "--grid", "401", "--subgrid", "2001",
            "--format", "csv",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert tuple(header) == REPORT_COLUMNS
        assert len(rows) == 6
        # classical endpoint error stays pi; antiperiodic error shrinks with M
        by_key = {(r[0], int(r[1])): r for r in rows}
        classical_50 = by_key[("classical", 50)]
        anti_50 = by_key[("antiperiodic", 50)]
        assert float(classical_50[3]) == pytest.approx(np.pi, abs=1e-12)
        assert float(anti_50[4]) < float(classical_50[4])  # sup_error column

    def test_undefined_fits_are_json_null_and_csv_nan(self, capsys):
        argv = ["compare", "--function", "named:const:1", "--interval", "1",
                "--orders", "10,25", "--grid", "101"]

        def refuse(token):
            raise ValueError(f"{token} is not RFC 8259 JSON")

        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        rows = json.loads(out, parse_constant=refuse)
        assert {row["decay_exponent_classical"] for row in rows} == {None}
        assert {row["decay_exponent_antiperiodic"] for row in rows} == {None}
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert [row[6:8] for row in parse_csv(out)[1]] == [["nan", "nan"]] * 4

    def test_grid_must_be_odd(self, capsys):
        code, _, err = run_cli(
            capsys, "compare", "--function", "named:identity", "--interval", "pi",
            "--orders", "4,8", "--grid", "100",
        )
        assert code == 2
        assert "odd" in err


class TestGibbs:
    def test_overshoot_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "gibbs", "--function", "named:identity", "--interval", "pi",
            "--kind", "both", "--n", "100", "--format", "json",
        )
        assert code == 0
        rows = {row["series_kind"]: row for row in json.loads(out)}
        assert 0.4 <= rows["classical"]["overshoot"] <= 0.7
        assert abs(rows["antiperiodic"]["overshoot"]) <= 0.05
        assert rows["classical"]["order"] == 100


class TestHeat:
    def test_scaled_square_solution_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "heat", "--function", "named:scaled-square", "--interval", "pi",
            "--k", "1", "--c", "1", "--n", "10", "--times", "0,0.5,1",
            "--grid", "101", "--format", "csv",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "t", "u"]
        assert len(rows) == 3 * 101
        # check u(x~0, 0.5) against the closed-form modal sum
        n = np.arange(11)
        A = -32.0 * (-1.0) ** n / (np.pi**3 * (2 * n + 1) ** 3)
        expected = 1.0 + (A * np.exp(-((n + 0.5) ** 2) * 0.5)).sum()
        mid = [r for r in rows if abs(float(r[0])) < 1e-9 and float(r[1]) == 0.5]
        assert len(mid) == 1
        assert float(mid[0][2]) == pytest.approx(expected, abs=1e-9)

    def test_flux_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "heat", "--function", "named:scaled-square", "--interval", "pi",
            "--n", "6", "--times", "0.5", "--grid", "21", "--flux", "--format", "csv",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "t", "u", "ux"]
        ux = {float(r[0]): float(r[3]) for r in rows}
        assert ux[-np.pi] + ux[np.pi] == pytest.approx(0.0, abs=1e-12)

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "heat", "--function", "named:scaled-square", "--interval", "pi",
            "--n", "4", "--times", "0,1", "--grid", "11", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["solution"]["kind"] == "heat"
        assert len(data["u"]) == 2 and len(data["u"][0]) == 11

    def test_incompatible_data_is_numerical_failure(self, capsys):
        code, out, err = run_cli(
            capsys, "heat", "--function", "named:identity", "--interval", "pi",
            "--c", "1", "--format", "json",
        )
        assert code == 1
        assert json.loads(out)["error"]["type"] == "IncompatibleData"
        assert "incompatible" in err


class TestBasis:
    def test_samples(self, capsys):
        code, out, _ = run_cli(
            capsys, "basis", "--interval", "pi", "--n", "1", "--grid", "5",
            "--format", "csv",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "x", "cos", "sin"]
        assert len(rows) == 2 * 5
        # exact endpoint values of the n = 0 pair
        endpoint = [r for r in rows if r[0] == "0" and float(r[1]) == np.pi][0]
        assert float(endpoint[2]) == 0.0 and float(endpoint[3]) == 1.0
        # every numeric cell carries 17 significant digits: parsing and
        # reformatting reproduces the cell, so doubles round-trip
        for row in rows:
            for cell in row[1:]:
                assert f"{float(cell):.17g}" == cell


class TestErrorsAndPlumbing:
    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "coeffs", "--function", "named:identity", "--frobnicate")
        assert code == 2

    def test_bad_function_spec_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "coeffs", "--function", "sin(x)", "--interval", "pi",
        )
        assert code == 2
        assert "error" in err

    def test_bad_interval_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "coeffs", "--function", "named:identity", "--interval", "-2",
        )
        assert code == 2

    def test_nonconvergence_exits_1_with_error_json(self, capsys):
        code, out, err = run_cli(
            capsys, "coeffs", "--function", "named:identity", "--interval", "pi",
            "--n", "0", "--quad-tol", "1e-18", "--format", "json",
        )
        assert code == 1
        assert json.loads(out)["error"]["type"] == "NonConvergence"
        assert err.splitlines()[-1].startswith("antifourier coeffs: error: ")

    def test_nonconvergence_csv_emits_no_partial_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "coeffs", "--function", "named:identity", "--interval", "pi",
            "--n", "0", "--quad-tol", "1e-18", "--format", "csv",
        )
        assert code == 1
        assert out == ""

    def test_out_file_is_atomic_on_failure(self, capsys, tmp_path):
        target = tmp_path / "data.csv"
        code = main([
            "coeffs", "--function", "named:identity", "--interval", "pi",
            "--n", "0", "--quad-tol", "1e-18", "--format", "csv", "--out", str(target),
        ])
        capsys.readouterr()
        assert code == 1
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []  # no temp leftovers

    def test_out_file_written(self, capsys, tmp_path):
        target = tmp_path / "basis.csv"
        code = main([
            "basis", "--interval", "1", "--n", "0", "--grid", "3",
            "--format", "csv", "--out", str(target),
        ])
        capsys.readouterr()
        assert code == 0
        assert target.read_text().startswith("n,x,cos,sin\n")

    def test_env_var_tolerance(self, capsys, monkeypatch):
        monkeypatch.setenv("ANTIFOURIER_QUAD_TOL", "1e-18")
        code, _, _ = run_cli(
            capsys, "coeffs", "--function", "named:identity", "--interval", "pi", "--n", "0",
        )
        assert code == 1  # unattainable tolerance came from the environment

    def test_flag_beats_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("ANTIFOURIER_QUAD_TOL", "1e-18")
        code, out, _ = run_cli(
            capsys, "coeffs", "--function", "named:identity", "--interval", "pi",
            "--n", "0", "--kind", "anti", "--quad-tol", "1e-10",
        )
        assert code == 0
        assert json.loads(out)["kind"] == "antiperiodic"

    def test_bad_env_var_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("ANTIFOURIER_QUAD_TOL", "tight")
        code, _, err = run_cli(
            capsys, "coeffs", "--function", "named:identity", "--interval", "pi",
        )
        assert code == 2
        assert "ANTIFOURIER_QUAD_TOL" in err


# a valid coefficient object of each kind
VALID_OBJECTS = {
    "classical": {"kind": "classical", "L": np.pi, "N": 1, "a": [0.0, 0.0], "b": [2.0]},
    "antiperiodic": {"kind": "antiperiodic", "L": np.pi, "N": 2, "gamma": 0.0,
                     "alpha": [0.0, 0.0, 0.0], "beta": [1.0, 0.5, 0.25]},
    "heat": {"kind": "heat", "k": 1.0, "L": np.pi, "c": 0.0, "N": 0, "A": [1.0], "B": [0.0]},
}
# coefficient files that --coeffs-file must refuse: name -> (kind, key, bad value)
BAD_COEFFICIENT_FILES = {
    "fractional-n": ("antiperiodic", "N", 2.7),
    "classical-L-zero": ("classical", "L", 0.0),
    "heat-L-negative": ("heat", "L", -2.0),
    "antiperiodic-L-nan": ("antiperiodic", "L", float("nan")),
    "classical-L-inf": ("classical", "L", float("inf")),
    "heat-k-zero": ("heat", "k", 0.0),
    "heat-k-negative": ("heat", "k", -1.0),
    "heat-k-nan": ("heat", "k", float("nan")),
    "antiperiodic-nested-alpha": ("antiperiodic", "alpha", [[0.0], [0.0], [0.0]]),
    "classical-nested-a": ("classical", "a", [[0.0, 0.0]]),
    "antiperiodic-string-entry": ("antiperiodic", "beta", [1.0, "2", 0.25]),
    "antiperiodic-string-gamma": ("antiperiodic", "gamma", "0"),
    "classical-boolean-entry": ("classical", "b", [True]),
    "antiperiodic-boolean-gamma": ("antiperiodic", "gamma", False),
}
# the eval --kind that reads each kind of file; with it and --n 0, a file that
# loads is evaluated instead of refused for a missing kind or a low order
EVAL_KIND = {"classical": ["--kind", "classical"], "antiperiodic": ["--kind", "anti"], "heat": []}


@pytest.mark.parametrize(
    "argv",
    [
        ["gibbs", "--function", "named:identity", "--n", "4", "--window-fraction", "0.7"],
        ["compare", "--function", "named:identity", "--orders", "4", "--window-fraction", "0.7"],
        ["gibbs", "--function", "named:identity", "--n", "4", "--subgrid", "100"],
        ["compare", "--function", "named:identity", "--orders", "4", "--subgrid", "100"],
        ["coeffs", "--function", "csv:{tmp}/missing.csv"],
        ["coeffs", "--function", "csv:{tmp}/latin-1.csv"],
        ["eval", "--function", "named:identity", "--coeffs-file", "{tmp}/missing.json"],
        ["eval", "--function", "named:identity", "--coeffs-file", "{tmp}/not-json.json"],
        *(["eval", "--function", "named:identity", *EVAL_KIND[kind], "--n", "0",
           "--coeffs-file", f"{{tmp}}/{name}.json"]
          for name, (kind, _, _) in BAD_COEFFICIENT_FILES.items()),
        ["basis", "--out", "{tmp}/no-such-dir/out.json"],
        ["compare", "--function", "named:identity", "--orders", "4", "--grid", "100"],
        # refused by size before any work, so none of these allocates anything
        ["eval", "--function", "named:identity", "--n", "1000", "--grid", "10000"],
        ["compare", "--function", "named:identity", "--orders", "10,4000"],
        ["compare", "--function", "named:identity", "--orders", "4", "--grid", "2000001"],
        ["gibbs", "--function", "named:identity", "--n", "400", "--subgrid", "100000"],
        ["heat", "--function", "named:identity", "--c", "0", "--grid", "1000000"],
        ["heat", "--function", "named:identity", "--c", "0", "--n", "0",
         "--times", ",".join(["1"] * 100), "--grid", "100000"],
        ["basis", "--n", "100000", "--grid", "100001"],
        ["coeffs", "--function", "named:identity", "--n", "1000000000000"],
        # f overflows to inf on [-pi, pi]: refused as not finite, with no warning
        ["coeffs", "--function", "poly:1e308,1e308", "--n", "2"],
    ],
    ids=[
        "gibbs-window", "compare-window", "gibbs-subgrid", "compare-subgrid", "missing-csv",
        "csv-not-utf8", "missing-coeffs-file", "coeffs-file-not-json",
        *(f"coeffs-file-{name}" for name in BAD_COEFFICIENT_FILES), "out-dir-missing",
        "compare-even-grid", "eval-size", "compare-orders-size", "compare-grid-size",
        "gibbs-size", "heat-size", "heat-times-size", "basis-size", "coeffs-order",
        "coeffs-overflow",
    ],
)
def test_input_and_file_errors_exit_2(capsys, tmp_path, argv):
    (tmp_path / "not-json.json").write_text("not json\n")
    (tmp_path / "latin-1.csv").write_bytes(b"x,y\n-3.14,\xe9\n3.14,1\n")
    for name, (kind, key, value) in BAD_COEFFICIENT_FILES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({**VALID_OBJECTS[kind], key: value}))
    inputs = sorted(tmp_path.iterdir())
    argv = [arg.format(tmp=tmp_path) for arg in argv] + ["--interval", "pi", "--format", "json"]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out.json")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    # rejected flag values and later input errors end on the same line format
    assert err.splitlines()[-1].startswith(f"antifourier {argv[0]}: error: ")
    assert "Traceback" not in err
    assert out == ""
    assert sorted(tmp_path.iterdir()) == inputs  # no output or temp file


@pytest.mark.parametrize("command", ["coeffs", "eval", "compare", "gibbs", "heat", "basis"])
def test_defaults_pass_the_size_guard(command):
    function = [] if command == "basis" else ["--function", "named:identity"]
    _check_size(build_parser().parse_args([command, *function, "--interval", "pi"]))


def test_size_guard_refuses_one_value_past_the_limit():
    def basis(grid):
        return build_parser().parse_args(["basis", "--interval", "1", "--n", "0", "--grid", grid])

    _check_size(basis(str(MAX_VALUES)))
    with pytest.raises(ValidationError) as info:
        _check_size(basis(str(MAX_VALUES + 1)))
    assert f"is {MAX_VALUES + 1} values, above the limit of {MAX_VALUES}" in str(info.value)


def test_order_guard_refuses_one_harmonic_past_the_limit():
    def coeffs(n):
        return build_parser().parse_args(
            ["coeffs", "--function", "named:identity", "--interval", "pi", "--n", str(n)]
        )

    _check_size(coeffs(MAX_HARMONICS - 1))
    with pytest.raises(ValidationError) as info:
        _check_size(coeffs(MAX_HARMONICS))
    assert str(info.value) == (
        f"largest order + 1 is {MAX_HARMONICS + 1} harmonics, above the limit of {MAX_HARMONICS}"
    )


def test_table_past_the_row_cap_is_refused(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(catalog, "MAX_TABLE_ROWS", 4)
    path = tmp_path / "table.csv"
    argv = ["coeffs", "--function", f"csv:{path}", "--interval", "1", "--n", "1"]
    path.write_text("x,y\n-1,0\n0,1\n1,0\n")  # 4 rows, header included
    assert run_cli(capsys, *argv)[0] == 0
    path.write_text("x,y\n-1,0\n-0.5,1\n0,1\n1,0\n")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == f"antifourier coeffs: error: {path}: more than 4 rows, the limit"


@pytest.mark.parametrize(
    "argv",
    [["coeffs", "--n", "2"], ["compare", "--orders", "2", "--grid", "101"]],
    ids=["coeffs", "compare"],
)
def test_table_whose_integrals_overflow_is_refused(capsys, tmp_path, argv):
    table, target = tmp_path / "huge.csv", tmp_path / "out.json"
    table.write_text("-1,1e308\n0,0\n1,-1e308\n")
    code, out, err = run_cli(
        capsys, *argv, "--function", f"csv:{table}", "--interval", "1", "--out", str(target)
    )
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"antifourier {argv[0]}: error: cosine coefficient n=1 is not finite: "
        "the table's values are too large"
    ]
    assert not target.exists()


def test_callable_whose_values_overflow_is_refused(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, err = run_cli(
        capsys, "coeffs", "--function", "poly:1e308,1e308", "--interval", "1", "--n", "2",
        "--out", str(target),
    )
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "antifourier coeffs: error: cosine coefficient n=0 is not finite: "
        "the function's values are too large"
    ]
    assert not target.exists()


def test_callable_whose_rule_overflows_is_a_numerical_failure(capsys):
    # finite samples of 1e308 overflow the Simpson sums: exit 1, no warning
    code, out, err = run_cli(
        capsys, "coeffs", "--function", "poly:5e307,5e307", "--interval", "1", "--n", "2",
        "--format", "json",
    )
    message = ("cosine coefficient n=0 did not converge: "
               "the integrand's values overflow the Simpson rule at depth 0")
    assert code == 1
    assert json.loads(out) == {"error": {"type": "NonConvergence", "message": message}}
    assert err.splitlines() == [f"antifourier coeffs: error: {message}"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "antifourier", "basis", "--interval", "1", "--n", "0",
         "--grid", "3", "--format", "json"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["n"] == [0]

import errno
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from antifourier import (
    FunctionSpec,
    HeatProblem,
    Named,
    ValidationError,
    _kernels,
    antiperiodic_coefficients,
    catalog,
    classical_coefficients,
    cli,
    compare_orders,
    evaluate,
    gibbs_overshoot,
    half_basis,
    heat_eval,
    heat_eval_dx,
    io,
    parse_function_spec,
    partial_sum,
    solve_heat,
)
from antifourier._kernels import first_level_values
from antifourier.cli import MAX_VALUES, _check_size, build_parser, main
from antifourier.diagnostics import REPORT_COLUMNS, report_rows
from conftest import child_env, two_level_values


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

    def test_default_ladder_on_a_table_takes_each_basis_once(self, capsys, tmp_path,
                                                              basis_values):
        # the two table projections of harmonics 0..400 (the two table ends
        # and a two-level node sum each), then the 400 and 401 modes of the
        # two series in one call on the grid and one on the right window,
        # whose basis also gives the left window's sums
        rows = 3000
        xs = np.linspace(-2.0, 2.0, rows)
        noise = 0.01 * np.random.default_rng(0).standard_normal(rows)
        ys = 0.5 * xs + 0.2 * np.sin(0.75 * np.pi * xs) + noise
        table = tmp_path / "table.csv"
        table.write_text("".join(f"{x:.17g},{y:.17g}\n" for x, y in zip(xs, ys)))
        code, out, _ = run_cli(
            capsys, "compare", "--function", f"csv:{table}", "--interval", "2", "--format", "csv"
        )
        assert code == 0 and len(parse_csv(out)[1]) == 12
        tables = 2 * (2 * 401 + two_level_values(401, rows))
        ladder = two_level_values((400, 401), 2001 + 4001)
        assert sum(basis_values) == tables + ladder == 655_738

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


HEAT_ARGV = ("heat", "--function", "named:scaled-square", "--interval", "pi", "--k", "0.7",
             "--c", "1", "--n", "9", "--times", "0,0.3,1e-9,2.5", "--grid", "41", "--flux")


def per_row_csv(header, rows):
    return ",".join(header) + "\n" + "".join(",".join(map(io.fmt, row)) + "\n" for row in rows)


class TestOutputOracles:
    """Every CSV table against the row-by-row writer it replaced, one io.fmt
    per cell: the tables are written as blocks with the same bytes."""

    @staticmethod
    def heat_oracle():
        spec = FunctionSpec(np.pi, Named("scaled-square"))
        sol = solve_heat(HeatProblem(0.7, np.pi, 1.0, spec), 9)
        xs = np.linspace(-np.pi, np.pi, 41)
        times = (0.0, 0.3, 1e-9, 2.5)
        fields = {"u": heat_eval, "ux": heat_eval_dx}
        data = {name: [fn(sol, xs, t).tolist() for t in times] for name, fn in fields.items()}
        return sol, xs.tolist(), times, data

    def test_heat_flux_csv(self, capsys):
        _, grid, times, data = self.heat_oracle()
        rows = (
            (x, t, *(values[j][i] for values in data.values()))
            for j, t in enumerate(times)
            for i, x in enumerate(grid)
        )
        code, out, _ = run_cli(capsys, *HEAT_ARGV, "--format", "csv")
        assert code == 0
        assert out == per_row_csv(("x", "t", "u", "ux"), rows)

    def test_heat_flux_json(self, capsys):
        sol, grid, times, data = self.heat_oracle()
        payload = {"solution": io.to_dict(sol), "x": grid, "times": list(times), **data}
        code, out, _ = run_cli(capsys, *HEAT_ARGV, "--format", "json")
        assert code == 0
        assert out == json.dumps(payload) + "\n"

    def test_basis_csv(self, capsys):
        xs = np.linspace(-2.5, 2.5, 9)
        grid = xs.tolist()
        pairs = [[v.tolist() for v in half_basis(n, 2.5, xs)] for n in range(4)]
        rows = ((n, x, c[i], s[i]) for n, (c, s) in enumerate(pairs) for i, x in enumerate(grid))
        code, out, _ = run_cli(
            capsys, "basis", "--interval", "2.5", "--n", "3", "--grid", "9", "--format", "csv"
        )
        assert code == 0
        assert out == per_row_csv(("n", "x", "cos", "sin"), rows)

    @pytest.mark.parametrize("N", [0, 12])
    @pytest.mark.parametrize("kind", ["classical", "anti", "both"])
    def test_coeffs_csv(self, capsys, kind, N):
        spec = parse_function_spec("poly:0.5,2,1", 1.0)

        def rows():
            if kind != "anti":
                c = classical_coefficients(spec, N)
                yield ("classical", 0, c.a[0], "", "")
                yield from (("classical", n, c.a[n], c.b[n - 1], "") for n in range(1, N + 1))
            if kind != "classical":
                c = antiperiodic_coefficients(spec, N)
                yield from (("antiperiodic", n, c.alpha[n], c.beta[n], c.gamma)
                            for n in range(N + 1))

        code, out, _ = run_cli(
            capsys, "coeffs", "--function", "poly:0.5,2,1", "--interval", "1", "--kind", kind,
            "--n", str(N), "--format", "csv",
        )
        assert code == 0
        assert out == per_row_csv(("kind", "n", "cos", "sin", "gamma"), rows())

    def test_eval_csv(self, capsys):
        spec = parse_function_spec("named:signum", 1.0)
        xs = np.linspace(-1.0, 1.0, 9)
        columns = [xs, evaluate(spec, xs)] + [
            partial_sum(fn(spec, 6), xs, 6)
            for fn in (classical_coefficients, antiperiodic_coefficients)
        ]
        code, out, _ = run_cli(
            capsys, "eval", "--function", "named:signum", "--interval", "1", "--n", "6",
            "--grid", "9", "--format", "csv",
        )
        assert code == 0
        rows = zip(*(col.tolist() for col in columns))
        assert out == per_row_csv(("x", "f", "classical", "antiperiodic"), rows)

    def test_compare_csv(self, capsys):
        # an undefined decay fit: nan cells
        spec = parse_function_spec("named:const:1", 1.0)
        reports = compare_orders(
            spec, classical_coefficients(spec, 25), antiperiodic_coefficients(spec, 25),
            orders=(10, 25), grid_size=101, window_fraction=0.1, subgrid_points=4001,
        )
        code, out, _ = run_cli(
            capsys, "compare", "--function", "named:const:1", "--interval", "1",
            "--orders", "10,25", "--grid", "101", "--format", "csv",
        )
        assert code == 0
        assert out == per_row_csv(REPORT_COLUMNS, report_rows(reports))

    def test_gibbs_csv(self, capsys):
        spec = parse_function_spec("named:identity", np.pi)
        series = {"classical": classical_coefficients(spec, 40),
                  "antiperiodic": antiperiodic_coefficients(spec, 40)}
        rows = ((kind, 40, 0.1, 2001, gibbs_overshoot(spec, coeffs, 40, 0.1, 2001))
                for kind, coeffs in series.items())
        code, out, _ = run_cli(
            capsys, "gibbs", "--function", "named:identity", "--interval", "pi", "--n", "40",
            "--subgrid", "2001", "--format", "csv",
        )
        assert code == 0
        assert out == per_row_csv(cli.GIBBS_COLUMNS, rows)


# one CSV call of every command
CSV_CALLS = {
    "coeffs": ("coeffs", "--function", "named:identity", "--interval", "pi", "--n", "3"),
    "eval": ("eval", "--function", "named:signum", "--interval", "1", "--n", "4", "--grid", "9"),
    "compare": ("compare", "--function", "named:identity", "--interval", "1", "--orders", "2,4",
                "--grid", "11", "--subgrid", "2001"),
    "gibbs": ("gibbs", "--function", "named:signum", "--interval", "1", "--n", "8",
              "--subgrid", "2001"),
    "heat": HEAT_ARGV,
    "basis": ("basis", "--interval", "pi", "--n", "2", "--grid", "7"),
}


@pytest.mark.parametrize("command", sorted(CSV_CALLS))
def test_csv_output_goes_through_csv_text(capsys, monkeypatch, command):
    """The benchmark's tracer times io.csv_text, cli.heat_eval and
    cli.heat_eval_dx by name: every CSV byte is written in csv_text, and heat
    evaluates each field in one call."""
    results = {}

    def recorded(module, name):
        fn = getattr(module, name)
        results[name] = []

        def wrapper(*args):
            results[name].append(fn(*args))
            return results[name][-1]

        monkeypatch.setattr(module, name, wrapper)

    recorded(io, "csv_text")
    recorded(cli, "heat_eval")
    recorded(cli, "heat_eval_dx")
    code, out, _ = run_cli(capsys, *CSV_CALLS[command], "--format", "csv")
    assert code == 0
    assert results["csv_text"] == [out]
    calls = (1, 1) if command == "heat" else (0, 0)
    assert (len(results["heat_eval"]), len(results["heat_eval_dx"])) == calls


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
        for value in ("1e-18", "tight"):  # unattainable, and not a number
            monkeypatch.setenv("ANTIFOURIER_QUAD_TOL", value)
            code, out, _ = run_cli(
                capsys, "coeffs", "--function", "named:identity", "--interval", "pi",
                "--n", "0", "--kind", "anti", "--quad-tol", "1e-10",
            )
            assert code == 0
            assert json.loads(out)["kind"] == "antiperiodic"

    def test_bad_env_var_exits_2(self, capsys, monkeypatch):
        # the variable is the flag's default, checked as the flag is
        for value in ("tight", "0", "-1", "inf", "nan", ""):
            monkeypatch.setenv("ANTIFOURIER_QUAD_TOL", value)
            code, out, err = run_cli(
                capsys, "coeffs", "--function", "named:identity", "--interval", "pi",
            )
            assert (code, out) == (2, "")
            assert err.splitlines()[-1] == (
                "antifourier coeffs: error: argument --quad-tol: expected a positive number "
                f"(--quad-tol or ANTIFOURIER_QUAD_TOL), got {value!r}"
            )

    def test_basis_does_not_read_the_env_var(self, capsys, monkeypatch):
        argv = ("basis", "--interval", "1", "--n", "2", "--grid", "5", "--format", "csv")
        expected = run_cli(capsys, *argv)
        assert expected[0] == 0
        monkeypatch.setenv("ANTIFOURIER_QUAD_TOL", "tight")
        assert run_cli(capsys, *argv) == expected

    def test_basis_takes_no_quad_tol(self, capsys):
        code, out, err = run_cli(capsys, "basis", "--interval", "1", "--quad-tol", "1e-3")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            "antifourier: error: unrecognized arguments: --quad-tol 1e-3"
        )


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
        ["coeffs", "--function", "named:identity", "--n", "3", "--out", "{tmp}/a-directory"],
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
        # a cell past the csv module's field limit, and JSON nested past the recursion limit
        ["coeffs", "--function", "csv:{tmp}/big.csv", "--n", "2"],
        ["eval", "--function", "named:identity", "--coeffs-file", "{tmp}/deep.json"],
        # a valid file, but f overflows to inf on the grid
        ["eval", "--function", "poly:1e308,1e308", "--kind", "classical", "--n", "1",
         "--grid", "3", "--coeffs-file", "{tmp}/classical.json"],
        # finite f and coefficients, but the partial sum overflows to inf at x = 0
        ["eval", "--function", "named:identity", "--kind", "classical", "--n", "2",
         "--grid", "3", "--coeffs-file", "{tmp}/overflowing-sum.json"],
    ],
    ids=[
        "gibbs-window", "compare-window", "gibbs-subgrid", "compare-subgrid", "missing-csv",
        "csv-not-utf8", "missing-coeffs-file", "coeffs-file-not-json",
        *(f"coeffs-file-{name}" for name in BAD_COEFFICIENT_FILES), "out-dir-missing",
        "out-is-a-directory",
        "compare-even-grid", "eval-size", "compare-orders-size", "compare-grid-size",
        "gibbs-size", "heat-size", "heat-times-size", "basis-size", "coeffs-order",
        "coeffs-overflow", "csv-huge-cell", "coeffs-file-deep", "eval-coeffs-file-overflow",
        "eval-coeffs-file-sum-overflow",
    ],
)
def test_input_and_file_errors_exit_2(capsys, tmp_path, argv):
    (tmp_path / "not-json.json").write_text("not json\n")
    (tmp_path / "latin-1.csv").write_bytes(b"x,y\n-3.14,\xe9\n3.14,1\n")
    (tmp_path / "big.csv").write_text("x,y\n-3.14," + "1" * 200_000 + "\n3.14,1\n")
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    (tmp_path / "a-directory").mkdir()
    (tmp_path / "classical.json").write_text(json.dumps(VALID_OBJECTS["classical"]))
    (tmp_path / "overflowing-sum.json").write_text(json.dumps(
        {**VALID_OBJECTS["classical"], "N": 2, "a": [1e308] * 3, "b": [0.0, 0.0]}
    ))
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


def test_out_naming_a_directory_names_the_target(capsys, tmp_path):
    target = tmp_path / "a-directory"
    target.mkdir()
    code, out, err = run_cli(
        capsys, "coeffs", "--function", "named:identity", "--interval", "1", "--n", "3",
        "--out", str(target),
    )
    assert (code, out) == (2, "")
    reason = os.strerror(errno.EISDIR)
    assert err.splitlines() == [
        f"antifourier coeffs: error: [Errno {errno.EISDIR}] cannot write {target}: {reason}"
    ]
    assert ".antifourier-" not in err
    assert list(tmp_path.glob(".antifourier-*.tmp")) == []  # the temp file is removed
    assert list(target.iterdir()) == []


def test_parser_is_built_once_for_each_value_of_the_env_var(monkeypatch):
    monkeypatch.delenv("ANTIFOURIER_QUAD_TOL", raising=False)
    parser = build_parser()
    assert build_parser() is parser
    monkeypatch.setenv("ANTIFOURIER_QUAD_TOL", "1e-8")
    tighter = build_parser()
    assert tighter is not parser and build_parser() is tighter
    argv = ["coeffs", "--function", "named:identity", "--interval", "1"]
    assert tighter.parse_args(argv).quad_tol == 1e-8
    monkeypatch.delenv("ANTIFOURIER_QUAD_TOL")
    assert build_parser().parse_args(argv).quad_tol == 1e-10


@pytest.mark.parametrize("command", ["basis", "eval", "gibbs"])
def test_interval_whose_width_overflows_exits_2(capsys, command):
    # np.linspace(-L, L, n) overflows past L = 8.99e307, so 2L must be finite
    function = [] if command == "basis" else ["--function", "named:identity", "--n", "1"]
    code, out, err = run_cli(capsys, command, *function, "--interval", "1e308")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        f"antifourier {command}: error: argument --interval: expected a positive "
        "half-width L with 2L finite, or 'pi', got '1e308'"
    )
    code, out, _ = run_cli(capsys, "basis", "--interval", "8.9e307", "--n", "1", "--grid", "5")
    assert code == 0
    assert np.isfinite(json.loads(out)["x"]).all()


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


CALLABLE_TERM = "first-level panels x (largest order + 1 + terms of f)"


def test_order_guard_refuses_one_harmonic_past_the_limit():
    # a callable projection counts its first quadrature level against
    # MAX_VALUES: a family over orders 0..n starts on 2 (n // 2 + 1) panels
    def coeffs(function, n):
        return build_parser().parse_args(
            ["coeffs", "--function", function, "--interval", "pi", "--n", str(n)]
        )

    def poly(terms):
        return "poly:" + ",".join(["1"] * terms)

    _check_size(coeffs("named:identity", 2894))  # 2896 x 2896 = 8,386,816
    with pytest.raises(ValidationError) as info:
        _check_size(coeffs("named:identity", 2895))
    assert str(info.value) == (
        f"{CALLABLE_TERM} is {2896 * 2897} values, above the limit of {MAX_VALUES}"
    )
    _check_size(coeffs(poly(7168), 1023))  # 1024 x 8192 = 2^23
    with pytest.raises(ValidationError) as info:
        _check_size(coeffs(poly(7169), 1023))
    assert str(info.value) == (
        f"{CALLABLE_TERM} is {1024 * 8193} values, above the limit of {MAX_VALUES}"
    )


@pytest.mark.parametrize("N", [0, 7, 10])
def test_callable_term_counts_the_panels_each_family_starts_on(monkeypatch, N):
    spec = parse_function_spec("poly:1,2,3", 1.0)
    starts = []

    def spy(rule, a, b, abs_tol, rows, panels):
        starts.append(panels)
        return np.zeros(rows)

    monkeypatch.setattr(_kernels, "integrate", spy)
    # the projections of coeffs, eval, compare and gibbs
    classical_coefficients(spec, N)
    antiperiodic_coefficients(spec, N)
    assert set(starts) == {first_level_values(spec, N) // (N + 1 + 3)}


def test_heat_times_x_grid_refuses_one_value_past_the_limit():
    # 2^23 + 1 = 3 x 2,796,203
    def heat(grid):
        return build_parser().parse_args(
            ["heat", "--function", "named:identity", "--interval", "1", "--n", "0",
             "--times", "0,0,0", "--grid", str(grid)]
        )

    _check_size(heat(2796202))
    with pytest.raises(ValidationError) as info:
        _check_size(heat(2796203))
    assert str(info.value) == f"times x grid is {MAX_VALUES + 1} values, above the limit of 8388608"


def test_callable_orders_past_1023_run(capsys):
    code, out, _ = run_cli(
        capsys, "coeffs", "--kind", "anti", "--n", "1024", "--function", "named:signum",
        "--interval", "1",
    )
    assert code == 0
    assert json.loads(out)["N"] == 1024


def test_longest_polynomial_at_order_1023_is_refused_before_any_work(
    capsys, tmp_path, monkeypatch
):
    # the longest poly: spec one argv string holds, 65,533 coefficients
    function = "poly:" + ",".join(["1"] * 65533)
    monkeypatch.setattr(
        cli, "_compute_series", lambda *_: pytest.fail("f was projected past the size limit")
    )
    out_path = tmp_path / "out.json"
    code, out, err = run_cli(
        capsys, "coeffs", "--kind", "both", "--n", "1023", "--function", function,
        "--interval", "1", "--out", str(out_path),
    )
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"antifourier coeffs: error: {CALLABLE_TERM} is {1024 * (1024 + 65533)} values, "
        "above the limit of 8388608"
    ]
    assert list(tmp_path.iterdir()) == []


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


def test_table_reports_its_first_problem_in_file_order(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(catalog, "MAX_TABLE_ROWS", 4)
    path = tmp_path / "table.csv"
    path.write_text("x,y\n-1,0\n-0.5,one\n0,1\n0.5,1\n1,0\n")  # 6 rows, row 2 not numeric
    code, out, err = run_cli(capsys, "coeffs", "--function", f"csv:{path}", "--interval", "1")
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == (
        f"antifourier coeffs: error: {path}: row 2 is not numeric: ['-0.5', 'one']"
    )


COEFFS_ARGV, COMPARE_ARGV = ["coeffs", "--n", "2"], ["compare", "--orders", "2", "--grid", "101"]


@pytest.mark.parametrize(
    "argv, rows, family",
    [
        # odd: the cosine terms cancel to exactly 0.0, the sine ends overflow
        (COEFFS_ARGV, "-1,1e308\n0,0\n1,-1e308\n", "sine"),
        (COMPARE_ARGV, "-1,1e308\n0,0\n1,-1e308\n", "sine"),
        # even: the slope change at 0 overflows the cosine node sums
        (COEFFS_ARGV, "-1,1e308\n0,0\n1,1e308\n", "cosine"),
        (COMPARE_ARGV, "-1,1e308\n0,0\n1,1e308\n", "cosine"),
    ],
    ids=["coeffs", "compare", "coeffs-even", "compare-even"],
)
def test_table_whose_integrals_overflow_is_refused(capsys, tmp_path, argv, rows, family):
    table, target = tmp_path / "huge.csv", tmp_path / "out.json"
    table.write_text(rows)
    code, out, err = run_cli(
        capsys, *argv, "--function", f"csv:{table}", "--interval", "1", "--out", str(target)
    )
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"antifourier {argv[0]}: error: {family} coefficient n=1 is not finite: "
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


@pytest.mark.parametrize("kind, family", [("classical", "sine coefficient n=1"),
                                          ("anti", "half-sine coefficient n=0")])
def test_a_callable_set_names_the_family_whose_own_fold_overflows(capsys, kind, family):
    # 1e308 x folds to exactly 0.0 for the cosine families, and overflows
    # only in the sine folds, which the cosine families never read
    code, out, err = run_cli(capsys, "coeffs", "--function", "poly:0,1e308", "--interval", "1",
                             "--n", "3", "--kind", kind)
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"antifourier coeffs: error: {family} is not finite: the function's values are too large"
    ]


def test_an_earlier_family_that_fails_is_named_before_a_later_overflow(capsys):
    # the cosine family fails on the first panels at abs_tol=1e-17, and the
    # sine fold of 1e307 + 1e308 x overflows: the cosine failure is reported
    code, out, err = run_cli(capsys, "coeffs", "--function", "poly:1e307,1e308", "--interval",
                             "1", "--n", "3", "--quad-tol", "1e-17")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "NonConvergence"
    assert err.startswith("antifourier coeffs: error: cosine coefficient n=0 did not converge: "
                          "abs_tol=1e-17 is below the error attainable in double precision")


def test_eval_of_a_function_that_overflows_on_the_grid_is_refused(capsys, tmp_path):
    # the file is valid at L = 3e306; only f at the grid ends overflows
    source, target = tmp_path / "classical.json", tmp_path / "out.json"
    flags = ["--interval", "3e306", "--kind", "classical", "--n", "1"]
    assert run_cli(capsys, "coeffs", "--function", "poly:1", *flags, "--out", str(source))[0] == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "eval", "--function", "poly:1,2,0,-1", *flags, "--grid", "3",
            "--coeffs-file", str(source), "--out", str(target),
        )
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "antifourier eval: error: f is not finite at x=-3e+306: its values are too large"
    ]
    assert not target.exists()


def test_eval_of_a_partial_sum_that_overflows_on_the_grid_is_refused(capsys, tmp_path):
    # finite coefficients whose sum at x = 0 is 0.5e308 + 1e308 + 1e308
    source, target = tmp_path / "classical.json", tmp_path / "out.json"
    source.write_text(json.dumps({**VALID_OBJECTS["classical"], "N": 2, "a": [1e308] * 3,
                                  "b": [0.0, 0.0]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "eval", "--function", "named:identity", "--interval", "pi", "--kind",
            "classical", "--n", "2", "--grid", "3", "--coeffs-file", str(source),
            "--out", str(target),
        )
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "antifourier eval: error: classical is not finite at x=0.0: its values are too large"
    ]
    assert not target.exists()


def test_callable_whose_rule_overflows_is_a_numerical_failure(capsys):
    # finite samples of 1e308 overflow the Gauss-Legendre sums: exit 1, no warning;
    # at --n 2 the top multiplier 2 starts the family on 4 panels
    code, out, err = run_cli(
        capsys, "coeffs", "--function", "poly:5e307,5e307", "--interval", "1", "--n", "2",
        "--format", "json",
    )
    message = ("cosine coefficient n=0 did not converge: "
               "the integrand's values overflow the Gauss-Legendre rule on 4 panels")
    assert code == 1
    assert json.loads(out) == {"error": {"type": "NonConvergence", "message": message}}
    assert err.splitlines() == [f"antifourier coeffs: error: {message}"]


def test_harmonic_cap_bounds_only_callable_projections(capsys, tmp_path):
    # basis and a table run no quadrature, so only the value cap bounds them
    code, out, _ = run_cli(capsys, "basis", "--interval", "1", "--n", "1024", "--grid", "3")
    assert code == 0 and json.loads(out)["n"] == list(range(1025))
    table = tmp_path / "table.csv"
    table.write_text("x,y\n-1,0\n0,1\n1,0\n")
    code, out, _ = run_cli(
        capsys, "compare", "--function", f"csv:{table}", "--interval", "1",
        "--orders", "1024", "--grid", "3", "--subgrid", "2001",
    )
    assert code == 0 and [row["order"] for row in json.loads(out)] == [1024, 1024]


def test_table_projection_is_bounded_by_harmonics_times_rows(capsys, tmp_path):
    # a table runs no quadrature, but its node sums take (order + 1) x rows
    # products, and heat holds times x (order + 1) decay factors
    table = tmp_path / "table.csv"
    table.write_text("x,y\n-1,0\n0,1\n1,0\n")

    def args(command, n, *extra):
        return build_parser().parse_args(
            [command, "--function", f"csv:{table}", "--interval", "1", "--n", str(n), *extra]
        )

    _check_size(args("coeffs", MAX_VALUES // 3 - 1))
    with pytest.raises(ValidationError) as info:
        _check_size(args("coeffs", MAX_VALUES // 3))
    assert str(info.value) == (
        f"(largest order + 1) x table rows is {3 * (MAX_VALUES // 3 + 1)} values, "
        f"above the limit of {MAX_VALUES}"
    )
    times = ",".join(["1"] * 9)
    with pytest.raises(ValidationError) as info:
        _check_size(args("heat", MAX_VALUES // 9, "--times", times, "--grid", "3"))
    assert str(info.value).startswith("times x (largest order + 1) is ")
    # reusing a coefficients file projects nothing
    _check_size(args("eval", 2000, "--grid", "3", "--coeffs-file", "unused.json"))
    code, out, err = run_cli(
        capsys, "coeffs", "--function", f"csv:{table}", "--interval", "1", "--n", "1000000000"
    )
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "antifourier coeffs: error: (largest order + 1) x table rows is 3000000003 values, "
        f"above the limit of {MAX_VALUES}"
    ]


def test_named_parameter_must_be_finite(capsys):
    code, out, err = run_cli(
        capsys, "coeffs", "--function", "named:const:nan", "--interval", "1", "--n", "1"
    )
    assert (code, out) == (2, "")
    assert err.splitlines() == ["antifourier coeffs: error: 'const' parameters must be finite"]


def test_coefficient_tolerance_holds_on_a_wide_interval(capsys):
    # abs_tol bounds each coefficient, not the integral over [0, L]: at L = 1000
    # the b_n of the identity are about 600 and stay within 1e-10
    L, N = 1000.0, 20
    code, out, _ = run_cli(
        capsys, "coeffs", "--function", "named:identity", "--interval", "1000", "--n", str(N),
        "--kind", "classical",
    )
    assert code == 0
    n = np.arange(1, N + 1)
    exact = 2.0 * L * (-1.0) ** (n + 1) / (n * np.pi)
    assert np.abs(np.array(json.loads(out)["b"]) - exact).max() <= 1e-10


@pytest.mark.parametrize("interval", ["2e306", "3e306"])
def test_constant_on_a_huge_interval(capsys, interval):
    code, out, _ = run_cli(
        capsys, "coeffs", "--function", "named:const:1", "--interval", interval, "--n", "1",
        "--kind", "classical",
    )
    assert code == 0
    assert json.loads(out)["a"][0] == 2.0


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_heat_at_time_zero_on_a_tiny_interval(capsys, fmt):
    # omega^2 overflows at L = 1e-300; e^(lambda k t) is exactly 1.0 at t = 0
    code, out, err = run_cli(
        capsys, "heat", "--function", "poly:0", "--interval", "1e-300", "--c", "0", "--n", "3",
        "--grid", "5", "--times", "0,1", "--flux", "--format", fmt,
    )
    assert (code, err) == (0, "")
    if fmt == "json":
        data = json.loads(out, parse_constant=refuse_constant)
        values = [data["u"], data["ux"]]
    else:
        values = [[row[2:] for row in parse_csv(out)[1]]]
    assert np.array(values, dtype=float).tolist() == np.zeros(np.shape(values)).tolist()


def refuse_constant(name):
    raise ValueError(f"JSON holds {name}, which RFC 8259 lacks")


# Subnormal half-widths are out of scope: there omega = pi / (2L) itself
# overflows.  Every other positive L with 2L finite is in.
HOSTILE_INTERVALS = ["1e-300", "1e-150", "3e306"]
HOSTILE_ARGS = {
    "coeffs": ["--n", "3"],
    "eval": ["--n", "3", "--grid", "5"],
    "compare": ["--orders", "2,4", "--grid", "5", "--subgrid", "2001"],
    "gibbs": ["--n", "4", "--subgrid", "2001"],
    "heat": ["--n", "3", "--grid", "5", "--times", "0,1", "--flux"],
}


@pytest.mark.parametrize("interval", HOSTILE_INTERVALS)
@pytest.mark.parametrize("command", [*HOSTILE_ARGS, "basis"])
def test_hostile_interval_fails_cleanly_or_gives_valid_output(capsys, tmp_path, command, interval):
    L = float(interval)
    table = tmp_path / "table.csv"
    table.write_text(f"x,y\n{-L!r},1\n0,-1\n{L!r},0.5\n")
    # each body with the boundary mean c that makes it compatible heat data
    bodies = {"named:x-plus-sign": "0", "poly:1,2,0,-1": "1", f"csv:{table}": "0.75"}
    if command == "basis":
        runs = [["basis", "--n", "3", "--grid", "5"]]
    else:
        runs = [
            [command, "--function", function, *HOSTILE_ARGS[command],
             *(["--c", c] if command == "heat" else [])]
            for function, c in bodies.items()
        ]
    for argv in runs:
        for fmt in ("json", "csv"):
            code, out, err = run_cli(capsys, *argv, "--interval", interval, "--format", fmt)
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err
            if code == 0 and fmt == "json":
                json.loads(out, parse_constant=refuse_constant)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "antifourier", "basis", "--interval", "1", "--n", "0",
         "--grid", "3", "--format", "json"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["n"] == [0]

"""CLI tests: parsing, exit codes, reports, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qwasser
from qwasser.cli import main, parse_state_spec
from qwasser.errors import InternalConsistencyError, SolverAccuracyError


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStateParsing:
    def test_named(self):
        rho = parse_state_spec("plus_z", "s")
        assert rho[0, 0] == 1.0

    def test_bloch(self):
        rho = parse_state_spec("bloch:0,0,-1", "s")
        assert rho[1, 1] == 1.0

    def test_inline_json_bloch(self):
        rho = parse_state_spec('{"bloch": [0, 0, 1]}', "s")
        assert rho[0, 0] == 1.0

    def test_inline_json_matrix(self):
        spec = '{"matrix": [[0.5, 0], [0, -0.5], [0, 0.5], [0.5, 0]]}'
        rho = parse_state_spec(spec, "s")
        assert rho[0, 1] == -0.5j

    def test_bad_spec_raises(self):
        from qwasser.errors import DomainError

        with pytest.raises(DomainError):
            parse_state_spec("plus_w", "s")


class TestDistanceCommand:
    def test_pole_distance(self, capsys):
        code, out, _ = run_cli(capsys, ["distance", "--cost", "z", "plus_z", "minus_z"])
        assert code == 0
        assert "D          = 2" in out

    def test_pure_self_sym(self, capsys):
        code, out, _ = run_cli(capsys, ["distance", "--cost", "sym", "plus_x", "plus_x"])
        assert code == 0
        assert "D^2        = 4" in out

    def test_mixed_center(self, capsys):
        code, out, _ = run_cli(
            capsys, ["distance", "--cost", "z", "maximally_mixed", "maximally_mixed"]
        )
        assert code == 0
        assert "D          = 0" in out

    def test_custom_cost_matches_z(self, capsys):
        sigma_z = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]
        gens = json.dumps([sigma_z])
        code, out, _ = run_cli(
            capsys,
            ["distance", "--cost", "custom", "--generators", gens, "plus_z", "minus_z"],
        )
        assert code == 0
        assert "D          = 2" in out

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["distance", "--cost", "z", "plus_w", "minus_z"])
        assert code == 2
        assert "error" in err

    def test_bad_bloch_norm_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, ["distance", "--cost", "z", "bloch:0,0,1.5", "plus_z"])
        assert code == 2

    @pytest.mark.parametrize("spec", ["bloch:nan,0,0", "bloch:0,inf,0"])
    def test_non_finite_bloch_exit_2(self, capsys, spec):
        code, out, err = run_cli(capsys, ["distance", spec, "plus_z"])
        assert code == 2
        assert "error" in err
        assert "nan" not in out

    def test_non_finite_matrix_exit_2(self, capsys):
        spec = '{"matrix": [[1, 0], ["nan", 0], ["nan", 0], [0, 0]]}'
        code, _, _ = run_cli(capsys, ["divergence", "--cost", "sym", spec, "plus_z"])
        assert code == 2

    def test_bad_matrix_exit_2(self, capsys):
        spec = '{"matrix": [[1, 0], [0, 0], [0, 0], [1, 0]]}'  # trace 2
        code, _, _ = run_cli(capsys, ["distance", "--cost", "z", spec, "plus_z"])
        assert code == 2

    def test_json_report_and_determinism(self, capsys):
        argv = ["distance", "--cost", "z", "bloch:0,0,0.9", "bloch:0,0,-0.4", "--json"]
        code1, out1, _ = run_cli(capsys, argv)
        code2, out2, _ = run_cli(capsys, argv)
        assert code1 == code2 == 0
        rep1, rep2 = json.loads(out1), json.loads(out2)
        assert rep1["schema_version"] == 1
        for rep in (rep1, rep2):
            del rep["wall_time_s"]
            for r in rep["results"]:
                del r["wall_time_s"]
        assert rep1 == rep2
        result = rep1["results"][0]
        assert result["value_sq"] == pytest.approx(2.6, abs=1e-6)
        assert result["solver_status"] == "converged"

    def test_stdin_state(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"bloch": [0, 0, -1]}'))
        code, out, _ = run_cli(capsys, ["distance", "--cost", "z", "plus_z", "-"])
        assert code == 0
        assert "D          = 2" in out


class TestDivergenceCommand:
    def test_antipodal(self, capsys):
        code, out, _ = run_cli(capsys, ["divergence", "--cost", "sym", "plus_z", "minus_z"])
        assert code == 0
        assert "d                = 2" in out
        assert "radicand" in out

    def test_identical(self, capsys):
        code, out, _ = run_cli(capsys, ["divergence", "--cost", "sym", "plus_y", "plus_y"])
        assert code == 0
        assert "d                = 0" in out


class TestVerifyCommand:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "dz-theorem", "--samples", "3", "--seed", "7"]
        )
        assert code == 0
        assert "PASS" in out

    def test_impossible_tolerance_fails(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["verify", "sym-closed-forms", "--samples", "5", "--tolerance", "1e-18"],
        )
        assert code == 1
        assert "FAIL" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "z-closed-forms", "--samples", "5", "--json"]
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["results"][0]["passed"] is True
        names = {c["name"] for c in rep["results"][0]["checks"]}
        assert "published-self-distance-formula-flagged" in names


class TestSelfdistTable:
    def test_grid_values(self, capsys):
        code, out, _ = run_cli(
            capsys, ["selfdist-table", "--cost", "z", "--norm-steps", "3", "--b3-steps", "3"]
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 9
        by_key = {(row["bloch_norm"], row["b3"]): row for row in rows}
        center = by_key[("0", "-0")] if ("0", "-0") in by_key else by_key[("0", "0")]
        assert float(center["selfdist_sq_purification"]) == pytest.approx(0.0, abs=1e-9)
        equator = by_key[("1", "0")]
        assert float(equator["selfdist_sq_purification"]) == pytest.approx(2.0, abs=1e-9)
        assert float(equator["selfdist_sq_closed_form"]) == pytest.approx(2.0, abs=1e-9)
        assert float(equator["selfdist_sq_published_form"]) == pytest.approx(0.5, abs=1e-9)
        assert float(equator["selfdist_sq_sdp"]) == pytest.approx(2.0, abs=1e-6)
        assert float(equator["abs_diff_published_sdp"]) == pytest.approx(1.5, abs=1e-6)

    def test_sym_pure_row(self, capsys):
        code, out, _ = run_cli(
            capsys, ["selfdist-table", "--cost", "sym", "--norm-steps", "2", "--b3-steps", "2"]
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        pure = [r for r in rows if r["bloch_norm"] == "1"]
        for row in pure:
            assert float(row["selfdist_sq_purification"]) == pytest.approx(4.0, abs=1e-9)
            assert float(row["selfdist_sq_sdp"]) == pytest.approx(4.0, abs=1e-6)
            assert float(row["selfdist_sq_published_form"]) == pytest.approx(2.0, abs=1e-9)

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys,
            ["selfdist-table", "--cost", "z", "--norm-steps", "2", "--b3-steps", "2",
             "--output", str(path)],
        )
        assert code == 0
        assert out == ""
        rows = list(csv.DictReader(path.open()))
        assert rows and rows[0]["schema_version"] == "1"


class TestSolverErrors:
    @pytest.mark.parametrize(
        "error",
        [
            InternalConsistencyError("negative transport cost -1.000e-06"),
            SolverAccuracyError("divergence radicand -1.000e-06 below -10*tolerance"),
            np.linalg.LinAlgError("Singular matrix"),
        ],
    )
    def test_solver_failure_is_one_line_exit_3(self, capsys, monkeypatch, error):
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr("qwasser.cli.solve_min_coupling", failing)
        monkeypatch.setattr("qwasser.cli.divergence_breakdown", failing)
        for command in ("distance", "divergence"):
            code, out, err = run_cli(capsys, [command, "bloch:0.1,0,0", "plus_z"])
            assert code == 3
            assert out == ""
            assert err.count("\n") == 1
            assert type(error).__name__ in err and str(error) in err
            assert "Traceback" not in err


class TestNearPure:
    # 1 - |b| = 1.0e-13 for the first state; its forced solve once died of
    # numpy's LinAlgError (see test_certificate.py)
    PAIR = [
        "bloch:-0.9434261702775069,-0.24476926919353414,-0.2236851941765033",
        "bloch:-0.16702735492270018,0.7890907436060359,0.09388218771759121",
    ]

    def test_forced_solve_reports_its_uncertified_result(self, capsys):
        code, out, err = run_cli(capsys, ["distance", "--no-fast-paths", *self.PAIR])
        # the barrier cannot certify this pair to 1e-8: exit 3 with the
        # result, its status and its honest gap, not a solver error
        assert code == 3 and err == ""
        assert "status     = max_iterations" in out

    def test_fast_paths_take_the_closed_form(self, capsys):
        code, out, err = run_cli(capsys, ["distance", *self.PAIR])
        assert code == 0 and "closed_form" in out


class TestUsageErrors:
    def test_unknown_suite_exit_2(self, capsys):
        assert run_cli(capsys, ["verify", "nope"])[0] == 2

    def test_missing_args_exit_2(self, capsys):
        assert run_cli(capsys, ["distance"])[0] == 2

    def test_custom_without_generators_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["distance", "--cost", "custom", "plus_z", "minus_z"])
        assert code == 2

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    @pytest.mark.parametrize("command", ["distance", "divergence"])
    def test_non_finite_generator_exit_2(self, command, bad):
        gens = f"[[[[{bad},0],[0,0]],[[0,0],[1,0]]]]"
        argv = [sys.executable, "-W", "error", "-m", "qwasser.cli", command, "--cost", "custom",
                "--generators", gens, "plus_z", "bloch:0,0.2,0.1"]
        src = str(Path(qwasser.__file__).resolve().parents[1])
        proc = subprocess.run(argv, capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
                              timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: generator 0") and proc.stderr.count("\n") == 1


def test_cli_import_leaves_oracle_and_scipy_optimize_unloaded():
    code = (
        "import sys\n"
        "import qwasser.cli\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "assert 'qwasser.oracle' not in sys.modules\n"
        "from qwasser import OracleResult, oracle_min_coupling\n"
        "assert oracle_min_coupling.__module__ == 'qwasser.oracle'\n"
        "assert OracleResult.__module__ == 'qwasser.oracle'\n"
    )
    src = str(Path(qwasser.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

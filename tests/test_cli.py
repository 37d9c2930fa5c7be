import collections
import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from smoothmax import MebConfig, cli, solve_meb, welzl_exact
from smoothmax.cli import parse_points_csv
from smoothmax.errors import (
    DivergenceError,
    EmptyInputError,
    EvaluationError,
    InputFormatError,
)
from smoothmax.testkit import random_point_cloud


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "smoothmax.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


# The field order of every output, pinned: a change to it is a change to the
# interface.
SOLVE_KEYS = ["algorithm", "n", "d", "epsilon", "center", "radius", "iterations",
              "planned_iterations", "wall_time_ms"]
SMOOTH_KEYS = SOLVE_KEYS + ["stop_reason", "certified_radius_lower", "certified_ratio",
                            "constants"]
VERIFY_KEYS = ["exact_radius", "radius_over_exact"]
TRACE_HEADER = ["t", "smooth_value_y", "grad_norm_y"]
BENCH_ROW_KEYS = ["algorithm", "epsilon", "iterations", "planned_iterations",
                  "observed_to_target", "wall_time_ms", "us_per_step", "radius",
                  "radius_over_exact", "stop_reason", "certified_radius_lower",
                  "certified_ratio"]


@pytest.fixture
def two_point_file(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0\n2\n")
    return str(path)


class TestParsePointsCsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("0,0\n1,0\n0,3\n")
        cloud = parse_points_csv(str(path))
        assert (cloud.n, cloud.dim) == (3, 2)

    def test_byte_order_mark_keeps_the_first_row(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeff1,2\n3,4\n5,6\n", encoding="utf-8")
        np.testing.assert_array_equal(parse_points_csv(str(path)).points,
                                      [[1, 2], [3, 4], [5, 6]])

    def test_header_detection(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("x,y\n1,2\n")
        cloud = parse_points_csv(str(path))
        assert (cloud.n, cloud.dim) == (1, 2)
        np.testing.assert_allclose(cloud.points, [[1.0, 2.0]])

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(InputFormatError) as err:
            parse_points_csv(str(path))
        assert err.value.line == 2

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(InputFormatError) as err:
            parse_points_csv(str(path))
        assert (err.value.line, err.value.column) == (2, 2)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_cell(self, tmp_path, token):
        path = tmp_path / "f.csv"
        path.write_text(f"1,2\n3,4\n5,{token}\n")
        with pytest.raises(InputFormatError) as err:
            parse_points_csv(str(path))
        assert (err.value.line, err.value.column) == (3, 2)

    @pytest.mark.parametrize("text, line, column", [
        ("1,2\n\n3,x\n", 3, 2),  # a blank line before the bad token
        ("x,y\n\n1,2\n3\n", 4, None),  # a header, a blank line, a ragged row
        ("\ufeff1,2\n\n3,x\n", 3, 2),  # a byte-order mark, a blank line, a bad token
    ])
    def test_line_numbers_count_blank_lines(self, tmp_path, text, line, column):
        path = tmp_path / "h.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InputFormatError) as err:
            parse_points_csv(str(path))
        assert (err.value.line, err.value.column) == (line, column)
        assert f"line {line}" in str(err.value)

    @pytest.mark.parametrize("text", [
        "1,2\n \t \n3,4\n",  # a whitespace-only line between rows
        "1,2\r\n3,4\r\n",
        "1,2\r3,4\r",
        "1,2\u20283,4\n",  # U+2028 LINE SEPARATOR
    ])
    def test_line_breaks_and_blank_lines(self, tmp_path, text):
        path = tmp_path / "l.csv"
        path.write_text(text, encoding="utf-8", newline="")
        np.testing.assert_array_equal(parse_points_csv(str(path)).points, [[1, 2], [3, 4]])

    @pytest.mark.parametrize("text, line, column", [
        ("1,2\n1_0,3\n", 2, 1),  # a digit-group underscore, which float reads as 10
        ("1,2\n3,\uff14\n", 2, 2),  # a full-width digit, which float reads as 4
        ("\uff11,2\n3,4\n", 1, 1),  # float reads it as a number, so not a header
        ("1,2\n\n3,4,\n", 3, None),  # a trailing comma adds an empty column
        ("1,2\n3, \n", 2, 2),  # a blank token
    ])
    def test_tokens_the_converter_rejects(self, tmp_path, text, line, column):
        path = tmp_path / "u.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InputFormatError) as err:
            parse_points_csv(str(path))
        assert (err.value.line, err.value.column) == (line, column)

    def test_first_bad_row_in_a_long_file(self, tmp_path):
        rows = [f"{k},{k + 0.5}" for k in range(1000)]
        rows[700] = "700,inf"
        rows[900] = "900,oops"
        path = tmp_path / "long.csv"
        path.write_text("x,y\n" + "\n".join(rows) + "\n")
        with pytest.raises(InputFormatError) as err:
            parse_points_csv(str(path))
        assert (err.value.line, err.value.column) == (702, 2)

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
    @pytest.mark.parametrize("distribution", ["gaussian", "clustered"])
    def test_repr_written_cloud_reads_back_exactly(self, tmp_path, distribution, offset):
        points = random_point_cloud(7, 300, 4, distribution).points + offset
        path = tmp_path / "r.csv"
        path.write_text("\n".join(",".join(map(repr, row)) for row in points.tolist()) + "\n")
        np.testing.assert_array_equal(parse_points_csv(str(path)).points, points)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(EmptyInputError):
            parse_points_csv(str(path))

    def test_non_utf8_bytes(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_bytes(b"1,2\n\xff\xfe,3\n")
        with pytest.raises(InputFormatError):
            parse_points_csv(str(path))


def test_cli_import_leaves_scipy_unloaded(two_point_file):
    # SciPy is a test dependency only: neither the import nor any command
    # loads it.
    script = (
        "import os, sys, smoothmax.cli as cli\n"
        "print('scipy' in sys.modules)\n"
        "path, out = sys.argv[1], os.devnull\n"
        "codes = [\n"
        "    cli.main(['solve', '--input', path, '--algorithm', 'smooth', '--epsilon', '0.1',\n"
        "              '--verify', '--output', out]),\n"
        "    cli.main(['solve', '--input', path, '--algorithm', 'coreset', '--epsilon', '0.1',\n"
        "              '--output', out]),\n"
        "    cli.main(['bench', '--n', '50', '--dim', '2', '--epsilons', '0.1',\n"
        "              '--algorithms', 'smooth,coreset,exact', '--output', out]),\n"
        "    cli.main(['gradcheck', '--trials', '2']),\n"
        "]\n"
        "print(codes, 'scipy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(two_point_file)],
                          capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    assert (proc.returncode, lines[0], lines[-1]) == (0, "False", "[0, 0, 0, 0] False")


@pytest.mark.parametrize("command", [
    ["solve", "--input", "points.csv", "--algorithm", "exact"],
    ["bench", "--n", "10", "--dim", "2", "--epsilons", "0.1", "--algorithms", "exact"],
    ["gradcheck"],
])
def test_negative_seed_exit_2(command):
    proc = run_cli(*command, "--seed", "-1")
    assert proc.returncode == 2
    assert "error: argument --seed" in proc.stderr
    assert "Traceback" not in proc.stderr


class TestSolveCommand:
    def test_exact_two_points(self, two_point_file):
        proc = run_cli("solve", "--input", two_point_file, "--algorithm", "exact")
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["radius"] == pytest.approx(1.0)
        assert out["center"] == [pytest.approx(1.0)]

    def test_smooth_guarantee(self, two_point_file):
        proc = run_cli("solve", "--input", two_point_file, "--algorithm", "smooth",
                       "--epsilon", "0.01")
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["radius"] <= 1.01
        assert set(out["constants"]) == {"s", "L_s", "U_s", "kappa_s", "G_s"}

    def test_coreset_with_verify(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "r.csv"
        np.savetxt(path, rng.standard_normal((40, 3)), delimiter=",")
        proc = run_cli("solve", "--input", str(path), "--algorithm", "coreset",
                       "--epsilon", "0.1", "--verify")
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["radius_over_exact"] <= 1.1

    def test_trace_file(self, two_point_file, tmp_path):
        trace = tmp_path / "trace.csv"
        proc = run_cli("solve", "--input", two_point_file, "--algorithm", "smooth",
                       "--epsilon", "0.1", "--trace", str(trace))
        assert proc.returncode == 0
        with open(trace) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "smooth_value_y", "grad_norm_y"]
        assert len(rows) > 1

    def test_trace_to_standard_output(self, two_point_file, tmp_path):
        out_path = tmp_path / "result.json"
        proc = run_cli("solve", "--input", two_point_file, "--algorithm", "smooth",
                       "--epsilon", "0.1", "--trace", "-", "--output", str(out_path),
                       cwd=tmp_path)
        assert proc.returncode == 0
        rows = list(csv.reader(proc.stdout.splitlines()))
        result = json.loads(out_path.read_text())
        assert rows[0] == ["t", "smooth_value_y", "grad_norm_y"]
        assert len(rows) == result["iterations"] + 1
        assert not (tmp_path / "-").exists()

    @pytest.mark.parametrize("to_file", [True, False])
    def test_trace_keeps_the_csv_line_endings(self, two_point_file, tmp_path, to_file):
        # Bytes, not text: a text read would turn each \r\n into \n.
        trace = tmp_path / "trace.csv"
        args = [sys.executable, "-m", "smoothmax.cli", "solve", "--input", two_point_file,
                "--algorithm", "smooth", "--epsilon", "0.1",
                "--trace", str(trace) if to_file else "-",
                "--output", str(tmp_path / "result.json")]
        proc = subprocess.run(args, capture_output=True)
        assert proc.returncode == 0
        data = trace.read_bytes() if to_file else proc.stdout
        lines = data.split(b"\r\n")
        assert lines[0] == b"t,smooth_value_y,grad_norm_y"
        assert len(lines) > 2 and lines[-1] == b""  # every row ends in \r\n
        assert all(b"\n" not in line and b"\r" not in line for line in lines)

    @pytest.mark.parametrize("output", [["--output", "-"], []])
    def test_trace_and_result_both_on_standard_output_exit_2(self, two_point_file, tmp_path,
                                                             output):
        proc = run_cli("solve", "--input", two_point_file, "--algorithm", "smooth",
                       "--epsilon", "0.1", "--trace", "-", *output, cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "--trace -" in proc.stderr

    @pytest.mark.parametrize("algorithm", ["exact", "coreset"])
    def test_trace_without_smooth_exit_2(self, two_point_file, tmp_path, algorithm):
        trace = tmp_path / "trace.csv"
        proc = run_cli("solve", "--input", two_point_file, "--algorithm", algorithm,
                       "--epsilon", "0.1", "--trace", str(trace))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "--trace" in proc.stderr
        assert not trace.exists()

    def test_smooth_result_reports_how_it_stopped(self, tmp_path):
        path = tmp_path / "cloud.csv"
        np.savetxt(path, np.random.default_rng(2).standard_normal((60, 3)), delimiter=",")
        proc = run_cli("solve", "--input", str(path), "--algorithm", "smooth",
                       "--epsilon", "0.1", "--verify")
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["stop_reason"] == "certified"
        assert out["certified_radius_lower"] <= out["exact_radius"] * (1.0 + 1e-9)
        assert out["certified_ratio"] == out["radius"] / out["certified_radius_lower"]
        assert out["certified_ratio"] <= 1.1 * (1.0 + 1e-12)
        assert out["iterations"] < out["planned_iterations"]

    @pytest.mark.parametrize("algorithm", ["smooth", "coreset", "exact"])
    def test_one_point_verify_has_no_ratio(self, tmp_path, algorithm):
        path = tmp_path / "one.csv"
        path.write_text("3,4\n")
        proc = run_cli("solve", "--input", str(path), "--algorithm", algorithm,
                       "--epsilon", "0.1", "--verify")
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert (out["radius"], out["exact_radius"], out["radius_over_exact"]) == (0.0, 0.0, None)

    def test_output_file(self, two_point_file, tmp_path):
        out_path = tmp_path / "result.json"
        proc = run_cli("solve", "--input", two_point_file, "--algorithm", "exact",
                       "--output", str(out_path))
        assert proc.returncode == 0
        assert json.loads(out_path.read_text())["radius"] == pytest.approx(1.0)

    def test_missing_flags_exit_2(self, two_point_file):
        assert run_cli("solve", "--input", two_point_file).returncode == 2
        assert run_cli("solve", "--input", two_point_file,
                       "--algorithm", "smooth").returncode == 2

    def test_parse_error_exit_3(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n")
        proc = run_cli("solve", "--input", str(path), "--algorithm", "exact")
        assert proc.returncode == 3
        assert "line 2" in proc.stderr

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_value_exit_3(self, tmp_path, token):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"1,2\n{token},3\n")
        proc = run_cli("solve", "--input", str(path), "--algorithm", "smooth",
                       "--epsilon", "0.1")
        assert proc.returncode == 3
        assert "line 2, column 1" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("algorithm", ["smooth", "coreset", "exact"])
    def test_overflowing_cloud_exit_3(self, tmp_path, algorithm):
        path = tmp_path / "wide.csv"
        path.write_text("1e154,0\n-1e154,0\n0,1\n")
        proc = run_cli("solve", "--input", str(path), "--algorithm", algorithm,
                       "--epsilon", "0.1")
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "diagonal" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("algorithm", ["smooth", "coreset", "exact"])
    def test_underflowing_cloud_exit_3(self, tmp_path, algorithm):
        # Squared distances of 1e-320 used to give "radius": 0.0 from exact
        # and a non-finite smoother (exit 4) from smooth.
        path = tmp_path / "tiny.csv"
        path.write_text("1e-160,0\n-1e-160,0\n0,1e-160\n")
        proc = run_cli("solve", "--input", str(path), "--algorithm", algorithm,
                       "--epsilon", "0.1")
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "diagonal" in proc.stderr
        assert proc.stdout == ""

    def test_coreset_count_over_budget_exit_4(self, two_point_file):
        proc = run_cli("solve", "--input", two_point_file, "--algorithm", "coreset",
                       "--epsilon", "1e-200", timeout=60)
        assert proc.returncode == 4
        assert proc.stderr.startswith("error: solver failed: ")
        assert proc.stderr.count("\n") == 1

    def test_library_error_exit_4(self, two_point_file, monkeypatch, capsys):
        def diverging_solve(cloud, config, **observers):
            raise DivergenceError("non-finite gradient at iteration 3")

        monkeypatch.setattr(cli, "solve_meb", diverging_solve)
        assert cli.main(["solve", "--input", two_point_file, "--algorithm", "smooth",
                         "--epsilon", "0.1"]) == 4
        err = capsys.readouterr().err
        assert err == "error: solver failed: non-finite gradient at iteration 3\n"

    def test_program_fault_is_not_reported_as_solver_failure(self, two_point_file,
                                                             monkeypatch):
        def broken_solve(cloud, config, **observers):
            raise TypeError("a bug, not a solver failure")

        monkeypatch.setattr(cli, "solve_meb", broken_solve)
        with pytest.raises(TypeError):
            cli.main(["solve", "--input", two_point_file, "--algorithm", "smooth",
                      "--epsilon", "0.1"])

    @pytest.mark.parametrize("stage", ["parse_points_csv", "solve_meb", "welzl_exact"])
    def test_unallocatable_input_exit_3(self, two_point_file, monkeypatch, capsys, stage):
        # Reading, solving and --verify each run out of memory in turn.
        def unallocatable(*args, **kwargs):
            raise MemoryError("cannot allocate the cloud")

        monkeypatch.setattr(cli, stage, unallocatable)
        assert cli.main(["solve", "--input", two_point_file, "--algorithm", "smooth",
                         "--epsilon", "0.1", "--verify"]) == cli.EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {two_point_file} needs more memory than is available\n"

    def test_result_too_large_to_write_exit_3(self, two_point_file, monkeypatch, capsys):
        def unwritable(*writes):
            raise MemoryError("cannot allocate the result")

        monkeypatch.setattr(cli, "_emit", unwritable)
        assert cli.main(["solve", "--input", two_point_file, "--algorithm", "smooth",
                         "--epsilon", "0.1"]) == cli.EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {two_point_file} needs more memory than is available\n"

    def test_missing_file_exit_3(self):
        proc = run_cli("solve", "--input", "/nonexistent.csv", "--algorithm", "exact")
        assert proc.returncode == 3

    def test_non_utf8_file_exit_3(self, tmp_path):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"\xff\xfe1,2\n")
        proc = run_cli("solve", "--input", str(path), "--algorithm", "exact")
        assert proc.returncode == 3
        assert "not UTF-8" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flag", ["--output", "--trace"])
    def test_unwritable_output_exit_2(self, two_point_file, tmp_path, flag):
        bad = str(tmp_path / "missing-dir" / "out")
        proc = run_cli("solve", "--input", two_point_file, "--algorithm", "smooth",
                       "--epsilon", "0.1", flag, bad)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and bad in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("unwritable", ["--output", "--trace"])
    def test_unwritable_output_leaves_no_other_file(self, two_point_file, tmp_path, capsys,
                                                    unwritable):
        # Both files are opened before either is written, so a failed open
        # of one leaves neither behind.
        paths = {"--output": tmp_path / "r.json", "--trace": tmp_path / "t.csv"}
        args = ["solve", "--input", two_point_file, "--algorithm", "smooth", "--epsilon", "0.1"]
        for flag, path in paths.items():
            args += [flag, str(tmp_path / "missing-dir" / "out" if flag == unwritable else path)]
        assert cli.main(args) == cli.EXIT_USAGE
        assert not any(path.exists() for path in paths.values())
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cannot write output: ")

    def test_trace_and_result_in_one_file_exit_2(self, two_point_file, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["solve", "--input", two_point_file, "--algorithm", "smooth",
                         "--epsilon", "0.1", "--trace", "r.json", "--output", "./r.json"]
                        ) == cli.EXIT_USAGE
        assert not (tmp_path / "r.json").exists()
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --trace and --output name the same file\n"

    def test_unwritable_result_writes_no_trace_to_standard_output(self, two_point_file,
                                                                  tmp_path, capsys):
        bad = str(tmp_path / "missing-dir" / "r.json")
        assert cli.main(["solve", "--input", two_point_file, "--algorithm", "smooth",
                         "--epsilon", "0.1", "--trace", "-", "--output", bad]
                        ) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cannot write output: ")

    @pytest.mark.parametrize("verify", [False, True])
    @pytest.mark.parametrize("algorithm, keys", [("smooth", SMOOTH_KEYS),
                                                 ("coreset", SOLVE_KEYS),
                                                 ("exact", SOLVE_KEYS)])
    def test_result_fields_in_order(self, tmp_path, capsys, algorithm, keys, verify):
        path = tmp_path / "p.csv"
        path.write_text("0,0\n1,0\n0,3\n")
        assert cli.main(["solve", "--input", str(path), "--algorithm", algorithm,
                         "--epsilon", "0.1", *(["--verify"] if verify else [])]) == 0
        out = json.loads(capsys.readouterr().out)
        assert list(out) == keys + (VERIFY_KEYS if verify else [])
        if algorithm == "smooth":
            assert list(out["constants"]) == ["s", "L_s", "U_s", "kappa_s", "G_s"]

    def test_traced_result_fields_in_order(self, tmp_path, capsys):
        path, trace = tmp_path / "p.csv", tmp_path / "trace.csv"
        path.write_text("0,0\n1,0\n0,3\n")
        assert cli.main(["solve", "--input", str(path), "--algorithm", "smooth",
                         "--epsilon", "0.1", "--trace", str(trace)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert list(out) == SMOOTH_KEYS
        with open(trace, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == TRACE_HEADER
        # One row a step, on the solve's one step counter.
        assert [int(row[0]) for row in rows[1:]] == list(range(2, out["iterations"] + 2))

    def test_exact_verify_calls_the_oracle_once(self, tmp_path, monkeypatch, capsys):
        calls = []

        def counted(cloud, seed):
            calls.append(seed)
            return welzl_exact(cloud, seed=seed)

        monkeypatch.setattr(cli, "welzl_exact", counted)
        path = tmp_path / "p.csv"
        path.write_text("0,0\n1,0\n0,3\n")
        assert cli.main(["solve", "--input", str(path), "--algorithm", "exact",
                         "--seed", "4", "--verify"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert calls == [4]
        assert out["exact_radius"] == out["radius"] and out["radius_over_exact"] == 1.0

    @pytest.mark.parametrize("algorithm", ["smooth", "coreset"])
    def test_verify_above_the_oracle_dimension_says_so(self, tmp_path, capsys, algorithm):
        path = tmp_path / "p.csv"
        np.savetxt(path, np.random.default_rng(1).standard_normal((30, 13)), delimiter=",")
        assert cli.main(["solve", "--input", str(path), "--algorithm", algorithm,
                         "--epsilon", "0.1", "--verify"]) == 0
        out, err = capsys.readouterr()
        result = json.loads(out)
        assert result["exact_radius"] is None and result["radius_over_exact"] is None
        assert result["radius"] > 0
        assert err.startswith("note: ") and err.count("\n") == 1 and "d = 13" in err

    def test_determinism_modulo_wall_time(self, two_point_file):
        args = ("solve", "--input", two_point_file, "--algorithm", "smooth",
                "--epsilon", "0.05", "--seed", "3")
        a = json.loads(run_cli(*args).stdout)
        b = json.loads(run_cli(*args).stdout)
        a.pop("wall_time_ms"), b.pop("wall_time_ms")
        assert a == b

    def test_one_parser_carries_no_state(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("0,0\n1,0\n0,3\n")
        args = ["solve", "--input", str(path), "--algorithm", "smooth",
                "--epsilon", "0.1", "--seed", "3"]
        assert cli.main([*args, "--verify"]) == 0
        assert "exact_radius" in json.loads(capsys.readouterr().out)
        assert cli.main(args) == 0
        second = json.loads(capsys.readouterr().out)
        fresh = json.loads(run_cli(*args).stdout)
        assert "exact_radius" not in second
        second.pop("wall_time_ms"), fresh.pop("wall_time_ms")
        assert second == fresh
        assert cli.build_parser() is cli.build_parser()


class TestBenchCommand:
    def test_json_report(self):
        proc = run_cli("bench", "--n", "40", "--dim", "2", "--seed", "1",
                       "--epsilons", "0.2,0.1", "--algorithms", "smooth,coreset")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["exact_radius"] > 0
        assert len(report["rows"]) == 4
        for row in report["rows"]:
            assert row["radius_over_exact"] >= 1.0 - 1e-9
            assert row["us_per_step"] == row["wall_time_ms"] * 1e3 / row["iterations"]
            if row["algorithm"] == "smooth":
                assert row["observed_to_target"] is not None
                assert row["stop_reason"] == "certified"
                assert row["certified_radius_lower"] <= report["exact_radius"] * (1 + 1e-9)
            else:
                assert row["stop_reason"] is row["certified_radius_lower"] is None
                assert row["certified_ratio"] is None

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_report_fields_in_order(self, tmp_path, fmt):
        path = tmp_path / "bench.out"
        assert cli.main(["bench", "--n", "40", "--dim", "2", "--epsilons", "0.2,0.1",
                         "--algorithms", "smooth,coreset,exact", "--format", fmt,
                         "--output", str(path)]) == 0
        if fmt == "csv":
            lines = path.read_text().splitlines()
            assert lines[0] == ",".join(BENCH_ROW_KEYS) and len(lines) == 1 + 6
            return
        report = json.loads(path.read_text())
        assert list(report) == ["instance", "exact_radius", "rows", "slopes"]
        assert [list(row) for row in report["rows"]] == [BENCH_ROW_KEYS] * 6

    def test_first_hit_reads_the_evaluated_points(self, tmp_path):
        # The returned center is the best evaluated y_t, so a solve within
        # (1+eps) R has hit the target by its last step.
        path = tmp_path / "bench.json"
        assert cli.main(["bench", "--n", "2000", "--dim", "5", "--distribution", "clustered",
                         "--epsilons", "0.01,0.001", "--algorithms", "smooth",
                         "--output", str(path)]) == 0
        for row in json.loads(path.read_text())["rows"]:
            assert row["radius_over_exact"] <= 1.0 + row["epsilon"]
            assert row["observed_to_target"] is not None
            assert row["observed_to_target"] <= row["iterations"]

    def test_first_hit_is_the_earliest_step_within_the_target(self, tmp_path):
        path = tmp_path / "bench.json"
        assert cli.main(["bench", "--n", "2000", "--dim", "5", "--epsilons", "0.01,0.001",
                         "--algorithms", "smooth", "--output", str(path)]) == 0
        report = json.loads(path.read_text())
        cloud = random_point_cloud(0, 2000, 5, "gaussian")
        for row in report["rows"]:
            steps = []
            solve_meb(cloud, MebConfig(row["epsilon"]),
                      iterate_observer=lambda t, x, y, f: steps.append((t - 1, math.sqrt(f))))
            target = (1.0 + row["epsilon"]) * report["exact_radius"]
            hits = [step for step, radius in steps if radius <= target]
            assert row["observed_to_target"] == hits[0] < hits[-1]

    def test_one_solve_per_row(self, monkeypatch, tmp_path):
        # Each (algorithm, eps) row is one solve; exact rows add to the one
        # Welzl reference radius.
        calls = collections.Counter()
        for name in ("solve_meb", "badoiu_clarkson", "welzl_exact"):
            def counted(*args, _name=name, _solver=getattr(cli, name), **kwargs):
                calls[_name] += 1
                return _solver(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        path = tmp_path / "bench.json"
        assert cli.main(["bench", "--n", "40", "--dim", "2", "--epsilons", "0.2,0.1",
                         "--algorithms", "smooth,coreset,exact", "--output", str(path)]) == 0
        assert calls == {"solve_meb": 2, "badoiu_clarkson": 2, "welzl_exact": 2 + 1}
        for row in json.loads(path.read_text())["rows"]:
            if row["algorithm"] == "smooth":
                assert row["observed_to_target"] is not None

    def test_csv_format(self):
        proc = run_cli("bench", "--n", "30", "--dim", "2", "--seed", "1",
                       "--epsilons", "0.2,0.1", "--algorithms", "coreset",
                       "--format", "csv")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0].startswith("algorithm,epsilon,iterations")
        assert lines[0].endswith(",certified_radius_lower,certified_ratio")
        assert len(lines) == 3

    def test_log_log_slopes(self):
        proc = run_cli("bench", "--n", "60", "--dim", "5", "--epsilons", "0.2,0.1",
                       "--algorithms", "smooth,coreset")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        smooth = [row for row in report["rows"] if row["algorithm"] == "smooth"]
        coreset = [row["iterations"] for row in report["rows"] if row["algorithm"] == "coreset"]
        assert coreset == [25, 100]  # ceil(1/eps^2)
        assert report["slopes"]["coreset"] == {"planned_iterations": pytest.approx(2.0),
                                               "iterations": pytest.approx(2.0)}
        assert all(isinstance(slope, float) for slope in report["slopes"]["smooth"].values())
        for row in smooth:
            assert row["stop_reason"] == "certified"
            assert row["certified_ratio"] == row["radius"] / row["certified_radius_lower"]
            assert row["certified_ratio"] <= (1.0 + row["epsilon"]) * (1.0 + 1e-12)

    def test_above_the_exact_solver_dimension(self):
        proc = run_cli("bench", "--n", "40", "--dim", "13", "--epsilons", "0.2,0.1",
                       "--algorithms", "smooth,coreset")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["exact_radius"] is None
        assert all(row["radius_over_exact"] is None for row in report["rows"])

    def test_cloud_solved_without_steps(self):
        proc = run_cli("bench", "--n", "1", "--dim", "5", "--epsilons", "0.2,0.1",
                       "--algorithms", "smooth,coreset,exact")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert all(row["iterations"] == 0 for row in report["rows"])
        assert all(row["us_per_step"] is None for row in report["rows"])
        for row in report["rows"]:
            if row["algorithm"] == "smooth":
                assert (row["stop_reason"], row["certified_ratio"]) == ("certified", None)
        # No ratio to a radius of 0, as certified_ratio has none.
        assert report["exact_radius"] == 0.0
        assert all(row["radius_over_exact"] is None for row in report["rows"])
        assert all(slope is None for slopes in report["slopes"].values()
                   for slope in slopes.values())

    def test_exact_above_its_dimension_exit_2(self):
        proc = run_cli("bench", "--n", "50", "--dim", "13", "--epsilons", "0.1",
                       "--algorithms", "smooth,exact")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: --algorithms exact needs --dim <= 12, got 13\n"

    def test_coreset_iteration_scaling(self):
        proc = run_cli("bench", "--n", "30", "--dim", "2", "--seed", "1",
                       "--epsilons", "0.2,0.05", "--algorithms", "coreset")
        report = json.loads(proc.stdout)
        iters = {row["epsilon"]: row["iterations"] for row in report["rows"]}
        assert iters[0.05] / iters[0.2] == pytest.approx(16.0)

    @pytest.mark.parametrize("flag", ["--n", "--dim"])
    def test_empty_instance_exit_2(self, flag):
        args = {"--n": "10", "--dim": "2", flag: "0"}
        proc = run_cli("bench", *[tok for item in args.items() for tok in item],
                       "--epsilons", "0.1", "--algorithms", "smooth")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_unallocatable_cloud_exit_2(self, monkeypatch, capsys):
        def unallocatable(seed, n, dim, distribution):
            raise MemoryError(f"cannot allocate a {n}x{dim} cloud")

        monkeypatch.setattr(cli, "random_point_cloud", unallocatable)
        assert cli.main(["bench", "--n", "100000000000", "--dim", "2", "--epsilons", "0.1",
                         "--algorithms", "smooth"]) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: --n 100000000000 and --dim 2 need more memory than is "
                       "available\n")

    @pytest.mark.parametrize("algorithm", ["smooth", "coreset"])
    def test_unallocatable_solve_exit_2(self, monkeypatch, capsys, algorithm):
        def unallocatable(cloud, config, **observers):
            raise MemoryError(f"cannot allocate a table for {cloud.n} points")

        monkeypatch.setattr(cli, "solve_meb", unallocatable)
        monkeypatch.setattr(cli, "badoiu_clarkson", unallocatable)
        assert cli.main(["bench", "--n", "20", "--dim", "2", "--epsilons", "0.1",
                         "--algorithms", algorithm]) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --n 20 and --dim 2 need more memory than is available\n"

    def test_reference_radius_failure_exit_4(self, monkeypatch, capsys):
        def failing_reference(cloud, seed=0):
            raise EvaluationError("circumball solve returned a non-finite center")

        monkeypatch.setattr(cli, "welzl_exact", failing_reference)
        assert cli.main(["bench", "--n", "20", "--dim", "2", "--epsilons", "0.1",
                         "--algorithms", "smooth"]) == cli.EXIT_SOLVER
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: solver failed: circumball solve returned a non-finite center\n"

    def test_bad_algorithm_exit_2(self):
        proc = run_cli("bench", "--n", "10", "--dim", "2",
                       "--epsilons", "0.1", "--algorithms", "magic")
        assert proc.returncode == 2

    def test_unwritable_output_exit_2(self, tmp_path):
        bad = str(tmp_path / "missing-dir" / "bench.json")
        proc = run_cli("bench", "--n", "10", "--dim", "2", "--epsilons", "0.1",
                       "--algorithms", "coreset", "--output", bad)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and bad in proc.stderr
        assert "Traceback" not in proc.stderr


class TestBenchStepCounts:
    """Certified step counts are deterministic, so they guard the smoother
    continuation: single-shot solves took 88, 768 and 4303 steps here, a
    log-log slope of 0.84 against 1/eps."""

    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("bench") / "bench.json"
        assert cli.main(["bench", "--n", "2000", "--dim", "5", "--epsilons", "0.1,0.01,0.001",
                         "--algorithms", "smooth", "--output", str(path)]) == 0
        return json.loads(path.read_text())

    def test_certified_steps(self, report):
        rows = report["rows"]
        assert [row["epsilon"] for row in rows] == [0.1, 0.01, 0.001]
        assert all(row["stop_reason"] == "certified" for row in rows)
        for row, cap in zip(rows, (60, 500, 1000)):
            assert row["iterations"] <= cap
        assert report["slopes"]["smooth"]["iterations"] <= 0.75

    def test_first_hit_counts_the_steps_of_all_rounds(self, report):
        # Every row here runs several rounds; its first hit of (1+eps) R is
        # counted on the solve's one step counter.
        for row in report["rows"]:
            assert row["observed_to_target"] <= row["iterations"]


class TestGradcheckCommand:
    def test_default_flags_pass(self):
        proc = run_cli("gradcheck")
        assert proc.returncode == 0
        assert "max relative gradient error" in proc.stdout

    def test_large_smoother_still_passes(self):
        proc = run_cli("gradcheck", "--smoother", "1e6", "--trials", "10")
        assert proc.returncode == 0

    def test_overflowing_smoother_exit_2(self):
        proc = run_cli("gradcheck", "--smoother", "1e308", "--trials", "2")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: --smoother ") and proc.stderr.count("\n") == 1

    def test_zero_trials_exit_2(self):
        assert run_cli("gradcheck", "--trials", "0").returncode == 2

    @pytest.mark.parametrize("smoother", ["inf", "nan"])
    def test_non_finite_smoother_exit_2(self, smoother):
        proc = run_cli("gradcheck", "--smoother", smoother)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_nan_error_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(cli.core, "smooth_gradient",
                            lambda family, params, x: np.full(family.dim, np.nan))
        assert cli.main(["gradcheck", "--trials", "2"]) == cli.EXIT_TOLERANCE == 5
        assert "max relative gradient error: nan" in capsys.readouterr().out

    def test_unallocatable_family_exit_2(self, monkeypatch, capsys):
        class Unallocatable:
            @staticmethod
            def from_seed(seed, n, dim):
                raise MemoryError(f"cannot allocate a {n}x{dim} family")

        monkeypatch.setattr(cli, "RandomQuadraticFamily", Unallocatable)
        assert cli.main(["gradcheck", "--n", "100000000000", "--trials", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: --n 100000000000 and --dim 4 need more memory than is "
                       "available\n")

    def test_library_error_exit_4(self, monkeypatch, capsys):
        def failing_gradient(family, params, x):
            raise EvaluationError("component 0 evaluated to a non-finite value", index=0)

        monkeypatch.setattr(cli.core, "smooth_gradient", failing_gradient)
        assert cli.main(["gradcheck", "--trials", "2"]) == 4
        err = capsys.readouterr().err
        assert err == "error: solver failed: component 0 evaluated to a non-finite value\n"

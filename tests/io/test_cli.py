"""Integration tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.io.notation import Problem, render_problem
from repro.paper import figure1

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

FIGURE1_FILE = render_problem(
    Problem(
        list(figure1().transactions),
        figure1().spec,
        dict(figure1().schedules),
    )
)


@pytest.fixture()
def problem_file(tmp_path):
    path = tmp_path / "figure1.txt"
    path.write_text(FIGURE1_FILE)
    return path


class TestClassify:
    def test_classifies_named_schedule(self, problem_file, capsys):
        code = main(["classify", str(problem_file), "--schedule", "Sra"])
        out = capsys.readouterr().out
        assert code == 0
        assert "schedule Sra" in out
        assert "relatively atomic         yes" in out

    def test_classifies_all_schedules_by_default(self, problem_file, capsys):
        code = main(["classify", str(problem_file)])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("Sra", "Srs", "S2"):
            assert f"schedule {name}" in out

    def test_unknown_schedule_is_an_error(self, problem_file, capsys):
        code = main(["classify", str(problem_file), "--schedule", "nope"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestRsg:
    def test_reports_arc_census_and_acyclicity(self, problem_file, capsys):
        code = main(["rsg", str(problem_file), "--schedule", "S2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "vertices: 10" in out
        assert "acyclic: yes" in out

    def test_dot_output(self, problem_file, capsys):
        code = main(["rsg", str(problem_file), "--schedule", "S2", "--dot"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("digraph RSG {")

    def test_cyclic_schedule_reports_cycle(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(
            "T1: r[x] w[x]\nT2: r[x] w[x]\n"
            "schedule bad: r1[x] r2[x] w1[x] w2[x]\n"
        )
        code = main(["rsg", str(path), "--schedule", "bad"])
        out = capsys.readouterr().out
        assert code == 0
        assert "acyclic: no" in out
        assert "cycle:" in out


class TestWitness:
    def test_prints_relatively_serial_equivalent(self, problem_file, capsys):
        code = main(["witness", str(problem_file), "--schedule", "S2"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        # The witness is exactly the paper's Srs.
        assert out == str(figure1().schedule("Srs"))

    def test_cyclic_input_fails_with_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(
            "T1: r[x] w[x]\nT2: r[x] w[x]\n"
            "schedule bad: r1[x] r2[x] w1[x] w2[x]\n"
        )
        code = main(["witness", str(path), "--schedule", "bad"])
        assert code == 1
        assert "not relatively serializable" in capsys.readouterr().err

    def test_rsg_and_witness_report_the_same_cycle(self, capsys):
        # `rsg` materializes the graph before reading the cycle;
        # `witness` reads the cycle first.  Both must print one witness.
        path = str(EXAMPLES / "figure4.txt")
        expected = "w1[x] -> w4[t] -> w3[z] -> w2[y] -> w1[x]"
        assert main(["rsg", path, "--schedule", "R"]) == 0
        assert f"acyclic: no (cycle: {expected})" in capsys.readouterr().out
        assert main(["witness", path, "--schedule", "R"]) == 1
        assert f"(RSG cycle: {expected})" in capsys.readouterr().err


class TestDemo:
    def test_single_figure(self, capsys):
        code = main(["demo", "--figure", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 4" in out
        assert "relatively serializable   yes" in out

    def test_all_figures(self, capsys):
        code = main(["demo"])
        out = capsys.readouterr().out
        assert code == 0
        for number in (1, 2, 3, 4):
            assert f"Figure {number}" in out


class TestCensus:
    def test_census_over_small_problem(self, tmp_path, capsys):
        path = tmp_path / "tiny.txt"
        path.write_text("T1: r[x] w[x]\nT2: w[x]\n")
        code = main(["census", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "census over 3 interleavings" in out
        assert "relatively serializable" in out

    def test_limit_guard(self, problem_file, capsys):
        code = main(["census", str(problem_file), "--limit", "10"])
        assert code == 2
        assert "exceed" in capsys.readouterr().err

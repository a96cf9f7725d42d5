"""CLI tests for the observability surface: trace, explain, --trace /
--metrics flags, and the checked-in explain goldens."""

import json
from pathlib import Path

import pytest

from repro.cli import main

REPO = Path(__file__).resolve().parents[2]
EXAMPLES = REPO / "examples"
GOLDEN = REPO / "tests" / "golden"


@pytest.fixture()
def fig2_file():
    return str(EXAMPLES / "figure2.txt")


@pytest.fixture()
def fig4_file():
    return str(EXAMPLES / "figure4.txt")


class TestTraceCommand:
    def test_jsonl_to_stdout(self, fig2_file, capsys):
        assert main(["trace", fig2_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        events = [json.loads(line) for line in lines]
        assert [event["seq"] for event in events] == list(
            range(len(events))
        )
        kinds = {event["kind"] for event in events}
        assert {"op-requested", "grant", "commit"} <= kinds

    def test_chrome_format_is_valid_schema(self, fig2_file, capsys):
        assert main(["trace", fig2_file, "--format", "chrome"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["displayTimeUnit"] == "ms"
        for entry in payload["traceEvents"]:
            assert entry["ph"] == "i"
            assert isinstance(entry["ts"], int)
            assert isinstance(entry["tid"], int)
            assert entry["name"]
            assert "args" in entry

    def test_output_file(self, fig2_file, tmp_path):
        target = tmp_path / "trace.jsonl"
        assert main(["trace", fig2_file, "-o", str(target)]) == 0
        assert target.read_text().startswith('{"seq":0,')

    def test_trace_is_deterministic(self, fig2_file, tmp_path):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["trace", fig2_file, "-o", str(first)])
        main(["trace", fig2_file, "-o", str(second)])
        assert first.read_bytes() == second.read_bytes()


class TestExplainCommand:
    def test_admissible_schedule_prints_serial_witness(
        self, fig2_file, capsys
    ):
        assert main(["explain", fig2_file, "--schedule", "S1"]) == 0
        out = capsys.readouterr().out
        assert "relatively serializable (RSG acyclic)" in out
        assert "w2[y] w1[x] r3[y] w3[z] r1[z]" in out

    def test_rejected_schedule_prints_the_cycle(self, fig4_file, capsys):
        assert main(["explain", fig4_file, "--schedule", "R"]) == 0
        out = capsys.readouterr().out
        assert "NOT relatively serializable" in out
        assert "w1[x] --D--> w4[t]" in out
        assert "w2[y] --B--> w1[x]" in out

    def test_json_matches_the_goldens(self, fig2_file, fig4_file, capsys):
        for file, golden in (
            (fig2_file, "figure2_witness.json"),
            (fig4_file, "figure4_witness.json"),
        ):
            schedule = "S1" if "figure2" in file else "R"
            assert main(["explain", file, "--schedule", schedule,
                         "--json"]) == 0
            out = capsys.readouterr().out
            assert out == (GOLDEN / golden).read_text()

    def test_dot_renders_the_witness(self, fig4_file, capsys):
        assert main(["explain", fig4_file, "--schedule", "R", "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph WITNESS {")
        assert 'label="DFB"' in out

    def test_dot_of_admissible_schedule_notes_no_witness(
        self, fig2_file, capsys
    ):
        assert main(["explain", fig2_file, "--schedule", "S1",
                     "--dot"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no witness cycle" in captured.err

    def test_unknown_schedule_is_an_error(self, fig2_file, capsys):
        assert main(["explain", fig2_file, "--schedule", "nope"]) == 2
        assert "error" in capsys.readouterr().err


class TestSimulateFlags:
    def test_trace_and_metrics_files(self, fig2_file, tmp_path, capsys):
        trace, metrics = tmp_path / "t.jsonl", tmp_path / "m.json"
        code = main([
            "simulate", fig2_file,
            "--trace", str(trace), "--metrics", str(metrics),
        ])
        capsys.readouterr()
        assert code == 0
        events = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        assert events
        report = json.loads(metrics.read_text())
        grants = [
            value
            for name, value in report["counters"].items()
            if name.startswith("sim.grants")
        ]
        assert sum(grants) > 0


class TestCensusFlags:
    def test_metrics_file_carries_the_class_counters(
        self, fig2_file, tmp_path, capsys
    ):
        metrics = tmp_path / "census.json"
        code = main(["census", fig2_file, "--metrics", str(metrics)])
        capsys.readouterr()
        assert code == 0
        report = json.loads(metrics.read_text())
        assert report["gauges"]["census.total"] == 30
        classes = {
            name: value
            for name, value in report["counters"].items()
            if name.startswith("census.schedules")
        }
        assert classes["census.schedules{cls=relatively serializable}"] == 30


class TestFaultsFlags:
    def test_trace_and_metrics_deterministic_across_jobs(
        self, tmp_path, capsys
    ):
        outputs = {}
        for jobs in ("1", "2"):
            trace = tmp_path / f"trace_{jobs}.jsonl"
            metrics = tmp_path / f"metrics_{jobs}.json"
            code = main([
                "faults", "--seed", "7", "--runs", "6", "--jobs", jobs,
                "--trace", str(trace), "--metrics", str(metrics),
            ])
            capsys.readouterr()
            assert code == 0
            outputs[jobs] = (trace.read_bytes(), metrics.read_bytes())
        assert outputs["1"] == outputs["2"]
        header = json.loads(outputs["1"][0].splitlines()[0])
        assert header["run"] == 0 and "seed" in header


class TestCensusGolden:
    def test_figure4_census_matches_the_golden(self, fig4_file, capsys):
        assert main(["census", fig4_file]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / "figure4_census.txt").read_text()

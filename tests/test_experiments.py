"""Tests for the experiment harness (fast parameterizations).

Each experiment must run, pass, and produce well-formed rows/markdown.
Heavy experiments run with shrunk parameters; the full-size versions are
exercised by the benchmark harness.
"""

import pytest

from repro.errors import ExperimentError
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.cli import build_parser, main
from repro.experiments.registry import EXPERIMENTS, all_ids, get_experiment
from repro.experiments.fig1 import run_fig1
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.thm1 import run_thm1
from repro.experiments.thm2 import run_thm2
from repro.experiments.thm3 import run_thm3
from repro.experiments.thm4 import run_thm4
from repro.experiments.thm5 import run_thm5
from repro.experiments.thm6 import run_thm6
from repro.experiments.thm8 import run_thm8
from repro.experiments.alg3 import run_alg3
from repro.experiments.q1 import run_q1


class TestRegistry:
    def test_all_targets_registered(self):
        assert len(all_ids()) == 21
        assert all_ids()[0] == "FIG1"
        assert all_ids()[-1] == "OPT1"

    def test_lookup_case_insensitive(self):
        assert get_experiment("fig1").experiment_id == "FIG1"

    def test_unknown_id(self):
        with pytest.raises(ExperimentError):
            get_experiment("FIG9")

    def test_unknown_override_rejected(self):
        with pytest.raises(ExperimentError):
            get_experiment("THM2").run(bogus=1)

    def test_runner_id_mismatch_detected(self):
        experiment = Experiment(
            "X1", "t", "a", lambda: ExperimentResult(
                "OTHER", "t", "c", "m", True
            )
        )
        with pytest.raises(ExperimentError):
            experiment.run()


class TestResultRendering:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig1(ring_size=5, steps=6)

    def test_render_contains_status(self, result):
        assert "[PASS]" in result.render() or "[FAIL]" in result.render()

    def test_markdown_sections(self, result):
        md = result.markdown()
        assert md.startswith("### FIG1")
        assert "**Paper claim:**" in md
        assert "```" in md


class TestFigureExperiments:
    def test_fig1_passes_for_several_sizes(self):
        for n in (3, 5, 6):
            assert run_fig1(ring_size=n, steps=2 * n).passed

    def test_fig2_passes(self):
        result = run_fig2()
        assert result.passed
        assert len(result.rows) == 2

    def test_fig3_passes(self):
        result = run_fig3()
        assert result.passed
        assert any(
            row["cycle length"] == "(converged)" for row in result.rows
        )


class TestTheoremExperiments:
    def test_thm1(self):
        assert run_thm1().passed

    def test_thm2_small(self):
        result = run_thm2(ring_sizes=(3, 4))
        assert result.passed
        assert [row["N"] for row in result.rows] == [3, 4]

    def test_thm3(self):
        assert run_thm3().passed

    def test_thm4_small(self):
        assert run_thm4(exhaustive_max_nodes=4).passed

    def test_thm5(self):
        assert run_thm5().passed

    def test_thm6(self):
        result = run_thm6()
        assert result.passed
        paper_row = result.rows[0]
        assert paper_row["strongly fair"] is True
        assert paper_row["Gouda fair"] is False

    def test_thm8(self):
        assert run_thm8().passed

    def test_alg3(self):
        assert run_alg3().passed

    def test_q1_small(self):
        result = run_q1(
            exact_sizes=(3, 4),
            monte_carlo_sizes=(),
            trials=10,
        )
        assert result.passed

    def test_opt1_small(self):
        result = get_experiment("OPT1").run(
            sizes=(5,), tolerance=0.2, max_regions=24
        )
        assert result.passed
        families = [row["family"] for row in result.rows]
        assert families == [
            "random-bit",
            "random-pass",
            "speed-reducer",
            "speed-reducer2",
        ]


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        assert parser.parse_args(["list"]).command == "list"
        assert parser.parse_args(["run", "FIG1"]).ids == ["FIG1"]
        assert parser.parse_args(["run-all", "--fast"]).fast

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "FIG1" in output and "Q3" in output

    def test_run_command(self, capsys):
        assert main(["run", "FIG1"]) == 0
        assert "1/1 experiments passed" in capsys.readouterr().out

    def test_report_command(self, tmp_path, capsys, monkeypatch):
        # run a single cheap experiment by monkeypatching the registry run
        from repro.experiments import registry

        monkeypatch.setattr(
            registry,
            "EXPERIMENTS",
            {"FIG1": registry.EXPERIMENTS["FIG1"]},
        )
        out = tmp_path / "report.md"
        code = main(["report", "-o", str(out)])
        assert code == 0
        assert out.read_text().startswith("# Generated experiment report")

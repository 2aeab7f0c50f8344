"""CLI smoke and behaviour tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(["run", "KM", "apres", "--scale", "0.1"])
        assert args.app == "KM"
        assert args.config == "apres"
        assert args.scale == 0.1

    def test_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "NOPE", "base"])

    def test_rejects_unknown_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "KM", "nope"])

    def test_help_lists_the_thirteen_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        usage = capsys.readouterr().out
        listed = usage[usage.index("{") + 1:usage.index("}")].split(",")
        assert len(listed) == 13
        assert "trace" not in listed and "characterize" not in listed

    def test_table_takes_no_jobs(self):
        # Neither table simulates through the run cache a pool could fill.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "1", "--jobs", "2"])

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "5"])

    def test_scorecard_args(self):
        args = build_parser().parse_args([
            "scorecard", "--figures", "figure10", "figure11",
            "--apps", "BFS", "KM", "--json", "--out", "card.json",
        ])
        assert args.figures == ["figure10", "figure11"]
        assert args.apps == ["BFS", "KM"]
        assert args.json is True
        assert args.out == "card.json"
        assert args.no_registry is False

    def test_diff_args(self):
        args = build_parser().parse_args([
            "diff", "baseline", "current.json",
            "--rtol", "0.1", "--tolerance", "figure10.*=0.2",
            "--ignore", "*.spearman",
        ])
        assert args.ref_a == "baseline"
        assert args.ref_b == "current.json"
        assert args.rtol == 0.1
        assert args.tolerance == ["figure10.*=0.2"]
        assert args.ignore == ["*.spearman"]

    def test_diff_requires_a_ref(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["diff"])

    def test_diff_tolerances_default_unset(self):
        args = build_parser().parse_args(["diff", "baseline"])
        assert args.rtol is None and args.atol is None
        assert args.ref_b is None

    def test_report_args(self, tmp_path):
        args = build_parser().parse_args([
            "report", "--html", "out.html", "--from", "card.json",
        ])
        assert args.html == "out.html"
        assert args.from_json == "card.json"

    def test_building_the_parser_does_not_import_the_linter(self):
        # A fresh interpreter: this test session has imported it already.
        code = (
            "import sys, repro.cli; repro.cli.build_parser(); "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('repro.analysis')))"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=True,
        )
        assert proc.stdout.strip() == "[]"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "KMeans" in out
        assert "apres" in out

    def test_run(self, capsys):
        assert main(["run", "KM", "base", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "L1 miss rate" in out

    def test_compare(self, capsys):
        assert main(["compare", "KM", "laws", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "laws" in out
        assert "Speedup" in out

    def test_characterize(self, capsys):
        # Table I for one app: the rows ``repro characterize KM`` printed.
        assert main(["table", "1", "--apps", "KM", "--scale", "0.05",
                     "--no-registry"]) == 0
        out = capsys.readouterr().out
        assert "0xE8" in out
        assert {line.split()[0] for line in out.splitlines()[3:]} == {"KM"}

    def test_table2(self, capsys):
        assert main(["table", "2"]) == 0
        out = capsys.readouterr().out
        assert "724" in out

    def test_figure12(self, capsys):
        assert main(["figure", "12", "--scale", "0.05", "--apps", "KM"]) == 0
        out = capsys.readouterr().out
        assert "apres" in out

    def test_figure2(self, capsys):
        assert main(["figure", "2", "--scale", "0.05", "--apps", "KM"]) == 0
        out = capsys.readouterr().out
        assert "Cap+Conf" in out

    def test_report_from_scorecard_json(self, tmp_path, capsys):
        from repro.experiments import paper_data
        from repro.registry.scorecard import scorecard

        measured = {"figure10": {
            series: dict(per_app)
            for series, per_app in paper_data.FIG10.items()
        }}
        card = tmp_path / "card.json"
        import json

        card.write_text(json.dumps(
            scorecard(figures=["figure10"], measured=measured)))
        html = tmp_path / "report.html"
        assert main(["report", "--from", str(card), "--html", str(html)]) == 0
        assert "html report" in capsys.readouterr().out
        text = html.read_text()
        assert "<html" in text
        assert "figure10" in text
        assert "Paper-fidelity scorecard" in text or "scorecard" in text.lower()

    def test_diff_unknown_ref_is_an_error(self, capsys):
        assert main(["diff", "no-such-ref"]) == 2
        assert "registry" in capsys.readouterr().err.lower()

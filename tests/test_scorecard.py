"""Paper-fidelity scorecard: hand-checked math, payload schema, CLI gate.

Every fidelity metric (MAPE, geomean delta, Spearman) is verified against
hand-computed fixtures, and the drift test proves the property CI relies
on: ``repro diff`` exits nonzero when a scorecard moves out of tolerance.
"""

import json
import math

import pytest

from repro.cli import main
from repro.experiments import paper_data
from repro.experiments.figures import FIGURES
from repro.registry.scorecard import (
    _EXTRACTORS,
    DEFAULT_SCORECARD_FIGURES,
    format_scorecard,
    geomean,
    mape,
    measured_grid,
    score_figure,
    score_series,
    scorecard,
    spearman,
)


class TestGeomean:
    def test_hand_computed(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_empty_is_zero(self):
        assert geomean([]) == 0.0

    def test_non_positive_values_are_dropped(self):
        assert geomean([4.0, 0.0, -1.0]) == pytest.approx(4.0)


class TestMape:
    def test_hand_computed(self):
        # |1.1-1|/1 = 10%, |1.8-2|/2 = 10% -> mean 10%.
        assert mape([1.0, 2.0], [1.1, 1.8]) == pytest.approx(10.0)

    def test_zero_golden_terms_are_skipped(self):
        assert mape([0.0, 2.0], [5.0, 2.0]) == pytest.approx(0.0)

    def test_all_zero_golden_is_undefined(self):
        assert mape([0.0, 0.0], [1.0, 2.0]) is None

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal length"):
            mape([1.0], [1.0, 2.0])


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_inversion(self):
        assert spearman([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)

    def test_ties_use_average_ranks(self):
        # ranks x = [1, 2.5, 2.5, 4], y = [1, 2, 3, 4]:
        # rho = 4.5 / sqrt(4.5 * 5) = sqrt(0.9).
        rho = spearman([1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
        assert rho == pytest.approx(math.sqrt(0.9))

    def test_short_series_is_undefined(self):
        assert spearman([1, 2], [1, 2]) is None

    def test_zero_variance_is_undefined(self):
        assert spearman([1, 1, 1], [1, 2, 3]) is None

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal length"):
            spearman([1, 2, 3], [1, 2])


class TestScoreSeries:
    GOLDEN = {"A": 1.0, "B": 2.0, "C": 4.0}

    def test_hand_computed_alignment(self):
        measured = {"A": 1.1, "B": 1.8, "C": 4.0, "D": 9.0}  # D: no golden
        score = score_series("figure10", "apres", self.GOLDEN, measured)
        assert score.n_apps == 3
        assert score.mape_pct == pytest.approx(100 * (0.1 + 0.1 + 0.0) / 3)
        assert score.geomean_golden == pytest.approx(2.0)  # (1*2*4)^(1/3)
        assert score.geomean_measured == pytest.approx((1.1 * 1.8 * 4.0) ** (1 / 3))
        assert score.geomean_delta == pytest.approx(
            score.geomean_measured - 2.0)
        assert score.spearman == pytest.approx(1.0)
        assert score.per_app["B"] == {"golden": 2.0, "measured": 1.8}

    def test_disjoint_series_scores_nothing(self):
        score = score_series("figure10", "apres", self.GOLDEN, {"Z": 1.0})
        assert score.n_apps == 0
        assert score.mape_pct is None
        assert score.spearman is None
        assert score.geomean_measured == 0.0


class TestScoreFigure:
    def test_injected_measurements_bypass_simulation(self):
        golden = paper_data.FIG10["apres"]
        measured = {"apres": {app: value * 1.1 for app, value in golden.items()}}
        score = score_figure("figure10", measured=measured)
        assert [s.series for s in score.series] == ["apres"]
        series = score.series[0]
        assert series.mape_pct == pytest.approx(10.0)
        assert series.spearman == pytest.approx(1.0)
        assert series.geomean_delta == pytest.approx(
            0.1 * series.geomean_golden)

    def test_figure_aggregates_average_the_series(self):
        measured = {
            name: dict(per_app)
            for name, per_app in paper_data.FIG10.items()
        }
        score = score_figure("figure10", measured=measured)
        assert len(score.series) == len(paper_data.FIG10)
        assert score.mape_pct == pytest.approx(0.0)
        assert score.spearman == pytest.approx(1.0)
        assert score.geomean_delta == pytest.approx(0.0)

    def test_table1_scores_only_requested_memory_apps(self):
        # PF is not memory-intensive, so Table I has no row for it.
        assert measured_grid("table1", apps=["PF"], scale=0.02) == {
            "miss-rate": {}, "lines-per-ref": {}}
        grid = measured_grid("table1", apps=["PF", "KM"], scale=0.02)
        assert {series: sorted(rows) for series, rows in grid.items()} == {
            "miss-rate": ["KM"], "lines-per-ref": ["KM"]}


def golden_payload(perturb=1.0):
    """Scorecard built from the paper's own numbers (scaled by ``perturb``)."""
    measured = {
        "figure10": {
            series: {app: value * perturb for app, value in per_app.items()}
            for series, per_app in paper_data.FIG10.items()
        }
    }
    return scorecard(figures=["figure10"], measured=measured)


class TestScorecardPayload:
    def test_schema_and_summary(self):
        payload = golden_payload()
        assert payload["schema"] == 1
        assert payload["apps"] is None
        assert set(payload["figures"]) == {"figure10"}
        assert payload["summary"]["mean_mape_pct"] == pytest.approx(0.0)
        assert payload["summary"]["mean_spearman"] == pytest.approx(1.0)
        assert payload["summary"]["mean_abs_geomean_delta"] == pytest.approx(0.0)

    def test_default_figures_are_the_paper_headline(self):
        assert DEFAULT_SCORECARD_FIGURES == (
            "figure10", "figure11", "figure12", "figure13", "figure14",
            "figure15",
        )
        assert set(DEFAULT_SCORECARD_FIGURES) <= set(FIGURES)

    def test_every_producer_has_golden_data_and_a_scorecard_spec(self):
        import inspect
        import re

        from repro.experiments import figures

        producers = {
            name for name, fn in inspect.getmembers(figures, inspect.isfunction)
            if re.fullmatch(r"(figure|table)\d+", name)
            and fn.__module__ == figures.__name__
        }
        assert set(FIGURES) == producers
        for name, spec in FIGURES.items():
            assert spec.producer is getattr(figures, name)
            assert spec.golden and all(spec.golden.values())
            assert spec.kind in _EXTRACTORS

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError, match="unknown scorecard figure"):
            scorecard(figures=["figure99"])

    def test_format_renders_every_series(self):
        text = format_scorecard(golden_payload())
        assert "Paper-fidelity scorecard" in text
        assert "figure10" in text
        for series in paper_data.FIG10:
            assert series in text
        assert "mean Spearman" in text


class TestCLIGate:
    """The property CI's bench-regression job relies on."""

    def write(self, path, perturb=1.0):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(golden_payload(perturb), fh)
        return str(path)

    def test_identical_scorecards_pass(self, tmp_path, capsys):
        a = self.write(tmp_path / "a.json")
        b = self.write(tmp_path / "b.json")
        assert main(["diff", a, b]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_injected_drift_exits_nonzero(self, tmp_path, capsys):
        a = self.write(tmp_path / "a.json")
        b = self.write(tmp_path / "b.json", perturb=1.5)
        assert main(["diff", a, b]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "figure10" in out

    def test_tolerance_override_can_absorb_the_drift(self, tmp_path):
        a = self.write(tmp_path / "a.json")
        b = self.write(tmp_path / "b.json", perturb=1.5)
        assert main(["diff", a, b, "--tolerance", "figure10*=3"]) == 1
        # mape and geomean_delta start at 0 (golden vs golden), so no
        # relative band can absorb them; ignoring those isolates the
        # value drift, which the widened band then absorbs.
        assert main([
            "diff", a, b, "--tolerance", "figure10*=3",
            "--ignore", "*mape*", "*geomean_delta*",
        ]) == 0

    def test_json_report_carries_the_verdict(self, tmp_path, capsys):
        a = self.write(tmp_path / "a.json")
        b = self.write(tmp_path / "b.json", perturb=1.5)
        assert main(["diff", a, b, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert report["failed"]

    def test_scorecard_json_reports_fidelity_triple(self, capsys):
        """Acceptance bar: MAPE, geomean delta and rank correlation per figure."""
        assert main([
            "scorecard", "--json", "--figures", "figure10",
            "--apps", "BFS", "KM", "LUD", "--scale", "0.05",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        figure = payload["figures"]["figure10"]
        assert set(figure) >= {"mape_pct", "geomean_delta", "spearman"}
        apres = figure["series"]["apres"]
        assert apres["n_apps"] == 3
        assert set(apres["per_app"]) == {"BFS", "KM", "LUD"}

    def test_scorecard_out_file_is_diffable(self, tmp_path, capsys):
        out = tmp_path / "card.json"
        assert main([
            "scorecard", "--json", "--out", str(out), "--figures", "figure10",
            "--apps", "BFS", "KM", "LUD", "--scale", "0.05",
        ]) == 0
        capsys.readouterr()
        assert main(["diff", str(out), str(out)]) == 0

    def test_unknown_figure_is_a_usage_error(self, capsys):
        assert main(["scorecard", "--figures", "figure99"]) == 2
        assert "unknown scorecard figure" in capsys.readouterr().err

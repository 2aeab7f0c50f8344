"""Claim-check machinery (tiny scale: wiring, not the real claims)."""

import pytest

from repro.cli import main
from repro.experiments import figures, parallel, runner
from repro.experiments.runner import clear_cache
from repro.experiments.validate import (
    CLAIM_FIGURES,
    ClaimResult,
    check_claims,
    format_report,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestCheckClaims:
    def test_returns_results_for_subset(self):
        results = check_claims(scale=0.05, apps=["KM", "LUD"])
        assert len(results) >= 6
        assert all(isinstance(r, ClaimResult) for r in results)

    def test_table2_claim_always_passes(self):
        results = check_claims(scale=0.05, apps=["KM"])
        t2 = next(r for r in results if "hardware cost" in r.name)
        assert t2.passed

    def test_report_is_identical_after_a_pool_prewarm(self, monkeypatch,
                                                       capsys):
        argv = ["validate", "--apps", "KM", "--scale", "0.05"]
        resolved = set()
        original_run = runner.run

        def recording(workload, config, scale=1.0, gpu_config=None,
                      telemetry=None):
            resolved.add(runner.cache_key(workload, config, scale, gpu_config))
            return original_run(workload, config, scale, gpu_config, telemetry)

        monkeypatch.setattr(runner, "run", recording)
        monkeypatch.setattr(figures, "run", recording)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        main(argv)
        serial = capsys.readouterr().out
        assert serial == format_report(check_claims(scale=0.05,
                                                    apps=["KM"])) + "\n"
        # The prewarm covers exactly the points the claims resolve.
        points = parallel.scorecard_points(CLAIM_FIGURES, ["KM"], 0.05)
        assert {runner.cache_key(*point) for point in points} == resolved

        clear_cache()
        warmed = []
        original_prewarm = parallel.prewarm

        def counting(points, jobs):
            warmed.append((original_prewarm(points, jobs), jobs))
            return warmed[-1][0]

        monkeypatch.setattr(parallel, "prewarm", counting)
        monkeypatch.setenv("REPRO_JOBS", "2")
        main(argv)
        assert capsys.readouterr().out == serial
        assert warmed == [(len(points), 2)]

    def test_km_claims_skipped_without_km(self):
        results = check_claims(scale=0.05, apps=["LUD"])
        assert not any("KM" in r.name for r in results)


class TestFormatReport:
    def test_report_shape(self):
        results = [
            ClaimResult("a", "p", "m", True),
            ClaimResult("b", "p", "m", False),
        ]
        text = format_report(results)
        assert "[PASS] a" in text
        assert "[FAIL] b" in text
        assert "1/2 claims hold" in text

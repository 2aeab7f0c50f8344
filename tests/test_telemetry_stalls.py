"""Stall attribution must partition every SM cycle — exactly.

The acceptance property (ISSUE 3): per-cause stall cycles + issue cycles
== total SM cycles, reconciled against ``SimStats``, on at least three
workloads × two schedulers. We run three kernels × three engine configs
(LRR baseline, CCWS throttling, full APRES) and require the identity to
hold to the cycle, not approximately.
"""

from __future__ import annotations

import pickle

import pytest

from conftest import broadcast_kernel, make_config, mixed_kernel, streaming_kernel
from repro.errors import InvariantError
from repro.experiments import runner
from repro.experiments.configs import CONFIGS
from repro.sm.simulator import GPUSimulator, simulate
from repro.telemetry import STALL_CAUSES, StallEngine, TelemetryHub

NUM_SMS = 2

KERNELS = {
    "stream": lambda: streaming_kernel(iterations=12),
    "bcast": lambda: broadcast_kernel(iterations=12),
    "mixed": lambda: mixed_kernel(iterations=8),
}

ENGINES = ("base", "ccws", "apres")


def run_with_hub(kernel_name: str, config_name: str, **hub_kwargs):
    hub = TelemetryHub(**hub_kwargs)
    cfg = make_config(num_sms=NUM_SMS)
    result = simulate(
        KERNELS[kernel_name](), cfg, CONFIGS[config_name].build, telemetry=hub
    )
    return hub, result


class TestReconciliationProperty:
    @pytest.mark.parametrize("config_name", ENGINES)
    @pytest.mark.parametrize("kernel_name", sorted(KERNELS))
    def test_partition_is_exact(self, kernel_name, config_name):
        hub, result = run_with_hub(kernel_name, config_name)
        report = hub.reconcile(result.stats)  # raises InvariantError on drift
        stats = result.stats
        assert report["issue_cycles"] == stats.instructions
        assert sum(report["by_cause"].values()) == stats.idle_cycles
        assert (
            report["issue_cycles"] + report["stall_cycles"]
            == stats.cycles * NUM_SMS
        )
        assert set(report["by_cause"]) == set(STALL_CAUSES)
        assert all(v >= 0 for v in report["by_cause"].values())

    @pytest.mark.parametrize("config_name", ENGINES)
    def test_per_sm_rows_sum_to_totals(self, config_name):
        hub, result = run_with_hub("mixed", config_name)
        report = hub.reconcile(result.stats)
        assert sum(row["issue_cycles"] for row in report["per_sm"]) == (
            report["issue_cycles"]
        )
        for cause in STALL_CAUSES:
            assert sum(row["stalls"][cause] for row in report["per_sm"]) == (
                report["by_cause"][cause]
            )

    def test_streaming_kernel_charges_memory(self):
        # An all-miss streaming kernel must attribute most of its stall
        # time to memory (in-flight fills or DRAM queuing), by a wide
        # margin — if it lands on scoreboard/no_warp the classifier broke.
        hub, result = run_with_hub("stream", "base")
        by_cause = hub.reconcile(result.stats)["by_cause"]
        memory = by_cause["l1_pending"] + by_cause["dram_queue"]
        assert memory > result.stats.idle_cycles // 2

    def test_reconcile_raises_on_drift(self):
        hub, result = run_with_hub("bcast", "base")
        result.stats.instructions += 1  # simulate a missed issue hook
        with pytest.raises(InvariantError, match="stall attribution"):
            hub.reconcile(result.stats)

    def test_report_schema(self):
        hub, result = run_with_hub("bcast", "base")
        report = hub.stall_report(result.stats)
        assert report["schema"] == "repro-telemetry-stalls"
        assert report["schema_version"] == 1
        assert report["causes"] == STALL_CAUSES
        rec = report["reconciliation"]
        assert rec["issue_matches_instructions"]
        assert rec["stalls_match_idle"]
        assert rec["partition_complete"]


class TestHubLifecycle:
    def test_hub_binds_exactly_once(self):
        hub, _result = run_with_hub("bcast", "base")
        with pytest.raises(ValueError, match="exactly one simulator"):
            simulate(
                broadcast_kernel(iterations=2),
                make_config(),
                CONFIGS["base"].build,
                telemetry=hub,
            )

    def test_skip_requires_prior_charge_default(self):
        # A StallEngine that skips before any tick charges no_warp — the
        # documented safe default for the impossible-in-practice case.
        class _DRAMStub:
            def busy_partitions(self, now):
                return 0

        engine = StallEngine(1, _DRAMStub())
        engine.on_skip(5)
        assert engine.by_cause()["no_warp"] == 5

    def test_snapshot_resume_keeps_reconciling(self):
        # Pickle the simulator mid-run with a live hub, resume the copy,
        # and the restored run's attribution must still reconcile exactly.
        hub = TelemetryHub()
        cfg = make_config(num_sms=NUM_SMS)
        sim = GPUSimulator(
            streaming_kernel(iterations=10), cfg, CONFIGS["apres"].build,
            telemetry=hub,
        )
        assert not sim.step_until(300)
        resumed = pickle.loads(pickle.dumps(sim))
        while not resumed.step_until(1 << 30):
            pass
        result = resumed.result()
        report = resumed.telemetry.reconcile(result.stats)
        assert (
            report["issue_cycles"] + report["stall_cycles"]
            == result.stats.cycles * NUM_SMS
        )


    def test_runner_run_with_hub_bypasses_the_memo_cache(self):
        # A hub binds to one simulator, so a telemetry run must neither
        # replay a memoised result nor seed the cache with its own.
        runner.clear_cache()
        plain = runner.run("KM", "apres", scale=0.05)
        hub = TelemetryHub()
        traced = runner.run("KM", "apres", scale=0.05, telemetry=hub)
        assert traced is not plain
        assert traced.cycles == plain.cycles
        assert runner.run("KM", "apres", scale=0.05) is plain
        summary = hub.stall_summary(traced.sim.stats)
        assert summary["issue_cycles"] == traced.sim.stats.instructions
        runner.clear_cache()


class TestPrefetchConservation:
    def _run(self, tamper=None):
        hub = TelemetryHub()
        cfg = make_config(num_sms=NUM_SMS)
        sim = GPUSimulator(
            streaming_kernel(iterations=12), cfg, CONFIGS["apres"].build,
            telemetry=hub,
        )
        sim.run()
        if tamper is not None:
            tamper(sim.stats.l1)
        sim.subsystem.check_invariants(sim.stats.cycles)
        return sim

    def test_guard_holds_on_real_run(self):
        sim = self._run()
        assert sim.stats.l1.prefetch_issued > 0  # the guard checked something

    def test_guard_trips_on_lost_prefetch(self):
        with pytest.raises(InvariantError, match="prefetch conservation"):
            self._run(tamper=lambda l1: setattr(
                l1, "prefetch_issued", l1.prefetch_issued + 1
            ))

    def test_guard_trips_on_overcounted_usefulness(self):
        with pytest.raises(InvariantError, match="prefetch"):
            self._run(tamper=lambda l1: setattr(
                l1, "prefetch_useful", l1.prefetch_fills + 1
            ))

"""Results registry: identity hashing, the store, provenance, the diff gate.

The registry is the paper trail for every reproduced number: the same
logical experiment must always hash to the same run id, the store must
answer every query from its one JSONL log, and ``repro diff`` must exit nonzero on
drift — that exit code is the CI regression gate.
"""

import dataclasses
import json

import pytest

from conftest import make_config
from repro.cli import main
from repro.experiments.sweep import run_sweep, sweep_points
from repro.registry.diffing import diff_metrics, format_diff
from repro.registry.provenance import collect_provenance
from repro.registry.records import (
    RunRecord,
    config_hash,
    content_hash,
    figure_record,
    flatten_metrics,
    headline_metrics,
    workload_seed,
)
from repro.registry.store import RegistryError, RegistryStore
from repro.workloads.suite import workload


@pytest.fixture
def store(tmp_path, monkeypatch):
    root = tmp_path / "registry"
    monkeypatch.setenv("REPRO_REGISTRY_DIR", str(root))
    return RegistryStore()


def fig_payload(total=3.0):
    return {"series": {"BFS": 1.0, "KM": 2.0}, "GMEAN": total}


class TestContentHash:
    def test_key_order_does_not_matter(self):
        assert content_hash({"a": 1, "b": 2}) == content_hash({"b": 2, "a": 1})

    def test_values_do_matter(self):
        assert content_hash({"a": 1}) != content_hash({"a": 2})

    def test_hex_and_length(self):
        digest = content_hash({"x": 1})
        assert len(digest) == 16
        int(digest, 16)  # must be valid hex


class TestConfigHash:
    def test_equal_configs_hash_equal(self):
        assert config_hash(make_config()) == config_hash(make_config())

    def test_field_change_changes_hash(self):
        assert config_hash(make_config()) != config_hash(make_config(mshrs=8))

    def test_non_dataclass_falls_back_to_repr(self):
        assert config_hash("cfg-a") != config_hash("cfg-b")


class TestWorkloadSeed:
    def test_deterministic_per_workload(self):
        assert workload_seed(workload("KM")) == workload_seed(workload("KM"))

    def test_is_plain_int(self):
        assert isinstance(workload_seed(workload("BFS")), int)

    def test_repr_fallback_for_seedless_specs(self):
        assert workload_seed("spec-a") == workload_seed("spec-a")
        assert workload_seed("spec-a") != workload_seed("spec-b")


class TestFlattenMetrics:
    def test_nested_dicts_and_lists(self):
        flat = flatten_metrics({"a": {"b": 1, "c": [2, 3]}, "d": 4})
        assert flat == {"a.b": 1.0, "a.c.0": 2.0, "a.c.1": 3.0, "d": 4.0}

    def test_bools_and_strings_are_not_metrics(self):
        assert flatten_metrics({"ok": True, "name": "KM", "v": 2}) == {"v": 2.0}

    def test_dataclasses_flatten_like_dicts(self):
        @dataclasses.dataclass
        class Point:
            x: int
            label: str

        assert flatten_metrics({"p": Point(7, "hi")}) == {"p.x": 7.0}

    def test_scalar_gets_a_default_key(self):
        assert flatten_metrics(3) == {"value": 3.0}


class TestHeadlineMetrics:
    def test_prefers_aggregate_keys(self):
        headline = headline_metrics(
            {"apres": {"BFS": 1.4, "GMEAN": 1.2}, "bytes": {"total": 724}}
        )
        assert headline == {"apres.GMEAN": 1.2, "bytes.total": 724.0}

    def test_falls_back_to_first_metrics(self):
        flat = headline_metrics({"a": 1, "b": 2, "c": 3}, limit=2)
        assert flat == {"a": 1.0, "b": 2.0}


class TestStore:
    def test_put_roundtrips_through_latest(self, store):
        record = store.put(figure_record("figure10", fig_payload(), 0.5))
        got = store.latest(kind="figure", name="figure10")
        assert got["run_id"] == record.run_id
        assert got["metrics"]["series.KM"] == 2.0
        assert RunRecord.from_dict(got).identity["figure"] == "figure10"

    def test_every_occurrence_is_kept(self, store):
        record = store.put(figure_record("figure10", fig_payload(), 0.5))
        store.put(figure_record("figure10", fig_payload(), 0.5))
        assert len(store.list()) == 2
        assert len(store.history(record.run_id)) == 2

    def test_list_filters_by_kind_and_name(self, store):
        store.put(figure_record("figure10", fig_payload(), 0.5))
        store.put(figure_record("figure12", fig_payload(), 0.5))
        assert len(store.list(kind="figure")) == 2
        assert [r["name"] for r in store.list(name="figure12")] == ["figure12"]

    def test_scale_changes_the_identity(self, store):
        a = store.put(figure_record("figure10", fig_payload(), 0.5))
        b = store.put(figure_record("figure10", fig_payload(), 0.25))
        assert a.run_id != b.run_id

    def test_resolve_by_prefix(self, store):
        record = store.put(figure_record("figure10", fig_payload(), 0.5))
        assert store.resolve(record.run_id[:6])["run_id"] == record.run_id

    def test_resolve_errors(self, store):
        with pytest.raises(RegistryError, match="empty"):
            store.resolve("deadbeef")
        record = store.put(figure_record("figure10", fig_payload(), 0.5))
        with pytest.raises(RegistryError, match="matches"):
            store.resolve("zzzz")
        with pytest.raises(RegistryError, match="occurrence"):
            store.resolve(record.run_id, nth=1)

    def test_resolve_ambiguous_prefix(self, store):
        store.put(figure_record("figure10", fig_payload(), 0.5))
        store.put(figure_record("figure12", fig_payload(), 0.5))
        with pytest.raises(RegistryError, match="ambiguous"):
            store.resolve("")

    def test_queries_skip_torn_jsonl_tail(self, store):
        record = store.put(figure_record("figure10", fig_payload(), 0.5))
        with open(store.jsonl_path, "a", encoding="utf-8") as fh:
            fh.write('{"run_id": "' + record.run_id)  # crash mid-append
        assert [r["run_id"] for r in store.list()] == [record.run_id]
        assert len(store.history(record.run_id)) == 1
        assert store.resolve(record.run_id[:6])["name"] == "figure10"


class TestLogOnlyRegistry:
    """A registry directory holding nothing but ``records.jsonl``."""

    @staticmethod
    def write_log(root, records):
        root.mkdir(parents=True)
        (root / "records.jsonl").write_text("".join(
            json.dumps(r.as_dict(), sort_keys=True, default=str) + "\n"
            for r in records), encoding="utf-8")
        return RegistryStore(root)

    def test_log_answers_resolve_and_history(self, tmp_path):
        first = figure_record("figure10", fig_payload(1.0), 0.5)
        other = figure_record("figure12", fig_payload(), 0.5)
        second = figure_record("figure10", fig_payload(2.0), 0.5)
        store = self.write_log(tmp_path / "reg",
                               [first, other, second])
        assert sorted(p.name for p in store.root.iterdir()) == [
            "records.jsonl"]
        history = store.history(first.run_id)
        assert [r["metrics"]["GMEAN"] for r in history] == [2.0, 1.0]
        assert store.resolve(first.run_id[:6])["metrics"]["GMEAN"] == 2.0
        assert store.resolve(first.run_id, nth=1)["metrics"]["GMEAN"] == 1.0
        assert store.latest(kind="figure")["run_id"] == first.run_id
        assert [r["name"] for r in store.list(limit=2)] == [
            "figure10", "figure12"]

    def test_warm_sweep_replays_every_point_from_the_log(self, tmp_path):
        points = sweep_points(["KM", "BFS"], ["base"], [0.05])
        cold = RegistryStore(tmp_path / "cold")
        run_sweep(points, str(tmp_path / "cold.jsonl"), registry=cold)
        log_only = tmp_path / "log-only"
        log_only.mkdir()
        (log_only / "records.jsonl").write_bytes(
            cold.jsonl_path.read_bytes())
        summary = run_sweep(points, str(tmp_path / "warm.jsonl"),
                            registry=RegistryStore(log_only))
        assert summary.cache_hits == len(points)
        assert summary.simulated == 0
        assert ((tmp_path / "warm.jsonl").read_bytes()
                == (tmp_path / "cold.jsonl").read_bytes())


class TestProvenance:
    def test_stamp_has_the_audit_fields(self):
        stamp = collect_provenance()
        assert {
            "git_sha", "git_dirty", "code_version", "host",
            "python", "bench_scale_env", "created_unix",
        } <= set(stamp)
        # The suite runs inside the repo checkout, so git must resolve.
        assert isinstance(stamp["git_sha"], str) and len(stamp["git_sha"]) == 40

    def test_bench_scale_env_recorded(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.25")
        assert collect_provenance()["bench_scale_env"] == "0.25"

    def test_records_carry_the_stamp(self, store):
        got = store.put(figure_record("figure10", fig_payload(), 0.5))
        assert got.provenance["git_sha"] == collect_provenance()["git_sha"]


class TestCLIIngestion:
    def test_run_ingests_a_run_record(self, store):
        assert main(["run", "KM", "base", "--scale", "0.05"]) == 0
        got = store.latest(kind="run")
        assert got["name"] == "KM|base"
        assert got["metrics"]["ipc"] > 0
        from repro.experiments.configs import CONFIGS

        spec = CONFIGS["base"]
        assert got["identity"]["scheduler"] == spec.scheduler
        assert got["identity"]["prefetcher"] == (spec.prefetcher or "none")
        assert isinstance(got["identity"]["seed"], int)
        assert got["stalls"] is None or "by_cause" in got["stalls"]
        assert got["wall_time_s"] >= 0

    def test_reruns_land_under_one_run_id(self, store, capsys):
        main(["run", "KM", "base", "--scale", "0.05"])
        main(["run", "KM", "base", "--scale", "0.05"])
        capsys.readouterr()
        run_id = store.latest(kind="run")["run_id"]
        assert len(store.history(run_id)) == 2
        # diff <run-id> compares the two occurrences: identical -> PASS.
        assert main(["diff", run_id[:8]]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_no_registry_flag_skips_ingestion(self, store):
        assert main(["run", "KM", "base", "--scale", "0.05",
                     "--no-registry"]) == 0
        assert store.list() == []

    def test_figure_command_ingests_a_figure_record(self, store, capsys):
        assert main(["figure", "12", "--scale", "0.05",
                     "--apps", "BFS", "KM"]) == 0
        got = store.latest(kind="figure", name="figure12")
        assert got["identity"]["apps"] == ["BFS", "KM"]
        assert "registry:" in capsys.readouterr().out


class TestSweepProvenance:
    def test_points_are_stamped_and_ingested(self, tmp_path, store):
        out = str(tmp_path / "sweep.jsonl")
        summary = run_sweep(
            sweep_points(["KM"], ["apres"], [0.05]), out,
            gpu_config=make_config(), registry=store,
        )
        assert summary.simulated == 1
        with open(out, "r", encoding="utf-8") as fh:
            record = json.loads(fh.readline())
        prov = record["provenance"]
        assert len(prov["git_sha"]) == 40
        assert prov["config_hash"] == config_hash(make_config())
        assert prov["scheduler"] == "apres"
        assert prov["prefetcher"] == "none"
        assert prov["seed"] == workload_seed(workload("KM"))
        assert "bench_scale_env" in prov
        got = store.latest(kind="run")
        assert got["name"] == "KM|apres"
        assert got["identity"]["seed"] == prov["seed"]

    def test_sweep_and_run_agree_on_identity(self, store):
        """The same logical point hashes identically from either entry."""
        main(["run", "KM", "base", "--scale", "0.05"])
        direct = store.latest(kind="run")["run_id"]
        with_sweep = RegistryStore(store.root / "sweep-side")
        run_sweep(
            sweep_points(["KM"], ["base"], [0.05]),
            str(store.root / "sweep.jsonl"),
            registry=with_sweep,
        )
        assert with_sweep.latest(kind="run")["run_id"] == direct


class TestDiffGate:
    def test_within_tolerance_passes(self):
        report = diff_metrics({"ipc": 1.00}, {"ipc": 1.04}, rtol=0.05)
        assert report.ok and not report.failed

    def test_drift_fails(self):
        report = diff_metrics({"ipc": 1.00}, {"ipc": 1.10}, rtol=0.05)
        assert not report.ok
        assert [row.key for row in report.failed] == ["ipc"]
        assert "FAIL" in format_diff(report)

    def test_atol_floors_the_band_near_zero(self):
        assert not diff_metrics({"x": 0.0}, {"x": 1e-6}).ok
        assert diff_metrics({"x": 0.0}, {"x": 1e-6}, atol=1e-3).ok

    def test_glob_overrides_first_match_wins(self):
        report = diff_metrics(
            {"fig.a": 1.0, "fig.b": 1.0},
            {"fig.a": 1.5, "fig.b": 1.5},
            rtol=0.05,
            overrides={"fig.a": 0.6, "fig.*": 0.01},
        )
        assert [row.key for row in report.failed] == ["fig.b"]

    def test_missing_keys_reported_but_not_fatal(self):
        report = diff_metrics({"gone": 1.0, "x": 2.0}, {"x": 2.0, "new": 3.0})
        assert report.ok
        assert report.only_in_a == ["gone"]
        assert report.only_in_b == ["new"]

    def test_ignore_globs(self):
        report = diff_metrics(
            {"noise.a": 1.0, "x": 2.0}, {"noise.a": 9.0, "x": 2.0},
            ignore=("noise.*",),
        )
        assert report.ok and [row.key for row in report.rows] == ["x"]

"""simlint rules against the known-bad/known-good fixture tree.

Each rule must fire on its bad fixture with an exact finding count (so a
detector regression shows up as a diff, not a silent miss) and stay
silent on the corrected twin. The repo itself must lint clean — that is
the acceptance bar the CI lint job enforces.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis import run_lint
from repro.errors import LintError

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "simlint"
BAD = FIXTURES / "bad"
GOOD = FIXTURES / "good"


def by_rule(result):
    return result.by_rule()


class TestSL001Determinism:
    def test_bad_fixture_fires(self):
        result = run_lint([BAD / "determinism.py"])
        assert by_rule(result) == {"SL001": 5}
        messages = " | ".join(f.message for f in result.findings)
        assert "set order is hash-dependent" in messages
        assert "key=id" in messages
        assert "id() values are process-specific" in messages
        assert "random.random()" in messages

    def test_dict_views_fire_in_hot_path(self):
        result = run_lint([BAD / "mem" / "dict_views.py"])
        assert by_rule(result) == {"SL001": 3}
        assert all(".items()" in f.message or ".keys()" in f.message
                   or ".values()" in f.message for f in result.findings)

    def test_dict_views_silent_outside_hot_path(self, tmp_path):
        # Same code as the hot fixture, but in a non-hot directory.
        target = tmp_path / "dict_views.py"
        target.write_text((BAD / "mem" / "dict_views.py").read_text())
        result = run_lint([target])
        assert result.clean

    def test_good_fixture_clean(self):
        assert run_lint([GOOD / "determinism.py"]).clean

    def test_good_dict_views_clean_including_suppression(self):
        assert run_lint([GOOD / "mem" / "dict_views.py"]).clean


class TestSL002Picklability:
    def test_bad_fixture_fires(self):
        result = run_lint([BAD / "mem" / "closures.py"])
        assert by_rule(result) == {"SL002": 3}
        assert all("snapshot() pickling" in f.message for f in result.findings)

    def test_silent_outside_hot_path(self, tmp_path):
        target = tmp_path / "closures.py"
        target.write_text((BAD / "mem" / "closures.py").read_text())
        assert run_lint([target]).clean

    def test_good_fixture_clean(self):
        assert run_lint([GOOD / "mem" / "closures.py"]).clean


class TestSL003CounterHygiene:
    def test_bad_fixture_fires_both_directions(self):
        result = run_lint([BAD / "stats_flow.py"])
        assert by_rule(result) == {"SL003": 2}
        messages = sorted(f.message for f in result.findings)
        assert any("'phantom_counter' is updated here but not declared" in m
                   for m in messages)
        assert any("'FixtureStats.dead_counter' is declared but never updated" in m
                   for m in messages)

    def test_declarations_alone_report_nothing(self, tmp_path):
        # A declarations-only tree has no update sites, so the
        # never-updated check must stay quiet (see rule docstring).
        target = tmp_path / "decls.py"
        target.write_text(textwrap.dedent("""\
            from dataclasses import dataclass

            @dataclass
            class LonelyStats:
                orphan: int = 0
        """))
        assert run_lint([target]).clean

    def test_good_fixture_clean(self):
        assert run_lint([GOOD / "stats_flow.py"]).clean


class TestSL003TelemetryEvents:
    def test_bad_fixture_fires_every_drift_mode(self):
        result = run_lint([BAD / "telemetry_events.py"])
        assert by_rule(result) == {"SL003": 5}
        messages = " | ".join(f.message for f in result.findings)
        assert "UnregisteredEvent subclasses TelemetryEvent" in messages
        assert "OrphanEvent is registered but never emitted" in messages
        assert "'wrong_kind' maps to MislabeledEvent whose kind literal" in messages
        assert "'ghost' -> GhostEvent does not resolve" in messages
        assert "emit site constructs PhantomEvent" in messages

    def test_silent_without_a_registry(self, tmp_path):
        # Emit sites alone (e.g. linting sm/ on its own) must not fire:
        # the pass needs EVENT_TYPES in the tree to check against.
        target = tmp_path / "emitters.py"
        target.write_text(textwrap.dedent("""\
            def poke(hub, SomeEvent):
                hub.emit(SomeEvent(cycle=0))
        """))
        assert run_lint([target]).clean

    def test_orphan_check_gated_on_emit_sites(self, tmp_path):
        # A declarations-only tree (registry + classes, no emitters) must
        # not report orphans — the emitters just weren't linted.
        target = tmp_path / "events_only.py"
        target.write_text(textwrap.dedent("""\
            from dataclasses import dataclass
            from typing import ClassVar


            @dataclass
            class TelemetryEvent:
                kind: ClassVar[str] = ""
                cycle: int


            @dataclass
            class QuietEvent(TelemetryEvent):
                kind: ClassVar[str] = "quiet"


            EVENT_TYPES = {"quiet": QuietEvent}
        """))
        assert run_lint([target]).clean

    def test_good_fixture_clean(self):
        assert run_lint([GOOD / "telemetry_events.py"]).clean


class TestSL004RegistryCompleteness:
    def test_bad_fixture_fires_both_directions(self):
        result = run_lint([BAD / "sched"], rule_codes=["SL004"])
        assert by_rule(result) == {"SL004": 2}
        messages = " | ".join(f.message for f in result.findings)
        assert "PhantomScheduler does not resolve" in messages
        assert "class RogueScheduler subclasses a registrable base" in messages

    def test_good_fixture_clean(self):
        assert run_lint([GOOD / "sched"]).clean


class TestSL004IntervalMetrics:
    def test_bad_fixture_fires_all_three(self):
        result = run_lint([BAD / "intervals_registry.py"])
        assert by_rule(result) == {"SL004": 3}
        messages = " | ".join(f.message for f in result.findings)
        assert "repeats key 'ipc'" in messages
        assert "no _metric_uncomputed method" in messages
        assert "_metric_secret has no INTERVAL_METRICS entry" in messages

    def test_duplicate_key_applies_to_any_upper_registry(self, tmp_path):
        target = tmp_path / "dupes.py"
        target.write_text(textwrap.dedent("""\
            LOOKUP = {
                "a": 1,
                "b": 2,
                "a": 3,  # noqa: F601
            }
        """))
        result = run_lint([target])
        assert by_rule(result) == {"SL004": 1}
        assert "repeats key 'a'" in result.findings[0].message

    def test_lowercase_dicts_exempt(self, tmp_path):
        # Plain data dicts are not registries; only UPPER_CASE module
        # constants get the duplicate-key treatment.
        target = tmp_path / "plain.py"
        target.write_text('lookup = {"a": 1, "a": 2}  # noqa: F601\n')
        assert run_lint([target]).clean

    def test_good_fixture_clean(self):
        assert run_lint([GOOD / "intervals_registry.py"]).clean


class TestSL005FrozenConfig:
    def test_bad_fixture_fires(self):
        result = run_lint([BAD / "config_mutation.py"])
        assert by_rule(result) == {"SL005": 3}
        assert all("dataclasses.replace" in f.message for f in result.findings)

    def test_good_fixture_clean(self):
        assert run_lint([GOOD / "config_mutation.py"]).clean


class TestSL006PaperGolden:
    def test_bad_fixture_fires_every_drift_mode(self):
        result = run_lint([BAD / "experiments"], rule_codes=["SL006"])
        assert by_rule(result) == {"SL006": 6}
        messages = " | ".join(f.message for f in result.findings)
        assert "figure99() has no GOLDEN entry" in messages
        assert "table5() has no GOLDEN entry" in messages
        assert "'figure42' has no matching producer" in messages
        assert "'figure11' has no SCORECARD spec" in messages
        assert "'figure42' has no SCORECARD spec" in messages
        assert "'table7' has no GOLDEN data" in messages

    def test_silent_without_the_module_pair(self, tmp_path):
        # figures.py alone (or paper_data.py alone) must not fire: the
        # rule needs both sides of the contract in the same directory.
        target = tmp_path / "figures.py"
        target.write_text((BAD / "experiments" / "figures.py").read_text())
        assert run_lint([target]).clean

    def test_silent_when_golden_is_computed(self, tmp_path):
        # A GOLDEN built by code is out of structural reach: skip, don't
        # guess (the runtime scorecard covers it).
        (tmp_path / "figures.py").write_text("def figure1():\n    return {}\n")
        (tmp_path / "paper_data.py").write_text(
            "def _build():\n    return {}\n\n\nGOLDEN = _build()\n"
        )
        assert run_lint([tmp_path]).clean

    def test_good_fixture_clean(self):
        assert run_lint([GOOD / "experiments"]).clean


class TestSL007HotPathSlots:
    def test_bad_fixture_fires(self):
        result = run_lint([BAD / "sm" / "state.py"])
        assert by_rule(result) == {"SL007": 3}
        messages = " | ".join(f.message for f in result.findings)
        assert "WarpSlot declares no __slots__" in messages
        assert "IssueRecord declares no __slots__" in messages
        assert "Tracker is defined inside a function" in messages

    def test_silent_outside_hot_path(self, tmp_path):
        target = tmp_path / "state.py"
        target.write_text((BAD / "sm" / "state.py").read_text())
        assert run_lint([target]).clean

    def test_good_fixture_clean(self):
        assert run_lint([GOOD / "sm" / "state.py"]).clean


class TestSL008RobustIO:
    def test_bad_fixture_fires(self):
        result = run_lint([BAD / "experiments" / "robust_io.py"])
        assert by_rule(result) == {"SL008": 5}
        messages = " | ".join(f.message for f in result.findings)
        assert "bare 'except:'" in messages
        assert "pass-only handler" in messages
        assert "open(..., 'w')" in messages
        assert "append_line" in messages  # the 'a'-mode fix
        assert "write_text" in messages

    def test_silent_outside_persistence_packages(self, tmp_path):
        target = tmp_path / "robust_io.py"
        target.write_text((BAD / "experiments" / "robust_io.py").read_text())
        assert run_lint([target]).clean

    def test_temp_then_rename_is_exempt(self, tmp_path):
        # The atomic pattern itself must not fire (the good fixture's
        # save_summary), even though it opens with mode "w".
        registry_dir = tmp_path / "registry"
        registry_dir.mkdir()
        target = registry_dir / "writer.py"
        target.write_text(textwrap.dedent("""\
            import json
            import os


            def save(path, payload):
                tmp = f"{path}.tmp.{os.getpid()}"
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh)
                os.replace(tmp, path)
        """))
        assert run_lint([target]).clean

    def test_good_fixture_clean_including_suppression(self):
        assert run_lint([GOOD / "experiments" / "robust_io.py"]).clean


class TestSL010GlobalState:
    def test_bad_fixture_fires(self):
        result = run_lint([BAD / "sched" / "global_state.py"])
        assert by_rule(result) == {"SL010": 3}
        messages = " | ".join(f.message for f in result.findings)
        assert "module-level mutable `_SEEN_WARPS`" in messages
        assert "class-level mutable attribute `QuotaTracker.quotas`" in messages
        assert "mutable default for parameter `batch`" in messages

    def test_good_fixture_clean(self):
        assert run_lint([GOOD / "sched" / "global_state.py"]).clean

    def test_silent_outside_hot_packages(self, tmp_path):
        # The same patterns outside HOT_PACKAGES are not SL010's business.
        target = tmp_path / "tools"
        target.mkdir()
        (target / "global_state.py").write_text(
            (BAD / "sched" / "global_state.py").read_text()
        )
        assert run_lint([target]).clean

    def test_cross_module_registry_mutation(self, tmp_path):
        target = tmp_path / "mem"
        target.mkdir()
        (target / "registry.py").write_text("TABLE = {}\n")
        (target / "writer.py").write_text(textwrap.dedent("""\
            from registry import TABLE


            def remember(key, value):
                TABLE[key] = value
        """))
        result = run_lint([target])
        assert by_rule(result) == {"SL010": 1}
        assert "registry.TABLE" in result.findings[0].message

    def test_container_mutator_calls_count(self, tmp_path):
        target = tmp_path / "sm"
        target.mkdir()
        (target / "g.py").write_text(textwrap.dedent("""\
            _SEEN = []
            _TABLE = {}


            def note(w):
                _SEEN.append(w)


            def reset():
                _TABLE.clear()


            def put(k, v):
                _TABLE[k] = v
        """))
        result = run_lint([target])
        assert by_rule(result) == {"SL010": 3}
        assert [f.line for f in result.findings] == [6, 10, 14]

    def test_heapq_aliases_and_global_counters_count_but_locals_do_not(
            self, tmp_path):
        target = tmp_path / "mem"
        target.mkdir()
        (target / "h.py").write_text(textwrap.dedent("""\
            import heapq

            _HEAP = []
            _ROWS = {}
            _TICKS = 0


            def push(x):
                heapq.heappush(_HEAP, x)


            def grow(k, v):
                row = _ROWS[k]
                row.append(v)


            def tick():
                global _TICKS
                _TICKS += 1


            def shadowed(x):
                _HEAP = []
                _HEAP.append(x)
                heapq.heapify(_HEAP)
                return _HEAP, _ROWS.get(x), sorted(_ROWS)
        """))
        result = run_lint([target])
        assert by_rule(result) == {"SL010": 3}
        assert [f.line for f in result.findings] == [9, 14, 19]

    def test_nested_functions_are_scanned_in_their_own_scope(self, tmp_path):
        target = tmp_path / "sm"
        target.mkdir()
        (target / "n.py").write_text(textwrap.dedent("""\
            _SEEN = []
            _ROWS = {}


            def outer():
                def inner(w):
                    _SEEN.append(w)
                return inner


            def aliased(k):
                row = _ROWS[k]

                def grow(v):
                    row.append(v)
                return grow


            def shadowed():
                _SEEN = []

                def note(w):
                    _SEEN.append(w)

                def reset():
                    _SEEN = []
                    _SEEN.clear()
                return note, reset


            class Holder:
                __slots__ = ()

                def method(self):
                    def put(k, v):
                        _ROWS[k] = v
                    return put
        """))
        result = run_lint([target])
        assert by_rule(result) == {"SL010": 3}
        assert [f.line for f in result.findings] == [7, 15, 36]
        assert "from `Holder.method.put`" in result.findings[-1].message


class TestSL011MetricNames:
    def test_bad_fixture_fires_all_three_directions(self):
        result = run_lint([BAD / "metrics_names.py"])
        assert by_rule(result) == {"SL011": 3}
        messages = " | ".join(f.message for f in result.findings)
        assert "'harness.ticks.unknown' is emitted here but not declared" in messages
        assert "declared as a gauge but emitted via .counter()" in messages
        assert "'harness.orphan.declared' is declared in METRICS but never emitted" in messages

    def test_good_fixture_clean(self):
        assert run_lint([GOOD / "metrics_names.py"]).clean

    def test_silent_without_metrics_dict(self, tmp_path):
        # Emit sites alone (no METRICS in the tree) are not checkable.
        target = tmp_path / "emit_only.py"
        target.write_text(textwrap.dedent("""\
            def tick(registry):
                registry.counter("anything.goes").inc()
        """))
        assert run_lint([target]).clean

    def test_orphan_check_needs_an_emit_site(self, tmp_path):
        # Linting the declarations file alone must not report orphans.
        target = tmp_path / "decls_only.py"
        target.write_text(textwrap.dedent("""\
            METRICS = {
                "a.b": ("counter", "help"),
            }
        """))
        assert run_lint([target]).clean

    def test_real_metrics_module_matches_repo_emit_sites(self):
        # The package-wide acceptance property, scoped to this rule: the
        # real METRICS dict and every emit site in src/ agree.
        result = run_lint([Path(repro.__file__).parent], rule_codes=["SL011"])
        assert result.clean, [f.render() for f in result.findings]


class TestFixtureTrees:
    def test_bad_tree_totals(self):
        result = run_lint([BAD])
        assert by_rule(result) == {
            "SL001": 8,
            "SL002": 3,
            "SL003": 7,
            "SL004": 5,
            "SL005": 3,
            "SL006": 6,
            "SL007": 3,
            "SL008": 5,
            "SL010": 3,
            "SL011": 3,
        }

    def test_good_tree_is_clean(self):
        result = run_lint([GOOD])
        assert result.clean
        assert result.files_scanned >= 9


class TestEngineBehaviour:
    def test_repo_lints_clean(self):
        """The acceptance bar: the installed repro package has no findings."""
        result = run_lint([Path(repro.__file__).parent])
        assert result.clean, [f.render() for f in result.findings]

    def test_rule_selection_restricts(self):
        result = run_lint([BAD], rule_codes=["SL005"])
        assert set(by_rule(result)) == {"SL005"}

    def test_unknown_rule_code_raises(self):
        with pytest.raises(LintError, match="unknown rule code"):
            run_lint([BAD], rule_codes=["SL999"])

    def test_missing_path_raises(self):
        with pytest.raises(LintError, match="no such file"):
            run_lint([FIXTURES / "does-not-exist"])

    def test_syntax_error_becomes_sl000(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def broken(:\n")
        result = run_lint([target])
        assert [f.rule for f in result.findings] == ["SL000"]

    def test_blanket_suppression(self, tmp_path):
        target = tmp_path / "suppressed.py"
        target.write_text(textwrap.dedent("""\
            def drain(pending: set[int]) -> list[int]:
                return list(pending)  # simlint: ignore
        """))
        assert run_lint([target]).clean

    def test_wrong_code_does_not_suppress(self, tmp_path):
        target = tmp_path / "wrong_code.py"
        target.write_text(textwrap.dedent("""\
            def drain(pending: set[int]) -> list[int]:
                return list(pending)  # simlint: ignore[SL002]
        """))
        result = run_lint([target])
        assert by_rule(result) == {"SL001": 1}

    def test_skip_file(self, tmp_path):
        target = tmp_path / "skipped.py"
        target.write_text(textwrap.dedent("""\
            # simlint: skip-file
            def drain(pending: set[int]) -> list[int]:
                return list(pending)
        """))
        assert run_lint([target]).clean

    def test_decorator_lines_inherit_def_line_suppression(self, tmp_path):
        from repro.analysis.engine import Finding, _is_suppressed, load_module

        target = tmp_path / "decorated.py"
        target.write_text(textwrap.dedent("""\
            @slow_path(retry=3)
            def flush():  # simlint: ignore[SL008]
                return None
        """))
        module = load_module(target)
        on_decorator = Finding(module.display_path, 1, 0, "SL008", "x")
        assert _is_suppressed(on_decorator, module)
        wrong_code = Finding(module.display_path, 1, 0, "SL001", "x")
        assert not _is_suppressed(wrong_code, module)

    def test_parse_cache_hits_and_invalidation(self, tmp_path):
        from repro.analysis.engine import clear_module_cache, load_module

        target = tmp_path / "cached.py"
        target.write_text("VALUE = 1\n")
        stats = {"hits": 0, "misses": 0}
        first = load_module(target, cache_stats=stats)
        second = load_module(target, cache_stats=stats)
        assert stats == {"hits": 1, "misses": 1}
        assert first is second
        # A content change (size differs) must invalidate the entry.
        target.write_text("VALUE = 1000\n")
        third = load_module(target, cache_stats=stats)
        assert stats == {"hits": 1, "misses": 2}
        assert third is not second
        clear_module_cache()
        load_module(target, cache_stats=stats)
        assert stats == {"hits": 1, "misses": 3}

    def test_json_dict_schema(self):
        payload = run_lint([BAD / "config_mutation.py"]).as_json_dict()
        assert set(payload) == {
            "tool", "schema_version", "files_scanned", "rules", "findings",
            "summary", "runtime_check",
        }
        assert payload["tool"] == "simlint"
        assert payload["schema_version"] == 1
        assert payload["summary"]["total"] == 3
        assert payload["summary"]["by_rule"] == {"SL005": 3}
        assert set(payload["rules"]) == {
            "SL001", "SL002", "SL003", "SL004", "SL005", "SL006", "SL007",
            "SL008", "SL010", "SL011",
        }
        for finding in payload["findings"]:
            assert set(finding) == {"path", "line", "col", "rule", "message"}

"""`python -m repro lint` end to end: exit codes, formats, flags.

Exit-code contract (mirrors the CI lint job): 0 = clean, 1 = findings,
2 = the linter itself failed (unreadable path, unknown rule, rule crash).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent
FIXTURES = TESTS_DIR / "fixtures" / "simlint"
SRC_DIR = str(TESTS_DIR.parent / "src")


def run_cli(*args: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestExitCodes:
    def test_clean_tree_exits_zero(self):
        proc = run_cli(str(FIXTURES / "good"))
        assert proc.returncode == 0, proc.stderr
        assert "clean" in proc.stdout

    def test_findings_exit_one(self):
        proc = run_cli(str(FIXTURES / "bad"))
        assert proc.returncode == 1
        assert "SL001" in proc.stdout

    def test_internal_error_exits_two(self):
        proc = run_cli(str(FIXTURES / "no-such-dir"))
        assert proc.returncode == 2
        assert "no such file or directory" in proc.stderr

    def test_unknown_rule_exits_two(self):
        proc = run_cli(str(FIXTURES / "good"), "--rules", "SL999")
        assert proc.returncode == 2
        assert "unknown rule code" in proc.stderr

    def test_default_path_is_repo_package_and_clean(self):
        # No paths: lints the installed repro package, which must be clean.
        proc = run_cli()
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestTextOutput:
    def test_findings_render_as_path_line_col_rule(self):
        proc = run_cli(str(FIXTURES / "bad" / "config_mutation.py"))
        assert proc.returncode == 1
        lines = [ln for ln in proc.stdout.splitlines() if ": SL005 " in ln]
        assert len(lines) == 3
        for line in lines:
            location = line.split(" ", 1)[0]
            path, lineno, col = location.rsplit(":", 3)[0:3]
            assert path.endswith("config_mutation.py")
            assert lineno.isdigit() and col.isdigit()

    def test_summary_line_present(self):
        proc = run_cli(str(FIXTURES / "bad"))
        assert "finding(s)" in proc.stdout


class TestJsonOutput:
    def test_schema(self):
        proc = run_cli(str(FIXTURES / "bad"), "--format", "json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["tool"] == "simlint"
        assert payload["schema_version"] == 1
        assert payload["summary"]["total"] == sum(
            payload["summary"]["by_rule"].values()
        )
        assert payload["summary"]["by_rule"] == {
            "SL001": 8, "SL002": 3, "SL003": 7, "SL004": 5, "SL005": 3,
            "SL006": 6, "SL007": 3, "SL008": 5, "SL010": 3,
            "SL011": 3,
        }
        assert payload["files_scanned"] >= 8
        assert payload["runtime_check"] is None
        for finding in payload["findings"]:
            assert set(finding) == {"path", "line", "col", "rule", "message"}
            assert finding["rule"] in payload["rules"] or finding["rule"] == "SL000"

    def test_clean_json(self):
        proc = run_cli(str(FIXTURES / "good"), "--format", "json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["findings"] == []
        assert payload["summary"] == {"total": 0, "by_rule": {}}


class TestFlags:
    def test_rules_filter(self):
        proc = run_cli(str(FIXTURES / "bad"), "--rules", "SL003", "--format", "json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["summary"]["by_rule"] == {"SL003": 7}
        assert set(payload["rules"]) == {"SL003"}

    def test_list_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for code in ("SL001", "SL002", "SL003", "SL004", "SL005"):
            assert code in proc.stdout

    def test_select_is_an_alias_for_rules(self):
        proc = run_cli(str(FIXTURES / "bad"), "--select", "SL003", "--format", "json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["summary"]["by_rule"] == {"SL003": 7}

    def test_stats_line_on_stderr(self):
        proc = run_cli(str(FIXTURES / "good"), "--stats")
        assert proc.returncode == 0
        assert "simlint stats:" in proc.stderr
        for token in ("files=", "rules=", "findings=", "elapsed_s=",
                      "parse_cache_hits=", "parse_cache_misses="):
            assert token in proc.stderr
        assert "simlint stats:" not in proc.stdout

    def test_verify_against_runtime(self):
        src = str(Path(SRC_DIR) / "repro")
        proc = run_cli(src, "--verify-against-runtime", "--format", "json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        check = payload["runtime_check"]
        assert check["ran"] is True
        assert check["missing_at_runtime"] == []
        assert check["undeclared_at_runtime"] == []
        assert check["declared_counters"]


class TestGithubFormat:
    def test_findings_render_as_workflow_commands(self):
        proc = run_cli(
            str(FIXTURES / "bad" / "config_mutation.py"), "--format", "github"
        )
        assert proc.returncode == 1
        commands = [
            line for line in proc.stdout.splitlines() if line.startswith("::error ")
        ]
        assert len(commands) == 3
        for command in commands:
            assert "file=" in command and ",line=" in command and ",col=" in command
            assert "title=simlint SL005::" in command

    def test_parity_with_json(self):
        json_proc = run_cli(str(FIXTURES / "bad"), "--format", "json")
        gh_proc = run_cli(str(FIXTURES / "bad"), "--format", "github")
        findings = json.loads(json_proc.stdout)["findings"]
        commands = [
            line for line in gh_proc.stdout.splitlines()
            if line.startswith("::error ")
        ]
        assert len(commands) == len(findings)
        for finding, command in zip(findings, commands):
            assert f"file={finding['path']},line={finding['line']}," in command
            assert f"title=simlint {finding['rule']}::" in command

    def test_clean_tree_emits_no_commands(self):
        proc = run_cli(str(FIXTURES / "good"), "--format", "github")
        assert proc.returncode == 0
        assert "::error" not in proc.stdout
        assert "clean" in proc.stdout

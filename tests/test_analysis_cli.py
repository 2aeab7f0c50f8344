"""`python -m repro lint` end to end: exit codes, formats, flags.

Exit-code contract (mirrors the CI lint job): 0 = clean, 1 = findings,
2 = the linter itself failed (unreadable path, unknown rule, rule crash).
"""

from __future__ import annotations

import json
import os
import re
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
        assert "SL003" in proc.stdout

    def test_internal_error_exits_two(self):
        proc = run_cli(str(FIXTURES / "no-such-dir"))
        assert proc.returncode == 2
        assert "no such file or directory" in proc.stderr

    def test_unknown_rule_exits_two(self):
        proc = run_cli(str(FIXTURES / "good"), "--rules", "SL999")
        assert proc.returncode == 2
        assert "unknown rule code" in proc.stderr

    def test_unknown_suppression_code_exits_one(self, tmp_path):
        target = tmp_path / "stale.py"
        target.write_text("VALUE = 1\nOTHER = 2  # simlint: ignore[SL001]\n")
        proc = run_cli(str(target))
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert re.search(r"stale\.py:2:\d+: SL000 .*SL001", proc.stdout)

    def test_default_path_is_repo_package_and_clean(self):
        # No paths: lints the installed repro package, which must be clean.
        proc = run_cli()
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestTextOutput:
    def test_findings_render_as_path_line_col_rule(self):
        proc = run_cli(str(FIXTURES / "bad" / "sm" / "state.py"))
        assert proc.returncode == 1
        lines = [ln for ln in proc.stdout.splitlines() if ": SL007 " in ln]
        assert len(lines) == 3
        for line in lines:
            location = line.split(" ", 1)[0]
            path, lineno, col = location.rsplit(":", 3)[0:3]
            assert path.endswith("state.py")
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
            "SL003": 2, "SL004": 1, "SL007": 3, "SL008": 5, "SL010": 3,
        }
        assert payload["files_scanned"] >= 5
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
        assert payload["summary"]["by_rule"] == {"SL003": 2}
        assert set(payload["rules"]) == {"SL003"}

    def test_list_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for code in ("SL003", "SL004", "SL007", "SL008", "SL010"):
            assert code in proc.stdout
        for code in ("SL001", "SL002", "SL005", "SL006", "SL009", "SL011"):
            assert code not in proc.stdout

    def test_help_lists_only_the_three_flags(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", proc.stdout))
        assert flags == {"--help", "--format", "--rules", "--list-rules"}
        assert "{text,json}" in proc.stdout

"""``python -m repro lint`` — the simlint command-line front end.

Exit codes follow the linter convention:

* ``0`` — every linted file is clean (after suppressions);
* ``1`` — at least one finding;
* ``2`` — the linter itself failed (unreadable path, unknown rule code,
  a rule crashed) via :class:`~repro.errors.LintError`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from repro.analysis.engine import LintResult, run_lint
from repro.analysis.rules import ALL_RULES


def default_lint_path() -> Path:
    """The installed ``repro`` package directory (lint ourselves by default)."""
    import repro

    return Path(repro.__file__).resolve().parent


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach simlint's flags to the ``lint`` subparser."""
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "github"), default="text",
        help="output format (default: text; github emits workflow commands)",
    )
    parser.add_argument(
        "--rules", "--select", dest="rules", default=None, metavar="CODES",
        help="comma-separated rule subset, e.g. SL001,SL003 (default: all)",
    )
    parser.add_argument(
        "--verify-against-runtime", action="store_true",
        help="run a smoke simulation and cross-check SL003's static counter "
             "view against the counters the simulator actually emits",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print run statistics (files, rules, findings, elapsed, parse "
             "cache) to stderr",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules and exit",
    )


def _print_rule_listing() -> None:
    width = max(len(rule.code) for rule in ALL_RULES)
    print("simlint rules:")
    for rule in ALL_RULES:
        print(f"  {rule.code:<{width}}  {rule.title}")
    print("\nSuppress one line with '# simlint: ignore[CODE]' "
          "(or a bare '# simlint: ignore' for all rules); skip a whole file "
          "with '# simlint: skip-file' in its first five lines.")


def _print_text(result: LintResult) -> None:
    for finding in result.findings:
        print(finding.render())
    counts = ", ".join(f"{code}: {n}" for code, n in result.by_rule().items())
    if result.findings:
        print(f"\n{len(result.findings)} finding(s) in "
              f"{result.files_scanned} file(s) ({counts})")
    else:
        print(f"clean: {result.files_scanned} file(s), "
              f"{len(result.rules)} rule(s), 0 findings")
    if result.runtime_check is not None:
        check = result.runtime_check
        print(f"runtime cross-check: {len(check['runtime_counters'])} counters "
              f"emitted by {check['smoke_point']['app']}/"
              f"{check['smoke_point']['config']}, "
              f"{len(check['missing_at_runtime'])} missing at runtime, "
              f"{len(check['undeclared_at_runtime'])} undeclared in tree")


def _print_github(result: LintResult) -> None:
    """GitHub workflow commands — annotates the PR diff in Actions runs."""
    for finding in result.findings:
        print(f"::error file={finding.path},line={finding.line},"
              f"col={finding.col + 1},title=simlint {finding.rule}::"
              f"{finding.message}")
    counts = ", ".join(f"{code}: {n}" for code, n in result.by_rule().items())
    if result.findings:
        print(f"{len(result.findings)} finding(s) in "
              f"{result.files_scanned} file(s) ({counts})")
    else:
        print(f"clean: {result.files_scanned} file(s), "
              f"{len(result.rules)} rule(s), 0 findings")


def _print_stats(result: LintResult) -> None:
    stats = result.run_stats
    print(
        f"simlint stats: files={stats.get('files', 0)} "
        f"rules={stats.get('rules', 0)} findings={stats.get('findings', 0)} "
        f"elapsed_s={stats.get('elapsed_s', 0.0)} "
        f"parse_cache_hits={stats.get('parse_cache_hits', 0)} "
        f"parse_cache_misses={stats.get('parse_cache_misses', 0)}",
        file=sys.stderr,
    )


def cmd_lint(args: argparse.Namespace) -> int:
    """Entry point for the ``lint`` subcommand (wired in :mod:`repro.cli`)."""
    if args.list_rules:
        _print_rule_listing()
        return 0
    paths: list[Path] = [Path(p) for p in args.paths] or [default_lint_path()]
    rule_codes: Optional[list[str]] = (
        args.rules.split(",") if args.rules else None
    )
    result = run_lint(paths, rule_codes=rule_codes)
    if args.verify_against_runtime:
        from repro.analysis.runtime_check import verify_against_runtime

        verify_against_runtime(result)
    if args.format == "json":
        print(json.dumps(result.as_json_dict(), indent=2, sort_keys=True))
    elif args.format == "github":
        _print_github(result)
    else:
        _print_text(result)
    if getattr(args, "stats", False):
        _print_stats(result)
    return 1 if result.findings else 0

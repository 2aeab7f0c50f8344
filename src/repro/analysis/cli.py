"""``python -m repro lint`` — the simlint command-line front end.

The flags (``--format``, ``--rules``, ``--list-rules``) are declared in
:mod:`repro.cli`, so other commands never import this package.

Exit codes follow the linter convention:

* ``0`` — every linted file is clean (after suppressions);
* ``1`` — at least one finding;
* ``2`` — the linter itself failed (unreadable path, unknown rule code,
  a rule crashed) via :class:`~repro.errors.LintError`.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Optional

from repro.analysis.engine import LintResult, run_lint
from repro.analysis.rules import ALL_RULES


def default_lint_path() -> Path:
    """The installed ``repro`` package directory (lint ourselves by default)."""
    import repro

    return Path(repro.__file__).resolve().parent


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
    if args.format == "json":
        print(json.dumps(result.as_json_dict(), indent=2, sort_keys=True))
    else:
        _print_text(result)
    return 1 if result.findings else 0

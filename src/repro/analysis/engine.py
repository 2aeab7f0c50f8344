"""simlint rule engine: file discovery, parsing, suppressions, rule driving.

The engine walks Python files, parses each into an AST, runs every
registered rule over every module, gives cross-module rules a second
``finish`` pass over the whole project, and then drops findings that a
``# simlint: ignore[...]`` comment suppresses. A suppression naming a
code no registered rule has is itself a finding: it would suppress
nothing.

Rules never do I/O and never import the code under analysis — everything
is derived from the AST and raw source, so the linter is safe to run on
broken or hostile trees and cannot perturb simulation state.
"""

from __future__ import annotations

import abc
import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar, Iterable, Mapping, Optional, Sequence

from repro.analysis.finding import Finding
from repro.errors import LintError

#: Pseudo-rule code for source the engine cannot lint as written: a file
#: that fails to parse, or a suppression naming a code no rule has.
PARSE_RULE = "SL000"

#: Package-directory names whose modules form the simulator's hot path /
#: checkpointable object graph. Rules that would be too noisy repo-wide
#: (hidden global state) only apply here.
HOT_PACKAGES = frozenset({"sm", "mem", "sched", "prefetch", "core", "integrity", "stats"})

_SUPPRESS_RE = re.compile(r"#\s*simlint:\s*ignore(?:\[(?P<codes>[A-Za-z0-9_,\s]+)\])?")
_SKIP_FILE_RE = re.compile(r"#\s*simlint:\s*skip-file")


@dataclass
class ModuleInfo:
    """One parsed source file plus the metadata rules key off.

    Parsed once per file and shared by every rule of a run (and across
    runs in one process via the mtime/size-keyed module cache), so rules
    never re-read or re-split a source file themselves: use ``lines``
    instead of ``source.splitlines()``.
    """

    path: Path
    display_path: str
    source: str
    tree: ast.Module
    #: ``source.splitlines()``, computed once and shared by all rules.
    lines: tuple[str, ...] = ()
    #: Per-line suppressions: line number -> rule codes (empty set = all rules).
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)
    #: Decorator line -> line of the decorated ``def``/``class``, so a
    #: suppression on the definition line covers decorator-anchored findings.
    decorator_owner: dict[int, int] = field(default_factory=dict)

    @property
    def is_hot(self) -> bool:
        """True when the file lives under a hot-path package directory."""
        return any(part in HOT_PACKAGES for part in self.path.parts)

    @property
    def name(self) -> str:
        """Module stem, e.g. ``registry`` for ``sched/registry.py``."""
        return self.path.stem


@dataclass
class Project:
    """All modules of one lint run, for cross-module rules."""

    modules: list[ModuleInfo]


class Reporter:
    """Accumulates findings on behalf of rules."""

    def __init__(self) -> None:
        self._findings: list[Finding] = []

    def report(
        self,
        rule: str,
        module: ModuleInfo,
        node: Optional[ast.AST],
        message: str,
        *,
        line: Optional[int] = None,
        col: Optional[int] = None,
    ) -> None:
        """Record one finding, locating it at ``node`` unless overridden."""
        at_line = line if line is not None else getattr(node, "lineno", 1)
        at_col = col if col is not None else getattr(node, "col_offset", 0)
        self._findings.append(
            Finding(module.display_path, int(at_line), int(at_col), rule, message)
        )

    @property
    def findings(self) -> list[Finding]:
        return list(self._findings)


class Rule(abc.ABC):
    """Base class for simlint rules.

    ``check_module`` runs once per file; ``finish`` runs once per lint
    invocation after every file has been seen, which is where cross-module
    rules (counter hygiene, from-imported global state) emit their findings.
    Rule instances are created fresh for every run, so accumulating state
    on ``self`` between ``check_module`` calls is safe.
    """

    code: ClassVar[str]
    title: ClassVar[str]

    @abc.abstractmethod
    def check_module(self, module: ModuleInfo, reporter: Reporter) -> None:
        """Inspect one parsed module."""

    def finish(self, project: Project, reporter: Reporter) -> None:
        """Project-wide pass after all modules were seen (default: no-op)."""


@dataclass
class LintResult:
    """Outcome of one engine run."""

    findings: list[Finding]
    files_scanned: int
    rules: dict[str, str]

    @property
    def clean(self) -> bool:
        return not self.findings

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def as_json_dict(self) -> dict[str, Any]:
        """The stable JSON schema of ``python -m repro lint --format json``."""
        return {
            "tool": "simlint",
            "schema_version": 1,
            "files_scanned": self.files_scanned,
            "rules": self.rules,
            "findings": [f.as_dict() for f in self.findings],
            "summary": {"total": len(self.findings), "by_rule": self.by_rule()},
        }


def parse_suppressions(source: str) -> dict[int, frozenset[str]]:
    """Map line numbers to suppressed rule codes.

    ``# simlint: ignore`` suppresses every rule on its line;
    ``# simlint: ignore[SL003, SL008]`` suppresses just those codes.
    Only comments count: the same text inside a string or docstring
    suppresses nothing.
    """
    suppressions: dict[int, frozenset[str]] = {}
    if "simlint" not in source:
        return suppressions
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        lineno = token.start[0]
        codes = match.group("codes")
        if codes is None:
            suppressions[lineno] = frozenset()
        else:
            suppressions[lineno] = frozenset(
                c.strip().upper() for c in codes.split(",") if c.strip()
            )
    return suppressions


def _decorator_owners(tree: ast.Module) -> dict[int, int]:
    """Map every decorator line to the line of its ``def``/``class``.

    A ``# simlint: ignore[...]`` on a decorated definition line then also
    covers findings that rules anchor to the decorator expressions above it.
    """
    owners: dict[int, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for decorator in node.decorator_list:
            end = getattr(decorator, "end_lineno", None) or decorator.lineno
            for lineno in range(decorator.lineno, end + 1):
                owners[lineno] = node.lineno
    return owners


def _is_suppressed(finding: Finding, module: ModuleInfo) -> bool:
    codes = module.suppressions.get(finding.line)
    if codes is None:
        owner = module.decorator_owner.get(finding.line)
        if owner is not None:
            codes = module.suppressions.get(owner)
    if codes is None:
        return False
    return not codes or finding.rule in codes


def discover_files(paths: Sequence[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(p for p in path.rglob("*.py") if p.is_file()))
        elif path.is_file():
            files.append(path)
        else:
            raise LintError(f"no such file or directory: {path}",
                            details={"path": str(path)})
    # De-duplicate while keeping order stable.
    seen: set[Path] = set()
    unique: list[Path] = []
    for path in files:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def _display_path(path: Path) -> str:
    try:
        return str(path.relative_to(Path.cwd()))
    except ValueError:
        return str(path)


#: Process-wide parse cache: resolved path -> ((mtime_ns, size), entry).
#: Repeated lint runs in one process (tests call ``run_lint`` dozens of
#: times) parse each unchanged file exactly once.
_MODULE_CACHE: dict[Path, tuple[tuple[int, int], "ModuleInfo | Finding"]] = {}


def clear_module_cache() -> None:
    """Drop the process-wide parse cache (tests that rewrite files)."""
    _MODULE_CACHE.clear()


def _load_uncached(path: Path, display: str) -> "ModuleInfo | Finding":
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise LintError(f"cannot read {display}: {exc}",
                        details={"path": display}) from exc
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return Finding(display, exc.lineno or 1, (exc.offset or 1) - 1,
                       PARSE_RULE, f"file does not parse: {exc.msg}")
    lines = tuple(source.splitlines())
    return ModuleInfo(
        path=path,
        display_path=display,
        source=source,
        tree=tree,
        lines=lines,
        suppressions=parse_suppressions(source),
        decorator_owner=_decorator_owners(tree),
    )


def load_module(path: Path) -> "ModuleInfo | Finding":
    """Parse one file; a syntax error becomes an ``SL000`` finding.

    Results are cached per resolved path, keyed by ``(mtime_ns, size)``, so
    every rule — and every subsequent run in this process — shares one AST
    and one pre-split line list per file.
    """
    display = _display_path(path)
    try:
        resolved = path.resolve()
        stat = resolved.stat()
    except OSError as exc:
        raise LintError(f"cannot read {display}: {exc}",
                        details={"path": display}) from exc
    stamp = (stat.st_mtime_ns, stat.st_size)
    cached = _MODULE_CACHE.get(resolved)
    if cached is not None and cached[0] == stamp:
        entry = cached[1]
        if entry.display_path == display:
            return entry
        # Same parse, different cwd: reshare the AST under the new display.
        if isinstance(entry, Finding):
            return Finding(display, entry.line, entry.col, entry.rule, entry.message)
        return ModuleInfo(
            path=path,
            display_path=display,
            source=entry.source,
            tree=entry.tree,
            lines=entry.lines,
            suppressions=entry.suppressions,
            decorator_owner=entry.decorator_owner,
        )
    loaded = _load_uncached(path, display)
    _MODULE_CACHE[resolved] = (stamp, loaded)
    return loaded


def default_rules() -> list[Rule]:
    """Fresh instances of every registered rule."""
    from repro.analysis.rules import build_all_rules

    return build_all_rules()


def run_lint(
    paths: Sequence["Path | str"],
    rule_codes: Optional[Iterable[str]] = None,
) -> LintResult:
    """Lint ``paths`` (files or directories) and return the result.

    ``rule_codes`` restricts the run to a subset of rules; unknown codes
    raise :class:`~repro.errors.LintError` (exit code 2 at the CLI).
    """
    rules = default_rules()
    available: Mapping[str, Rule] = {rule.code: rule for rule in rules}
    if rule_codes is not None:
        wanted = [code.strip().upper() for code in rule_codes if code.strip()]
        unknown = sorted(set(wanted) - set(available))
        if unknown:
            raise LintError(
                f"unknown rule code(s): {', '.join(unknown)}",
                details={"unknown": unknown, "known": sorted(available)},
            )
        rules = [available[code] for code in dict.fromkeys(wanted)]

    files = discover_files([Path(p) for p in paths])
    modules: list[ModuleInfo] = []
    findings: list[Finding] = []
    for path in files:
        loaded = load_module(path)
        if isinstance(loaded, Finding):
            findings.append(loaded)
            continue
        if any(_SKIP_FILE_RE.search(line) for line in loaded.lines[:5]):
            continue
        modules.append(loaded)

    project = Project(modules)
    reporter = Reporter()
    for rule in rules:
        for module in modules:
            try:
                rule.check_module(module, reporter)
            except Exception as exc:
                raise LintError(
                    f"rule {rule.code} crashed on {module.display_path}: {exc!r}",
                    details={"rule": rule.code, "path": module.display_path},
                ) from exc
        try:
            rule.finish(project, reporter)
        except Exception as exc:
            raise LintError(
                f"rule {rule.code} crashed in its project pass: {exc!r}",
                details={"rule": rule.code},
            ) from exc

    for module in modules:
        for lineno, codes in sorted(module.suppressions.items()):
            for code in sorted(codes - set(available)):
                findings.append(Finding(
                    module.display_path, lineno, 0, PARSE_RULE,
                    f"suppression names {code}, which no rule has, so it "
                    "suppresses nothing; remove it or name a rule from "
                    "`repro lint --list-rules`",
                ))

    by_path = {module.display_path: module for module in modules}
    for finding in reporter.findings:
        module = by_path.get(finding.path)
        if module is not None and _is_suppressed(finding, module):
            continue
        findings.append(finding)

    findings = sorted(findings)
    return LintResult(
        findings=findings,
        files_scanned=len(files),
        rules={rule.code: rule.title for rule in rules},
    )

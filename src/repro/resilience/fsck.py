"""Registry self-healing: detect, quarantine and repair corrupted records.

``repro fsck`` audits a :class:`~repro.registry.store.RegistryStore` for
every corruption class the chaos harness can inject (and the real world
produces):

* **torn lines** — a truncated JSONL tail from a crash mid-append, or any
  line that is not a JSON record at all;
* **run-id mismatches** — a record whose ``run_id`` no longer equals the
  content hash of its identity (the identity was tampered with);
* **payload-hash mismatches** — an archived sweep record whose recomputed
  sha256 disagrees with the ``sweep_record_sha256`` stamped at ingest
  (bit rot or a corrupted archive: still valid JSON, wrong numbers);
* **duplicates** — byte-identical repeated lines (a replayed append).

``--repair`` quarantines every bad raw line under
``<registry>/quarantine/``, restores restorable records from a sweep
store (an archived sweep record is a pure function of its JSONL source
under a pinned provenance epoch, so restoration is lossless) and
rewrites ``records.jsonl`` atomically. A clean log is left untouched.
"""

from __future__ import annotations

import json
import os
import pathlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.resilience.atomic import append_line, atomic_write

#: File under ``<registry>/quarantine/`` receiving quarantined raw lines.
QUARANTINE_FILE = "quarantined.jsonl"


@dataclass
class FsckIssue:
    """One detected problem, with its (optional) repair outcome."""

    kind: str  # torn-line | run-id-mismatch | payload-hash-mismatch |
    #            duplicate
    detail: str
    lineno: Optional[int] = None
    run_id: Optional[str] = None
    #: Repair outcome: restored in place (lossless) ...
    repaired: bool = False
    #: ... or removed to the quarantine file.
    quarantined: bool = False


@dataclass
class FsckReport:
    """Outcome of one :func:`fsck` pass."""

    root: str
    #: Well-formed records seen in the log.
    records: int = 0
    issues: list[FsckIssue] = field(default_factory=list)
    #: True when a repair pass rewrote the store.
    repaired: bool = False
    quarantine_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.issues

    def counts(self) -> dict[str, int]:
        """Issue tally by kind (stable order for display/JSON)."""
        tally: Counter[str] = Counter(issue.kind for issue in self.issues)
        return dict(sorted(tally.items()))


def _verify_payload(payload: Any) -> Optional[tuple[str, str]]:
    """(issue kind, detail) when a parsed record fails verification."""
    from repro.registry.records import content_hash, record_sha256

    if not isinstance(payload, dict) or not isinstance(
            payload.get("run_id"), str):
        return "torn-line", "parsed JSON is not a registry record"
    identity = payload.get("identity")
    if isinstance(identity, dict) and identity:
        expected = content_hash(identity)
        if payload["run_id"] != expected:
            return (
                "run-id-mismatch",
                f"run_id {payload['run_id']} != identity hash {expected}",
            )
    data = payload.get("data") or {}
    stamped = data.get("sweep_record_sha256")
    archived = data.get("sweep_record")
    if isinstance(stamped, str) and isinstance(archived, dict):
        actual = record_sha256(archived)
        if actual != stamped:
            return (
                "payload-hash-mismatch",
                f"archived sweep record hashes to {actual[:16]}..., "
                f"ingest stamped {stamped[:16]}...",
            )
    return None


def _restore_line(payload: dict, restore_records: dict[str, dict]
                  ) -> Optional[str]:
    """Regenerated registry line for a corrupted record, if restorable.

    An archived sweep record is deterministic given its sweep JSONL
    source: rebuilding through
    :func:`repro.registry.records.sweep_point_record` under the same
    provenance epoch reproduces the original line byte-for-byte.
    """
    from repro.registry.records import sweep_point_record

    key = (payload.get("data") or {}).get("sweep_key")
    source = restore_records.get(key) if isinstance(key, str) else None
    if source is None or source.get("status") != "ok":
        return None
    rebuilt = sweep_point_record(source)
    if rebuilt is None:
        return None
    return json.dumps(rebuilt.as_dict(), sort_keys=True, default=str)


def fsck(
    store: Any,
    repair: bool = False,
    restore_from: Optional[str] = None,
) -> FsckReport:
    """Audit ``store`` (a :class:`RegistryStore`); optionally repair it.

    With ``repair``, bad lines are quarantined (raw, under
    ``<registry>/quarantine/``), records restorable from the
    ``restore_from`` sweep store are regenerated in place and the log is
    rewritten atomically. The returned report reflects what was *found*;
    per-issue ``repaired``/``quarantined`` flags say what happened to each.
    """
    report = FsckReport(root=str(store.root))
    jsonl_path = pathlib.Path(store.jsonl_path)
    raw_lines: list[str] = []
    if jsonl_path.exists():
        raw_lines = jsonl_path.read_text(encoding="utf-8").splitlines()

    restore_records: dict[str, dict] = {}
    if repair and restore_from and os.path.exists(restore_from):
        from repro.experiments.sweep import ResultsStore

        restore_records = ResultsStore(restore_from).load()

    kept: list[str] = []
    quarantined_raw: list[str] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(raw_lines, start=1):
        stripped = raw.strip()
        issue: Optional[FsckIssue] = None
        payload: Optional[dict] = None
        if not stripped:
            issue = FsckIssue("torn-line", "blank line", lineno=lineno)
        else:
            try:
                parsed = json.loads(stripped)
            except json.JSONDecodeError:
                issue = FsckIssue(
                    "torn-line",
                    f"undecodable JSON ({len(stripped)} bytes)"
                    + (" at end of file" if lineno == len(raw_lines)
                       else ""),
                    lineno=lineno,
                )
            else:
                verdict = _verify_payload(parsed)
                if verdict is not None:
                    kind, detail = verdict
                    run_id = (parsed.get("run_id")
                              if isinstance(parsed, dict) else None)
                    issue = FsckIssue(kind, detail, lineno=lineno,
                                      run_id=run_id)
                    payload = parsed if isinstance(parsed, dict) else None
                elif stripped in seen:
                    issue = FsckIssue(
                        "duplicate",
                        f"byte-identical to an earlier record "
                        f"({parsed['run_id']})",
                        lineno=lineno, run_id=parsed["run_id"],
                    )
        if issue is None:
            seen.add(stripped)
            kept.append(stripped)
            report.records += 1
            continue
        report.issues.append(issue)
        if not repair:
            kept.append(stripped)  # check mode never rewrites
            continue
        restored = (
            _restore_line(payload, restore_records)
            if payload is not None and issue.kind in (
                "run-id-mismatch", "payload-hash-mismatch")
            else None
        )
        if restored is not None:
            issue.repaired = True
            seen.add(restored)
            kept.append(restored)
            report.records += 1
        else:
            issue.quarantined = True
            quarantined_raw.append(raw)

    if repair and report.issues:
        if quarantined_raw:
            quarantine_path = (
                pathlib.Path(store.root) / "quarantine" / QUARANTINE_FILE)
            for raw in quarantined_raw:
                append_line(quarantine_path, raw)
            report.quarantine_path = str(quarantine_path)
        atomic_write(jsonl_path, "".join(line + "\n" for line in kept))
        report.repaired = True
    return report


def format_fsck(report: FsckReport) -> str:
    """Human-readable fsck report (one line per issue + a verdict)."""
    lines = [f"fsck {report.root}: {report.records} record(s)"]
    for issue in report.issues:
        where = f" line {issue.lineno}" if issue.lineno is not None else ""
        outcome = ""
        if issue.repaired:
            outcome = " [repaired]"
        elif issue.quarantined:
            outcome = " [quarantined]"
        lines.append(f"  {issue.kind}{where}: {issue.detail}{outcome}")
    if report.quarantine_path:
        lines.append(f"quarantine: {report.quarantine_path}")
    if report.ok:
        lines.append("clean: no issues found")
    elif report.repaired:
        lines.append(
            f"repaired: {len(report.issues)} issue(s) resolved")
    else:
        lines.append(
            f"found {len(report.issues)} issue(s); re-run with --repair")
    return "\n".join(lines)

"""Tolerance-checked metric diffs between any two registry payloads.

The diff engine is deliberately schema-free: both sides are flattened to
``dotted.key -> number`` (:func:`repro.registry.records.flatten_metrics`)
and compared key-by-key under an absolute + relative tolerance, so the
same machinery diffs two simulation runs (per-counter), two figure
records (per-bar) or two scorecards (per-fidelity-metric). A key outside
tolerance fails the diff — that is the CI regression gate.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

#: Default relative tolerance for ``repro diff``.
DEFAULT_RTOL = 0.05
#: Default absolute tolerance (floors the relative band near zero).
DEFAULT_ATOL = 1e-9


@dataclass(frozen=True)
class DiffRow:
    """One compared metric."""

    key: str
    a: float
    b: float
    rtol: float
    atol: float

    @property
    def abs_delta(self) -> float:
        return self.b - self.a

    @property
    def rel_delta(self) -> Optional[float]:
        if self.a == 0:
            return None
        return (self.b - self.a) / abs(self.a)

    @property
    def ok(self) -> bool:
        return abs(self.b - self.a) <= self.atol + self.rtol * abs(self.a)

    def as_dict(self) -> dict:
        return {
            "key": self.key,
            "a": self.a,
            "b": self.b,
            "abs_delta": self.abs_delta,
            "rel_delta": self.rel_delta,
            "rtol": self.rtol,
            "atol": self.atol,
            "ok": self.ok,
        }


@dataclass
class DiffReport:
    """Outcome of one metric diff."""

    rows: list[DiffRow] = field(default_factory=list)
    only_in_a: list[str] = field(default_factory=list)
    only_in_b: list[str] = field(default_factory=list)
    label_a: str = "a"
    label_b: str = "b"

    @property
    def failed(self) -> list[DiffRow]:
        return [row for row in self.rows if not row.ok]

    @property
    def ok(self) -> bool:
        return not self.failed

    def as_dict(self) -> dict:
        return {
            "a": self.label_a,
            "b": self.label_b,
            "compared": len(self.rows),
            "failed": [row.as_dict() for row in self.failed],
            "only_in_a": self.only_in_a,
            "only_in_b": self.only_in_b,
            "ok": self.ok,
        }


def _tolerance_for(key: str, rtol: float,
                   overrides: Mapping[str, float]) -> float:
    """Per-key rtol: the first glob pattern that matches wins."""
    for pattern, value in overrides.items():
        if fnmatch.fnmatchcase(key, pattern):
            return value
    return rtol


def diff_metrics(
    a: Mapping[str, float],
    b: Mapping[str, float],
    *,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    overrides: Optional[Mapping[str, float]] = None,
    ignore: Sequence[str] = (),
    label_a: str = "a",
    label_b: str = "b",
) -> DiffReport:
    """Compare two flat metric dicts under tolerances.

    ``overrides`` maps glob patterns to per-key relative tolerances (e.g.
    ``{"figure10.*.spearman": 0.2}``); ``ignore`` lists glob patterns to
    skip entirely. Keys present on only one side are reported but do not
    fail the diff — a removed counter is visible in the report, while the
    gate stays focused on value drift.
    """
    report = DiffReport(label_a=label_a, label_b=label_b)
    keys_a = set(a)
    keys_b = set(b)

    def ignored(key: str) -> bool:
        return any(fnmatch.fnmatchcase(key, pattern) for pattern in ignore)

    for key in sorted(keys_a & keys_b):
        if ignored(key):
            continue
        report.rows.append(DiffRow(
            key=key,
            a=float(a[key]),
            b=float(b[key]),
            rtol=_tolerance_for(key, rtol, overrides or {}),
            atol=atol,
        ))
    report.only_in_a = sorted(k for k in keys_a - keys_b if not ignored(k))
    report.only_in_b = sorted(k for k in keys_b - keys_a if not ignored(k))
    return report


def format_diff(report: DiffReport, max_rows: int = 40) -> str:
    """Human-readable diff report (failures first)."""
    from repro.experiments.report import format_table

    lines = [
        f"diff: {report.label_a}  vs  {report.label_b}",
        f"compared {len(report.rows)} shared metrics; "
        f"{len(report.failed)} outside tolerance",
    ]
    failed = report.failed
    if failed:
        rows = [
            [
                row.key,
                f"{row.a:.6g}",
                f"{row.b:.6g}",
                f"{row.abs_delta:+.6g}",
                "-" if row.rel_delta is None else f"{100 * row.rel_delta:+.2f}%",
                f"{row.rtol:g}",
            ]
            for row in failed[:max_rows]
        ]
        lines.append(format_table(
            ["Metric", report.label_a, report.label_b, "Delta", "Rel", "rtol"],
            rows, title="Out of tolerance",
        ))
        if len(failed) > max_rows:
            lines.append(f"... and {len(failed) - max_rows} more")
    if report.only_in_a:
        lines.append(f"only in {report.label_a}: "
                     + ", ".join(report.only_in_a[:10])
                     + (" ..." if len(report.only_in_a) > 10 else ""))
    if report.only_in_b:
        lines.append(f"only in {report.label_b}: "
                     + ", ".join(report.only_in_b[:10])
                     + (" ..." if len(report.only_in_b) > 10 else ""))
    lines.append("PASS" if report.ok else "FAIL")
    return "\n".join(lines)

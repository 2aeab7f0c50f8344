"""Experiment reporting: plain-text tables and the self-contained HTML report.

``format_table`` renders aligned monospace tables for every CLI command;
``build_html_report`` assembles the scorecard, per-figure comparisons
(with inline SVG charts from :mod:`repro.experiments.svg`) and registry
stall summaries into one dependency-free HTML file
(``python -m repro report --html``).
"""

from __future__ import annotations

import html
import pathlib
from typing import Any, Mapping, Optional, Sequence, Union


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render rows as an aligned monospace table."""
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


# ----------------------------------------------------------------------
# HTML report
# ----------------------------------------------------------------------

_HTML_STYLE = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2em auto;
       max-width: 1080px; color: #1a1a2e; padding: 0 1em; }
h1 { border-bottom: 2px solid #4878CF; padding-bottom: .3em; }
h2 { margin-top: 2em; color: #2a3f6f; }
table { border-collapse: collapse; margin: 1em 0; font-size: 13px; }
th, td { border: 1px solid #ccd; padding: 4px 9px; text-align: right; }
th { background: #eef1f8; }
td:first-child, th:first-child { text-align: left; }
.meta { color: #667; font-size: 12px; }
.fail { background: #fde3e3; }
.ok { background: #e7f6e7; }
svg { max-width: 100%; height: auto; }
"""


def _cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return html.escape(str(value))


def _html_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                row_classes: Optional[Sequence[str]] = None) -> str:
    parts = ["<table>", "<tr>"]
    parts.extend(f"<th>{html.escape(str(h))}</th>" for h in headers)
    parts.append("</tr>")
    for i, row in enumerate(rows):
        cls = f' class="{row_classes[i]}"' if row_classes and row_classes[i] else ""
        parts.append(f"<tr{cls}>")
        parts.extend(f"<td>{_cell(v)}</td>" for v in row)
        parts.append("</tr>")
    parts.append("</table>")
    return "".join(parts)


def _scorecard_section(payload: Mapping[str, Any]) -> str:
    rows, classes = [], []
    for figure, score in payload["figures"].items():
        for series, s in score["series"].items():
            spear = s["spearman"]
            rows.append([
                figure, series, s["n_apps"],
                None if s["mape_pct"] is None else f"{s['mape_pct']:.1f}%",
                s["geomean_measured"], s["geomean_golden"],
                f"{s['geomean_delta']:+.3f}",
                None if spear is None else f"{spear:+.2f}",
            ])
            classes.append("" if spear is None else
                           ("ok" if spear >= 0.0 else "fail"))
    summary = payload.get("summary", {})
    bits = []
    if summary.get("mean_mape_pct") is not None:
        bits.append(f"mean MAPE {summary['mean_mape_pct']:.1f}%")
    if summary.get("mean_abs_geomean_delta") is not None:
        bits.append("mean |geomean delta| "
                    f"{summary['mean_abs_geomean_delta']:.3f}")
    if summary.get("mean_spearman") is not None:
        bits.append(f"mean Spearman {summary['mean_spearman']:+.2f}")
    return (
        "<h2>Fidelity scorecard</h2>"
        + _html_table(
            ["Figure", "Series", "N apps", "MAPE", "Geomean (measured)",
             "Geomean (paper)", "Geomean delta", "Spearman"],
            rows, classes)
        + (f'<p class="meta">{html.escape(" | ".join(bits))}</p>' if bits else "")
    )


def _figure_sections(payload: Mapping[str, Any]) -> str:
    from repro.experiments.figures import FIGURES
    from repro.experiments.svg import grouped_bar_chart

    parts = []
    for figure, score in payload["figures"].items():
        chart_data: dict[str, dict[str, float]] = {}
        table_rows = []
        for series, s in score["series"].items():
            per_app = s.get("per_app") or {}
            if not per_app:
                continue
            chart_data[series] = {
                app: vals["measured"] for app, vals in per_app.items()
            }
            chart_data[f"{series} (paper)"] = {
                app: vals["golden"] for app, vals in per_app.items()
            }
            for app, vals in per_app.items():
                table_rows.append([
                    series, app, vals["measured"], vals["golden"],
                    vals["measured"] - vals["golden"],
                ])
        if not chart_data:
            continue
        ylabel = FIGURES[figure].ylabel if figure in FIGURES else ""
        chart = grouped_bar_chart(
            chart_data, title=f"{figure}: reproduction vs paper",
            ylabel=ylabel, width=1040,
        )
        parts.append(
            f"<h2>{html.escape(figure)}</h2>"
            + chart
            + "<details><summary>per-app values</summary>"
            + _html_table(["Series", "App", "Measured", "Paper", "Delta"],
                          table_rows)
            + "</details>"
        )
    return "".join(parts)


def _stall_section(stall_records: Sequence[Mapping[str, Any]]) -> str:
    rows = []
    for record in stall_records:
        stalls = record.get("stalls") or {}
        by_cause = stalls.get("by_cause") or {}
        total = sum(by_cause.values()) or 1
        top = max(by_cause, key=by_cause.__getitem__) if by_cause else "-"
        rows.append([
            record.get("name", "?"),
            record.get("run_id", "")[:10],
            (record.get("provenance") or {}).get("git_sha", "")[:10] or "-",
            top,
            f"{100.0 * by_cause.get(top, 0) / total:.1f}%" if by_cause else "-",
            stalls.get("stall_cycles"),
            stalls.get("issue_cycles"),
        ])
    if not rows:
        return ("<h2>Stall attribution</h2><p class='meta'>No registry run "
                "records carry telemetry; run with <code>repro run APP CFG "
                "--telemetry</code> or <code>repro sweep --telemetry</code> "
                "to populate this section.</p>")
    return "<h2>Stall attribution (latest telemetry runs)</h2>" + _html_table(
        ["Run", "Run id", "Commit", "Top cause", "Share", "Stall cycles",
         "Issue cycles"],
        rows,
    )


def build_html_report(
    scorecard_payload: Mapping[str, Any],
    stall_records: Sequence[Mapping[str, Any]] = (),
    title: str = "APRES reproduction — results report",
) -> str:
    """One self-contained HTML page: scorecard, figures, stall summaries."""
    from repro.registry.provenance import collect_provenance

    prov = collect_provenance()
    meta_bits = [
        f"scale={scorecard_payload.get('scale')}",
        f"apps={','.join(scorecard_payload['apps'])}"
        if scorecard_payload.get("apps") else "apps=all",
        f"commit={(prov.get('git_sha') or 'unknown')[:12]}"
        + ("+dirty" if prov.get("git_dirty") else ""),
        f"host={prov.get('host')}",
        f"repro {prov.get('code_version')}",
    ]
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{html.escape(title)}</title>"
        f"<style>{_HTML_STYLE}</style></head><body>"
        f"<h1>{html.escape(title)}</h1>"
        f"<p class='meta'>{html.escape(' | '.join(str(b) for b in meta_bits))}</p>"
        + _scorecard_section(scorecard_payload)
        + _figure_sections(scorecard_payload)
        + _stall_section(stall_records)
        + "</body></html>"
    )


def write_html_report(
    path: Union[str, pathlib.Path],
    scorecard_payload: Mapping[str, Any],
    stall_records: Sequence[Mapping[str, Any]] = (),
    title: str = "APRES reproduction — results report",
) -> pathlib.Path:
    """Render and write the HTML report; returns the path."""
    out = pathlib.Path(path)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    from repro.resilience.atomic import atomic_write

    atomic_write(out, build_html_report(scorecard_payload, stall_records, title))
    return out

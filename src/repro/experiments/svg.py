"""Dependency-free SVG bar charts for the reproduced figures.

The evaluation figures are grouped bar charts (apps on the X axis, one
bar per configuration). This renderer emits standalone SVG markup, which
the HTML report (``repro report --html``) inlines beside each figure's
scorecard, so results can be eyeballed without any plotting stack.
"""

from __future__ import annotations

from typing import Mapping, Optional

#: Colour cycle (colour-blind-safe-ish).
PALETTE = ("#4878CF", "#EE854A", "#6ACC64", "#D65F5F", "#956CB4",
           "#8C613C", "#DC7EC0", "#797979")


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def grouped_bar_chart(
    data: Mapping[str, Mapping[str, float]],
    title: str = "",
    ylabel: str = "",
    baseline: Optional[float] = 1.0,
    width: int = 960,
    height: int = 360,
) -> str:
    """Render ``{series: {category: value}}`` as a grouped bar chart.

    Categories (apps) come from the first series' key order; ``baseline``
    draws a reference line (speedup = 1.0 by default).
    """
    series = list(data)
    if not series:
        raise ValueError("no series to plot")
    categories = list(data[series[0]])
    values = [data[s].get(c, 0.0) for s in series for c in categories]
    vmax = max(values + ([baseline] if baseline is not None else [0.0]) + [1e-9])

    margin_left, margin_bottom, margin_top = 56, 64, 34
    plot_w = width - margin_left - 16
    plot_h = height - margin_top - margin_bottom
    group_w = plot_w / max(1, len(categories))
    bar_w = group_w * 0.8 / max(1, len(series))

    def x_of(cat_i: int, ser_i: int) -> float:
        return margin_left + cat_i * group_w + group_w * 0.1 + ser_i * bar_w

    def y_of(value: float) -> float:
        return margin_top + plot_h * (1 - value / (vmax * 1.1))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="sans-serif" font-size="11">',
        f'<text x="{width / 2}" y="18" text-anchor="middle" font-size="14">'
        f"{_escape(title)}</text>",
    ]
    # Axes.
    parts.append(
        f'<line x1="{margin_left}" y1="{margin_top}" x2="{margin_left}" '
        f'y2="{margin_top + plot_h}" stroke="#333"/>'
    )
    parts.append(
        f'<line x1="{margin_left}" y1="{margin_top + plot_h}" '
        f'x2="{margin_left + plot_w}" y2="{margin_top + plot_h}" stroke="#333"/>'
    )
    if ylabel:
        parts.append(
            f'<text x="14" y="{margin_top + plot_h / 2}" text-anchor="middle" '
            f'transform="rotate(-90 14 {margin_top + plot_h / 2})">'
            f"{_escape(ylabel)}</text>"
        )
    # Y ticks.
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = vmax * 1.1 * frac
        y = y_of(v)
        parts.append(f'<line x1="{margin_left - 4}" y1="{y:.1f}" '
                     f'x2="{margin_left}" y2="{y:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{margin_left - 8}" y="{y + 4:.1f}" '
                     f'text-anchor="end">{v:.2f}</text>')
    # Baseline reference.
    if baseline is not None and baseline <= vmax * 1.1:
        y = y_of(baseline)
        parts.append(
            f'<line x1="{margin_left}" y1="{y:.1f}" x2="{margin_left + plot_w}" '
            f'y2="{y:.1f}" stroke="#999" stroke-dasharray="4 3"/>'
        )
    # Bars.
    for si, s in enumerate(series):
        colour = PALETTE[si % len(PALETTE)]
        for ci, c in enumerate(categories):
            v = data[s].get(c, 0.0)
            y = y_of(v)
            h = margin_top + plot_h - y
            parts.append(
                f'<rect x="{x_of(ci, si):.1f}" y="{y:.1f}" width="{bar_w:.1f}" '
                f'height="{max(0.0, h):.1f}" fill="{colour}">'
                f"<title>{_escape(s)} / {_escape(c)}: {v:.3f}</title></rect>"
            )
    # X labels.
    for ci, c in enumerate(categories):
        x = margin_left + ci * group_w + group_w / 2
        y = margin_top + plot_h + 14
        parts.append(
            f'<text x="{x:.1f}" y="{y}" text-anchor="end" '
            f'transform="rotate(-45 {x:.1f} {y})">{_escape(c)}</text>'
        )
    # Legend.
    lx = margin_left
    ly = height - 10
    for si, s in enumerate(series):
        colour = PALETTE[si % len(PALETTE)]
        parts.append(f'<rect x="{lx}" y="{ly - 9}" width="10" height="10" '
                     f'fill="{colour}"/>')
        parts.append(f'<text x="{lx + 14}" y="{ly}">{_escape(s)}</text>')
        lx += 14 + 7 * len(s) + 22
    parts.append("</svg>")
    return "\n".join(parts)

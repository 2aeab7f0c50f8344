"""Paper-fidelity scorecard: quantified error vs the paper's numbers.

For each reproduced figure, the scorecard aligns the measured per-app
series against the paper's golden series
(:mod:`repro.experiments.paper_data`) and computes three complementary
fidelity metrics per configuration series:

* **MAPE** (mean absolute percentage error) — how far individual bars
  are from the paper's, in percent;
* **geomean delta** — measured geomean minus golden geomean, i.e. whether
  the *headline average* of the figure is reproduced (sign included: a
  negative delta on a speedup figure means the reproduction is slower
  than the paper claims);
* **Spearman rank correlation** — whether the per-app *ordering* (which
  app wins, which loses) transfers, independent of magnitude. This is the
  metric the reproduction is actually judged on (see EXPERIMENTS.md:
  magnitudes compress on this substrate by design, orderings must not).

``python -m repro scorecard`` surfaces the result as text and JSON; the
JSON is what CI's ``bench-regression`` job diffs against the committed
``bench_results/baseline_scorecard.json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.experiments import paper_data
from repro.experiments.figures import FIGURES, FigureSpec, geomean

#: Scorecard schema version (bump on incompatible payload changes).
SCORECARD_SCHEMA = 1

#: The figures scored by default: the paper's evaluation headline.
DEFAULT_SCORECARD_FIGURES = tuple(
    name for name, spec in FIGURES.items() if spec.scored_by_default)

#: Aggregate keys the producers append to per-app grids; never scored.
_AGGREGATE_KEYS = ("GMEAN", "GMEAN-MEM", "MEAN")


# ----------------------------------------------------------------------
# Fidelity metrics (dependency-free, hand-checkable)
# ----------------------------------------------------------------------


def mape(golden: Sequence[float], measured: Sequence[float]) -> Optional[float]:
    """Mean absolute percentage error, in percent (None: nothing to score)."""
    if len(golden) != len(measured):
        raise ValueError("mape needs series of equal length")
    terms = [
        abs(m - g) / abs(g)
        for g, m in zip(golden, measured)
        if g != 0
    ]
    if not terms:
        return None
    return 100.0 * sum(terms) / len(terms)


def _ranks(values: Sequence[float]) -> list[float]:
    """Average ranks (1-based), ties sharing the mean of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg_rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg_rank
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> Optional[float]:
    """Spearman rank correlation (ties via average ranks; None if undefined).

    Computed as the Pearson correlation of the rank vectors, so tied
    values are handled exactly. Undefined (None) for fewer than 3 pairs or
    when either side has zero rank variance.
    """
    if len(xs) != len(ys):
        raise ValueError("spearman needs series of equal length")
    n = len(xs)
    if n < 3:
        return None
    rx, ry = _ranks(xs), _ranks(ys)
    mean_x = sum(rx) / n
    mean_y = sum(ry) / n
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(rx, ry))
    var_x = sum((a - mean_x) ** 2 for a in rx)
    var_y = sum((b - mean_y) ** 2 for b in ry)
    if var_x == 0 or var_y == 0:
        return None
    return cov / math.sqrt(var_x * var_y)


# ----------------------------------------------------------------------
# Measured-data extraction: producer output -> golden grid shape
# ----------------------------------------------------------------------


def _extract_grid(data: Mapping[str, Mapping[str, float]]
                  ) -> dict[str, dict[str, float]]:
    """Drop aggregate keys from a {config: {app: value}} producer grid."""
    return {
        str(series): {
            str(app): float(value)
            for app, value in per_app.items()
            if str(app) not in _AGGREGATE_KEYS
        }
        for series, per_app in data.items()
    }


def _extract_figure2(data: Mapping[str, Mapping[str, Any]]
                     ) -> dict[str, dict[str, float]]:
    """Per-app speedup of the idealised 32 MB L1 (the "C" bar)."""
    return {
        "large-l1-speedup": {
            app: float(variants["C"].speedup) for app, variants in data.items()
        }
    }


def _extract_figure11(data: Mapping[str, Mapping[str, Any]]
                      ) -> dict[str, dict[str, float]]:
    """Hit ratio (both hit segments) of the golden-scored bars (B, A)."""
    out: dict[str, dict[str, float]] = {}
    for app, per_config in data.items():
        for label, row in per_config.items():
            if label in paper_data.FIG11:
                out.setdefault(label, {})[app] = float(row.hit_ratio)
    return out


def _extract_table1(data: Mapping[str, Sequence[Any]]
                    ) -> dict[str, dict[str, float]]:
    """Miss rate and lines-per-ref of each app's dominant load."""
    miss: dict[str, float] = {}
    lpr: dict[str, float] = {}
    for app, rows in data.items():
        if not rows:
            continue
        top = rows[0]  # rows are ordered by reference share
        miss[app] = float(top.miss_rate)
        lpr[app] = float(top.lines_per_ref)
    return {"miss-rate": miss, "lines-per-ref": lpr}


def _extract_table2(cost: Any) -> dict[str, dict[str, float]]:
    return {
        "bytes": {
            "llt": float(cost.llt_bytes),
            "wgt": float(cost.wgt_bytes),
            "drq": float(cost.drq_bytes),
            "wq": float(cost.wq_bytes),
            "pt": float(cost.pt_bytes),
            "total": float(cost.total_bytes),
        }
    }


_EXTRACTORS: dict[str, Callable[[Any], dict[str, dict[str, float]]]] = {
    "grid": _extract_grid,
    "figure2": _extract_figure2,
    "figure11": _extract_figure11,
    "table1": _extract_table1,
    "table2": _extract_table2,
}


def _spec(figure: str) -> FigureSpec:
    spec = FIGURES.get(figure)
    if spec is None:
        known = ", ".join(sorted(FIGURES))
        raise ValueError(f"unknown scorecard figure {figure!r}; known: {known}")
    return spec


def measured_grid(figure: str, apps: Optional[Sequence[str]] = None,
                  scale: float = 0.5) -> dict[str, dict[str, float]]:
    """Run the figure's producer and reduce its output to the golden shape."""
    spec = _spec(figure)
    if spec.kind == "table1":
        # Table I's golden rows are the memory-intensive apps only: asking
        # for none of them profiles nothing.
        apps = [a for a in (apps or paper_data.PAPER_MEMORY_APPS)
                if a in paper_data.PAPER_MEMORY_APPS]
        if not apps:
            return _extract_table1({})
    return _EXTRACTORS[spec.kind](spec.producer(apps, scale))


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesScore:
    """Fidelity of one configuration series of one figure."""

    figure: str
    series: str
    n_apps: int
    mape_pct: Optional[float]
    geomean_measured: float
    geomean_golden: float
    geomean_delta: float
    spearman: Optional[float]
    per_app: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "n_apps": self.n_apps,
            "mape_pct": self.mape_pct,
            "geomean_measured": self.geomean_measured,
            "geomean_golden": self.geomean_golden,
            "geomean_delta": self.geomean_delta,
            "spearman": self.spearman,
            "per_app": self.per_app,
        }


@dataclass(frozen=True)
class FigureScore:
    """Fidelity of one figure: per-series scores plus figure aggregates."""

    figure: str
    series: tuple[SeriesScore, ...]

    @property
    def mape_pct(self) -> Optional[float]:
        vals = [s.mape_pct for s in self.series if s.mape_pct is not None]
        return sum(vals) / len(vals) if vals else None

    @property
    def geomean_delta(self) -> Optional[float]:
        if not self.series:
            return None
        return sum(s.geomean_delta for s in self.series) / len(self.series)

    @property
    def spearman(self) -> Optional[float]:
        vals = [s.spearman for s in self.series if s.spearman is not None]
        return sum(vals) / len(vals) if vals else None

    def as_dict(self) -> dict:
        return {
            "mape_pct": self.mape_pct,
            "geomean_delta": self.geomean_delta,
            "spearman": self.spearman,
            "series": {s.series: s.as_dict() for s in self.series},
        }


def score_series(figure: str, series: str, golden: Mapping[str, float],
                 measured: Mapping[str, float]) -> SeriesScore:
    """Score one measured series against its golden twin (shared keys only)."""
    shared = sorted(set(golden) & set(measured))
    gold = [float(golden[k]) for k in shared]
    meas = [float(measured[k]) for k in shared]
    gm_g = geomean(gold)
    gm_m = geomean(meas)
    return SeriesScore(
        figure=figure,
        series=series,
        n_apps=len(shared),
        mape_pct=mape(gold, meas) if shared else None,
        geomean_measured=gm_m,
        geomean_golden=gm_g,
        geomean_delta=gm_m - gm_g,
        spearman=spearman(gold, meas) if shared else None,
        per_app={k: {"golden": g, "measured": m}
                 for k, g, m in zip(shared, gold, meas)},
    )


def score_figure(figure: str, apps: Optional[Sequence[str]] = None,
                 scale: float = 0.5,
                 measured: Optional[Mapping[str, Mapping[str, float]]] = None,
                 ) -> FigureScore:
    """Score one figure; ``measured`` overrides running the producer."""
    golden = _spec(figure).golden
    if measured is None:
        measured = measured_grid(figure, apps=apps, scale=scale)
    scores = tuple(
        score_series(figure, series, golden[series], measured[series])
        for series in golden
        if series in measured
    )
    return FigureScore(figure=figure, series=scores)


def scorecard(figures: Optional[Sequence[str]] = None,
              apps: Optional[Sequence[str]] = None,
              scale: float = 0.5,
              measured: Optional[Mapping[str, Mapping[str, Mapping[str, float]]]]
              = None) -> dict:
    """Full scorecard payload (JSON-ready).

    ``measured`` optionally maps figure name -> pre-extracted grid (e.g.
    from stored registry figure records); anything absent is produced by
    running the simulations (memoised process-wide).
    """
    names = list(figures or DEFAULT_SCORECARD_FIGURES)
    for name in names:
        _spec(name)
    figure_payload: dict[str, dict] = {}
    for name in names:
        pre = measured.get(name) if measured else None
        figure_payload[name] = score_figure(
            name, apps=apps, scale=scale, measured=pre
        ).as_dict()
    mapes = [f["mape_pct"] for f in figure_payload.values()
             if f["mape_pct"] is not None]
    spears = [f["spearman"] for f in figure_payload.values()
              if f["spearman"] is not None]
    deltas = [f["geomean_delta"] for f in figure_payload.values()
              if f["geomean_delta"] is not None]
    return {
        "schema": SCORECARD_SCHEMA,
        "scale": scale,
        "apps": sorted(apps) if apps else None,
        "figures": figure_payload,
        "summary": {
            "mean_mape_pct": sum(mapes) / len(mapes) if mapes else None,
            "mean_abs_geomean_delta":
                sum(abs(d) for d in deltas) / len(deltas) if deltas else None,
            "mean_spearman": sum(spears) / len(spears) if spears else None,
        },
    }


def format_scorecard(payload: Mapping[str, Any]) -> str:
    """Human-readable scorecard table."""
    from repro.experiments.report import format_table

    rows = []
    for figure, score in payload["figures"].items():
        for series, s in score["series"].items():
            rows.append([
                figure,
                series,
                s["n_apps"],
                "-" if s["mape_pct"] is None else f"{s['mape_pct']:.1f}%",
                f"{s['geomean_measured']:.3f}",
                f"{s['geomean_golden']:.3f}",
                f"{s['geomean_delta']:+.3f}",
                "-" if s["spearman"] is None else f"{s['spearman']:+.2f}",
            ])
    summary = payload["summary"]
    title = (
        f"Paper-fidelity scorecard (scale={payload['scale']}"
        + (f", apps={','.join(payload['apps'])}" if payload.get("apps") else "")
        + ")"
    )
    table = format_table(
        ["Figure", "Series", "N", "MAPE", "GM meas", "GM paper", "GM delta",
         "Spearman"],
        rows, title=title,
    )
    footer = []
    if summary.get("mean_mape_pct") is not None:
        footer.append(f"mean MAPE {summary['mean_mape_pct']:.1f}%")
    if summary.get("mean_abs_geomean_delta") is not None:
        footer.append(
            f"mean |geomean delta| {summary['mean_abs_geomean_delta']:.3f}")
    if summary.get("mean_spearman") is not None:
        footer.append(f"mean Spearman {summary['mean_spearman']:+.2f}")
    if footer:
        table += "\n" + " | ".join(footer)
    return table

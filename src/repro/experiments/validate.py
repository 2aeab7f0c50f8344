"""Machine-checkable reproduction claims.

EXPERIMENTS.md states which of the paper's shape claims transfer to this
substrate; this module encodes each as an executable check so regressions
in the simulator or workload calibration are caught mechanically
(``python -m repro validate``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.experiments import figures

#: The tables and figures the claims read; ``repro validate`` prewarms
#: their points.
CLAIM_FIGURES = ("figure10", "figure13", "figure14", "figure2", "table2")


@dataclass(frozen=True)
class ClaimResult:
    """Outcome of one reproduction claim."""

    name: str
    paper: str
    measured: str
    passed: bool


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def check_claims(scale: float = 0.5,
                 apps: Optional[Sequence[str]] = None) -> list[ClaimResult]:
    """Evaluate every transfer claim; returns one result per claim."""
    f10, f13, f14, f2, cost = (figures.FIGURES[name].producer(apps, scale)
                               for name in CLAIM_FIGURES)
    results: list[ClaimResult] = []

    def claim(name: str, paper: str, measured: str, passed: bool) -> None:
        results.append(ClaimResult(name, paper, measured, passed))

    gmeans = {c: f10[c]["GMEAN"] for c in figures.FIG10_CONFIGS}
    best = max(gmeans, key=gmeans.__getitem__)
    claim(
        "APRES is the best configuration overall (Fig 10)",
        "APRES +24.2% vs next best +18.8%",
        f"gmeans: {', '.join(f'{c}={_fmt(v)}' for c, v in gmeans.items())}",
        best == "apres",
    )
    if apps is None or "KM" in apps:
        claim(
            "CCWS dominates APRES on KM's thrash (Fig 10 / Section V-B)",
            "CCWS 2.32x vs APRES 2.20x",
            f"ccws={_fmt(f10['ccws']['KM'])} apres={_fmt(f10['apres']['KM'])}",
            f10["ccws"]["KM"] > 1.2 and f10["ccws"]["KM"] > f10["apres"]["KM"],
        )
        b, c = f2["KM"]["B"], f2["KM"]["C"]
        claim(
            "A 32 MB L1 removes KM's capacity misses and speeds it up (Fig 2)",
            "KM capacity misses halved, 3.4x speedup",
            f"cap+conf {b.capacity_conflict_ratio:.2f}->"
            f"{c.capacity_conflict_ratio:.2f}, speedup {_fmt(c.speedup)}",
            c.capacity_conflict_ratio < 0.1 * max(b.capacity_conflict_ratio, 1e-9)
            and c.speedup > 1.2,
        )
    apres_apps = {a: v for a, v in f10["apres"].items() if not a.startswith("GMEAN")}
    biggest = max(apres_apps, key=apres_apps.__getitem__)
    claim(
        "APRES's biggest win is on a strided memory-intensive app (Fig 10)",
        "SRAD +40%, BFS +46%",
        f"{biggest}={_fmt(apres_apps[biggest])}",
        apres_apps[biggest] > 1.2,
    )
    claim(
        "APRES never regresses catastrophically (Fig 10)",
        "no app below baseline",
        f"min={_fmt(min(apres_apps.values()))}",
        min(apres_apps.values()) > 0.9,
    )
    claim(
        "APRES reduces average memory latency (Fig 13)",
        "-16.5% vs baseline",
        f"gmean={_fmt(f13['apres']['GMEAN'])}",
        f13["apres"]["GMEAN"] < 1.0,
    )
    claim(
        "Prefetch traffic stays near baseline (Fig 14)",
        "APRES -2.1%",
        f"gmean={_fmt(f14['apres']['GMEAN'])}",
        0.85 <= f14["apres"]["GMEAN"] <= 1.15,
    )
    claim(
        "APRES hardware cost (Table II)",
        "724 bytes",
        f"{cost.total_bytes} bytes",
        cost.total_bytes == 724,
    )
    # Fidelity claim: the scorecard's per-figure orderings must broadly
    # transfer. The bar is deliberately lenient (mean Spearman, not
    # per-figure): magnitudes compress on this substrate by design, and
    # per-figure tolerances belong to `repro diff` / CI, not here.
    from repro.registry.scorecard import score_figure

    f10_score = score_figure("figure10", apps=apps, scale=scale,
                             measured={k: {a: v for a, v in per.items()
                                           if not a.startswith(("GMEAN", "MEAN"))}
                                       for k, per in f10.items()})
    rho = f10_score.spearman
    claim(
        "Fig 10 per-app speedup ordering correlates with the paper",
        "scorecard Spearman > 0 (see `repro scorecard`)",
        "insufficient apps for rank correlation" if rho is None
        else f"mean Spearman={rho:+.2f}",
        rho is None or rho > 0.0,
    )
    return results


def format_report(results: Sequence[ClaimResult]) -> str:
    """Human-readable pass/fail report."""
    lines = ["Reproduction claim check", "=" * 72]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.name}")
        lines.append(f"       paper:    {r.paper}")
        lines.append(f"       measured: {r.measured}")
    passed = sum(r.passed for r in results)
    lines.append("=" * 72)
    lines.append(f"{passed}/{len(results)} claims hold on this substrate")
    return "\n".join(lines)

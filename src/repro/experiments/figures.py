"""Every table and figure of the paper's evaluation, declared once.

Each producer ``(apps, scale)`` runs (memoised) simulations and returns
plain data structures. :data:`FIGURES` maps each table and figure name to
its :class:`FigureSpec`: the producer, its stdout table, the paper's
golden grid, how the scorecard scores it, and the configurations it
resolves through :func:`~repro.experiments.runner.run` (which a pool
prewarms). ``repro figure``/``table``, the scorecard, the HTML report,
``repro validate`` and the prewarmer all read that one table, so a figure
is added by one producer, one golden grid and one entry. Figure numbers
follow the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.characterize.loads import LoadProfiler, LoadRow
from repro.core.cost import HardwareCost, hardware_cost
from repro.experiments import paper_data
from repro.experiments.configs import CONFIGS, experiment_gpu_config
from repro.experiments.report import format_table
from repro.experiments.runner import RunResult, run, speedup
from repro.sm.simulator import simulate
from repro.workloads.suite import SUITE, memory_intensive_workloads, workload
from repro.workloads.synthetic import build_kernel

#: Workload order used on every figure's X axis (Table IV order).
ALL_APPS = list(SUITE)
MEMORY_APPS = [w.abbr for w in memory_intensive_workloads()]

#: The five configurations of Figures 10-11.
FIG10_CONFIGS = ["ccws", "laws", "ccws+str", "laws+str", "apres"]
#: The scheduler x prefetcher grid of Figure 3.
FIG3_CONFIGS = [
    "pa+str", "pa+sld", "gto+str", "gto+sld",
    "mascar+str", "mascar+sld", "ccws+str", "ccws+sld",
]
#: STR under the four schedulers (Figure 4).
FIG4_CONFIGS = ["pa+str", "gto+str", "mascar+str", "ccws+str"]
#: The best existing combination against APRES (Figures 12-14).
VS_APRES_CONFIGS = ("ccws+str", "apres")
#: APRES alone (Figure 15).
FIG15_CONFIGS = ("apres",)
#: The idealised L1 of Figure 2's "C" bars.
LARGE_L1_BYTES = 32 * 1024 * 1024


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of the positive values; 0 for empty input."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------


def table1(apps: Optional[Sequence[str]] = None, scale: float = 1.0,
           top: int = 4) -> dict[str, list[LoadRow]]:
    """Per-load characterisation of the memory-intensive apps under baseline.

    Runs each workload with a :class:`LoadProfiler` attached and returns
    the top ``top`` loads by reference share.
    """
    out: dict[str, list[LoadRow]] = {}
    cfg = experiment_gpu_config()
    for abbr in apps or MEMORY_APPS:
        profiler = LoadProfiler()
        kernel = build_kernel(workload(abbr), scale)
        simulate(kernel, cfg, CONFIGS["base"].build, load_observers=[profiler.observe])
        out[abbr] = profiler.rows(top=top)
    return out


# ----------------------------------------------------------------------
# Table II
# ----------------------------------------------------------------------


def table2(apps: Optional[Sequence[str]] = None, scale: float = 1.0
           ) -> HardwareCost:
    """APRES per-SM hardware cost (724 bytes with the paper's geometry).

    Takes the producers' ``(apps, scale)`` and ignores both: the cost
    follows from the configuration alone.
    """
    return hardware_cost()


# ----------------------------------------------------------------------
# Figure 2 — miss breakdown, 32 KB vs 32 MB L1
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MissBreakdownRow:
    app: str
    cold_ratio: float
    capacity_conflict_ratio: float
    miss_rate: float
    #: Execution-time speedup relative to the 32 KB baseline (1.0 for it).
    speedup: float


def figure2(apps: Optional[Sequence[str]] = None, scale: float = 1.0,
            large_l1_bytes: int = LARGE_L1_BYTES
            ) -> dict[str, dict[str, MissBreakdownRow]]:
    """Baseline (B) vs large-cache (C) miss breakdown per app."""
    out: dict[str, dict[str, MissBreakdownRow]] = {}
    small_cfg = experiment_gpu_config()
    large_cfg = small_cfg.with_l1_size(large_l1_bytes)
    for abbr in apps or ALL_APPS:
        base = run(abbr, "base", scale, small_cfg)
        large = run(abbr, "base", scale, large_cfg)
        out[abbr] = {
            "B": _miss_row(abbr, base, 1.0),
            "C": _miss_row(abbr, large, large.ipc / base.ipc if base.ipc else 0.0),
        }
    return out


def _miss_row(abbr: str, result: RunResult, speedup_value: float) -> MissBreakdownRow:
    l1 = result.sim.stats.l1
    return MissBreakdownRow(
        app=abbr,
        cold_ratio=l1.cold_miss_ratio,
        capacity_conflict_ratio=l1.capacity_conflict_ratio,
        miss_rate=l1.miss_rate,
        speedup=speedup_value,
    )


# ----------------------------------------------------------------------
# Figure 3 — scheduler x prefetcher speedups
# ----------------------------------------------------------------------


def figure3(apps: Optional[Sequence[str]] = None, scale: float = 1.0
            ) -> dict[str, dict[str, float]]:
    """Speedup over baseline for every scheduler+prefetcher combination."""
    out: dict[str, dict[str, float]] = {}
    for config in FIG3_CONFIGS:
        per_app = {abbr: speedup(abbr, config, scale=scale) for abbr in apps or ALL_APPS}
        per_app["GMEAN"] = geomean(list(per_app.values()))
        out[config] = per_app
    return out


# ----------------------------------------------------------------------
# Figure 4 / Figure 12 — early eviction ratios
# ----------------------------------------------------------------------


def early_eviction(configs: Sequence[str], apps: Optional[Sequence[str]] = None,
                   scale: float = 1.0) -> dict[str, dict[str, float]]:
    """Early-eviction ratio per app for the given configurations."""
    out: dict[str, dict[str, float]] = {}
    for config in configs:
        per_app = {
            abbr: run(abbr, config, scale).sim.stats.l1.early_eviction_ratio
            for abbr in apps or ALL_APPS
        }
        values = list(per_app.values())
        per_app["MEAN"] = sum(values) / len(values) if values else 0.0
        out[config] = per_app
    return out


def figure4(apps: Optional[Sequence[str]] = None, scale: float = 1.0
            ) -> dict[str, dict[str, float]]:
    """Early evictions of the STR prefetcher under four schedulers."""
    return early_eviction(FIG4_CONFIGS, apps, scale)


def figure12(apps: Optional[Sequence[str]] = None, scale: float = 1.0
             ) -> dict[str, dict[str, float]]:
    """Early evictions: best existing combination vs APRES."""
    return early_eviction(VS_APRES_CONFIGS, apps, scale)


# ----------------------------------------------------------------------
# Figure 10 — headline performance
# ----------------------------------------------------------------------


def figure10(apps: Optional[Sequence[str]] = None, scale: float = 1.0
             ) -> dict[str, dict[str, float]]:
    """Speedups of CCWS, LAWS, CCWS+STR, LAWS+STR and APRES over baseline."""
    out: dict[str, dict[str, float]] = {}
    app_list = list(apps or ALL_APPS)
    for config in FIG10_CONFIGS:
        per_app = {abbr: speedup(abbr, config, scale=scale) for abbr in app_list}
        per_app["GMEAN"] = geomean([per_app[a] for a in app_list])
        mem = [per_app[a] for a in app_list if a in MEMORY_APPS]
        if mem:
            per_app["GMEAN-MEM"] = geomean(mem)
        out[config] = per_app
    return out


# ----------------------------------------------------------------------
# Figure 11 — cache hit/miss breakdown
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CacheBreakdownRow:
    app: str
    config: str
    hit_after_hit: float
    hit_after_miss: float
    cold: float
    capacity_conflict: float

    @property
    def hit_ratio(self) -> float:
        return self.hit_after_hit + self.hit_after_miss

    @property
    def miss_ratio(self) -> float:
        return self.cold + self.capacity_conflict


#: Paper's bar labels: Baseline, CCWS, LAWS, CCWS+STR, APRES.
FIG11_CONFIGS = {"B": "base", "C": "ccws", "L": "laws", "S": "ccws+str", "A": "apres"}


def figure11(apps: Optional[Sequence[str]] = None, scale: float = 1.0
             ) -> dict[str, dict[str, CacheBreakdownRow]]:
    """Hit-after-hit / hit-after-miss / cold / capacity+conflict stacks."""
    out: dict[str, dict[str, CacheBreakdownRow]] = {}
    for abbr in apps or ALL_APPS:
        per_config = {}
        for label, config in FIG11_CONFIGS.items():
            l1 = run(abbr, config, scale).sim.stats.l1
            hits_known = l1.hit_after_hit + l1.hit_after_miss
            # The very first access has no predecessor; fold it into
            # hit-after-miss so ratios stack to 1.
            residue = l1.hits - hits_known
            per_config[label] = CacheBreakdownRow(
                app=abbr,
                config=config,
                hit_after_hit=l1.hit_after_hit_ratio,
                hit_after_miss=(l1.hit_after_miss + residue) / l1.accesses
                if l1.accesses else 0.0,
                cold=l1.cold_miss_ratio,
                capacity_conflict=l1.capacity_conflict_ratio,
            )
        out[abbr] = per_config
    return out


# ----------------------------------------------------------------------
# Figures 13/14/15 — latency, traffic, energy
# ----------------------------------------------------------------------


def normalised_metric(metric: str, configs: Sequence[str],
                      apps: Optional[Sequence[str]] = None, scale: float = 1.0
                      ) -> dict[str, dict[str, float]]:
    """Per-app metric values normalised to the baseline configuration."""
    getters = {
        "latency": lambda r: r.sim.stats.memory.avg_demand_latency,
        "traffic": lambda r: float(r.sim.stats.memory.total_traffic_bytes),
        "energy": lambda r: r.energy.total,
    }
    if metric not in getters:
        raise ValueError(f"unknown metric {metric!r}; known: {sorted(getters)}")
    getter = getters[metric]
    out: dict[str, dict[str, float]] = {}
    app_list = list(apps or ALL_APPS)
    for config in configs:
        per_app = {}
        for abbr in app_list:
            base_value = getter(run(abbr, "base", scale))
            value = getter(run(abbr, config, scale))
            per_app[abbr] = value / base_value if base_value else 0.0
        per_app["GMEAN"] = geomean([per_app[a] for a in app_list])
        out[config] = per_app
    return out


def figure13(apps: Optional[Sequence[str]] = None, scale: float = 1.0
             ) -> dict[str, dict[str, float]]:
    """Average memory latency, normalised to baseline."""
    return normalised_metric("latency", VS_APRES_CONFIGS, apps, scale)


def figure14(apps: Optional[Sequence[str]] = None, scale: float = 1.0
             ) -> dict[str, dict[str, float]]:
    """Data traffic, normalised to baseline."""
    return normalised_metric("traffic", VS_APRES_CONFIGS, apps, scale)


def figure15(apps: Optional[Sequence[str]] = None, scale: float = 1.0
             ) -> dict[str, dict[str, float]]:
    """Dynamic energy, normalised to baseline."""
    return normalised_metric("energy", FIG15_CONFIGS, apps, scale)


# ----------------------------------------------------------------------
# Stdout tables (``repro figure N`` / ``repro table N``)
# ----------------------------------------------------------------------


def _format_table1(data: dict, title: str) -> str:
    rows = []
    for app, load_rows in data.items():
        for r in load_rows:
            stride = "-" if r.top_stride is None else r.top_stride
            rows.append([app, f"0x{r.pc:X}", f"{r.pct_load:.1%}",
                         f"{r.lines_per_ref:.2f}", f"{r.miss_rate:.2f}",
                         stride, f"{r.pct_stride:.1%}"])
    return format_table(
        ["App", "PC", "%Load", "#L/#R", "MissRate", "Stride", "%Stride"],
        rows, title=title)


def _format_table2(cost: HardwareCost, title: str) -> str:
    rows = [
        ["LAWS: LLT", cost.llt_bytes],
        ["LAWS: WGT", cost.wgt_bytes],
        ["SAP: DRQ", cost.drq_bytes],
        ["SAP: WQ", cost.wq_bytes],
        ["SAP: PT", cost.pt_bytes],
        ["Total", cost.total_bytes],
    ]
    return format_table(["Structure", "Bytes"], rows, title=title)


def _format_grid(data: dict, title: str) -> str:
    apps = list(next(iter(data.values())))
    rows = [[config] + [f"{data[config][a]:.3f}" for a in apps] for config in data]
    return format_table(["Config"] + apps, rows, title=title)


def _format_figure2(data: dict, title: str) -> str:
    rows = []
    for app, variants in data.items():
        for label in ("B", "C"):
            r = variants[label]
            rows.append([app, label, f"{r.cold_ratio:.2f}",
                         f"{r.capacity_conflict_ratio:.2f}", f"{r.speedup:.2f}"])
    return format_table(["App", "L1", "Cold", "Cap+Conf", "Speedup"], rows,
                        title=title)


def _format_figure11(data: dict, title: str) -> str:
    rows = []
    for app, per_config in data.items():
        for label, r in per_config.items():
            rows.append([app, label, f"{r.hit_after_hit:.2f}", f"{r.hit_after_miss:.2f}",
                         f"{r.cold:.2f}", f"{r.capacity_conflict:.2f}"])
    return format_table(
        ["App", "Cfg", "HaH", "HaM", "Cold", "Cap+Conf"], rows, title=title)


# ----------------------------------------------------------------------
# The figure table
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FigureSpec:
    """One paper table or figure, as every consumer sees it."""

    #: ``(apps, scale) -> data``; ``apps=None`` means the paper's set.
    producer: Callable[[Optional[Sequence[str]], float], Any]
    title: str
    #: The paper's numbers, ``{series: {app: value}}`` (see paper_data).
    golden: Mapping[str, Mapping[str, float]]
    ylabel: str
    #: ``(data, title) -> str``: the table ``repro figure``/``table`` prints.
    formatter: Callable[[Any, str], str] = _format_grid
    #: Selects the scorecard's reduction of the data to the golden shape.
    kind: str = "grid"
    #: Scored by ``repro scorecard`` when no ``--figures`` are given.
    scored_by_default: bool = False
    #: Every named configuration the producer resolves through run().
    configs: tuple[str, ...] = ()
    #: The L1 sizes those runs use (None: the experiment default).
    l1_bytes: tuple[Optional[int], ...] = (None,)


FIGURES: dict[str, FigureSpec] = {
    "table1": FigureSpec(
        table1, "Table I", paper_data.TABLE1, "dominant-load characteristics",
        formatter=_format_table1, kind="table1"),
    "table2": FigureSpec(
        table2, "Table II", paper_data.TABLE2, "structure bytes",
        formatter=_format_table2, kind="table2"),
    "figure2": FigureSpec(
        figure2, "Figure 2", paper_data.FIG2, "32 MB L1 speedup",
        formatter=_format_figure2, kind="figure2",
        configs=("base",), l1_bytes=(None, LARGE_L1_BYTES)),
    "figure3": FigureSpec(
        figure3, "Figure 3", paper_data.FIG3, "speedup vs baseline",
        configs=(*FIG3_CONFIGS, "base")),
    "figure4": FigureSpec(
        figure4, "Figure 4", paper_data.FIG4, "early-eviction ratio",
        configs=tuple(FIG4_CONFIGS)),
    "figure10": FigureSpec(
        figure10, "Figure 10", paper_data.FIG10, "speedup vs baseline",
        scored_by_default=True, configs=(*FIG10_CONFIGS, "base")),
    "figure11": FigureSpec(
        figure11, "Figure 11", paper_data.FIG11, "L1 hit ratio",
        formatter=_format_figure11, kind="figure11", scored_by_default=True,
        configs=tuple(FIG11_CONFIGS.values())),
    "figure12": FigureSpec(
        figure12, "Figure 12", paper_data.FIG12, "early-eviction ratio",
        scored_by_default=True, configs=VS_APRES_CONFIGS),
    "figure13": FigureSpec(
        figure13, "Figure 13", paper_data.FIG13, "normalised latency",
        scored_by_default=True, configs=(*VS_APRES_CONFIGS, "base")),
    "figure14": FigureSpec(
        figure14, "Figure 14", paper_data.FIG14, "normalised traffic",
        scored_by_default=True, configs=(*VS_APRES_CONFIGS, "base")),
    "figure15": FigureSpec(
        figure15, "Figure 15", paper_data.FIG15, "normalised energy",
        scored_by_default=True, configs=(*FIG15_CONFIGS, "base")),
}

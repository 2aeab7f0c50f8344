"""Run-wide metrics registry: typed counters and gauges.

Where the stall engine and interval collector describe *one simulated
kernel*, this registry describes *the harness itself*: how often pool
workers were requeued, how the runner's memo cache is hitting. Every
metric has a stable dotted name declared in :data:`METRICS` — the single
source of truth, mirroring what
:data:`repro.telemetry.events.EVENT_TYPES` is to telemetry events.
:class:`MetricsRegistry` rejects any ``counter(...)`` / ``gauge(...)``
name missing from this dict (or declared with another type), so a metric
cannot be emitted unregistered.

Export is pull-style: :func:`write_metrics` renders the process-wide
registry as canonical JSON plus a Prometheus text-format twin
(``<path>.prom``), which is what a scrape-based service mode consumes
without any new dependency.
"""

from __future__ import annotations

import json
import os
from typing import Any, Optional, Union

#: Central declaration of every metric the harness may emit:
#: dotted name -> (type, help text). Types are ``counter`` (monotonic)
#: and ``gauge`` (set-to-current).
METRICS: dict[str, tuple[str, str]] = {
    "pool.worker.requeues": (
        "counter", "sweep points requeued after a pool worker failure"),
    "pool.worker.deaths": (
        "counter", "pool worker processes that crashed or hung"),
    "pool.worker.quarantines": (
        "counter", "sweep points quarantined after exhausting attempts"),
    "pool.workers.alive": (
        "gauge", "live worker processes in the supervised pool"),
    "registry.cache.hits": (
        "counter", "runner memo-cache hits (registry-identical results reused)"),
    "registry.cache.misses": (
        "counter", "runner memo-cache misses (points actually simulated)"),
    "flight.dumps.written": (
        "counter", "crash flight-recorder dumps written to disk"),
}


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """Set-to-current value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value


class MetricsRegistry:
    """One process's metric instruments, resolved by declared dotted name.

    ``counter``/``gauge`` lazily create the instrument on first use and
    reject names missing from :data:`METRICS` (or declared with a
    different type).
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Any] = {}

    def _get(self, name: str, metric_type: str, factory) -> Any:
        declared = METRICS.get(name)
        if declared is None:
            raise KeyError(
                f"metric {name!r} is not declared in "
                "repro.telemetry.metrics.METRICS; add it there"
            )
        if declared[0] != metric_type:
            raise TypeError(
                f"metric {name!r} is declared as a {declared[0]}, "
                f"not a {metric_type}"
            )
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory(name)
            self._instruments[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, "counter", Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, "gauge", Gauge)

    def reset(self) -> None:
        """Drop every instrument (tests; a fresh service epoch)."""
        self._instruments.clear()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot of every touched metric, name-sorted."""
        out: dict[str, Any] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            metric_type, help_text = METRICS[name]
            out[name] = {"type": metric_type, "help": help_text,
                         "value": instrument.value}
        return {
            "schema": "repro-telemetry-metrics",
            "schema_version": 1,
            "metrics": out,
        }

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (dots become underscores)."""
        lines: list[str] = []
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            metric_type, help_text = METRICS[name]
            flat = name.replace(".", "_")
            lines.append(f"# HELP {flat} {help_text}")
            lines.append(f"# TYPE {flat} {metric_type}")
            lines.append(f"{flat} {instrument.value}")
        return "\n".join(lines) + ("\n" if lines else "")


#: Process-wide default registry; every instrumentation point in the
#: tree writes here unless handed an explicit registry.
_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _DEFAULT


def write_metrics(path: str, registry: Optional[MetricsRegistry] = None) -> str:
    """Write the registry as JSON to ``path`` and Prometheus text next to it.

    Returns the Prometheus twin's path (``<path>.prom``). Writes are
    atomic (tmp + rename) so a scraper never reads a torn file.
    """
    reg = registry if registry is not None else _DEFAULT
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(reg.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    prom_path = path + ".prom"
    tmp = prom_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(reg.to_prometheus())
    os.replace(tmp, prom_path)
    return prom_path


def validate_metrics_export(payload: Any) -> list[str]:
    """Schema check for a :func:`write_metrics` JSON export (tests/CI)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"metrics export is {type(payload).__name__}, expected object"]
    if payload.get("schema") != "repro-telemetry-metrics":
        problems.append("schema missing or wrong")
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        return problems + ["metrics missing or not an object"]
    for name, entry in metrics.items():
        declared = METRICS.get(name)
        if declared is None:
            problems.append(f"metric {name!r} is not declared in METRICS")
            continue
        if not isinstance(entry, dict) or entry.get("type") != declared[0]:
            problems.append(f"metric {name!r} has wrong or missing type")
    return problems

"""Per-layer host-time attribution from outside the program.

The layers are the ``repro`` packages. :meth:`Tracer.install` replaces the
public functions of each layer's classes (and a few module functions) by
timing wrappers; :meth:`Tracer.uninstall` puts every original back. Nothing
under ``src/`` knows about it.

Fine-grained calls are aggregated per ``layer:Owner.function`` into calls,
inclusive seconds and self seconds (inclusive minus the time covered by
nested wrapped calls), which keeps memory bounded however long a run is.
Coarse calls (``build_kernel``, simulator construction and ``run``) are
also kept individually as spans with an id, a parent, a start, an end and
the point they belong to.

The coarse wrappers are always installed: they time set-up and simulation
and capture each run's statistics for the correctness checks, at a cost of
three wrapped calls per simulated point. ``full=True`` adds the
fine-grained layers.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from typing import Callable, Optional

clock = time.perf_counter

KB = 1024
MB = 1024 * KB

def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _public_functions(cls: type) -> list[str]:
    """Names of the plain functions, defined in ``repro``, that ``cls`` exposes."""
    names = []
    for name in dir(cls):
        if name.startswith("_"):
            continue
        value = inspect.getattr_static(cls, name)
        if isinstance(value, types.FunctionType) and value.__module__.startswith("repro."):
            names.append(name)
    return names


def l1_label(size_bytes: int) -> str:
    return f"{size_bytes // MB}MB" if size_bytes >= MB else f"{size_bytes // KB}KB"


def point_key(kernel, config, engine_factory) -> str:
    """``app/config/<n>sm/<L1>``: the key a simulated point is reported under."""
    config_name = getattr(getattr(engine_factory, "__self__", None), "name", "?")
    return (f"{kernel.name}/{config_name}/{config.num_sms}sm/"
            f"{l1_label(config.l1.size_bytes)}")


CALLS, INCLUSIVE, SELF = 0, 1, 2


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def total(funcs: dict, layer: str, function: Optional[str] = None, field: int = CALLS):
    """Sum one field over a layer's wrapped functions (or the ones named so)."""
    out = 0
    for key, rec in funcs.items():
        key_layer, _, qualname = key.partition(":")
        if key_layer == layer and (function is None
                                   or qualname.rsplit(".", 1)[-1] == function):
            out += rec[field]
    return out


def coarse_times(funcs: dict) -> tuple[float, float, float]:
    """``(build_kernel, construction, run)`` seconds summed over a pass."""
    return (total(funcs, "workloads", "build_kernel", INCLUSIVE),
            total(funcs, "sm", "__init__", INCLUSIVE),
            total(funcs, "sm", "run", INCLUSIVE))


def layer_metrics(funcs: dict, counters: dict, probe_s: float, root_s: float) -> dict:
    """Per-layer metrics of one traced pass whose measured region took ``root_s``.

    A layer that some workload never calls reports its self time as a
    share of ``root_s`` (``*.self_frac``) rather than in seconds.
    """
    def share(layer, function=None):
        return ratio(total(funcs, layer, function, SELF), root_s)

    cycles = total(funcs, "sm", "cycle")
    attributed = sum(rec[SELF] for rec in funcs.values())
    return {
        "sm.cycle.calls": cycles,
        "sm.cycle.self_s": total(funcs, "sm", "cycle", SELF),
        "sm.cycle.inert_frac": ratio(counters["sm.cycle.inert"], cycles),
        "sm.cycle.issue_frac": ratio(counters["sm.cycle.issued"], cycles),
        "sm.wake_hint.calls": total(funcs, "sm", "next_wake_hint"),
        "sm.wake_hint.self_s": total(funcs, "sm", "next_wake_hint", SELF),
        "sm.loop.self_s": total(funcs, "sm", "run", SELF),
        "sm.construct_s": total(funcs, "sm", "__init__", INCLUSIVE),
        "core.calls": total(funcs, "core"),
        "core.self_frac": share("core"),
        "core.notify_load_result.calls": total(funcs, "core", "notify_load_result"),
        "core.observe_load.calls": total(funcs, "core", "observe_load"),
        "sched.calls": total(funcs, "sched"),
        "sched.self_frac": share("sched"),
        "sched.select.calls": total(funcs, "sched", "select"),
        "prefetch.calls": total(funcs, "prefetch"),
        "prefetch.self_frac": share("prefetch"),
        "prefetch.candidates_per_load": ratio(counters["prefetch.candidates"],
                                              total(funcs, "prefetch", "observe_load")),
        "mem.l1.calls": total(funcs, "mem.l1"),
        "mem.l1.self_s": total(funcs, "mem.l1", field=SELF),
        "mem.l1.access.stall_frac": ratio(counters["mem.l1.access.stall"],
                                          total(funcs, "mem.l1", "access")),
        "mem.events.calls": total(funcs, "mem.events"),
        "mem.events.self_s": total(funcs, "mem.events", field=SELF),
        "mem.events.idle_frac": ratio(counters["mem.events.idle"],
                                      total(funcs, "mem.events", "run_until")),
        "mem.l2dram.calls": total(funcs, "mem.l2dram"),
        "mem.l2dram.self_s": total(funcs, "mem.l2dram", field=SELF),
        "isa.coalesced.calls": total(funcs, "isa", "coalesced"),
        "isa.self_s": total(funcs, "isa", field=SELF),
        "integrity.observe.calls": total(funcs, "integrity", "observe"),
        "integrity.observe.self_s": total(funcs, "integrity", "observe", SELF),
        "workloads.build_s": total(funcs, "workloads", field=INCLUSIVE),
        "experiments.run.calls": total(funcs, "experiments", "run"),
        "experiments.run.memo_hit_frac": ratio(counters["experiments.run.memo_hits"],
                                               total(funcs, "experiments", "run")),
        "experiments.self_frac": share("experiments"),
        "stats.energy.self_frac": share("stats.energy"),
        "registry.put.self_frac": share("registry", "put"),
        "trace.unattributed_frac": ratio(root_s - attributed - probe_s, root_s),
    }


class Tracer:
    """Installs timing wrappers and accumulates what they measure."""

    def __init__(self) -> None:
        #: ``layer:Owner.function`` -> [calls, inclusive_s, self_s]; module
        #: functions are keyed ``layer:function``.
        self.funcs: dict[str, list] = {}
        #: Outcome counts taken by the probes.
        self.counters: dict[str, int] = {
            "sm.cycle.inert": 0, "sm.cycle.issued": 0,
            "mem.l1.access.stall": 0, "mem.events.idle": 0,
            "prefetch.candidates": 0, "experiments.run.memo_hits": 0,
        }
        #: Host time spent inside probes: tracing overhead, no layer's.
        self.probe_s = 0.0
        self.spans: list[dict] = []
        #: One record per constructed simulator: point key, the static
        #: instruction count it must retire and, after ``run``, its result.
        self.sims: list[dict] = []
        #: Point id that new spans carry.
        self.point: Optional[str] = None
        self._stack = [0.0]
        self._open: list[int] = []
        self._patches: list[tuple[object, str, bool, object]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def open_span(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append({"id": sid, "parent": self._open[-1] if self._open else None,
                           "name": name, "start": clock(), "end": None,
                           "point": self.point})
        self._open.append(sid)
        return sid

    def close_span(self, sid: int) -> None:
        self.spans[sid]["end"] = clock()
        self._open.pop()

    def _in_point_span(self) -> bool:
        return bool(self._open) and self.spans[self._open[-1]]["name"] == "point"

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def _timed(self, fn: Callable, key: str) -> Callable:
        """The lean wrapper, for the millions of calls a pass makes without hooks."""
        rec = self.funcs.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                inner = stack.pop()
                stack[-1] += t1 - t0
                rec[0] += 1
                rec[1] += t1 - t0
                rec[2] += t1 - t0 - inner

        return timed

    def _probed(self, fn: Callable, key: str, before: Optional[Callable],
                after: Optional[Callable], span: Optional[str] = None) -> Callable:
        """A timed wrapper with hooks whose own cost is kept out of every layer.

        ``before(*args)`` returns a token that ``after(token, result)``
        receives; ``span`` names a coarse span to record around the call.
        """
        rec = self.funcs.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            p0 = clock()
            token = before(*args) if before is not None else None
            sid = tracer.open_span(span) if span is not None else None
            stack.append(0.0)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                inner = stack.pop()
                rec[0] += 1
                rec[1] += t1 - t0
                rec[2] += t1 - t0 - inner
                if sid is not None:
                    tracer.close_span(sid)
                if ok and after is not None:
                    after(token, result)
                t2 = clock()
                stack[-1] += t2 - p0
                tracer.probe_s += (t0 - p0) + (t2 - t1)
            return result

        return probed

    def _wrap(self, fn: Callable, key: str, hooks: Optional[tuple]) -> Callable:
        return self._probed(fn, key, *hooks) if hooks else self._timed(fn, key)

    def _patch_classes(self, targets: list[tuple[str, type, Optional[list[str]], dict]]) -> None:
        """Wrap ``(layer, class, names or None for all public, hooks)`` targets.

        Every original is looked up before anything is patched, so a
        subclass that inherits a method wraps the original, not the
        wrapper already installed on its base class.
        """
        plan = []
        for layer, cls, names, hooks in targets:
            for name in names if names is not None else _public_functions(cls):
                plan.append((layer, cls, name, inspect.getattr_static(cls, name),
                             hooks.get(name)))
        for layer, cls, name, original, name_hooks in plan:
            wrapper = self._wrap(original, f"{layer}:{cls.__name__}.{name}", name_hooks)
            self._patches.append((cls, name, name in cls.__dict__, original))
            setattr(cls, name, wrapper)

    def _patch_function(self, layer: str, fn: Callable, hooks: Optional[tuple] = None) -> None:
        """Wrap a module-level function in every module that bound it by name."""
        wrapper = self._wrap(fn, f"{layer}:{fn.__name__}", hooks)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None) or {}
            for name, value in list(namespace.items()):
                if value is fn:
                    self._patches.append((module, name, True, fn))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    # ------------------------------------------------------------------
    # What gets wrapped
    # ------------------------------------------------------------------

    def install(self, full: bool) -> None:
        """Wrap the coarse calls and, with ``full``, every layer."""
        from repro.sm.simulator import GPUSimulator
        from repro.workloads.synthetic import build_kernel

        def on_build(*args):
            # A kernel built outside a pass's own point span (the CLI's
            # runner) starts a new point, numbered by simulator.
            if not self._in_point_span():
                self.point = f"sim{len(self.sims)}"

        def on_construct(sim, kernel, config, engine_factory, *rest):
            key = (self.point if self._in_point_span()
                   else point_key(kernel, config, engine_factory))
            return {"key": key, "expected_instructions": kernel.instructions_per_warp
                    * config.max_warps_per_sm * config.num_sms}

        def after_construct(record, _):
            self.sims.append(record)

        def after_run(_, result):
            self.sims[-1]["result"] = result

        self._patch_function("workloads", build_kernel, (on_build, None, "build_kernel"))
        self._patch_classes([("sm", GPUSimulator, ["__init__", "run"], {
            "__init__": (on_construct, after_construct, "construct"),
            "run": (None, after_run, "run"),
        })])
        if full:
            self._install_layers()

    def _install_layers(self) -> None:
        import repro.experiments.configs  # noqa: F401  (imports every engine class)
        from repro.core import LAWSScheduler, SAPPrefetcher
        from repro.core.llt import LastLoadTable
        from repro.core.wgt import WarpGroupTable
        from repro.experiments import figures, runner
        from repro.integrity.watchdog import Watchdog
        from repro.isa.address import AddressGenerator
        from repro.mem.cache import AccessOutcome, L1Cache
        from repro.mem.dram import DRAMModel
        from repro.mem.l2 import L2Cache
        from repro.mem.subsystem import EventQueue, MemorySubsystem
        from repro.prefetch.base import Prefetcher
        from repro.registry.store import RegistryStore
        from repro.sched.base import WarpScheduler
        from repro.sm.pipeline import SMCore
        from repro.stats.energy import EnergyModel

        counters = self.counters
        has_pending_work = SMCore.has_pending_work

        def cycle_after(pending, issued):
            if not pending:
                counters["sm.cycle.inert"] += 1
            if issued:
                counters["sm.cycle.issued"] += 1

        def access_after(_, result):
            if result[0] is AccessOutcome.STALL:
                counters["mem.l1.access.stall"] += 1

        def run_until_after(token, _):
            queue, processed = token
            if queue.processed == processed:
                counters["mem.events.idle"] += 1

        def observe_after(_, candidates):
            counters["prefetch.candidates"] += len(candidates)

        constructed = self.funcs["sm:GPUSimulator.__init__"]

        def memo_after(constructed_before, _):
            if constructed[0] == constructed_before:
                counters["experiments.run.memo_hits"] += 1

        core = (LAWSScheduler, SAPPrefetcher, LastLoadTable, WarpGroupTable)
        targets = [("sm", SMCore, ["cycle", "next_wake_hint"],
                    {"cycle": (has_pending_work, cycle_after)})]
        targets += [("core", cls, None, {}) for cls in core]
        targets += [("sched", cls, None, {})
                    for cls in _subclasses(WarpScheduler) if cls not in core]
        targets += [("prefetch", cls, None, {"observe_load": (None, observe_after)})
                    for cls in _subclasses(Prefetcher) if cls not in core]
        targets += [
            ("mem.l1", L1Cache, None, {"access": (None, access_after)}),
            ("mem.events", EventQueue, None,
             {"run_until": (lambda queue, cycle: (queue, queue.processed), run_until_after)}),
            ("mem.l2dram", MemorySubsystem, ["forward_miss", "store"], {}),
            ("mem.l2dram", L2Cache, None, {}),
            ("mem.l2dram", DRAMModel, None, {}),
            ("integrity", Watchdog, None, {}),
            ("stats.energy", EnergyModel, None, {}),
            ("registry", RegistryStore, ["put"], {}),
        ]
        targets += [("isa", cls, None, {}) for cls in _subclasses(AddressGenerator)
                    if cls.__module__.startswith("repro.isa")]
        self._patch_classes(targets)

        harness = [value for module in (runner, figures) for name, value in vars(module).items()
                   if isinstance(value, types.FunctionType) and not name.startswith("_")
                   and value.__module__ == module.__name__ and value is not runner.run]
        self._patch_function("experiments", runner.run,
                             (lambda *args: constructed[0], memo_after))
        for fn in harness:
            self._patch_function("experiments", fn)

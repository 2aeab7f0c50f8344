"""Seeded, deterministic fault injection.

A :class:`FaultPlan` is a picklable schedule of fault events, each bound
to a *site* (a named hook point in the experiment layer) and a *key*
(which occurrence of that site fires). The schedule is derived from a
seed, so two runs with the same plan inject exactly the same faults at
exactly the same places — which is what lets ``repro chaos`` assert a
faulted run converges to the byte-identical output of a clean one.

Hook points cost one module-global load and an ``is None`` test while no
plan is armed; they are placed on I/O and dispatch paths (appends,
registry ingests, worker task starts), never inside the cycle loop.

Sites and their fault kinds:

========================  ====================================  =========
site                      fires                                 kinds
========================  ====================================  =========
``worker.point``          in a pool worker, before simulating   ``crash``
                          point *key* (first attempt only        ``hang``
                          unless ``every_attempt``)
``append.write``          in the parent, on the *key*-th        ``torn-write``
                          store/registry line append             ``disk-full``
``append.fsync``          on the *key*-th append fsync          ``fsync-fail``
``registry.ingest``       after the *key*-th registry ingest    ``corrupt-record``
========================  ====================================  =========

``crash`` makes the worker ``os._exit``; ``hang`` makes it SIGSTOP
itself (heartbeats cease, which is exactly what the supervisor's
deadline detects). ``torn-write`` persists half a line then fails the
write; ``disk-full`` and ``fsync-fail`` raise transient ``OSError``\\ s.
``corrupt-record`` flips a metric inside the just-ingested registry
record, producing a syntactically valid record whose payload hash no
longer matches.
"""

from __future__ import annotations

import errno
import json
import os
import random
import signal
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

#: Fault kinds accepted by ``--faults`` (CLI spelling).
FAULT_KINDS = (
    "crash",
    "hang",
    "torn-write",
    "disk-full",
    "fsync-fail",
    "corrupt-record",
)

#: Kinds that fire inside pool workers (site ``worker.point``).
WORKER_KINDS = frozenset({"crash", "hang"})

#: The armed plan of this process; ``None`` keeps every hook inert.
ACTIVE: Optional["FaultPlan"] = None


def arm(plan: Optional["FaultPlan"]) -> None:
    """Install ``plan`` as this process's active fault schedule."""
    global ACTIVE
    ACTIVE = plan


def disarm() -> None:
    """Remove the active plan (hooks become no-ops again)."""
    arm(None)


@dataclass
class FaultEvent:
    """One scheduled fault: fire ``kind`` at occurrence ``key`` of ``site``.

    ``every_attempt`` only matters for worker faults: by default a worker
    fault fires on the *first* attempt of its point only, so the
    supervisor's requeue converges (the retried attempt runs clean). A
    permanently poisoned point — the quarantine test case — sets it.
    """

    site: str
    key: int
    kind: str
    every_attempt: bool = False
    fired: bool = False

    def matches(self, site: str, key: int, attempt: int) -> bool:
        if self.site != site or self.key != key:
            return False
        if self.every_attempt:
            return True
        return not self.fired and attempt <= 1


@dataclass
class FaultPlan:
    """Deterministic, picklable fault schedule.

    Build one with :meth:`build` (seeded placement over a point count) or
    assemble events directly for surgical tests. Occurrence counters for
    parent-side sites live on the plan instance, so consumption state is
    per-process — worker processes receive their own copy and only ever
    consult ``worker.point`` events, which are attempt-gated instead of
    consumption-gated (state cannot propagate back across ``fork``).
    """

    seed: int = 0
    events: list[FaultEvent] = field(default_factory=list)
    #: Per-site occurrence counters (parent-side sites only).
    counters: dict[str, int] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        kinds: Sequence[str],
        *,
        points: int,
        appends: Optional[int] = None,
        seed: int = 0,
    ) -> "FaultPlan":
        """Place one event per requested kind over ``points`` sweep points.

        Placement is drawn from ``random.Random(seed)``, so the schedule
        is a pure function of ``(kinds, points, appends, seed)``.
        ``appends`` bounds the append-site occurrence indices (default:
        ``points``, since each point appends one store line). Events of
        one site get distinct keys while the site has keys left: ``trip``
        fires only the first event matching a key, so a second event on
        the same key (a hang behind a crash) would never fire.
        """
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r}; known: {', '.join(FAULT_KINDS)}")
        if points < 1:
            raise ValueError("fault plan needs at least one point")
        rng = random.Random(seed)
        appends = max(1, appends if appends is not None else points)
        used: dict[str, set[int]] = {}
        events: list[FaultEvent] = []
        for kind in kinds:
            if kind in WORKER_KINDS:
                site, keys = "worker.point", points
            elif kind in ("torn-write", "disk-full"):
                site, keys = "append.write", appends
            elif kind == "fsync-fail":
                site, keys = "append.fsync", appends
            else:  # corrupt-record
                site, keys = "registry.ingest", points
            taken = used.setdefault(site, set())
            free = [key for key in range(keys) if key not in taken]
            key = rng.choice(free) if free else rng.randrange(keys)
            taken.add(key)
            events.append(FaultEvent(site, key, kind))
        return cls(seed=seed, events=events)

    # ------------------------------------------------------------------
    # Hook-side API
    # ------------------------------------------------------------------

    def trip(self, site: str, key: int, attempt: int = 1) -> Optional[str]:
        """Fault kind scheduled for ``(site, key, attempt)``, consuming it."""
        for event in self.events:
            if event.matches(site, key, attempt):
                event.fired = True
                return event.kind
        return None

    def next_occurrence(self, site: str) -> int:
        """Advance and return the occurrence counter for a parent-side site."""
        count = self.counters.get(site, 0)
        self.counters[site] = count + 1
        return count

    # ------------------------------------------------------------------
    # Fault behaviours (called from the hook points)
    # ------------------------------------------------------------------

    def worker_point_fault(self, index: int, attempt: int) -> None:
        """Worker-side hook: crash or hang before simulating point ``index``."""
        kind = self.trip("worker.point", index, attempt)
        if kind == "crash":
            # A hard exit, not an exception: models SIGKILL/OOM. os._exit
            # skips atexit/finally, exactly like the real failure would.
            os._exit(73)
        elif kind == "hang":
            # SIGSTOP freezes every thread, including the heartbeat
            # thread — the supervisor sees heartbeats cease and escalates.
            os.kill(os.getpid(), signal.SIGSTOP)

    def append_write_fault(self, fd: int, payload: bytes) -> None:
        """Parent-side hook: fail (and possibly tear) one line append."""
        kind = self.trip("append.write", self.next_occurrence("append.write"))
        if kind == "torn-write":
            os.write(fd, payload[: max(1, len(payload) // 2)])
            raise OSError(errno.EIO, "injected torn write")
        if kind == "disk-full":
            raise OSError(errno.ENOSPC, "injected disk full")

    def append_fsync_fault(self) -> None:
        """Parent-side hook: fail one append fsync."""
        kind = self.trip("append.fsync", self.next_occurrence("append.fsync"))
        if kind == "fsync-fail":
            raise OSError(errno.EIO, "injected fsync failure")

    def registry_ingest_fault(self, store: Any) -> None:
        """Parent-side hook: corrupt the record just ingested into ``store``."""
        kind = self.trip(
            "registry.ingest", self.next_occurrence("registry.ingest"))
        if kind == "corrupt-record":
            corrupt_last_record(store)


def corrupt_last_record(store: Any) -> Optional[str]:
    """Corrupt the newest record of a registry store, returning its run id.

    Flips a metric inside ``data.sweep_record`` (falling back to the
    top-level ``metrics``) of the last line of the registry log. The
    record stays syntactically valid JSON — only content-hash
    verification (``repro fsck``, the sweep's memo check) can tell.
    """
    jsonl_path = store.jsonl_path
    with open(jsonl_path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        return None
    payload = json.loads(lines[-1])
    target = (payload.get("data") or {}).get("sweep_record")
    if not isinstance(target, dict):
        target = payload.setdefault("metrics", {})
    for key, value in sorted(target.items()):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            target[key] = value + 1.0
            break
    else:
        target["__corrupt__"] = 1.0
    lines[-1] = json.dumps(payload, sort_keys=True, default=str)
    from repro.resilience.atomic import atomic_write

    atomic_write(jsonl_path, "\n".join(lines) + "\n")
    return str(payload.get("run_id"))

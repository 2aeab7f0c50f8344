"""Crash flight recorder: a bounded ring of recent engine events.

Every process that runs simulation work — the parent and supervised pool
workers — keeps a small in-memory ring buffer of recent noteworthy
events (worker spawns, deaths, requeues, quarantines). It costs a dict
append per event and nothing on disk until something goes wrong: the
watchdog and the pool's kill-and-requeue path call :func:`dump` to write
the ring as structured JSON next to the existing quarantine artifacts,
turning "worker died, requeued" into a replayable postmortem.

The recorder is deliberately decoupled from the telemetry hub: it must
work when telemetry is off, inside forked children, and during the very
failures that tear the hub down.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from typing import Any, Optional

#: Default ring capacity. Sized so a dump stays a few KiB of JSON while
#: still covering hundreds of pool events of context.
DEFAULT_CAPACITY = 256

#: Schema stamped into every dump file.
DUMP_SCHEMA = "repro-flight-recorder"
DUMP_SCHEMA_VERSION = 1


class FlightRecorder:
    """Bounded ring buffer of ``{"seq", "wall_s", "kind", ...}`` events."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._seq = 0
        self.events_recorded = 0
        self.dumps_written = 0

    def record(self, kind: str, /, **fields: Any) -> None:
        """Append one event; oldest events fall off the ring."""
        entry: dict[str, Any] = {
            "seq": self._seq,
            "wall_s": round(time.time(), 6),
            "kind": kind,
        }
        entry.update(fields)
        self._ring.append(entry)
        self._seq += 1
        self.events_recorded += 1

    def snapshot(self) -> list[dict[str, Any]]:
        """The ring's current contents, oldest first."""
        return list(self._ring)

    def clear(self) -> None:
        self._ring.clear()

    def dump(self, reason: str, *, directory: Optional[str] = None,
             details: Optional[dict[str, Any]] = None) -> Optional[str]:
        """Write the ring as structured JSON; returns the file path.

        ``directory`` falls back to ``$REPRO_DUMP_DIR`` — the same
        resolution the watchdog uses, so flight dumps land beside
        watchdog and quarantine artifacts. With neither set the dump is
        skipped (returns ``None``) rather than littering the working
        directory. The write is atomic (tmp + rename) because it happens
        on crash paths where a second failure mid-write is plausible.
        """
        out_dir = directory or os.environ.get("REPRO_DUMP_DIR")
        if not out_dir:
            return None
        os.makedirs(out_dir, exist_ok=True)
        safe_reason = "".join(
            ch if ch.isalnum() or ch in "-_" else "-" for ch in reason
        )
        name = f"flight-{safe_reason}-pid{os.getpid()}-{self.dumps_written}.json"
        path = os.path.join(out_dir, name)
        payload = {
            "schema": DUMP_SCHEMA,
            "schema_version": DUMP_SCHEMA_VERSION,
            "reason": reason,
            "pid": os.getpid(),
            "details": details or {},
            "events_recorded": self.events_recorded,
            "events": self.snapshot(),
        }
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=repr)
            fh.write("\n")
        os.replace(tmp, path)
        self.dumps_written += 1
        try:
            from repro.telemetry.metrics import get_registry
            get_registry().counter("flight.dumps.written").inc()
        except Exception:  # pragma: no cover - metrics must never mask a dump
            pass
        return path


#: Per-process recorder. Forked children inherit the parent's recent
#: history (useful context in a child postmortem) and diverge from there.
_RECORDER = FlightRecorder()


def recorder() -> FlightRecorder:
    """The process-wide flight recorder."""
    return _RECORDER


def record(kind: str, /, **fields: Any) -> None:
    """Convenience: record into the process-wide ring."""
    _RECORDER.record(kind, **fields)


def dump(reason: str, *, directory: Optional[str] = None,
         details: Optional[dict[str, Any]] = None) -> Optional[str]:
    """Convenience: dump the process-wide ring."""
    return _RECORDER.dump(reason, directory=directory, details=details)


def validate_flight_dump(payload: Any) -> list[str]:
    """Schema check for a flight-recorder dump (tests/CI)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"dump is {type(payload).__name__}, expected object"]
    if payload.get("schema") != DUMP_SCHEMA:
        problems.append("schema missing or wrong")
    events = payload.get("events")
    if not isinstance(events, list):
        return problems + ["events missing or not a list"]
    last_seq = -1
    for i, event in enumerate(events):
        if not isinstance(event, dict) or "kind" not in event:
            problems.append(f"event {i} malformed")
            continue
        seq = event.get("seq", -1)
        if seq <= last_seq:
            problems.append(f"event {i} seq not increasing")
        last_seq = seq
    return problems

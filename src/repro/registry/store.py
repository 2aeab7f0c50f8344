"""Append-only JSONL registry store.

Every record is one line of ``<root>/records.jsonl``, appended through
the self-healing single-syscall
:func:`repro.resilience.atomic.append_line` and fsynced exactly like the
sweep store, so a crash can tear at most the line being written. Queries
(latest record of a figure, history of a run id, prefix resolution) scan
the log and skip a torn tail; newest-first means later in the file.

The same identity may be ingested many times (the point of a registry:
tracking one experiment across commits); every occurrence is kept, and
"latest occurrence wins" is a query-time choice, not a storage one.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
from collections import deque
from typing import AbstractSet, Iterable, Iterator, Optional, Union

from repro.errors import ReproError
from repro.registry.records import RunRecord
from repro.resilience import faults
from repro.resilience.atomic import append_line

PathLike = Union[str, pathlib.Path]

#: Default store location, relative to the working directory.
DEFAULT_REGISTRY_DIR = os.path.join("bench_results", "registry")

#: Environment override for the store root (tests, CI sandboxes).
REGISTRY_DIR_ENV = "REPRO_REGISTRY_DIR"

#: A ``"run_id"`` field in a log line's JSON text.
_RUN_ID_FIELD = re.compile(r'"run_id":\s*"([^"]*)"')


class RegistryError(ReproError):
    """A registry lookup or write failed."""


class RegistryStore:
    """Persistent run-record store: one append-only JSONL log."""

    def __init__(self, root: Optional[PathLike] = None):
        resolved = root or os.environ.get(REGISTRY_DIR_ENV) or DEFAULT_REGISTRY_DIR
        self.root = pathlib.Path(resolved)
        self.jsonl_path = self.root / "records.jsonl"

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def put(self, record: RunRecord) -> RunRecord:
        """Append one record to the log.

        The trailing hook lets an armed
        :class:`~repro.resilience.faults.FaultPlan` corrupt the record it
        just ingested (the ``corrupt-record`` chaos fault).
        """
        self.root.mkdir(parents=True, exist_ok=True)
        append_line(self.jsonl_path,
                    json.dumps(record.as_dict(), sort_keys=True, default=str))
        plan = faults.ACTIVE
        if plan is not None:
            plan.registry_ingest_fault(self)
        return record

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def latest(self, kind: Optional[str] = None,
               name: Optional[str] = None) -> Optional[dict]:
        """Most recently ingested record, optionally filtered."""
        rows = self.list(kind=kind, name=name, limit=1)
        return rows[0] if rows else None

    def list(self, kind: Optional[str] = None, name: Optional[str] = None,
             limit: int = 50) -> list[dict]:
        """Newest-first records matching the filters."""
        newest: deque[dict] = deque(maxlen=max(0, int(limit)))
        for payload in self._iter_jsonl():
            if ((kind is None or payload.get("kind") == kind)
                    and (name is None or payload.get("name") == name)):
                newest.append(payload)
        return list(reversed(newest))

    def history(self, run_id: str, limit: int = 50) -> list[dict]:
        """Newest-first occurrences of one identity hash."""
        newest: deque[dict] = deque(maxlen=max(0, int(limit)))
        for payload in self._iter_jsonl(needle=run_id):
            if payload["run_id"] == run_id:
                newest.append(payload)
        return list(reversed(newest))

    def newest(self, run_ids: Iterable[str]) -> dict[str, dict]:
        """Newest occurrence of each of ``run_ids`` the log holds, keyed
        by run id, from one pass over the log."""
        wanted = frozenset(run_ids)
        found: dict[str, dict] = {}
        for payload in self._iter_jsonl(run_ids=wanted):
            if payload["run_id"] in wanted:
                found[payload["run_id"]] = payload
        return found

    def resolve(self, ref: str, nth: int = 0) -> dict:
        """Record whose run_id starts with ``ref`` (``nth`` newest-first).

        Raises :class:`RegistryError` when the prefix matches nothing or
        is ambiguous across distinct run ids.
        """
        if (not self.jsonl_path.exists()
                or self.jsonl_path.stat().st_size == 0):
            raise RegistryError(
                f"registry at {self.root} is empty; run `repro run`/`repro "
                "sweep` or the benchmarks to populate it",
                details={"root": str(self.root)},
            )
        distinct = sorted({
            payload["run_id"] for payload in self._iter_jsonl(needle=ref)
            if payload["run_id"].startswith(ref)
        })
        if not distinct:
            raise RegistryError(
                f"no registry record matches run-id prefix {ref!r}",
                details={"ref": ref, "root": str(self.root)},
            )
        if len(distinct) > 1:
            raise RegistryError(
                f"run-id prefix {ref!r} is ambiguous: "
                + ", ".join(distinct[:8]),
                details={"ref": ref, "matches": distinct},
            )
        occurrences = self.history(distinct[0], limit=nth + 1)
        if len(occurrences) <= nth:
            raise RegistryError(
                f"run id {distinct[0]} has only {len(occurrences)} "
                f"occurrence(s); cannot take occurrence #{nth}",
                details={"run_id": distinct[0], "nth": nth},
            )
        return occurrences[nth]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _iter_jsonl(self, needle: str = "",
                    run_ids: Optional[AbstractSet[str]] = None,
                    ) -> Iterator[dict]:
        """Records of the log, oldest first, skipping torn lines.

        Only lines whose text contains ``needle`` — and, given ``run_ids``,
        has a ``"run_id"`` field naming one of them — are parsed, so a
        run-id lookup does not decode the whole log.
        """
        if not self.jsonl_path.exists():
            return
        with open(self.jsonl_path, "r", encoding="utf-8") as fh:
            for line in fh:
                if needle not in line:
                    continue
                if run_ids is not None and run_ids.isdisjoint(
                        _RUN_ID_FIELD.findall(line)):
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    continue  # blank, or a torn tail from a crash mid-append
                if isinstance(payload, dict) and isinstance(
                        payload.get("run_id"), str):
                    yield payload

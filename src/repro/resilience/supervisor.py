"""The process pool: heartbeat deadlines, kill-and-requeue, quarantine.

Every ``--jobs N`` path (sweeps, figure/scorecard prewarming, ablation
variants) runs a module-level function over picklable items on this
pool. A plain ``concurrent.futures`` process pool has two failure modes
a long campaign cannot afford: a worker that *dies* breaks the whole
pool (every outstanding future raises ``BrokenProcessPool``), and a
worker that *hangs* (SIGSTOP, runaway kernel, NFS stall) wedges the run
forever. This pool is built against both:

* the parent assigns work through **per-worker task queues** and records
  the assignment on its side *at dispatch time* — detection never depends
  on a message from the worker, because a worker frozen right after
  accepting a task would freeze its queue feeder thread too and the
  message would simply never arrive.
* a worker that dies outright (crash, OOM-kill) is detected via its
  process handle: its item is requeued with capped exponential backoff
  and deterministic jitter on a replacement worker, and the other items
  never notice. This is always on.
* every worker runs a daemon **heartbeat thread** posting ticks to the
  parent; a SIGSTOP freezes all threads, so heartbeats ceasing is exactly
  the hang signal. Ticks and results are the only messages a worker
  sends: ``fn(item)`` runs exactly as it would in the parent. With a
  ``deadline_s``, the parent timestamps receipt on its own clock (child
  clocks are never trusted) and escalates any assigned worker silent
  past it: SIGKILL, then the same requeue.
* an item that keeps killing its workers is **quarantined** after
  ``max_attempts`` dispatches: the pool yields :class:`PointQuarantined`
  for it (the sweep driver turns that into a structured failure record
  marked ``"quarantined": true``) and the run continues.
* an item whose ``fn`` *raises* is quarantined on that dispatch, with no
  requeue: the work is deterministic, so the same exception would come
  back on every retry. Only process faults (crash, hang) are requeued.
* if the pool keeps dying (:data:`DEGRADE_AFTER` worker deaths), it stops
  spawning replacements and **degrades gracefully to serial** in-parent
  execution of the remaining items.

Requeued attempts re-run the same deterministic simulation, so a sweep
that recovers from any number of crashes/hangs still produces output
byte-identical to an undisturbed serial run — the property ``repro
chaos`` asserts end-to-end. Workers inherit the armed
:data:`repro.resilience.faults.ACTIVE` plan at spawn, which is how the
chaos harness reaches them.
"""

from __future__ import annotations

import contextlib
import heapq
import multiprocessing
import queue as queue_mod
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.errors import ReproError
from repro.resilience import faults


class PointQuarantined(ReproError):
    """A pool item (a sweep point, a prewarm point, an ablation variant)
    was abandoned: its workers kept crashing or hanging until it exhausted
    its dispatch attempts, or ``fn`` raised on it (final on the first
    dispatch).

    ``details`` carries ``kind`` (``worker-hang`` / ``worker-crash`` /
    ``worker-error``), the attempt count, and ``quarantined: True`` — the
    marker the sweep driver persists so ``--resume-from`` skips the point
    instead of re-poisoning the pool (``--retry-failed`` overrides).
    """


#: Deterministic-jitter fraction added to each requeue backoff (0..1).
JITTER_FRAC = 0.25
#: Worker deaths tolerated before degrading to in-parent serial.
DEGRADE_AFTER = 6
#: Parent poll period while waiting for worker messages.
POLL_INTERVAL_S = 0.05
#: Worker-side heartbeat period; keep well under any ``deadline_s``.
HEARTBEAT_INTERVAL_S = 0.2
#: First-requeue backoff; doubles per subsequent attempt.
BACKOFF_BASE_S = 0.25
#: Ceiling on the exponential backoff.
BACKOFF_CAP_S = 5.0


@dataclass(frozen=True)
class SupervisorConfig:
    """Deadline and attempt budget of one pool run (picklable)."""

    #: Escalate an assigned worker silent for this long (None: hang
    #: detection off; crash detection needs no heartbeats and stays on).
    deadline_s: Optional[float] = None
    #: Total dispatches per item before a crashing/hanging one is
    #: quarantined.
    max_attempts: int = 3
    #: Seed for the jitter stream (paired with item index + attempt).
    seed: int = 0


@dataclass
class _Assignment:
    """Parent-side record of one in-flight dispatch (set at dispatch)."""

    index: int
    attempt: int
    last_seen: float = field(default_factory=time.monotonic)


def _worker_main(
    worker_id: int,
    fn: Callable[[Any], Any],
    task_queue: Any,
    result_queue: Any,
    plan: Optional[faults.FaultPlan],
    heartbeat_interval_s: float,
) -> None:
    """Pool worker: heartbeat thread + task loop calling ``fn``."""
    faults.arm(plan)
    stop = threading.Event()

    def _beat() -> None:
        while not stop.wait(heartbeat_interval_s):
            try:
                result_queue.put(("hb", worker_id))
            except Exception:  # queue torn down mid-shutdown
                return

    threading.Thread(target=_beat, daemon=True).start()
    while True:
        message = task_queue.get()
        if message is None:
            break
        index, item, attempt = message
        if plan is not None:
            plan.worker_point_fault(index, attempt)
        try:
            result_queue.put(("done", worker_id, index, fn(item)))
        except BaseException as exc:
            result_queue.put(
                ("error", worker_id, index, f"{type(exc).__name__}: {exc}"))
    stop.set()


class SupervisedPool:
    """Kill-and-requeue process pool. One instance per run() call."""

    def __init__(
        self,
        config: Optional[SupervisorConfig] = None,
        on_event: Optional[Callable[[str], None]] = None,
    ):
        self.config = config or SupervisorConfig()
        self._on_event = on_event
        #: Human-readable escalation log (tests assert against this).
        self.events: list[str] = []
        self._ctx = multiprocessing.get_context()
        self._workers: dict[int, Any] = {}
        self._queues: dict[int, Any] = {}
        self._idle: list[int] = []
        self._next_worker_id = 0
        #: Arguments every worker of the current run is spawned with.
        self._spawn_args: tuple = ()
        self.worker_deaths = 0
        self.degraded = False

    # ------------------------------------------------------------------

    def _event(self, message: str) -> None:
        self.events.append(message)
        if self._on_event is not None:
            self._on_event(message)

    def _backoff_delay(self, index: int, attempt: int) -> float:
        base = min(BACKOFF_CAP_S,
                   BACKOFF_BASE_S * (2 ** max(0, attempt - 2)))
        seed = f"{self.config.seed}:{index}:{attempt}"
        jitter = random.Random(seed).uniform(0.0, JITTER_FRAC)
        return base * (1.0 + jitter)

    def _spawn_worker(self) -> int:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_queue = self._ctx.Queue()
        fn, result_queue, plan = self._spawn_args
        proc = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, fn, task_queue, result_queue, plan,
                  HEARTBEAT_INTERVAL_S),
            daemon=True,
        )
        proc.start()
        self._workers[worker_id] = proc
        self._queues[worker_id] = task_queue
        self._idle.append(worker_id)
        return worker_id

    def _kill_worker(self, worker_id: int) -> None:
        proc = self._workers.pop(worker_id, None)
        task_queue = self._queues.pop(worker_id, None)
        if worker_id in self._idle:
            self._idle.remove(worker_id)
        if proc is not None:
            if proc.is_alive():
                proc.kill()  # SIGKILL: works on SIGSTOPped processes too
            proc.join(timeout=5)
        if task_queue is not None:
            # An undelivered task must not block the feeder at teardown.
            with contextlib.suppress(Exception):
                task_queue.cancel_join_thread()
                task_queue.close()

    def _shutdown(self) -> None:
        for worker_id in list(self._workers):
            self._kill_worker(worker_id)

    # ------------------------------------------------------------------

    def run(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        jobs: int,
    ) -> Iterator[tuple[int, Any]]:
        """Call ``fn(item)`` for every item on up to ``jobs`` workers,
        yielding ``(index, result)`` in completion order.

        ``fn`` must be a module-level function (workers may be spawned,
        not forked) and every item picklable. Every index is yielded exactly once: ``fn``'s return value, or
        :class:`PointQuarantined` — at once if ``fn`` raised, after
        ``max_attempts`` dispatches if its workers kept crashing/hanging.
        An item's index is also its fault-plan key (``worker.point``).
        """
        if not items:
            return
        cfg = self.config
        attempts = [0] * len(items)  # dispatches so far
        completed: set[int] = set()
        assigned: dict[int, _Assignment] = {}
        #: Items awaiting (re)dispatch: (ready_at, seq, index).
        pending: list[tuple[float, int, int]] = [
            (0.0, index, index) for index in range(len(items))]
        seq = len(items)
        result_queue = self._ctx.Queue()
        self._spawn_args = (fn, result_queue, faults.ACTIVE)

        def quarantine(index: int, kind: str,
                       detail: str) -> PointQuarantined:
            """Abandon ``index`` after its dispatches so far."""
            attempt = attempts[index]
            completed.add(index)
            self._event(
                f"quarantined point {index} after {attempt} "
                f"attempts ({kind}: {detail})")
            return PointQuarantined(
                f"point abandoned after {attempt} attempts "
                f"({kind}: {detail})",
                details={"kind": kind, "attempts": attempt,
                         "quarantined": True},
            )

        def escalate(index: int, kind: str,
                     detail: str) -> Optional[PointQuarantined]:
            """Account one crashed/hung dispatch; requeue or quarantine."""
            nonlocal seq
            if index in completed:
                return None
            attempt = attempts[index]
            if attempt >= cfg.max_attempts:
                return quarantine(index, kind, detail)
            delay = self._backoff_delay(index, attempt + 1)
            self._event(
                f"requeueing point {index} (attempt "
                f"{attempt + 1}/{cfg.max_attempts}, {kind}, "
                f"backoff {delay:.2f}s)")
            seq += 1
            heapq.heappush(pending, (time.monotonic() + delay, seq, index))
            return None

        try:
            for _ in range(min(jobs, len(items))):
                self._spawn_worker()

            while len(completed) < len(items):
                now = time.monotonic()
                # Dispatch: parent-side assignment *before* the queue put,
                # so a worker frozen mid-accept is still accountable.
                while pending and pending[0][0] <= now and self._idle:
                    _ready, _seq, index = heapq.heappop(pending)
                    if index in completed:
                        continue
                    worker_id = self._idle.pop()
                    attempts[index] += 1
                    assigned[worker_id] = _Assignment(
                        index=index, attempt=attempts[index], last_seen=now)
                    self._queues[worker_id].put(
                        (index, items[index], attempts[index]))

                if self.degraded and not self._workers:
                    yield from self._run_serially(fn, items, completed)
                    return

                # Drain everything already queued, then one blocking poll —
                # so a chatty pool cannot starve the deadline checks below.
                messages: list[tuple] = []
                while True:
                    try:
                        messages.append(result_queue.get_nowait())
                    except queue_mod.Empty:
                        break
                if not messages:
                    try:
                        messages.append(
                            result_queue.get(timeout=POLL_INTERVAL_S))
                    except queue_mod.Empty:
                        pass
                for message in messages:
                    kind, worker_id = message[0], message[1]
                    assignment = assigned.get(worker_id)
                    if assignment is not None:
                        assignment.last_seen = time.monotonic()
                    if kind == "hb":
                        continue
                    index = message[2]
                    assigned.pop(worker_id, None)
                    if (worker_id in self._workers
                            and worker_id not in self._idle):
                        self._idle.append(worker_id)
                    if index in completed:
                        continue
                    if kind == "done":
                        completed.add(index)
                        yield index, message[3]
                    else:  # "error": fn raised — deterministic, so final
                        yield index, quarantine(index, "worker-error",
                                                message[3])

                now = time.monotonic()
                # Hang detection: assigned worker silent past the deadline.
                if cfg.deadline_s is not None:
                    for worker_id in list(assigned):
                        assignment = assigned[worker_id]
                        silent = now - assignment.last_seen
                        if silent <= cfg.deadline_s:
                            continue
                        self._event(
                            f"worker {worker_id} missed its heartbeat "
                            f"deadline on point {assignment.index} "
                            f"({silent:.1f}s silent); killing")
                        assigned.pop(worker_id, None)
                        self._kill_worker(worker_id)
                        self.worker_deaths += 1
                        abandoned = escalate(
                            assignment.index, "worker-hang",
                            f"no heartbeat for {silent:.1f}s")
                        if abandoned is not None:
                            yield assignment.index, abandoned
                        self._maybe_respawn()

                # Crash detection: a worker process that died outright.
                for worker_id, proc in list(self._workers.items()):
                    if proc.is_alive():
                        continue
                    exitcode = proc.exitcode
                    assignment = assigned.pop(worker_id, None)
                    self._kill_worker(worker_id)
                    self.worker_deaths += 1
                    if assignment is not None:
                        self._event(
                            f"worker {worker_id} died on point "
                            f"{assignment.index} (exitcode {exitcode})")
                        abandoned = escalate(
                            assignment.index, "worker-crash",
                            f"worker exitcode {exitcode}")
                        if abandoned is not None:
                            yield assignment.index, abandoned
                    else:
                        self._event(
                            f"idle worker {worker_id} died "
                            f"(exitcode {exitcode})")
                    self._maybe_respawn()
        finally:
            self._shutdown()

    def _maybe_respawn(self) -> None:
        """Replace a dead worker, or trip the serial-degradation switch."""
        if self.worker_deaths >= DEGRADE_AFTER:
            if not self.degraded:
                self.degraded = True
                self._event(
                    f"pool degraded to serial after "
                    f"{self.worker_deaths} worker deaths")
            for worker_id in list(self._workers):
                self._kill_worker(worker_id)
            return
        self._spawn_worker()

    @staticmethod
    def _run_serially(
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        completed: set[int],
    ) -> Iterator[tuple[int, Any]]:
        """Degraded mode: finish the remaining items in the parent.

        Worker-site faults never fire here — they are tripped only by the
        worker loop, which arms the plan per worker process — so a plan
        that keeps killing workers cannot take the parent down with it.
        An exception ``fn`` raises here propagates, as in a serial run.
        """
        for index in range(len(items)):
            if index not in completed:
                completed.add(index)
                yield index, fn(items[index])

"""Checkpoint/restore of in-flight simulations.

A checkpoint is a pickle of the whole :class:`GPUSimulator` object graph —
warp contexts, scheduler and prefetcher tables (LAWS/SAP included), MSHRs,
pending events, and statistics. Event callbacks are picklable callable
objects by construction (see :mod:`repro.mem.subsystem` and
:mod:`repro.sm.pipeline`), and pickling preserves shared references, so a
restored simulator continues bit-identically to an uninterrupted run.

Files are written atomically (temp file + ``os.replace``) so a crash
mid-write can never leave a truncated checkpoint behind.
"""

from __future__ import annotations

import os
import pickle
import zlib

from repro.errors import CheckpointError

#: Bump when the on-disk layout changes incompatibly (2: ``SMCore`` gained
#: ``sleep_until`` and its prebuilt issue candidates; 3: ``SMCore`` gained
#: its issuable-warp pool, the LLT its ``llpc → warps`` index, LAWS its
#: ready bitmap and ``GPUSimulator`` its done-SM prefix).
CHECKPOINT_FORMAT = 3

_MAGIC = "repro-checkpoint"

#: zlib level for lightweight periodic checkpoints: the simulator object
#: graph is mostly small-integer lists, which deflate well, and level 6
#: keeps the profiling pass's per-boundary cost low.
_COMPRESS_LEVEL = 6


def dump_simulator(simulator) -> bytes:
    """Serialise a simulator (mid-run or fresh) to bytes."""
    payload = {
        "magic": _MAGIC,
        "format": CHECKPOINT_FORMAT,
        "cycle": simulator.current_cycle,
        "kernel": simulator.kernel_name,
        "simulator": simulator,
    }
    try:
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # pickling errors span TypeError/AttributeError/...
        raise CheckpointError(
            f"cannot serialise simulator state: {exc}",
            details={"kernel": simulator.kernel_name,
                     "cycle": simulator.current_cycle},
        ) from exc


def load_simulator(blob: bytes):
    """Reconstruct a simulator from :func:`dump_simulator` bytes."""
    try:
        payload = pickle.loads(blob)
    except Exception as exc:
        raise CheckpointError(f"cannot deserialise checkpoint: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("magic") != _MAGIC:
        raise CheckpointError("not a repro checkpoint")
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"checkpoint format {payload.get('format')!r} unsupported "
            f"(expected {CHECKPOINT_FORMAT})",
            details={"format": payload.get("format")},
        )
    from repro.sm.simulator import GPUSimulator

    simulator = payload.get("simulator")
    if not isinstance(simulator, GPUSimulator):
        raise CheckpointError("checkpoint payload is not a GPUSimulator")
    return simulator


def dump_simulator_compressed(simulator) -> bytes:
    """:func:`dump_simulator`, zlib-compressed (periodic profile checkpoints)."""
    return zlib.compress(dump_simulator(simulator), _COMPRESS_LEVEL)


def load_simulator_compressed(blob: bytes):
    """Reconstruct a simulator from :func:`dump_simulator_compressed` bytes."""
    try:
        raw = zlib.decompress(blob)
    except zlib.error as exc:
        raise CheckpointError(f"corrupt compressed checkpoint: {exc}") from exc
    return load_simulator(raw)


class CheckpointSeries:
    """Bounded series of periodic lightweight checkpoints (profiling pass).

    The sampled-simulation profiler offers a compressed snapshot at every
    interval boundary; once the series would exceed ``max_entries`` it
    doubles its stride and prunes retained entries to the new stride, so
    arbitrarily long runs keep a bounded, evenly spaced checkpoint set.
    Thinning is a pure function of the boundary indices offered, which
    keeps the retained set deterministic for identical runs.
    """

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ValueError("checkpoint series needs max_entries >= 1")
        self.max_entries = max_entries
        self.stride = 1
        #: boundary index -> (cycle, compressed blob), ascending insertion.
        self._entries: dict[int, tuple[int, bytes]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def offer(self, index: int, simulator) -> bool:
        """Snapshot ``simulator`` for boundary ``index`` if the stride keeps it."""
        if index % self.stride:
            return False
        self._entries[index] = (
            simulator.current_cycle,
            dump_simulator_compressed(simulator),
        )
        while len(self._entries) > self.max_entries:
            self.stride *= 2
            # Deterministic: offer() inserts ascending boundary indices, and
            # this key-filtered rebuild preserves that insertion order.
            self._entries = {
                i: entry
                for i, entry in self._entries.items()  # simlint: ignore[SL001]
                if i % self.stride == 0
            }
        return True

    def cycles(self) -> list[int]:
        """Retained checkpoint cycles, ascending."""
        return sorted(cycle for cycle, _ in self._entries.values())

    def entries(self) -> list[tuple[int, bytes]]:
        """Retained ``(cycle, compressed blob)`` pairs, ascending by cycle."""
        return sorted(self._entries.values(), key=lambda entry: entry[0])

    def best_for(self, target_cycle: int):
        """Newest retained checkpoint at or before ``target_cycle``, or None."""
        best = None
        # Max-scan over retained checkpoints is order-insensitive: the result
        # depends only on the (cycle, blob) set, not on iteration order.
        for cycle, blob in self._entries.values():  # simlint: ignore[SL001]
            if cycle <= target_cycle and (best is None or cycle > best[0]):
                best = (cycle, blob)
        return best


def save_checkpoint(simulator, path: str) -> None:
    """Atomically write a simulator checkpoint to ``path``."""
    blob = dump_simulator(simulator)
    tmp = f"{path}.tmp"
    try:
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError(
            f"cannot write checkpoint {path!r}: {exc}",
            details={"path": path},
        ) from exc


def load_checkpoint(path: str):
    """Load a simulator checkpoint written by :func:`save_checkpoint`."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint {path!r}: {exc}",
            details={"path": path},
        ) from exc
    return load_simulator(blob)

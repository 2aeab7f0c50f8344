"""Checkpoint/restore of in-flight simulations.

A checkpoint is a pickle of the whole :class:`GPUSimulator` object graph —
warp contexts, scheduler and prefetcher tables (LAWS/SAP included), MSHRs,
pending events, and statistics. Event callbacks are picklable callable
objects by construction (see :mod:`repro.mem.subsystem` and
:mod:`repro.sm.pipeline`), and pickling preserves shared references, so a
restored simulator continues bit-identically to an uninterrupted run.

Files are written through :func:`repro.resilience.atomic.atomic_write_bytes`
(temp file + fsync + ``os.replace``) so a crash mid-write can never leave
a truncated checkpoint behind.
"""

from __future__ import annotations

import pickle

from repro.errors import CheckpointError
from repro.resilience.atomic import atomic_write_bytes

#: Bump when the on-disk layout changes incompatibly (2: ``SMCore`` gained
#: ``sleep_until`` and its prebuilt issue candidates; 3: ``SMCore`` gained
#: its issuable-warp pool, the LLT its ``llpc → warps`` index, LAWS its
#: ready bitmap and ``GPUSimulator`` its done-SM prefix; 4: ``SMCore``
#: replaced the pool by a ready list and a wake heap and gained one
#: completion callback per warp, and tag arrays gained their
#: prefetched-line flag; 5: ``SMCore`` holds its engines' bound feedback
#: hooks, and the L1 and L2 hold their tag sets and hoisted geometry; 6:
#: LAWS keeps one priority key per warp instead of a queue list and hands
#: SAP its missed group directly, holding no ``LoadAccess``, and ``SMCore``
#: holds its L1's MSHR entries and prefetch-throttle threshold).
CHECKPOINT_FORMAT = 6

_MAGIC = "repro-checkpoint"


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


def save_checkpoint(simulator, path: str) -> None:
    """Atomically write a simulator checkpoint to ``path``."""
    blob = dump_simulator(simulator)
    try:
        atomic_write_bytes(path, blob)
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

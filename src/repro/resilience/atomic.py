"""Atomic file writes: torn output is impossible, not just unlikely.

Two primitives cover every persistence path in the experiment layer:

* :func:`atomic_write_bytes` (and :func:`atomic_write`, its text form) —
  full-file replace via write-temp → flush → fsync → ``os.replace`` (→
  best-effort directory fsync). A reader can observe the old file or the
  new file, never a mixture, and a crash at any instruction leaves the
  old file intact. Every whole-file writer uses it: the registry log
  rewrite, scorecards, checkpoints and watchdog dumps.
* :func:`append_line` — one JSONL line as a *single* ``os.write`` on an
  ``O_APPEND`` descriptor, fsynced. A single syscall cannot interleave
  with another writer, and the append path is *self-healing*: the file
  size is snapshotted before the write, and on a short write or an
  ``OSError`` (disk full, I/O error, injected fault) the file is
  truncated back to the snapshot and the append retried — so a torn line
  never survives into the store. Callers of this function are the sole
  writer of their file (the sweep/registry single-writer invariant),
  which is what makes truncate-and-retry safe.

Both primitives carry the :mod:`repro.resilience.faults` hook points for
``torn-write`` / ``disk-full`` / ``fsync-fail`` injection; with no plan
armed the hooks are a single ``is None`` test.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
from typing import Union

from repro.resilience import faults

PathLike = Union[str, "os.PathLike[str]"]

#: Self-healing append retries before the error propagates.
APPEND_RETRIES = 3


def _fsync_dir(path: pathlib.Path) -> None:
    """Best-effort fsync of a directory (persists the rename itself)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # platform/filesystem without directory fds
    try:
        os.fsync(fd)
    except OSError:
        pass  # non-fatal: the data write itself was already fsynced
    finally:
        os.close(fd)


def atomic_write(path: PathLike, text: str, encoding: str = "utf-8") -> None:
    """Replace ``path`` with ``text`` atomically (temp + fsync + rename)."""
    atomic_write_bytes(path, text.encode(encoding))


def atomic_write_bytes(path: PathLike, payload: bytes) -> None:
    """Replace ``path`` with ``payload`` atomically; on any failure the
    temp file is removed and ``path`` is left as it was."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + f".tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    _fsync_dir(target.parent)


def append_line(path: PathLike, line: str, retries: int = APPEND_RETRIES) -> None:
    """Append one line to ``path`` atomically, healing torn writes.

    The line is written as a single ``os.write`` on an ``O_APPEND``
    descriptor and fsynced. On any failure — short write, ``ENOSPC``,
    fsync error — the file is truncated back to its pre-append size and
    the write retried up to ``retries`` times before the error
    propagates; either the full line is durably on disk or the file is
    byte-identical to before the call.
    """
    payload = (line + "\n").encode("utf-8")
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(target, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        last_error: Exception | None = None
        for _attempt in range(max(1, retries)):
            start = os.fstat(fd).st_size
            try:
                plan = faults.ACTIVE
                if plan is not None:
                    plan.append_write_fault(fd, payload)
                written = os.write(fd, payload)
                if written != len(payload):
                    raise OSError(
                        f"short write: {written}/{len(payload)} bytes")
                if plan is not None:
                    plan.append_fsync_fault()
                os.fsync(fd)
                return
            except OSError as exc:
                last_error = exc
                # Heal: drop whatever fraction of the line landed so the
                # retry (or the caller's recovery) starts from a clean tail.
                with contextlib.suppress(OSError):
                    os.ftruncate(fd, start)
        assert last_error is not None
        raise last_error
    finally:
        os.close(fd)

"""Content-addressed profile store: build once, sample many times.

A profile (signatures + checkpoints + totals) depends only on
``(workload, config, scale, gpu-config, interval_cycles)``, so it is
stored under the content hash of exactly that tuple. The sampled
executor asks the store; a hit skips the detailed profiling run
entirely, which is what amortises the one-time profiling cost across
sampled figure sweeps, benches and repeat invocations.

Layout (root defaults to ``bench_results/sample_profiles``, overridable
via ``$REPRO_SAMPLE_PROFILE_DIR``; the directory is gitignored)::

    <root>/<key>/ckpt_<cycle>.bin   zlib-compressed simulator snapshots
    <root>/<key>/profile.json       metadata; written last = key complete

Writes are atomic (temp + ``os.replace``) and deterministic for a given
point, so concurrent builders of the same key are benign — last writer
wins with identical content.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Optional

from repro.config import GPUConfig
from repro.errors import SamplingError
from repro.integrity.checkpoint import CHECKPOINT_FORMAT, CheckpointSeries
from repro.sampling.profile import PROFILE_FORMAT, SampleProfile, build_profile

#: Environment override for the on-disk profile root.
PROFILE_DIR_ENV = "REPRO_SAMPLE_PROFILE_DIR"

_DEFAULT_ROOT = "bench_results/sample_profiles"

#: In-memory metadata cache entries (profiles are small; blobs stay on
#: disk except for the just-built set).
_MEMORY_CACHE_MAX = 16


def profile_key(workload: str, config_name: str, scale: float,
                gpu_config: GPUConfig, interval_cycles: int) -> str:
    """Content hash identifying one profile."""
    from repro.registry.records import config_hash, content_hash

    return content_hash({
        "kind": "sample_profile",
        "format": PROFILE_FORMAT,
        # Profiles hold checkpoints: a new checkpoint layout is a miss.
        "checkpoint_format": CHECKPOINT_FORMAT,
        "workload": workload,
        "config": config_name,
        "scale": scale,
        "gpu_config": config_hash(gpu_config),
        "interval_cycles": interval_cycles,
    })


class ProfileStore:
    """Disk-backed, memory-cached registry of sampling profiles."""

    def __init__(self, root: Optional[str] = None):
        self.root = pathlib.Path(
            root
            or os.environ.get(PROFILE_DIR_ENV, "").strip()
            or _DEFAULT_ROOT
        )
        self._profiles: dict[str, SampleProfile] = {}
        #: Checkpoint blobs of profiles built in this process, by
        #: (key, cycle). Avoids immediately re-reading what we just wrote.
        self._blobs: dict[tuple[str, int], bytes] = {}

    # ------------------------------------------------------------------
    # Lookup / build
    # ------------------------------------------------------------------

    def get_or_build(
        self,
        workload: str,
        config_name: str,
        scale: float,
        gpu_config: GPUConfig,
        interval_cycles: int,
    ) -> tuple[SampleProfile, bool]:
        """The profile for one point; builds and persists on miss.

        Returns ``(profile, was_cached)``.
        """
        key = profile_key(workload, config_name, scale, gpu_config,
                          interval_cycles)
        cached = self._profiles.get(key)
        if cached is not None:
            return cached, True
        loaded = self._load(key)
        if loaded is not None:
            self._remember(key, loaded)
            return loaded, True
        profile, series = build_profile(
            workload, config_name, scale, gpu_config, interval_cycles)
        self._persist(key, profile, series)
        self._remember(key, profile)
        for cycle, blob in series.entries():
            self._blobs[(key, cycle)] = blob
        return profile, False

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    def checkpoint_blob(self, key: str, cycle: int) -> bytes:
        """The compressed snapshot taken at ``cycle`` (memory, then disk)."""
        blob = self._blobs.get((key, cycle))
        if blob is not None:
            return blob
        path = self.root / key / f"ckpt_{cycle}.bin"
        try:
            return path.read_bytes()
        except OSError as exc:
            raise SamplingError(
                f"profile {key} lists a checkpoint at cycle {cycle} but "
                f"{path} is unreadable: {exc}",
                details={"key": key, "cycle": cycle, "path": str(path)},
            ) from exc

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _remember(self, key: str, profile: SampleProfile) -> None:
        self._profiles[key] = profile
        while len(self._profiles) > _MEMORY_CACHE_MAX:
            evicted = next(iter(self._profiles))
            del self._profiles[evicted]
            for blob_key in [bk for bk in self._blobs if bk[0] == evicted]:
                del self._blobs[blob_key]

    def _load(self, key: str) -> Optional[SampleProfile]:
        path = self.root / key / "profile.json"
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if payload.get("format") != PROFILE_FORMAT:
            return None
        try:
            return SampleProfile.from_dict(payload)
        except (KeyError, TypeError, ValueError):
            return None

    def _persist(self, key: str, profile: SampleProfile,
                 series: CheckpointSeries) -> None:
        directory = self.root / key
        try:
            directory.mkdir(parents=True, exist_ok=True)
            for cycle, blob in series.entries():
                self._atomic_write(directory / f"ckpt_{cycle}.bin", blob)
            meta = json.dumps(profile.as_dict(), sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
            self._atomic_write(directory / "profile.json", meta)
        except OSError:
            # A read-only results dir must not fail the run: the profile
            # stays usable in memory for this process.
            pass

    @staticmethod
    def _atomic_write(path: pathlib.Path, blob: bytes) -> None:
        tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)


#: Process-wide default store (figure/scorecard producers and the runner
#: share one so profiles built for a figure serve the scorecard too).
_DEFAULT_STORE: Optional[ProfileStore] = None


def default_store() -> ProfileStore:
    global _DEFAULT_STORE
    if _DEFAULT_STORE is None:
        _DEFAULT_STORE = ProfileStore()
    return _DEFAULT_STORE


def set_default_store(store: Optional[ProfileStore]) -> None:
    """Install (or clear, with ``None``) the process-wide profile store."""
    global _DEFAULT_STORE
    _DEFAULT_STORE = store

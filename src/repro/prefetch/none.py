"""No-op prefetcher (the baseline configuration)."""

from __future__ import annotations

from repro.prefetch.base import Prefetcher


class NullPrefetcher(Prefetcher):
    """Issues nothing: it keeps every base-class no-op hook."""

    name = "none"

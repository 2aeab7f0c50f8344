"""APRES = LAWS + SAP, wired together (Figure 5)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import APRESConfig
from repro.core.laws import LAWSScheduler
from repro.core.sap import SAPPrefetcher


@dataclass(frozen=True)
class APRESPair:
    """A LAWS scheduler and the SAP prefetcher coupled to it."""

    scheduler: LAWSScheduler
    prefetcher: SAPPrefetcher

    @property
    def events(self) -> int:
        """Total bookkeeping events (for the energy model)."""
        return self.scheduler.events + self.prefetcher.events


def build_apres(apres_config: APRESConfig | None = None) -> APRESPair:
    """Construct a coupled LAWS+SAP pair.

    The pair must be used together in one SM: SAP takes the missed warp
    group LAWS leaves in ``missed_group``, and the pipeline routes SAP's
    target-warp feedback back into LAWS via ``notify_prefetch_targets``.
    """
    cfg = apres_config or APRESConfig()
    laws = LAWSScheduler(cfg)
    sap = SAPPrefetcher(laws, cfg)
    return APRESPair(laws, sap)

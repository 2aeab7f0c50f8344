"""Exception hierarchy for the APRES reproduction.

Every error carries an optional ``details`` mapping of structured,
JSON-serialisable diagnostic state (counters, per-warp status, queue
depths) so callers — most importantly the sweep runner and the CLI — can
persist *why* a run failed without parsing the message string.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional


class ReproError(Exception):
    """Base class for all library errors.

    Attributes:
        details: Structured diagnostic payload. Always a plain dict (possibly
            empty); values should be JSON-serialisable.
    """

    def __init__(self, message: str = "", *, details: Optional[Mapping[str, Any]] = None):
        super().__init__(message)
        self.details: dict[str, Any] = dict(details or {})


class ConfigError(ReproError):
    """Invalid simulation configuration."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent or unrecoverable state."""


class InvariantError(SimulationError):
    """A conservation invariant failed mid-simulation.

    ``details`` holds a structured snapshot of the violating state (which
    invariant, the counters involved, and a machine summary) captured at
    the cycle the check ran.
    """


class WatchdogTimeout(SimulationError):
    """The watchdog detected livelock/deadlock or an exceeded cycle budget.

    ``details`` holds the diagnostic dump (per-warp status, MSHR occupancy,
    DRAM queue depths); when a dump directory is configured the same
    payload is also written to a JSON file whose path is in
    ``details["dump_path"]``.
    """


class CheckpointError(ReproError):
    """A simulator snapshot could not be written, read, or restored."""


class WorkloadError(ReproError):
    """Invalid workload specification."""


class LintError(ReproError):
    """The static-analysis pass itself failed (not a lint finding).

    Raised for unreadable paths, unknown rule codes, or a rule crashing;
    the CLI maps it to exit code 2, distinguishing "the linter broke"
    from "the linter found problems" (exit 1).
    """

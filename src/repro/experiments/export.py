"""JSON-compatible form of experiment results.

Every figure producer returns plain dictionaries/dataclasses;
:func:`to_jsonable` turns them into JSON data. The registry's figure
record (:func:`repro.registry.records.figure_record`) is built on it and
is the one machine-readable figure output.
"""

from __future__ import annotations

import dataclasses
from typing import Any


def to_jsonable(value: Any) -> Any:
    """Recursively convert experiment results to JSON-compatible data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: to_jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    return value

"""The base of the work-counter dataclasses.

The paper argues every optimization in access counts and cache
operations; each layer keeps its own as a plain ``@dataclass`` of int
fields (:class:`~repro.storage.counters.StorageCounters`,
:class:`~repro.execution.counters.ExecutionCounters`, the partition and
effect analyses' counters).  Those objects are the source of truth:
hot paths bump a field with a bare ``+=`` and readers take the field —
there is no ``__setattr__`` hook or property in between —
while :mod:`repro.obs.metrics` only *reads them out*.  This leaf module
(no imports from the rest of the package) holds what the four classes
share.
"""

from __future__ import annotations

from dataclasses import fields
from typing import TypeVar

_Self = TypeVar("_Self", bound="CounterSet")


class CounterSet:
    """``reset`` / ``as_dict`` / ``snapshot`` over a dataclass's fields."""

    def reset(self) -> None:
        """Zero all counters."""
        for spec in fields(self):  # type: ignore[arg-type]
            setattr(self, spec.name, 0)

    def as_dict(self) -> dict[str, int]:
        """All counters as a plain dictionary, in declaration order."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}  # type: ignore[arg-type]

    def snapshot(self: _Self) -> _Self:
        """An independent copy of the current counts.

        Rolling an object *back* to a snapshot goes through
        :func:`repro.obs.metrics.counters_restore`.
        """
        return type(self)(**self.as_dict())

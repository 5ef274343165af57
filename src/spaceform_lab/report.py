"""Residual reports: named max/mean residuals with the grid node achieving them."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ResidualEntry:
    max: float
    mean: float
    argmax: tuple

    def as_dict(self):
        return {"max": self.max, "mean": self.mean, "argmax": list(self.argmax)}


@dataclass
class ResidualReport:
    """Named residual entries plus scheme metadata.

    Each entry satisfies max >= mean >= 0.  ``argmax`` is the grid index of
    the node achieving the maximum (the leading component index is included
    when the residual is itself indexed).
    """

    entries: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def add(self, name, values, mask=None):
        """Aggregate an absolute-residual array into one named entry.

        ``values`` may have any shape; ``mask`` (same shape, True = keep)
        restricts the aggregation.  Fully masked entries record zeros.
        """
        values = np.abs(np.asarray(values, dtype=float))
        if mask is not None:
            kept = values[mask]
            if kept.size == 0:
                self.entries[name] = ResidualEntry(0.0, 0.0, ())
                return self
            vmax = float(kept.max())
            vmean = float(kept.mean())
            masked = np.where(mask, values, -np.inf)
            argmax = np.unravel_index(int(np.argmax(masked)), values.shape)
        else:
            vmax = float(values.max())
            vmean = float(values.mean())
            argmax = np.unravel_index(int(np.argmax(values)), values.shape)
        self.entries[name] = ResidualEntry(vmax, vmean, tuple(int(i) for i in argmax))
        return self

    def __getitem__(self, name) -> ResidualEntry:
        return self.entries[name]

    @property
    def overall_max(self) -> float:
        """The largest entry max, 0 with no entries, NaN if any entry is NaN."""
        return float(np.max([0.0, *(e.max for e in self.entries.values())]))

    def ok(self, threshold) -> bool:
        return self.overall_max <= threshold

    def as_dict(self):
        return {
            "entries": {k: v.as_dict() for k, v in self.entries.items()},
            "metadata": self.metadata,
        }

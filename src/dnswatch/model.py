"""Core value types shared across the pipeline.

A traffic feature is observed as one non-negative count per minute.  Each
stream of counts is identified by a :class:`SeriesKey` (a feature, plus an IP
address for the per-IP features) and stored as a gap-free
:class:`MinuteSeries`.  All types here are immutable after construction and
safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional


# Counts are integers; below this bound every square and sum the detectors
# form stays finite.
MAX_COUNT = 2.0**53


class FeatureKind(Enum):
    """Traffic features tracked per minute, with their aggregation scores."""

    A_TOTAL_PACKETS = "A"
    B_MALFORMED_RECEIVED = "B"
    C_TRANSMITTED = "C"

    @property
    def score(self) -> int:
        return _FEATURE_SCORES[self]

    @property
    def per_ip(self) -> bool:
        return self is not FeatureKind.A_TOTAL_PACKETS


_FEATURE_SCORES = {
    FeatureKind.A_TOTAL_PACKETS: 1,
    FeatureKind.B_MALFORMED_RECEIVED: 2,
    FeatureKind.C_TRANSMITTED: 4,
}


@dataclass(frozen=True)
class SeriesKey:
    """Identity of one count stream: a feature and, where required, an IP."""

    feature: FeatureKind
    ip: Optional[str] = None

    def __post_init__(self) -> None:
        if self.feature.per_ip and not self.ip:
            raise ValueError(f"feature {self.feature.value} requires an ip")
        if not self.feature.per_ip and self.ip is not None:
            raise ValueError(f"feature {self.feature.value} takes no ip")

    def label(self) -> str:
        if self.ip is None:
            return self.feature.value
        return f"{self.feature.value}:{self.ip}"

    @classmethod
    def from_label(cls, label: str) -> "SeriesKey":
        name, sep, ip = label.partition(":")
        try:
            feature = FeatureKind(name)
        except ValueError:
            raise ValueError(f"unknown feature in series label {label!r}") from None
        return cls(feature, ip if sep else None)

    def __lt__(self, other: "SeriesKey") -> bool:
        return self.label() < other.label()


@dataclass(frozen=True)
class MinuteSeries:
    """Contiguous per-minute counts of one stream, filed under its key in a
    ``dict[SeriesKey, MinuteSeries]``.

    ``values[i]`` is the count for epoch minute ``start_minute + i``.  Gaps
    must be zero-filled by the producer; values are stored as floats so that
    predictions and thresholds share one numeric domain, and must lie in
    ``[0, MAX_COUNT)``.
    """

    start_minute: int
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(map(float, self.values))  # floats pass through as they are
        if not all(0.0 <= v < MAX_COUNT for v in vals):  # also false for nan
            raise ValueError("minute counts must be non-negative and below 2**53")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

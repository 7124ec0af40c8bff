"""Core value types shared across the pipeline.

A traffic feature is observed as one count per minute: an integer in
``[0, MAX_COUNT)``, held as a float.  Each stream of counts is identified by
a :class:`SeriesKey` (a feature, plus an IP address for the per-IP features)
and stored as a gap-free :class:`MinuteSeries`, which is the one place that
checks the counts: a series file holding any other value, such as ``1.5``,
``-1`` or ``nan``, is rejected naming its line, and everything downstream
takes the counts as given.  All types here are immutable after construction
and safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence


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
    predictions and thresholds share one numeric domain, and each must be an
    integer in ``[0, MAX_COUNT)``: :func:`first_non_count` names the first
    that is not.
    """

    start_minute: int
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(map(float, self.values))  # floats pass through as they are
        if not _counts(vals):
            raise ValueError("minute counts must be integers in [0, 2**53)")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)


def _counts(vals: tuple[float, ...]) -> bool:
    """Whether every value is an integer in ``[0, MAX_COUNT)``; ``is_integer``
    is false for NaN and the infinities, so ``min`` and ``max`` see numbers."""
    return all(map(float.is_integer, vals)) and (
        not vals or 0.0 <= min(vals) and max(vals) < MAX_COUNT
    )


def first_non_count(values: Sequence[float]) -> int:
    """The index of the first value that :class:`MinuteSeries` rejects."""
    return next(k for k, v in enumerate(values) if not _counts((float(v),)))

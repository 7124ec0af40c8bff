"""Parse event and ground-truth files, aggregate events into minute series.

Event files are CSV with header ``ts_epoch_s,src_ip,dst_ip,direction,malformed``
(direction ``tx`` or ``rx``, malformed ``0`` or ``1``).  Ground-truth files
are CSV with header ``start_minute,end_minute,label``.  Parsing is streaming
and single pass; malformed lines raise :class:`ParseError` naming the line.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, NamedTuple

from .model import FeatureKind, MinuteSeries, SeriesKey

EVENTS_HEADER = ["ts_epoch_s", "src_ip", "dst_ip", "direction", "malformed"]
TRUTH_HEADER = ["start_minute", "end_minute", "label"]

_DIRECTIONS = ("tx", "rx")
# Every series is zero-filled over the span of the whole record set, so one
# stray timestamp years away would cost a float per minute per series.
MAX_SPAN_MINUTES = 366 * 1440


class ParseError(ValueError):
    """Input file violates the expected format."""


class DnsEventRecord(NamedTuple):
    ts: int  # epoch seconds
    src_ip: str
    dst_ip: str
    direction: str  # "tx" or "rx" relative to the monitored subnet
    malformed: bool


@dataclass(frozen=True)
class GroundTruthInterval:
    start_minute: int
    end_minute: int  # inclusive
    label: str = ""

    def __post_init__(self) -> None:
        if self.end_minute < self.start_minute:
            raise ValueError("interval end before start")


def parse_events(stream: IO[str]) -> Iterator[DnsEventRecord]:
    """Yield records in file order; raises on the first bad line."""
    reader = csv.reader(stream)
    header = next(reader, None)
    if header != EVENTS_HEADER:
        raise ParseError(f"bad events header: expected {','.join(EVENTS_HEADER)}, got {header}")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 5:
            raise ParseError(f"line {lineno}: expected 5 fields, got {len(row)}")
        ts_raw, src, dst, direction, malformed = row
        try:
            ts = int(float(ts_raw))
        except ValueError:
            raise ParseError(f"line {lineno}: unparsable timestamp {ts_raw!r}") from None
        except OverflowError:
            raise ParseError(f"line {lineno}: infinite timestamp {ts_raw!r}") from None
        if ts < 0:
            raise ParseError(f"line {lineno}: negative timestamp {ts_raw!r}")
        if direction not in _DIRECTIONS:
            raise ParseError(
                f"line {lineno}: field 'direction' must be tx or rx, got {direction!r}"
            )
        if malformed not in ("0", "1"):
            raise ParseError(f"line {lineno}: field 'malformed' must be 0 or 1, got {malformed!r}")
        # the same record as DnsEventRecord(...), without a call to the
        # generated Python-level __new__ for every line
        yield tuple.__new__(DnsEventRecord, (ts, src, dst, direction, malformed == "1"))


def write_events(stream: IO[str], records: Iterable[DnsEventRecord]) -> int:
    writer = csv.writer(stream)
    writer.writerow(EVENTS_HEADER)
    count = 0
    for rec in records:
        writer.writerow([rec.ts, rec.src_ip, rec.dst_ip, rec.direction, int(rec.malformed)])
        count += 1
    return count


def parse_ground_truth(stream: IO[str]) -> list[GroundTruthInterval]:
    reader = csv.reader(stream)
    header = next(reader, None)
    if header != TRUTH_HEADER:
        raise ParseError(f"bad truth header: expected {','.join(TRUTH_HEADER)}, got {header}")
    out = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ParseError(f"line {lineno}: expected 3 fields, got {len(row)}")
        try:
            start, end = int(row[0]), int(row[1])
        except ValueError:
            raise ParseError(f"line {lineno}: unparsable minute bounds {row[:2]}") from None
        if end < start:
            raise ParseError(f"line {lineno}: end_minute {end} before start_minute {start}")
        out.append(GroundTruthInterval(start, end, row[2]))
    return out


def write_ground_truth(stream: IO[str], intervals: Iterable[GroundTruthInterval]) -> None:
    writer = csv.writer(stream)
    writer.writerow(TRUTH_HEADER)
    for iv in intervals:
        writer.writerow([iv.start_minute, iv.end_minute, iv.label])


def _zero_filled(counts: dict[int, int], lo: int, hi: int) -> tuple[int, ...]:
    return tuple(counts.get(m, 0) for m in range(lo, hi + 1))


def aggregate_all(records: Iterable[DnsEventRecord]) -> dict[SeriesKey, MinuteSeries]:
    """Aggregate one pass of records into all three feature families.

    Feature A counts every record per minute globally; feature B counts
    received malformed records per minute keyed by the receiver; feature C
    counts transmitted records per minute keyed by the sender.  Every
    produced series is zero-filled over the minute span of the whole record
    set, which may not exceed ``MAX_SPAN_MINUTES``.
    """
    total: dict[int, int] = {}
    malformed_rx: dict[str, dict[int, int]] = {}
    transmitted: dict[str, dict[int, int]] = {}
    for ts, src, dst, direction, malformed in records:
        minute = ts // 60
        total[minute] = total.get(minute, 0) + 1
        if direction == "tx":
            per = transmitted.get(src)
            if per is None:
                per = transmitted[src] = {}
            per[minute] = per.get(minute, 0) + 1
        elif malformed and direction == "rx":
            per = malformed_rx.get(dst)
            if per is None:
                per = malformed_rx[dst] = {}
            per[minute] = per.get(minute, 0) + 1
    if not total:
        return {}
    lo, hi = min(total), max(total)
    if hi - lo >= MAX_SPAN_MINUTES:
        raise ParseError(
            f"events span minutes {lo} to {hi}, {hi - lo + 1} minutes; at most"
            f" {MAX_SPAN_MINUTES} ({MAX_SPAN_MINUTES // 1440} days) can be zero-filled"
        )
    out = {SeriesKey(FeatureKind.A_TOTAL_PACKETS): MinuteSeries(lo, _zero_filled(total, lo, hi))}
    for feature, per_ip in (
        (FeatureKind.B_MALFORMED_RECEIVED, malformed_rx),
        (FeatureKind.C_TRANSMITTED, transmitted),
    ):
        for ip in sorted(per_ip):
            out[SeriesKey(feature, ip)] = MinuteSeries(lo, _zero_filled(per_ip[ip], lo, hi))
    return out

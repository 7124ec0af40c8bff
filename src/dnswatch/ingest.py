"""Parse event and ground-truth files, aggregate events into minute series.

Event files are CSV with header ``ts_epoch_s,src_ip,dst_ip,direction,malformed``
(direction ``tx`` or ``rx``, malformed ``0`` or ``1``), one line per packet,
so a run of identical packets is a run of identical lines.  A
:class:`DnsEventRecord` stands for ``count`` identical packets: the writer
formats a record's line once and writes it ``count`` times, and the events
reader reads the file in blocks of lines and parses each distinct line of a
block once, counting its copies.  Ground-truth files are CSV with header
``start_minute,end_minute,label``.  Parsing is streaming and single pass;
malformed lines raise :class:`ParseError` naming the line.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import IO, Callable, Iterable, Iterator, NamedTuple

from .model import FeatureKind, MinuteSeries, SeriesKey

EVENTS_HEADER = ["ts_epoch_s", "src_ip", "dst_ip", "direction", "malformed"]
TRUTH_HEADER = ["start_minute", "end_minute", "label"]

_DIRECTIONS = ("tx", "rx")
# Every series is zero-filled over the span of the whole record set, so one
# stray timestamp years away would cost a float per minute per series.
MAX_SPAN_MINUTES = 366 * 1440
# Lines the events reader counts at a time.  Far larger blocks merge few more
# repeats, since gen writes each run in one place, but slow down a file whose
# lines are all distinct.
_BLOCK_LINES = 1024


class ParseError(ValueError):
    """Input file violates the expected format."""


class DnsEventRecord(NamedTuple):
    """``count`` identical packets: one events line, written ``count`` times."""

    ts: int  # epoch seconds
    src_ip: str
    dst_ip: str
    direction: str  # "tx" or "rx" relative to the monitored subnet
    malformed: bool
    count: int = 1


@dataclass(frozen=True)
class GroundTruthInterval:
    start_minute: int
    end_minute: int  # inclusive
    label: str = ""

    def __post_init__(self) -> None:
        if self.end_minute < self.start_minute:
            raise ValueError("interval end before start")


def parse_events(stream: IO[str]) -> Iterator[DnsEventRecord]:
    """Yield one record per distinct line of each block, counting its copies.

    The file is read in blocks of ``_BLOCK_LINES`` lines.  The identical lines
    of a block are counted, each distinct line is parsed once, and its record
    carries the count; records follow the order in which their lines first
    occur in the block.  A quoted field may span lines, so from the first
    block that holds a ``"`` on, rows are parsed one by one, each with count
    1.  Raises :class:`ParseError` on the first bad line, numbered as the rows
    of a ``csv.reader`` over the file are, or, where ``csv`` itself rejects
    a line (a field over its size limit), at the line it stopped on.
    """
    lines = iter(stream)
    reader = csv.reader(lines)
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    if header != EVENTS_HEADER:
        raise ParseError(f"bad events header: expected {','.join(EVENTS_HEADER)}, got {header}")
    new = tuple.__new__  # looked up once, not for every row
    for pairs, lineno in _row_groups(lines):
        for row, count in pairs:
            try:
                ts_raw, src, dst, direction, malformed = row
            except ValueError:
                if not row:
                    continue
                raise ParseError(f"line {lineno(row)}: expected 5 fields, got {len(row)}") from None
            try:
                ts = int(float(ts_raw))
            except ValueError:
                raise ParseError(f"line {lineno(row)}: unparsable timestamp {ts_raw!r}") from None
            except OverflowError:
                raise ParseError(f"line {lineno(row)}: infinite timestamp {ts_raw!r}") from None
            if ts < 0:
                raise ParseError(f"line {lineno(row)}: negative timestamp {ts_raw!r}")
            if ts >= 2**53:  # where a float stops holding every integer
                raise ParseError(f"line {lineno(row)}: timestamp {ts_raw!r} is not below 2**53")
            if direction not in _DIRECTIONS:
                raise ParseError(
                    f"line {lineno(row)}: field 'direction' must be tx or rx, got {direction!r}"
                )
            if malformed not in ("0", "1"):
                raise ParseError(
                    f"line {lineno(row)}: field 'malformed' must be 0 or 1, got {malformed!r}"
                )
            # the IPs that aggregate_all keys a series on
            if not (src and dst):
                if direction == "tx" and not src:
                    raise ParseError(f"line {lineno(row)}: field 'src_ip' is empty on a tx row")
                if direction == "rx" and malformed == "1" and not dst:
                    raise ParseError(
                        f"line {lineno(row)}: field 'dst_ip' is empty on a malformed rx row"
                    )
            # the same record as DnsEventRecord(...), without a call to the
            # generated Python-level __new__ for every row
            yield new(DnsEventRecord, (ts, src, dst, direction, malformed == "1", count))


def _row_groups(lines: Iterator[str]) -> Iterator[tuple[Iterator, Callable[[list[str]], int]]]:
    """The ``(row, count)`` pairs of the lines after an events header, in groups.

    Each group comes with ``lineno(row)``, which numbers a bad row just taken
    from the group.  Without quotes, a group is a block of lines and its rows
    are the block's distinct lines, with their counts; a bad row is the first
    distinct line that parses to it, and that line's first copy is the
    block's first bad line.  From the first block that holds a ``"`` on, a
    group is a block of rows with count 1, and a bad row is the first row of
    its group equal to it.  A ``lineno`` reads its group's variables, so it
    holds only until the next group is asked for.  A line that ``csv``
    rejects raises :class:`ParseError` here, named by its line.
    """
    first = 2  # the number of the group's first row
    for block in iter(lambda: list(islice(lines, _BLOCK_LINES)), []):
        counts = Counter(block)  # keys in order of first occurrence
        if '"' in "".join(counts):
            break
        keys = list(counts)
        reader = csv.reader(keys)
        try:
            rows = list(reader)
        except csv.Error as exc:
            line = keys[reader.line_num - 1]
            raise ParseError(f"line {first + block.index(line)}: {exc}") from None
        yield zip(rows, counts.values()), lambda row: first + block.index(keys[rows.index(row)])
        first += len(block)
    else:
        return
    start = first  # lines and rows coincide up to here
    rows = csv.reader(chain(block, lines))
    try:
        for chunk in iter(lambda: list(islice(rows, _BLOCK_LINES)), []):
            yield zip(chunk, repeat(1)), lambda row: first + chunk.index(row)
            first += len(chunk)
    except csv.Error as exc:
        raise ParseError(f"line {start + rows.line_num - 1}: {exc}") from None


class _Formatted:
    """A ``csv.writer`` target whose ``writerow`` returns the formatted line."""

    @staticmethod
    def write(line: str) -> str:
        return line


def write_events(stream: IO[str], records: Iterable[DnsEventRecord]) -> int:
    """Write each record's line, formatted once, ``count`` times; return the
    packets written."""
    formatted = csv.writer(_Formatted()).writerow
    stream.write(formatted(EVENTS_HEADER))
    packets = 0
    for ts, src, dst, direction, malformed, count in records:
        stream.write(formatted((ts, src, dst, direction, int(malformed))) * count)
        packets += count
    return packets


def parse_ground_truth(stream: IO[str]) -> list[GroundTruthInterval]:
    reader = csv.reader(stream)
    out = []
    try:
        header = next(reader, None)
        if header != TRUTH_HEADER:
            raise ParseError(f"bad truth header: expected {','.join(TRUTH_HEADER)}, got {header}")
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
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None
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

    Each record counts as its ``count`` packets.  Feature A counts every
    packet per minute globally; feature B counts received malformed packets
    per minute keyed by the receiver; feature C counts transmitted packets
    per minute keyed by the sender.  Every produced series is zero-filled
    over the minute span of the whole record set, which may not exceed
    ``MAX_SPAN_MINUTES``.
    """
    total: dict[int, int] = {}
    malformed_rx: dict[str, dict[int, int]] = {}
    transmitted: dict[str, dict[int, int]] = {}
    for ts, src, dst, direction, malformed, count in records:
        minute = ts // 60
        total[minute] = total.get(minute, 0) + count
        if direction == "tx":
            per = transmitted.get(src)
            if per is None:
                per = transmitted[src] = {}
            per[minute] = per.get(minute, 0) + count
        elif malformed and direction == "rx":
            per = malformed_rx.get(dst)
            if per is None:
                per = malformed_rx[dst] = {}
            per[minute] = per.get(minute, 0) + count
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

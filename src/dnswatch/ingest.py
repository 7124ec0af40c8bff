"""Every file format of the pipeline, as a reader and a writer that take an
open stream, and the aggregation of events into minute series:

* events CSV: :func:`parse_events` and :func:`write_events`;
* ground-truth CSV: :func:`parse_ground_truth` and :func:`write_ground_truth`;
* series CSV: :func:`read_series` and :func:`write_series`, in the file that
  :func:`series_filename` names and :func:`series_key` reads back; rows are
  written, and checked on read, a block at a time with one row template;
* report JSON: :func:`read_report` and :func:`write_report`;
* per-window flags CSV: :func:`write_windows`; nothing reads it back.

Readers raise :class:`ParseError` naming the bad line or item; callers add the path.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from bisect import bisect_right
from collections import Counter, defaultdict
from contextlib import suppress
from itertools import islice
from pathlib import PurePath
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence
from urllib.parse import quote, unquote

from .detector import AnomalyEvent, WindowFlag
from .model import FeatureKind, MinuteSeries, SeriesKey, first_non_count

EVENTS_HEADER = ["ts_epoch_s", "src_ip", "dst_ip", "direction", "malformed"]
TRUTH_HEADER = ["start_minute", "end_minute", "label"]
SERIES_HEADER = "minute,value"
# A series row, as write_series writes it and _exact_rows checks it.
_ROW = "%d,%s\n"

_DIRECTIONS = ("tx", "rx")
# Every series is zero-filled over the span of the whole record set, so one
# stray timestamp years away would cost a float per minute per series.
MAX_SPAN_MINUTES = 366 * 1440
# Lines each reader takes, and each writer writes, at a time.  Far
# larger blocks merge few more repeats, since gen writes each run in one
# place, but slow down an events file whose lines are all distinct.
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


@dataclasses.dataclass(frozen=True)
class GroundTruthInterval:
    start_minute: int
    end_minute: int  # inclusive
    label: str = ""

    def __post_init__(self) -> None:
        if self.end_minute < self.start_minute:
            raise ValueError("interval end before start")


def _first_failure(lines: Sequence[str]) -> tuple[int, int, str]:
    """The index of the first of ``lines`` that fails read alone, and the
    index and error of the line to name.  A line fails alone when ``csv``
    rejects it, or when its quoted field does not end on it and so swallows
    the empty line read after it.  The line named is the first that ``csv``
    rejects, or else the first that runs on.  Called only where ``csv``
    failed on ``lines`` read together, or one of their fields ran on, so
    one of them fails alone."""
    runs_on = []
    for i, line in enumerate(lines):
        try:
            if len(list(csv.reader([line, ""]))) < 2:
                runs_on.append(i)
        except csv.Error as exc:
            return min(runs_on, default=i), i, str(exc)
    return runs_on[0], runs_on[0], "quoted field does not end on its line"


def parse_events(stream: IO[str]) -> Iterator[DnsEventRecord]:
    """Yield one record per distinct line of each block, counting its copies.

    The file is read in blocks of ``_BLOCK_LINES`` lines.  The identical lines
    of a block are counted, each distinct line is parsed once, and its record
    carries the count; records follow the order in which their lines first
    occur in the block.  No field holds a line break, so a row is one line.
    Raises :class:`ParseError` on the first bad line of the file, a quoted
    field that does not end on its line among them.  Where ``csv`` itself
    stops on a line (a field over its size limit), the rows before the first
    line that fails read alone are checked first; then it names the first
    line up to that one that ``csv`` rejects read alone, or, when there is
    none, the line whose quoted field ran on into it.  Lines are numbered
    from the header, line 1.
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
    first = 2  # the number of the block's first line
    for block in iter(lambda: list(islice(lines, _BLOCK_LINES)), []):
        counts = Counter(block)  # keys in order of first occurrence
        # An open quoted field swallows the empty line added after the keys,
        # and adds nothing to itself, so that line is a row of its own only
        # when every field ends on its line.
        keys = [*counts, ""]
        reader = csv.reader(keys)
        rows: list[list[str]] = []
        with suppress(csv.Error):  # the rows read before the error are kept
            rows.extend(reader)
        end = len(counts)  # the rows before the first line that fails alone
        # csv stopped, or a quoted field ran on into the empty line
        if len(rows) <= end:
            end, at, why = _first_failure(keys[: reader.line_num])
            del rows[end:]
        # a bad row's first distinct line is the block's first bad line
        lineno = lambda row: first + block.index(keys[rows.index(row)])
        for row, count in zip(rows, counts.values()):
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
        if end < len(counts):
            raise ParseError(f"line {first + block.index(keys[at])}: {why}")
        first += len(block)


class _Formatted:
    """A ``csv.writer`` target whose ``writerow`` returns the formatted line."""

    @staticmethod
    def write(line: str) -> str:
        return line


def write_events(stream: IO[str], records: Iterable[DnsEventRecord]) -> int:
    """Write each record's line, formatted once, ``count`` times, at most
    ``_BLOCK_LINES`` copies to a write; return the packets written."""
    formatted = csv.writer(_Formatted()).writerow
    stream.write(formatted(EVENTS_HEADER))
    packets = 0
    for ts, src, dst, direction, malformed, count in records:
        line = formatted((ts, src, dst, direction, int(malformed)))
        packets += count
        while count > _BLOCK_LINES:
            stream.write(line * _BLOCK_LINES)
            count -= _BLOCK_LINES
        stream.write(line * count)
    return packets


def parse_ground_truth(stream: IO[str]) -> list[GroundTruthInterval]:
    reader = csv.reader(stream)
    out = []
    try:
        header = next(reader, None)
        if header != TRUTH_HEADER:
            raise ParseError(f"bad truth header: expected {','.join(TRUTH_HEADER)}, got {header}")
        for row in reader:
            lineno = reader.line_num  # a quoted label may span lines
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


def series_filename(key: SeriesKey) -> str:
    # The IP is percent-encoded so IPv6 colons survive; IPv4 bytes are unchanged.
    if key.ip is None:
        return f"{key.feature.value}.csv"
    return f"{key.feature.value}_{quote(key.ip, safe='')}.csv"


def series_key(name: str) -> SeriesKey:
    """The inverse of :func:`series_filename`.  It rejects a name that is not
    its key's own, so that two names never decode to one key."""
    feature, sep, ip = PurePath(name).stem.partition("_")
    key = SeriesKey.from_label(f"{feature}:{unquote(ip)}" if sep else feature)
    canonical = series_filename(key)
    if canonical != name:
        raise ParseError(f"series {key.label()} is stored as {canonical}, not {name}")
    return key


def write_series(stream: IO[str], series: MinuteSeries) -> None:
    """The header, then each block of ``_BLOCK_LINES`` rows formatted with
    one ``%`` of ``_ROW`` and written at once.  ``%s`` of a float is its
    ``repr``, so a row is ``f"{minute},{value!r}"`` and a line end."""
    stream.write(f"{SERIES_HEADER}\n")
    values, start = series.values, series.start_minute
    for at in range(0, len(values), _BLOCK_LINES):
        block = values[at : at + _BLOCK_LINES]
        n = len(block)
        fields: list[object] = [None] * (2 * n)
        fields[::2] = range(start + at, start + at + n)
        fields[1::2] = block
        stream.write(_ROW * n % tuple(fields))


def read_series(stream: IO[str]) -> MinuteSeries:
    """The series of a header and rows of contiguous minutes, from a stream
    opened with universal newlines, where CR LF and CR end a line as LF does.

    The rows are read in blocks of ``_BLOCK_LINES`` lines.  A block whose
    lines are all exactly ``<minute>,<value>``, as :func:`write_series` writes
    them, with the minutes going on from the rows before it, is converted at
    once.  Any other block is read line by line, which skips blank lines,
    ignores whitespace around a field and names a row that does not parse by
    its line number.  Once every row has parsed, the first row whose minute
    does not follow the one before it is named, and then the first row whose
    count :class:`MinuteSeries` rejects.
    """
    header = stream.readline().strip()
    if header != SERIES_HEADER:
        raise ParseError(f"bad series header {header!r}")
    start: Optional[int] = None
    values: list[float] = []
    blanks: list[int] = []  # the number of values read before each blank line
    gap: Optional[int] = None  # the line of the first minute out of place
    lineno = 2  # of the block's first line
    for block in iter(lambda: list(islice(stream, _BLOCK_LINES)), []):
        exact = _exact_rows(block, None if start is None else start + len(values))
        if exact is not None:
            first, block_values = exact
            if start is None:
                start = first
            values += block_values
        else:
            for i, line in enumerate(block, start=lineno):
                line = line.strip()
                if not line:
                    blanks.append(len(values))
                    continue
                m_raw, _, v_raw = line.partition(",")
                try:
                    minute = int(m_raw)
                    value = float(v_raw)
                except ValueError:
                    raise ParseError(f"line {i}: bad row {line!r}") from None
                if start is None:
                    start = minute
                elif minute != start + len(values) and gap is None:
                    gap = i
                values.append(value)
        lineno += len(block)
    if start is None:
        raise ParseError("empty series")
    if gap is not None:
        raise ParseError(f"line {gap}: minutes are not contiguous")
    try:
        return MinuteSeries(start, tuple(values))
    except ValueError as exc:
        # Looked for only now, so that a valid file pays nothing for its line.
        k = first_non_count(values)
        # After the header, each line before value k's holds a value or is blank.
        line = 2 + k + bisect_right(blanks, k)
        raise ParseError(f"line {line}: {exc}, got {values[k]!r}") from None


def _exact_rows(block: list[str], first: Optional[int]) -> Optional[tuple[int, list[float]]]:
    """The first minute and the values of a block of series lines, when each
    line is exactly ``<minute>,<value>`` and a line end, as ``ingest`` writes
    it, and the minutes count up from ``first`` (from the first line's own
    minute when ``first`` is None); None for any other block."""
    text = "".join(block)
    fields = text.replace(",", "\n").split()
    n = len(block)
    if len(fields) != 2 * n:
        return None
    values = fields[1::2]
    # The lines rebuilt from the values and the minutes they must hold read
    # back as the block only if each holds one comma, its minute written as
    # ingest writes it, and no whitespace but its line end.
    try:
        first = int(fields[0]) if first is None else first
        fields[::2] = range(first, first + n)
        if _ROW * n % tuple(fields) != text:
            return None
        return first, list(map(float, values))
    except ValueError:  # the line-by-line read names the row
        return None


def _event_to_json(ev: AnomalyEvent) -> dict:
    return {**dataclasses.asdict(ev), "features": sorted(f.value for f in ev.features)}


def write_report(stream: IO[str], events: Iterable[AnomalyEvent]) -> None:
    json.dump([_event_to_json(ev) for ev in events], stream, indent=2)
    stream.write("\n")


def read_report(stream: IO[str]) -> list[AnomalyEvent]:
    """The events of a report; a ValueError if it is not JSON or nests too deeply."""
    try:
        raw = json.load(stream)
    except RecursionError:
        raise ParseError("report nests arrays or objects too deeply to decode") from None
    if not isinstance(raw, list):
        raise ParseError("report must be a JSON list of events")
    events = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ParseError(f"report item {i} is not an object: {item!r}")
        try:
            event = {f.name: item[f.name] for f in dataclasses.fields(AnomalyEvent)}
        except KeyError as exc:
            raise ParseError(f"report item {i} lacks key {exc.args[0]!r}") from None
        for name, kind in (("start_minute", int), ("end_minute", int), ("features", list)):
            value = event[name]
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ParseError(
                    f"report item {i} key {name!r} must be of type {kind.__name__}, got {value!r}"
                )
        start, end = event["start_minute"], event["end_minute"]
        if end < start:
            raise ParseError(f"report item {i} end_minute {end} before start_minute {start}")
        try:
            event["features"] = frozenset(map(FeatureKind, event["features"]))
        except ValueError as exc:
            raise ParseError(f"report item {i} key 'features': {exc}") from None
        events.append(AnomalyEvent(**event))
    return events


def write_windows(stream: IO[str], flags: Mapping[SeriesKey, Sequence[WindowFlag]]) -> None:
    """One row per window of each series, the series in key order."""
    header = ",".join(f.name for f in dataclasses.fields(WindowFlag))
    stream.write(f"series_key,{header}\n")
    for key in sorted(flags):
        label = key.label()
        for w in flags[key]:
            mse = "" if w.mse is None else repr(w.mse)
            cos = "" if w.cosine is None else repr(w.cosine)
            stream.write(f"{label},{w.window_start},{int(w.flagged)},{mse},{cos},{int(w.cold_start)}\n")


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
    malformed_rx: defaultdict[str, dict[int, int]] = defaultdict(dict)
    transmitted: defaultdict[str, dict[int, int]] = defaultdict(dict)
    for ts, src, dst, direction, malformed, count in records:
        minute = ts // 60
        total[minute] = total.get(minute, 0) + count
        if direction == "tx":
            per = transmitted[src]
            per[minute] = per.get(minute, 0) + count
        elif malformed and direction == "rx":
            per = malformed_rx[dst]
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

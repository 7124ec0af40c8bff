import csv
import io
import itertools
import random
import re
from collections import Counter
from urllib.parse import quote

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dnswatch.detector import AnomalyEvent, WindowFlag
from dnswatch.ingest import (
    EVENTS_HEADER as EVENTS_FIELDS,
    _BLOCK_LINES,
    _exact_rows,
    DnsEventRecord,
    GroundTruthInterval,
    MAX_SPAN_MINUTES,
    ParseError,
    aggregate_all,
    parse_events,
    parse_ground_truth,
    read_report,
    read_series,
    series_filename,
    series_key,
    write_events,
    write_ground_truth,
    write_report,
    write_series,
    write_windows,
)
from dnswatch.model import FeatureKind, MinuteSeries, SeriesKey
from dnswatch.synth import AttackSpec, SynthProfile, iter_events


def _parse(text):
    return list(parse_events(io.StringIO(text)))


EVENTS_HEADER = ",".join(EVENTS_FIELDS) + "\n"


class TestParseEvents:
    def test_header_only(self):
        assert _parse(EVENTS_HEADER) == []

    def test_single_record_round_trip_values(self):
        records = _parse(EVENTS_HEADER + "120,10.0.0.1,10.0.0.2,tx,1\n")
        assert records == [DnsEventRecord(120, "10.0.0.1", "10.0.0.2", "tx", True)]
        assert type(records[0]) is DnsEventRecord

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            _parse("time,src,dst\n1,2,3\n")

    def test_bad_direction_names_line_and_field(self):
        with pytest.raises(ParseError) as err:
            _parse(EVENTS_HEADER + "1,a,b,tx,0\n120,10.0.0.1,10.0.0.2,up,0\n")
        assert "line 3" in str(err.value)
        assert "direction" in str(err.value)

    def test_bad_timestamp(self):
        with pytest.raises(ParseError, match="line 2"):
            _parse(EVENTS_HEADER + "soon,a,b,tx,0\n")

    @pytest.mark.parametrize("ts", ["inf", "-inf"])
    def test_infinite_timestamp_names_line(self, ts):
        with pytest.raises(ParseError, match=f"line 3: infinite timestamp '{ts}'"):
            _parse(EVENTS_HEADER + "60,a,b,tx,0\n" + f"{ts},a,b,tx,0\n")

    def test_bad_field_count(self):
        with pytest.raises(ParseError, match="5 fields"):
            _parse(EVENTS_HEADER + "1,a,b,tx\n")

    @pytest.mark.parametrize("row, message", [
        ("60,,10.0.1.53,tx,0", "line 3: field 'src_ip' is empty on a tx row"),
        ("60,10.0.0.1,,rx,1", "line 3: field 'dst_ip' is empty on a malformed rx row"),
    ])
    def test_empty_ip_that_would_key_a_series_names_line(self, row, message):
        with pytest.raises(ParseError, match=message):
            _parse(EVENTS_HEADER + "60,a,b,tx,0\n" + row + "\n")

    @pytest.mark.parametrize("row", ["60,,10.0.1.53,rx,0", "60,,10.0.1.53,rx,1", "60,10.0.0.1,,tx,1"])
    def test_empty_ip_that_keys_no_series_is_accepted(self, row):
        assert len(_parse(EVENTS_HEADER + row + "\n")) == 1

    def test_identical_lines_are_one_counted_record(self):
        line = "60,10.0.0.1,10.0.1.53,tx,0\n"
        records = _parse(EVENTS_HEADER + line * 3 + "120,a,b,rx,1\n" + line)
        assert records == [
            DnsEventRecord(60, "10.0.0.1", "10.0.1.53", "tx", False, 4),
            DnsEventRecord(120, "a", "b", "rx", True),
        ]

    def test_serialize_parse_identity(self):
        rng = random.Random(8)
        records = [
            DnsEventRecord(
                rng.randint(0, 10_000),
                f"10.0.0.{rng.randint(1, 9)}",
                f"10.0.1.{rng.randint(1, 9)}",
                rng.choice(["tx", "rx"]),
                rng.random() < 0.3,
            )
            for _ in range(200)
        ]
        buf = io.StringIO()
        write_events(buf, records)
        assert _parse(buf.getvalue()) == records


def _reference_parse(stream):
    """One count-1 record per row of a csv.reader, each row one line."""
    reader = csv.reader(stream)
    header = next(reader, None)
    if header != EVENTS_FIELDS:
        raise ParseError(f"bad events header: expected {','.join(EVENTS_FIELDS)}, got {header}")
    for lineno, row in enumerate(reader, start=2):
        if reader.line_num > lineno or any("\n" in f or "\r" in f for f in row):
            raise ParseError(f"line {lineno}: quoted field does not end on its line")
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
        if direction not in ("tx", "rx"):
            raise ParseError(f"line {lineno}: field 'direction' must be tx or rx, got {direction!r}")
        if malformed not in ("0", "1"):
            raise ParseError(f"line {lineno}: field 'malformed' must be 0 or 1, got {malformed!r}")
        if direction == "tx" and not src:
            raise ParseError(f"line {lineno}: field 'src_ip' is empty on a tx row")
        if direction == "rx" and malformed == "1" and not dst:
            raise ParseError(f"line {lineno}: field 'dst_ip' is empty on a malformed rx row")
        yield DnsEventRecord(ts, src, dst, direction, malformed == "1")


_GOOD_ROWS = [
    "60,10.0.0.11,10.0.1.53,tx,0",
    "60,10.0.0.12,10.0.1.53,tx,0",
    "120,10.0.0.66,10.0.1.99,rx,1",
    "120,10.0.0.66,10.0.1.99,tx,0",
    "179.5,10.0.0.11,10.0.1.53,rx,0",
    "180,,10.0.1.53,rx,0",
]
_BAD_ROWS = [
    "soon,a,b,tx,0",
    "inf,a,b,tx,0",
    "-60,a,b,tx,0",
    "60,a,b,up,0",
    "60,a,b,tx,2",
    "60,a,b,tx",
    "60,,b,tx,0",
    "60,a,,rx,1",
]
# a quoted field that spans two lines, and one that does not
_QUOTED_ROWS = ['60,"10.0.0.\n11",10.0.1.53,tx,0', '"120",10.0.0.66,10.0.1.99,rx,1']
_EOLS = ["\n", "\r\n"]
_GOOD = _GOOD_ROWS[0] + "\n"
# the two lines of _QUOTED_ROWS[0]
_RUN_ON = (_QUOTED_ROWS[0] + "\n").splitlines(keepends=True)
# a line that csv accepts alone, but not twice inside one quoted field
_WIDE = f"60,{'1' * 70_000},b,tx,0\n"


def _runs(rng, lines):
    """Runs of repeated good rows, some long enough to cross a block edge."""
    out = []
    while len(out) < lines:
        row = rng.choice(_GOOD_ROWS) if rng.random() < 0.97 else ""
        out += [row + rng.choice(_EOLS)] * rng.choice([1, 1, 2, 7, 60, 400, 1500])
    return out[:lines]


def _random_events(rng):
    lines = _runs(rng, rng.randrange(3000))
    for rows, chance in ((_QUOTED_ROWS, 0.3), (_BAD_ROWS, 0.5)):
        if lines and rng.random() < chance:
            at = rng.randrange(len(lines))
            lines[at:at] = [rng.choice(rows) + rng.choice(_EOLS)] * rng.choice([1, 3])
    return lines


def _block_edge_cases():
    good, bad, quoted = _GOOD_ROWS[0] + "\n", _BAD_ROWS[3] + "\n", _QUOTED_ROWS[0] + "\n"
    big = f"60,{'1' * 200_000},b,tx,0\n"  # over csv's field limit
    return {
        "runs-cross-block-edges": [good] * 1000 + [_GOOD_ROWS[1] + "\n"] * 1100 + [good] * 30,
        "crlf-and-lf-of-one-row": [good, _GOOD_ROWS[0] + "\r\n"] * 700,
        "blank-lines": ["\n", good, "\r\n"] * 800,
        "quoted-in-first-block": [good] * 10 + [quoted] + [good] * 2000,
        "quoted-in-later-block": [good] * 2500 + [quoted, good, quoted] + [good] * 100,
        "quoted-then-bad-row": [good] * 1500 + [quoted] + [good] * 5 + [bad] + [good] * 10,
        "bad-row-then-quoted": [good] * 1500 + [bad] + [good] * 5 + [quoted] + [good] * 10,
        "bad-row-repeated-in-its-block": [good] * 1500 + [bad, good, bad] + [good] * 10,
        "bad-row-first-in-later-block": [good] * 2048 + [bad] + [good] * 10,
        "bad-row-after-many-copies": [good] * 1100 + [_GOOD_ROWS[2] + "\n"] * 900 + [bad, bad],
        # csv stops on the wide line, after reading the bad row ahead of it
        "bad-row-then-a-field-over-the-limit": [good, bad, big],
        "bad-row-a-line-before-a-field-over-the-limit": [good, bad, _GOOD_ROWS[1] + "\n", big],
    }


def _outcome(parse, lines):
    text = EVENTS_HEADER + "".join(lines)
    try:
        # newline="" as the command line opens events files
        return list(parse(io.StringIO(text, newline="")))
    except ParseError as exc:
        return str(exc)


def _packets(records):
    """Each packet a record stands for, as a count-1 record."""
    return Counter(DnsEventRecord(*rec[:5]) for rec in records for _ in range(rec.count))


class TestCountedRuns:
    """The block reader agrees with a per-row reader on every file."""

    def _assert_agrees(self, lines):
        got, want = _outcome(parse_events, lines), _outcome(_reference_parse, lines)
        if isinstance(want, str):
            assert got == want
            return
        assert not isinstance(got, str), got
        assert _packets(got) == _packets(want)
        assert aggregate_all(got) == aggregate_all(want)

    @pytest.mark.parametrize("name", sorted(_block_edge_cases()))
    def test_block_edge_case(self, name):
        self._assert_agrees(_block_edge_cases()[name])

    def test_bad_rows_in_later_blocks_are_named_as_by_rows(self):
        cases = _block_edge_cases()
        assert _outcome(parse_events, cases["bad-row-first-in-later-block"]) == (
            "line 2050: field 'direction' must be tx or rx, got 'up'"
        )
        assert _outcome(parse_events, cases["bad-row-after-many-copies"]).startswith("line 2002: ")
        assert _outcome(parse_events, cases["bad-row-repeated-in-its-block"]).startswith("line 1502: ")
        # the quoted field runs on from its line, which comes before the bad row
        assert _outcome(parse_events, cases["quoted-then-bad-row"]) == (
            "line 1502: quoted field does not end on its line"
        )

    @pytest.mark.parametrize("text, message", [
        ("start_minute,end_minute\n1,2\n",
         "bad truth header: expected start_minute,end_minute,label, got ['start_minute', 'end_minute']"),
        ("start_minute,end_minute,label\n1,2\n", "line 2: expected 3 fields, got 2"),
        ("start_minute,end_minute,label\n1,x,a\n", "line 2: unparsable minute bounds ['1', 'x']"),
        ("start_minute,end_minute,label\n1.5,6,a\n",
         "line 2: unparsable minute bounds ['1.5', '6']"),
        ("start_minute,end_minute,label\n5,2,a\n", "line 2: end_minute 2 before start_minute 5"),
        ("start_minute,end_minute,label\n\n1,2,a\n5,2,a\n",
         "line 4: end_minute 2 before start_minute 5"),
        ('start_minute,end_minute,label\n1,2,"multi\nline"\n5,2,x\n',
         "line 4: end_minute 2 before start_minute 5"),
        ('start_minute,end_minute,label\n5,2,"multi\nline"\n',
         "line 2: end_minute 2 before start_minute 5"),
    ], ids=["header-without-label", "two-fields", "minute-x", "minute-1.5", "end-before-start",
            "after-a-blank-line", "after-a-label-of-two-lines", "with-a-label-of-two-lines"])
    def test_bad_truth_names_its_line(self, text, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_ground_truth(io.StringIO(text))

    def test_blank_lines_are_skipped(self):
        text = "start_minute,end_minute,label\n\n5,9,ddos\n\n\n12,12,\n"
        assert parse_ground_truth(io.StringIO(text)) == [
            GroundTruthInterval(5, 9, "ddos"), GroundTruthInterval(12, 12, "")
        ]

    def test_field_over_the_csv_limit_is_named_by_its_line(self):
        # csv rejects a field of more than 131,072 characters; the reader
        # names the line it stopped on, in the header, among counted lines
        # of a later block and after a quoted field that runs on in the same
        # block, since csv's own error comes first
        big = f"60,{'1' * 200_000},b,tx,0\n"
        good, quoted = _GOOD_ROWS[0] + "\n", _QUOTED_ROWS[0] + "\n"
        for text, line in [
            (big, 1),
            (EVENTS_HEADER + good * 1500 + big, 1502),
            (EVENTS_HEADER + good * 3 + quoted + good + big, 8),
            # the row that such a field closes on a later line is not checked
            (EVENTS_HEADER + good + '60,"a\n' + 'b",c,xx,0\n' + big, 5),
        ]:
            with pytest.raises(ParseError, match=f"^line {line}: field larger than field limit"):
                list(parse_events(io.StringIO(text, newline="")))

    @pytest.mark.parametrize("lines, message", [
        # the field of line 2 swallows two lines that csv accepts alone, and
        # csv stops on the second once the field has passed its limit
        ([_RUN_ON[0], _WIDE, _WIDE.replace("b", "c")],
         "line 2: quoted field does not end on its line"),
        ([_GOOD] * 1500 + [_RUN_ON[0], _WIDE, _WIDE.replace("b", "c")],
         "line 1502: quoted field does not end on its line"),
        # csv's own error comes first, on a line swallowed by the field too
        ([_GOOD, _RUN_ON[0], _WIDE.replace("1", "1" * 3)],
         "line 4: field larger than field limit (131072)"),
    ], ids=["first-block", "later-block", "rejected-alone"])
    def test_field_that_runs_on_past_the_csv_limit_is_named_at_its_line(self, lines, message):
        assert _outcome(parse_events, lines) == message

    @pytest.mark.parametrize("lines, line", [
        ([_GOOD] * 5 + [_RUN_ON[0], _RUN_ON[1]] + [_GOOD] * 10, 7),
        # the block's last distinct line, its field never closed in the file
        ([_GOOD] * 3 + [_RUN_ON[0]] + [_GOOD] * 20, 5),
        ([_GOOD] * 3 + [_RUN_ON[0]], 5),
        ([_GOOD] * 3 + [_RUN_ON[0].rstrip("\n")], 5),
        # the last line of the first block, closed on the first of the next
        ([_GOOD] * 1023 + [_RUN_ON[0], _RUN_ON[1]] + [_GOOD] * 5, 1025),
        # a bad row after the field in the same block is not reached
        ([_GOOD] * 2 + [_RUN_ON[0], _RUN_ON[1], _BAD_ROWS[0] + "\n"], 4),
        # a field of exactly csv's limit, line end included, to the end of the file
        ([_GOOD, '60,"' + "1" * (csv.field_size_limit() - 1) + "\n"], 3),
    ], ids=["mid-block", "last-distinct-line", "last-line", "last-line-without-its-end",
            "into-the-next-block", "before-a-bad-row", "at-the-field-limit"])
    def test_quoted_field_that_runs_on_is_named_at_its_line(self, lines, line):
        message = f"line {line}: quoted field does not end on its line"
        assert _outcome(parse_events, lines) == message
        if lines[-1].endswith("\n"):
            assert _outcome(_reference_parse, lines) == message

    def test_fully_quoted_file_is_read_as_counted_runs(self):
        profile = SynthProfile(days=1, high_rate=3000, low_rate=1200,
                               attacks=(AttackSpec(700, 25, 10.0),), seed=7)
        plain = io.StringIO()
        write_events(plain, iter_events(profile))
        quoted = io.StringIO()
        csv.writer(quoted, quoting=csv.QUOTE_ALL).writerows(
            csv.reader(io.StringIO(plain.getvalue(), newline=""))
        )
        assert quoted.getvalue().count('"') == 10 * quoted.getvalue().count("\n")
        records = list(parse_events(io.StringIO(quoted.getvalue(), newline="")))
        assert records == list(parse_events(io.StringIO(plain.getvalue(), newline="")))
        assert len(records) < plain.getvalue().count("\n") // 4

    def test_runs_are_counted_records(self):
        records = _outcome(parse_events, _block_edge_cases()["runs-cross-block-edges"])
        assert [rec.count for rec in records] == [1000, 24, 1024, 52, 30]

    @pytest.mark.parametrize("seed", range(60))
    def test_random_files(self, seed):
        self._assert_agrees(_random_events(random.Random(seed)))


class TestWriteEvents:
    def test_bytes_match_a_csv_writer_per_record(self):
        profile = SynthProfile(days=1, high_rate=3000, low_rate=1200,
                               attacks=(AttackSpec(700, 25, 10.0),), seed=7)
        got = io.StringIO()
        written = write_events(got, iter_events(profile))
        want = io.StringIO()
        writer = csv.writer(want)
        writer.writerow(EVENTS_FIELDS)
        for rec in iter_events(profile):
            for _ in range(rec.count):
                writer.writerow([rec.ts, rec.src_ip, rec.dst_ip, rec.direction, int(rec.malformed)])
        assert got.getvalue() == want.getvalue()
        assert written == want.getvalue().count("\n") - 1

    def test_record_with_a_count_writes_that_many_lines(self):
        buf = io.StringIO()
        assert write_events(buf, [DnsEventRecord(60, "a", "b", "rx", True, 3)]) == 3
        assert buf.getvalue() == EVENTS_HEADER.replace("\n", "\r\n") + "60,a,b,rx,1\r\n" * 3

    def test_a_large_count_is_written_a_block_of_lines_at_a_time(self):
        writes = []

        class Recording:
            write = writes.append

        count = 10**6
        record = DnsEventRecord(60, "10.0.0.1", "10.0.1.53", "tx", False, count)
        assert write_events(Recording(), [record]) == count
        header, *copies = writes
        line = "60,10.0.0.1,10.0.1.53,tx,0\r\n"
        assert max(w.count("\n") for w in copies) == _BLOCK_LINES
        # each write is whole lines of the record, so the lengths tell the text
        assert all(w == line * (len(w) // len(line)) for w in copies)
        assert sum(map(len, copies)) == len(line) * count


class TestParseGroundTruth:
    def test_header_only(self):
        assert parse_ground_truth(io.StringIO("start_minute,end_minute,label\n")) == []

    def test_single_interval(self):
        got = parse_ground_truth(io.StringIO("start_minute,end_minute,label\n5,9,ddos\n"))
        assert got == [GroundTruthInterval(5, 9, "ddos")]

    def test_end_before_start_rejected(self):
        with pytest.raises(ParseError):
            parse_ground_truth(io.StringIO("start_minute,end_minute,label\n100,90,x\n"))

    def test_field_over_the_csv_limit_is_named_by_its_line(self):
        # a label that spans lines 3 and 4, stopped on line 4
        text = f'start_minute,end_minute,label\n1,2,a\n3,4,"b\n{"c" * 200_000}"\n'
        with pytest.raises(ParseError, match="^line 4: field larger than field limit"):
            parse_ground_truth(io.StringIO(text, newline=""))

    def test_round_trip(self):
        intervals = [GroundTruthInterval(0, 10, "a"), GroundTruthInterval(5, 7, "b")]
        buf = io.StringIO()
        write_ground_truth(buf, intervals)
        assert parse_ground_truth(io.StringIO(buf.getvalue())) == intervals


def _rec(minute, src="10.0.0.1", dst="10.0.1.1", direction="tx", malformed=False):
    return DnsEventRecord(minute * 60, src, dst, direction, malformed)


def _feature(records, feature):
    return {k: s for k, s in aggregate_all(records).items() if k.feature is feature}


class TestAggregate:
    def test_same_minute_counts_add_up(self):
        records = [_rec(100), _rec(100), _rec(100)]
        series = _feature(records, FeatureKind.A_TOTAL_PACKETS)
        total = series[SeriesKey(FeatureKind.A_TOTAL_PACKETS)]
        assert total.start_minute == 100
        assert total.values == (3.0,)

    def test_no_malformed_means_no_b_series(self):
        records = [_rec(1), _rec(2, direction="rx")]
        assert _feature(records, FeatureKind.B_MALFORMED_RECEIVED) == {}

    def test_zero_fill_between_minutes(self):
        records = [_rec(10), _rec(12)]
        total = _feature(records, FeatureKind.A_TOTAL_PACKETS)[
            SeriesKey(FeatureKind.A_TOTAL_PACKETS)
        ]
        assert total.values == (1.0, 0.0, 1.0)

    def test_feature_b_keys_on_destination_of_malformed_rx(self):
        records = [
            _rec(5, direction="rx", malformed=True, dst="10.0.1.9"),
            _rec(5, direction="rx", malformed=False, dst="10.0.1.9"),
            _rec(5, direction="tx", malformed=True, dst="10.0.1.9"),
        ]
        series = _feature(records, FeatureKind.B_MALFORMED_RECEIVED)
        assert set(series) == {SeriesKey(FeatureKind.B_MALFORMED_RECEIVED, "10.0.1.9")}
        assert series[SeriesKey(FeatureKind.B_MALFORMED_RECEIVED, "10.0.1.9")].values == (1.0,)

    def test_feature_c_keys_on_source_of_tx(self):
        records = [
            _rec(5, src="10.0.0.1"),
            _rec(5, src="10.0.0.2"),
            _rec(5, src="10.0.0.2"),
            _rec(5, src="10.0.0.3", direction="rx"),
        ]
        series = _feature(records, FeatureKind.C_TRANSMITTED)
        assert series[SeriesKey(FeatureKind.C_TRANSMITTED, "10.0.0.2")].values == (2.0,)
        assert SeriesKey(FeatureKind.C_TRANSMITTED, "10.0.0.3") not in series

    def test_total_of_feature_a_equals_record_count(self):
        rng = random.Random(13)
        records = [
            _rec(rng.randint(0, 50), direction=rng.choice(["tx", "rx"]))
            for _ in range(500)
        ]
        total = _feature(records, FeatureKind.A_TOTAL_PACKETS)[
            SeriesKey(FeatureKind.A_TOTAL_PACKETS)
        ]
        assert sum(total.values) == 500

    def test_order_independent(self):
        rng = random.Random(21)
        records = [
            _rec(rng.randint(0, 30), src=f"10.0.0.{rng.randint(1, 3)}",
                 direction=rng.choice(["tx", "rx"]), malformed=rng.random() < 0.5)
            for _ in range(300)
        ]
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert aggregate_all(records) == aggregate_all(shuffled)

    def test_all_series_share_the_global_timeline(self):
        records = [
            _rec(10, src="10.0.0.1"),
            _rec(40, src="10.0.0.2"),
            _rec(25, direction="rx", malformed=True, dst="10.0.1.5"),
        ]
        series = aggregate_all(records)
        for s in series.values():
            assert s.start_minute == 10
            assert len(s.values) == 31

    def test_empty_input(self):
        assert aggregate_all([]) == {}

    def test_a_record_counts_as_its_packets(self):
        counted = [_rec(5, direction="rx", malformed=True)._replace(count=4), _rec(5)._replace(count=3)]
        expanded = [_rec(5, direction="rx", malformed=True)] * 4 + [_rec(5)] * 3
        assert aggregate_all(counted) == aggregate_all(expanded)
        total = aggregate_all(counted)[SeriesKey(FeatureKind.A_TOTAL_PACKETS)]
        assert total.values == (7.0,)

    def test_span_bound_is_inclusive(self):
        records = [_rec(7), _rec(7 + MAX_SPAN_MINUTES - 1)]
        total = aggregate_all(records)[SeriesKey(FeatureKind.A_TOTAL_PACKETS)]
        assert len(total) == MAX_SPAN_MINUTES

    def test_span_over_bound_names_both_minutes(self):
        # one minute over the bound
        records = [_rec(7 + MAX_SPAN_MINUTES), _rec(9), _rec(7)]
        with pytest.raises(ParseError, match=f"minutes 7 to {7 + MAX_SPAN_MINUTES}"):
            aggregate_all(records)


# Counts that a float's repr or a series row could get wrong: a signed zero,
# the largest count, and the largest whose repr has no exponent.
_EDGE_VALUES = [-0.0, 0.0, 1.0, 7.0, 2.0**53 - 1, 2.0**52 + 1, 1e15, 123456789.0]
_values = st.sampled_from(_EDGE_VALUES) | st.integers(0, 2**53 - 1).map(float)


def _written(series):
    buf = io.StringIO()
    write_series(buf, series)
    return buf.getvalue()


def _series_round_trip(series):
    return read_series(io.StringIO(_written(series)))


@st.composite
def _block_series(draw):
    """A series one row long, or one row either side of a whole number of
    blocks, of edge values and others, from a start minute that may be
    negative and whose rows may cross minute 0."""
    n = draw(st.sampled_from([1, _BLOCK_LINES - 1, _BLOCK_LINES, _BLOCK_LINES + 1, 2 * _BLOCK_LINES + 1]))
    start = draw(st.sampled_from([-_BLOCK_LINES - 1, -1]) | st.integers(-(10**12), 10**12))
    palette = _EDGE_VALUES + draw(st.lists(_values, min_size=1, max_size=8))
    # a seeded generator, not st.randoms(), so that shrinking a failure need
    # not shrink thousands of draws
    rng = random.Random(draw(st.integers(0, 2**32)))
    return MinuteSeries(start, tuple(rng.choice(palette) for _ in range(n)))


class TestSeriesFormat:
    @given(start=st.integers(-(10**6), 10**12), values=st.lists(_values, min_size=1))
    def test_write_then_read_returns_the_series(self, start, values):
        series = MinuteSeries(start, tuple(values))
        got = _series_round_trip(series)
        assert got.start_minute == start
        assert list(map(repr, got.values)) == list(map(repr, series.values))

    def test_a_series_of_many_blocks_round_trips(self):
        rng = random.Random(5)
        values = [rng.choice(_EDGE_VALUES + [float(rng.randrange(10**6))]) for _ in range(20_000)]
        series = MinuteSeries(27_000_000, tuple(values))
        buf = io.StringIO()
        write_series(buf, series)
        assert buf.getvalue().count("\n") > 10 * _BLOCK_LINES
        got = _series_round_trip(series)
        assert got.start_minute == series.start_minute
        assert list(map(repr, got.values)) == list(map(repr, series.values))

    @given(_block_series())
    def test_rows_are_the_bytes_of_one_row_at_a_time(self, series):
        # the writer's former form, a formatted string per row, as the oracle
        rows = (f"{m},{v!r}\n" for m, v in enumerate(series.values, series.start_minute))
        assert _written(series) == "minute,value\n" + "".join(rows)

    @given(_block_series())
    def test_the_block_read_accepts_every_block_the_writer_emits(self, series):
        # so that reading a series ingest wrote never falls back to the
        # line-by-line read
        lines = _written(series).splitlines(keepends=True)[1:]
        for at in range(0, len(lines), _BLOCK_LINES):
            first = series.start_minute + at
            got = _exact_rows(lines[at : at + _BLOCK_LINES], first if at else None)
            assert got is not None, at
            assert got[0] == first
            assert list(map(repr, got[1])) == list(map(repr, series.values[at : at + _BLOCK_LINES]))

    def test_rows_are_minute_and_value_repr(self):
        buf = io.StringIO()
        write_series(buf, MinuteSeries(7, (1, 5, -0.0)))
        assert buf.getvalue() == "minute,value\n7,1.0\n8,5.0\n9,-0.0\n"

    @pytest.mark.parametrize("text, message", [
        ("", "bad series header ''"),
        ("minute,value\n", "empty series"),
        ("minute,value\n7,1.0\n9,2.0\n", "line 3: minutes are not contiguous"),
        ("minute,value\n7,1.0\n8,x\n", "line 3: bad row '8,x'"),
        ("minute,value\n7,1.0\n\n8,inf\n",
         "line 4: minute counts must be integers in [0, 2**53), got inf"),
        ("minute,value\n7,1.0\n8,0.1\n",
         "line 3: minute counts must be integers in [0, 2**53), got 0.1"),
    ])
    def test_bad_file_names_no_path(self, text, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            read_series(io.StringIO(text))


_ips = st.text(
    st.sampled_from(":%_.~-/ab09") | st.characters(exclude_categories=("Cs",)), min_size=1
)
_keys = st.just(SeriesKey(FeatureKind.A_TOTAL_PACKETS)) | st.builds(
    SeriesKey, st.sampled_from([FeatureKind.B_MALFORMED_RECEIVED, FeatureKind.C_TRANSMITTED]), _ips
)


class TestSeriesFileNames:
    @pytest.mark.parametrize("key, name", [
        (SeriesKey(FeatureKind.A_TOTAL_PACKETS), "A.csv"),
        (SeriesKey(FeatureKind.C_TRANSMITTED, "10.0.0.11"), "C_10.0.0.11.csv"),
        (SeriesKey(FeatureKind.C_TRANSMITTED, "2001:db8::1"), "C_2001%3Adb8%3A%3A1.csv"),
        (SeriesKey(FeatureKind.B_MALFORMED_RECEIVED, "fe80::1%eth0"), "B_fe80%3A%3A1%25eth0.csv"),
        (SeriesKey(FeatureKind.B_MALFORMED_RECEIVED, "a_b.c."), "B_a_b.c..csv"),
    ])
    def test_names(self, key, name):
        assert series_filename(key) == name
        assert series_key(name) == key

    @given(_keys)
    def test_every_key_round_trips_through_its_name(self, key):
        assert series_key(series_filename(key)) == key

    @given(_keys, st.text(":%._~", max_size=5))
    def test_a_name_is_read_only_when_it_is_its_keys_own(self, key, safe):
        # the key's IP encoded with some characters left as they are: a name
        # that decodes to the key, canonical only when nothing was left out
        name = series_filename(key)
        if key.ip is not None:
            name = f"{key.feature.value}_{quote(key.ip, safe=safe)}.csv"
        try:
            got = series_key(name)
        except ValueError:
            assert name != series_filename(key)
        else:
            assert series_filename(got) == name

    @pytest.mark.parametrize("name, message", [
        ("C_10.0.0%2E1.csv", "series C:10.0.0.1 is stored as C_10.0.0.1.csv, not C_10.0.0%2E1.csv"),
        ("C_2001:db8::1.csv",
         "series C:2001:db8::1 is stored as C_2001%3Adb8%3A%3A1.csv, not C_2001:db8::1.csv"),
        ("C_2001%3adb8%3a%3a1.csv",
         "series C:2001:db8::1 is stored as C_2001%3Adb8%3A%3A1.csv, not C_2001%3adb8%3a%3a1.csv"),
        ("C.csv", "feature C requires an ip"),
        ("A_1.2.3.4.csv", "feature A takes no ip"),
        ("X.csv", "unknown feature in series label 'X'"),
    ])
    def test_a_name_that_is_not_canonical_is_rejected(self, name, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            series_key(name)


_FEATURE_SETS = [
    frozenset(c)
    for n in range(len(FeatureKind) + 1)
    for c in itertools.combinations(FeatureKind, n)
]
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _events(draw):
    start, end = sorted(draw(st.lists(st.integers(-(2**62), 2**62), min_size=2, max_size=2)))
    return AnomalyEvent(
        key=draw(st.text()),
        start_minute=start,
        end_minute=end,
        mse=draw(_finite),
        cosine=draw(st.none() | _finite),
        features=draw(st.sampled_from(_FEATURE_SETS)),
        score=draw(st.integers()),
    )


def _report_round_trip(events):
    buf = io.StringIO()
    write_report(buf, events)
    return read_report(io.StringIO(buf.getvalue()))


class TestReportFormat:
    def test_every_feature_set_round_trips(self):
        events = [
            AnomalyEvent("aggregate", 10 * i, 10 * i + 9, 2.5, cosine, features, i)
            for i, features in enumerate(_FEATURE_SETS)
            for cosine in (None, 0.25)
        ]
        assert len(_FEATURE_SETS) == 8
        assert _report_round_trip(events) == events

    @given(st.lists(_events()))
    def test_write_then_read_returns_the_events(self, events):
        got = _report_round_trip(events)
        assert got == events
        assert [(repr(e.mse), repr(e.cosine)) for e in got] == [
            (repr(e.mse), repr(e.cosine)) for e in events
        ]

    def test_report_is_an_indented_list_with_features_sorted(self):
        event = AnomalyEvent("aggregate", 300, 309, 2.5, None,
                             frozenset({FeatureKind.C_TRANSMITTED, FeatureKind.A_TOTAL_PACKETS}), 5)
        buf = io.StringIO()
        write_report(buf, [event])
        assert buf.getvalue().endswith(']\n')
        assert '"features": [\n      "A",\n      "C"\n    ]' in buf.getvalue()

    @pytest.mark.parametrize("text, message", [
        ("{}", "report must be a JSON list of events"),
        ("[1]", "report item 0 is not an object: 1"),
        ('[{"key": "a"}]', "report item 0 lacks key 'start_minute'"),
    ])
    def test_bad_report_names_the_item_and_no_path(self, text, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            read_report(io.StringIO(text))


class TestWindowsFormat:
    def test_rows_follow_the_keys_in_order_with_absent_errors_empty(self):
        flags = {
            SeriesKey(FeatureKind.C_TRANSMITTED, "10.0.0.1"): [
                WindowFlag(48, True, 2.5, 0.125, False),
            ],
            SeriesKey(FeatureKind.A_TOTAL_PACKETS): [
                WindowFlag(24, False, None, None, True), WindowFlag(48, False, 0.0, 1.0, False),
            ],
        }
        buf = io.StringIO()
        write_windows(buf, flags)
        assert buf.getvalue() == (
            "series_key,window_start,flagged,mse,cosine,cold_start\n"
            "A,24,0,,,1\n"
            "A,48,0,0.0,1.0,0\n"
            "C:10.0.0.1,48,1,2.5,0.125,0\n"
        )

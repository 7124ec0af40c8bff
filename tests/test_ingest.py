import io
import random

import pytest

from dnswatch.ingest import (
    DnsEventRecord,
    GroundTruthInterval,
    MAX_SPAN_MINUTES,
    ParseError,
    aggregate_all,
    parse_events,
    parse_ground_truth,
    write_events,
    write_ground_truth,
)
from dnswatch.model import FeatureKind, SeriesKey


def _parse(text):
    return list(parse_events(io.StringIO(text)))


EVENTS_HEADER = "ts_epoch_s,src_ip,dst_ip,direction,malformed\n"


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


class TestParseGroundTruth:
    def test_header_only(self):
        assert parse_ground_truth(io.StringIO("start_minute,end_minute,label\n")) == []

    def test_single_interval(self):
        got = parse_ground_truth(io.StringIO("start_minute,end_minute,label\n5,9,ddos\n"))
        assert got == [GroundTruthInterval(5, 9, "ddos")]

    def test_end_before_start_rejected(self):
        with pytest.raises(ParseError):
            parse_ground_truth(io.StringIO("start_minute,end_minute,label\n100,90,x\n"))

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

    def test_span_bound_is_inclusive(self):
        records = [_rec(7), _rec(7 + MAX_SPAN_MINUTES - 1)]
        total = aggregate_all(records)[SeriesKey(FeatureKind.A_TOTAL_PACKETS)]
        assert len(total) == MAX_SPAN_MINUTES

    def test_span_over_bound_names_both_minutes(self):
        # one minute over the bound
        records = [_rec(7 + MAX_SPAN_MINUTES), _rec(9), _rec(7)]
        with pytest.raises(ParseError, match=f"minutes 7 to {7 + MAX_SPAN_MINUTES}"):
            aggregate_all(records)

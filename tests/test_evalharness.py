import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dnswatch.detector import AGGREGATE_KEY, AnomalyEvent, DetectorConfig
from dnswatch.evalharness import (
    ConfusionCounts,
    SweepRow,
    confusion,
    metrics,
    sweep,
    sweep_rows_to_csv,
)
from dnswatch.ingest import GroundTruthInterval
from dnswatch.model import FeatureKind, MinuteSeries, SeriesKey


def _event(start, end):
    return AnomalyEvent(
        key=AGGREGATE_KEY,
        start_minute=start,
        end_minute=end,
        mse=1.0,
        cosine=0.5,
        features=frozenset({FeatureKind.A_TOTAL_PACKETS, FeatureKind.C_TRANSMITTED}),
        score=5,
    )


class TestConfusion:
    def test_exact_overlap_is_true_positive(self):
        c = confusion([_event(10, 20)], [GroundTruthInterval(10, 20)], (0, 100), 10)
        assert (c.tp, c.fp, c.fn) == (1, 0, 0)

    def test_missed_truth_is_false_negative(self):
        c = confusion([], [GroundTruthInterval(10, 20)], (0, 100), 10)
        assert (c.tp, c.fp, c.fn) == (0, 0, 1)

    def test_detection_without_truth_is_false_positive(self):
        c = confusion([_event(10, 20)], [], (0, 100), 10)
        assert (c.tp, c.fp, c.fn) == (0, 1, 0)

    def test_partial_overlap_counts(self):
        c = confusion([_event(5, 12)], [GroundTruthInterval(10, 20)], (0, 100), 10)
        assert (c.tp, c.fp, c.fn) == (1, 0, 0)

    def test_two_detections_on_one_truth_both_count_but_truth_hit_once(self):
        events = [_event(10, 12), _event(15, 18)]
        c = confusion(events, [GroundTruthInterval(10, 20)], (0, 100), 10)
        assert (c.tp, c.fp, c.fn) == (2, 0, 0)

    def test_true_negative_windows(self):
        c = confusion([_event(0, 9)], [GroundTruthInterval(30, 39)], (0, 100), 10)
        # buckets 0-9 (event) and 30-39 (truth) are busy, eight are quiet
        assert c.tn == 8

    def test_hit_count_plus_fn_equals_truth_count(self):
        truth = [GroundTruthInterval(0, 5), GroundTruthInterval(50, 60), GroundTruthInterval(90, 95)]
        events = [_event(2, 3), _event(4, 6), _event(70, 71)]
        c = confusion(events, truth, (0, 120), 10)
        hit = sum(
            1
            for iv in truth
            if any(e.start_minute <= iv.end_minute and iv.start_minute <= e.end_minute for e in events)
        )
        assert hit + c.fn == len(truth)


def _bucket_walk_tn(events, truth, timeline, window):
    """True negatives by testing every bucket against every interval."""
    start, end = timeline
    spans = [(e.start_minute, e.end_minute) for e in events]
    spans += [(iv.start_minute, iv.end_minute) for iv in truth]
    tn = 0
    for w in range(start, end, window):
        w_end = min(w + window, end) - 1
        tn += not any(a <= w_end and w <= b for a, b in spans)
    return tn


# Intervals short against the timeline, so that they often nest, touch its
# ends or share a bucket.
_spans = st.lists(
    st.tuples(st.integers(-15, 60), st.integers(0, 30)).map(lambda t: (t[0], t[0] + t[1])),
    max_size=8,
)


class TestTrueNegatives:
    @given(
        events=_spans,
        truth=_spans,
        start=st.integers(-5, 10),
        length=st.integers(-5, 50),
        window=st.integers(1, 60),
    )
    # intervals that end at the timeline's start and start at its end, past a
    # short last bucket
    @example(events=[(10, 12)], truth=[(-5, 0)], start=0, length=10, window=4)
    # an interval nested in an earlier one, then one after it inside the first
    @example(events=[(0, 100), (20, 30)], truth=[(50, 60)], start=0, length=200, window=10)
    def test_equal_a_walk_over_every_bucket(self, events, truth, start, length, window):
        # timelines empty or reversed, intervals before, across and after
        # them, and windows wider than the whole timeline
        events = [_event(a, b) for a, b in events]
        truth = [GroundTruthInterval(a, b) for a, b in truth]
        timeline = (start, start + length)
        c = confusion(events, truth, timeline, window)
        assert c.tn == _bucket_walk_tn(events, truth, timeline, window)

    def test_a_timeline_of_a_trillion_minutes_is_counted_from_its_intervals(self):
        end = 10**12
        truth = [GroundTruthInterval(end - 5, end + 100)]
        c = confusion([_event(10, 20), _event(-5, 3)], truth, (0, end), 1)
        assert c.tn == end - 11 - 4 - 5
        assert confusion([], truth, (0, end), 10**6).tn == 10**6 - 1


class TestMetrics:
    def test_perfect(self):
        m = metrics(ConfusionCounts(1, 0, 0, 10))
        assert m["tpr"] == 1.0 and m["f1"] == 1.0 and m["fnr"] == 0.0

    def test_total_miss(self):
        m = metrics(ConfusionCounts(0, 0, 1, 10))
        assert m["tpr"] == 0.0 and m["fnr"] == 1.0 and m["f1"] == 0.0

    def test_hand_arithmetic(self):
        m = metrics(ConfusionCounts(2, 1, 1, 10))
        assert m["precision"] == pytest.approx(2 / 3)
        assert m["tpr"] == pytest.approx(2 / 3)
        assert m["f1"] == pytest.approx(2 / 3)

    def test_nothing_flagged_precision_is_one(self):
        m = metrics(ConfusionCounts(0, 0, 0, 10))
        assert m["precision"] == 1.0 and m["tpr"] == 0.0

    @given(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20), st.integers(0, 20))
    def test_metric_ranges(self, tp, fp, fn, tn):
        m = metrics(ConfusionCounts(tp, fp, fn, tn))
        for value in m.values():
            assert 0.0 <= value <= 1.0
        if tp + fn > 0:
            assert m["tpr"] + m["fnr"] == pytest.approx(1.0)


def _make_dataset():
    # flat series with a sharp burst; one truth interval at the burst
    key = SeriesKey(FeatureKind.A_TOTAL_PACKETS)
    values = [50.0] * 400
    for m in range(200, 215):
        values[m] = 600.0
    key_c = SeriesKey(FeatureKind.C_TRANSMITTED, "10.0.0.1")
    series = {
        key: MinuteSeries(0, tuple(values)),
        key_c: MinuteSeries(0, tuple(values)),
    }
    truth = [GroundTruthInterval(200, 214, "burst")]
    return series, truth


class TestSweep:
    def test_single_cell_row_shape_and_order(self):
        series, truth = _make_dataset()
        cfg = DetectorConfig(k=12, lookback=120, stride=12)
        rows = sweep(series, truth, cfg, [120, 240], [4, 5], methods=("asm",))
        assert [(r.method, r.lookback_min, r.score_gt) for r in rows] == [
            ("asm", 120, 4),
            ("asm", 120, 5),
            ("asm", 240, 4),
            ("asm", 240, 5),
        ]

    def test_detects_burst(self):
        series, truth = _make_dataset()
        cfg = DetectorConfig(k=12, lookback=120, stride=12)
        rows = sweep(series, truth, cfg, [120], [4], methods=("asm", "ar"))
        # the burst must be found by both methods; precision is not asserted
        # because at this tiny scale the burst lingers in the lookback and
        # can contaminate predictions just after it ends
        for row in rows:
            assert row.tpr == 1.0 and row.fnr == 0.0, row

    def test_deterministic(self):
        series, truth = _make_dataset()
        cfg = DetectorConfig(k=12, lookback=120, stride=12)
        a = sweep(series, truth, cfg, [120], [4, 5])
        b = sweep(series, truth, cfg, [120], [4, 5])
        assert a == b
        assert sweep_rows_to_csv(a) == sweep_rows_to_csv(b)

    def test_csv_header(self):
        series, truth = _make_dataset()
        cfg = DetectorConfig(k=12, lookback=120, stride=12)
        text = sweep_rows_to_csv(sweep(series, truth, cfg, [120], [4], methods=("asm",)))
        assert text.splitlines()[0] == (
            "method,lookback_min,score_gt,tpr,fnr,precision,f1,mean_fp,mean_fn"
        )

    def test_csv_row_text(self):
        # The method bare, the int columns without ".0", every float by repr.
        row = SweepRow("asm", 1440, 4, 1.0, 0.0, 2 / 3, 0.8, 1 / 3, 0.0)
        assert sweep_rows_to_csv([row]).splitlines()[1] == (
            "asm,1440,4,1.0,0.0,0.6666666666666666,0.8,0.3333333333333333,0.0"
        )

    def test_unknown_method_rejected(self):
        series, truth = _make_dataset()
        cfg = DetectorConfig(k=12, lookback=120, stride=12)
        with pytest.raises(ValueError):
            sweep(series, truth, cfg, [120], [4], methods=("lasso",))

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnswatch import detector
from dnswatch.detector import (
    DetectorConfig,
    Window,
    WindowFlag,
    _predict_asm,
    compute_thresholds,
    cosine,
    detect_series,
    mse,
    score_aggregate,
)
from dnswatch.ingest import aggregate_all
from dnswatch.matching import Tolerance, scan, search
from dnswatch.model import FeatureKind, MinuteSeries, SeriesKey
from dnswatch.predictor import predict
from dnswatch.synth import AttackSpec, SynthProfile, iter_events


def _series(values, start=0):
    return MinuteSeries(SeriesKey(FeatureKind.A_TOTAL_PACKETS), start, tuple(values))


class TestMse:
    def test_identity(self):
        assert mse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_values(self):
        assert mse([1, 2], [3, 4]) == 4.0
        assert mse([0], [3]) == 9.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse([1, 2], [1])
        with pytest.raises(ValueError):
            mse([], [])

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=20))
    def test_non_negative_and_zero_iff_equal(self, values):
        assert mse(values, values) == 0.0
        shifted = [v + 1 for v in values]
        assert mse(values, shifted) > 0.0


class TestCosine:
    def test_parallel(self):
        assert cosine([1.0, 2.0], [1.0, 2.0]) == 1.0

    def test_orthogonal(self):
        assert cosine([1, 0], [0, 1]) == 0.0

    def test_scale_invariance(self):
        assert cosine([1, 2], [2, 4]) == 1.0

    def test_zero_observed_returns_zero(self):
        assert cosine([1, 2], [0, 0]) == 0.0

    def test_zero_prediction_rejected(self):
        with pytest.raises(ValueError):
            cosine([0, 0], [1, 2])

    @given(st.data())
    def test_range_for_non_negative_inputs(self, data):
        n = data.draw(st.integers(1, 12))
        pred = data.draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
        obs = data.draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
        if all(p == 0 for p in pred):
            pred[0] = 1
        value = cosine(pred, obs)
        assert -1e-12 <= value <= 1.0 + 1e-12


class TestComputeThresholds:
    def test_log_squared(self):
        thr = compute_thresholds(1000.0, [100.0] * 10, 0.0)
        assert thr.error_threshold == pytest.approx(9.0, abs=1e-12)
        assert thr.alpha == pytest.approx(90.0, abs=1e-9)
        assert thr.beta == pytest.approx(900.0, abs=1e-9)

    def test_degenerate_clamp(self):
        thr = compute_thresholds(1.0, [5.0], 0.0)
        assert thr.error_threshold == 1.0
        thr0 = compute_thresholds(0.0, [5.0], 0.1)
        assert thr0.error_threshold == 1.0

    def test_epsilon_enters_base_and_alpha(self):
        thr = compute_thresholds(1000.0, [100.0] * 10, 0.5)
        import math

        expected = (math.log(1000) / math.log(9.5)) ** 2
        assert thr.error_threshold == pytest.approx(expected)
        assert thr.alpha == pytest.approx(expected * 1.5 * 10.0)
        assert thr.beta == pytest.approx(expected * 100.0)

    def test_empty_pattern(self):
        with pytest.raises(ValueError):
            compute_thresholds(10.0, [], 0.1)

    def test_pattern_mean_is_a_left_fold_on_every_python(self):
        # The builtin sum() compensates from Python 3.12 on and would give
        # ...839p-5 here; a left fold gives the same bits on every version.
        thr = compute_thresholds(50.0, [0.1] * 10, 0.1)
        assert thr.alpha.hex() == "0x1.0664d02c3f838p-5"


class TestDetectSeries:
    def test_constant_series_never_flags(self):
        cfg = DetectorConfig(k=6, lookback=24, stride=3)
        flags = detect_series(_series([100.0] * 120), cfg)
        assert flags
        assert not any(f.flagged for f in flags)

    def test_all_zero_series_never_flags(self):
        cfg = DetectorConfig(k=6, lookback=24, stride=3)
        flags = detect_series(_series([0.0] * 120), cfg)
        assert flags
        assert not any(f.flagged for f in flags)

    def test_too_short_series_rejected(self):
        cfg = DetectorConfig(k=24)
        with pytest.raises(ValueError, match="49"):
            detect_series(_series([1.0] * 48), cfg)

    def test_synthetic_spike_is_flagged(self):
        profile = SynthProfile(
            days=2,
            high_rate=2000.0,
            low_rate=750.0,
            noise_fraction=0.02,
            attacks=(AttackSpec(2000, 30, 10.0),),
            seed=5,
        )
        series = aggregate_all(iter_events(profile))
        total = series[SeriesKey(FeatureKind.A_TOTAL_PACKETS)]
        cfg = DetectorConfig(lookback=1440)
        flags = detect_series(total, cfg)
        spike = [f for f in flags if f.flagged and f.window_start < 2000 + 30 + cfg.h]
        spike = [f for f in spike if f.window_start + cfg.h > 2000]
        assert spike, "no flagged window overlaps the injected attack"
        off_attack = [
            f for f in flags if f.flagged and not (2000 - cfg.h < f.window_start < 2030)
        ]
        assert not off_attack, f"false flags at {[f.window_start for f in off_attack]}"

    def test_window_starts_follow_stride_grid(self):
        cfg = DetectorConfig(k=6, h=4, lookback=12, stride=5)
        flags = detect_series(_series([3.0] * 60, start=1000), cfg)
        starts = [f.window_start for f in flags]
        assert starts == [1000 + t for t in range(6, 60 - 4 + 1, 5)]

    def test_lookback_beyond_series_length_changes_nothing(self):
        values = [float((i % 11) + 1) for i in range(200)]
        cfg1 = DetectorConfig(k=6, lookback=300, stride=3)
        cfg2 = DetectorConfig(k=6, lookback=999, stride=3)
        assert detect_series(_series(values), cfg1) == detect_series(_series(values), cfg2)

    def test_decision_requires_both_measures(self):
        # decision-level check of the conjunction and its monotonicity
        def decide(m, c, err_thr, cos_thr):
            return m > err_thr and c < cos_thr

        assert decide(10.0, 0.5, 1.0, 0.9)
        assert not decide(0.5, 0.5, 1.0, 0.9)  # similar error small
        assert not decide(10.0, 0.95, 1.0, 0.9)  # dissimilar but correlated
        for m, c in [(0.5, 0.5), (10.0, 0.95), (10.0, 0.5), (0.0, 1.0)]:
            assert decide(m, c, 1.0, 0.9) <= decide(m, c, 0.5, 0.9)
            assert decide(m, c, 1.0, 0.9) <= decide(m, c, 1.0, 0.99)


def _hex(pred):
    return None if pred is None else [float.hex(v) for v in pred]


# Zero runs of mixed signed zeros between short bursts of non-zero values,
# non-integers and the smallest subnormal among them.
_SPARSE = st.lists(
    st.tuples(
        st.lists(st.sampled_from([0.0, -0.0]), max_size=90),
        st.lists(
            st.one_of(
                st.sampled_from([5e-324, 0.1, 1.0, 2.5]),
                st.floats(min_value=5e-324, max_value=1e4),
            ),
            min_size=1,
            max_size=3,
        ),
    ),
    min_size=1,
    max_size=10,
).map(lambda segments: tuple(v for zeros, burst in segments for v in zeros + burst))


class TestAllZeroPatterns:
    @settings(max_examples=150)
    @given(values=_SPARSE, data=st.data())
    def test_fast_path_matches_search_and_predict(self, values, data):
        n = len(values)
        if n < 3:
            values, n = values + (0.0, 0.0), n + 2
        k = data.draw(st.integers(1, min(40, n - 2)), label="k")
        h = data.draw(st.integers(1, min(40, n - 1 - k)), label="h")
        lookback = data.draw(st.integers(k + h, n + 10), label="lookback")
        cfg = DetectorConfig(k=k, h=h, lookback=lookback)
        windows = []
        for t in range(k, n - h + 1):
            pattern = values[t - k : t]
            if any(pattern):
                continue
            lo = max(0, t - lookback)
            windows.append(Window(t, lo, compute_thresholds(max(values[:t]), pattern, cfg.epsilon)))
        with mock.patch.object(detector, "scan", wraps=scan) as spy:
            predictions = _predict_asm(values, cfg, windows)
        for (t, lo, thr), got in zip(windows, predictions):
            pattern = values[t - k : t]
            history = values[lo:t]
            starts = search(history, pattern, Tolerance(thr.alpha, thr.beta))
            want = predict(history, starts, k, h).values
            assert _hex(got) == _hex(want), (lo, t)
        assert spy.call_count == 0

    def test_subnormal_pattern_mean_still_searches(self):
        # mean(5e-324, 0) rounds to 0, so alpha == beta == 0 although the
        # pattern is not all zero: only the scan finds its exact matches.
        values = (5e-324, 0.0, 1.0, 2.0, 5e-324, 0.0, 3.0, 4.0, 5e-324, 0.0, 9.0, 9.0)
        cfg = DetectorConfig(k=2, h=2, lookback=10)
        pattern = values[8:10]
        thr = compute_thresholds(max(values[:10]), pattern, cfg.epsilon)
        assert thr.alpha == 0.0 and thr.beta == 0.0 and any(pattern)
        with mock.patch.object(detector, "scan", wraps=scan) as spy:
            assert _predict_asm(values, cfg, [Window(10, 0, thr)])[0] == (2.0, 3.0)
        assert spy.call_count == 1


class TestScannedPatterns:
    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_in_place_scan_matches_search_and_predict(self, seed, data):
        # Counts from a few levels, so that matches are common, over series
        # long enough for the scan to skip; h may exceed k and the lookback.
        rng = random.Random(seed)
        levels = [float(rng.randint(0, 30)) for _ in range(rng.randint(1, 6))]
        n = data.draw(st.integers(40, 1500), label="n")
        values = tuple(rng.choice(levels) for _ in range(n))
        k = data.draw(st.integers(1, 30), label="k")
        h = data.draw(st.integers(1, 40), label="h")
        if n < k + h + 1:
            values += (1.0,) * (k + h + 1 - n)
        lookback = data.draw(st.integers(k + h, 1200), label="lookback")
        cfg = DetectorConfig(k=k, h=h, lookback=lookback)
        windows = [w for w in detector._plan_windows(_series(values), cfg)
                   if any(values[w.t - k : w.t])]
        for (t, lo, thr), got in zip(windows, _predict_asm(values, cfg, windows)):
            history = values[lo:t]
            starts = search(history, values[t - k : t], Tolerance(thr.alpha, thr.beta))
            assert _hex(got) == _hex(predict(history, starts, k, h).values), (lo, t)


class TestDetectorConfig:
    def test_h_defaults_to_k_and_stride_to_h(self):
        cfg = DetectorConfig(k=30, lookback=120)
        assert cfg.h == 30
        assert cfg.stride == 30

    def test_lookback_floor(self):
        with pytest.raises(ValueError):
            DetectorConfig(k=24, h=24, lookback=47)

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            DetectorConfig(epsilon=1.0)
        with pytest.raises(ValueError):
            DetectorConfig(epsilon=-0.1)


def _flag(start, flagged=True, m=5.0, c=0.1):
    return WindowFlag(start, flagged, m, c, False)


class TestScoreAggregate:
    def test_a_and_c_exceed_threshold_four(self):
        flags = {
            SeriesKey(FeatureKind.A_TOTAL_PACKETS): [_flag(100)],
            SeriesKey(FeatureKind.C_TRANSMITTED, "1.1.1.1"): [_flag(100)],
        }
        events = score_aggregate(flags, h=10, score_threshold=4)
        assert len(events) == 1
        ev = events[0]
        assert ev.score == 5
        assert ev.features == {FeatureKind.A_TOTAL_PACKETS, FeatureKind.C_TRANSMITTED}
        assert (ev.start_minute, ev.end_minute) == (100, 109)

    def test_a_and_b_stay_below_threshold_four(self):
        flags = {
            SeriesKey(FeatureKind.A_TOTAL_PACKETS): [_flag(100)],
            SeriesKey(FeatureKind.B_MALFORMED_RECEIVED, "1.1.1.1"): [_flag(100)],
        }
        assert score_aggregate(flags, h=10, score_threshold=4) == []

    def test_all_features_score_seven(self):
        flags = {
            SeriesKey(FeatureKind.A_TOTAL_PACKETS): [_flag(50)],
            SeriesKey(FeatureKind.B_MALFORMED_RECEIVED, "1.1.1.1"): [_flag(50)],
            SeriesKey(FeatureKind.C_TRANSMITTED, "2.2.2.2"): [_flag(50)],
        }
        events = score_aggregate(flags, h=5, score_threshold=4)
        assert len(events) == 1
        assert events[0].score == 7

    def test_events_are_disjoint_sorted_maximal_runs(self):
        key_a = SeriesKey(FeatureKind.A_TOTAL_PACKETS)
        key_c = SeriesKey(FeatureKind.C_TRANSMITTED, "1.1.1.1")
        flags = {
            key_a: [_flag(0), _flag(5), _flag(40)],
            key_c: [_flag(0), _flag(5), _flag(40)],
        }
        events = score_aggregate(flags, h=5, score_threshold=4)
        # consecutive hot windows merge into one event; a bare C window
        # (score 4, not above the threshold) would not qualify on its own
        assert [(e.start_minute, e.end_minute) for e in events] == [(0, 9), (40, 44)]
        only_c = score_aggregate({key_c: [_flag(70)]}, h=5, score_threshold=4)
        assert only_c == []

    def test_unflagged_windows_are_ignored(self):
        flags = {
            SeriesKey(FeatureKind.A_TOTAL_PACKETS): [_flag(0, flagged=False)],
            SeriesKey(FeatureKind.C_TRANSMITTED, "1.1.1.1"): [_flag(0)],
        }
        assert score_aggregate(flags, h=5, score_threshold=4) == []

    def test_cold_start_flags_aggregate_without_cosine(self):
        flags = {
            SeriesKey(FeatureKind.A_TOTAL_PACKETS): [WindowFlag(10, True, None, None, True)],
            SeriesKey(FeatureKind.C_TRANSMITTED, "1.1.1.1"): [
                WindowFlag(10, True, None, None, True)
            ],
        }
        events = score_aggregate(flags, h=3, score_threshold=4)
        assert len(events) == 1
        assert events[0].mse == 0.0
        assert events[0].cosine is None

    def test_event_carries_worst_measures(self):
        flags = {
            SeriesKey(FeatureKind.A_TOTAL_PACKETS): [_flag(0, m=2.0, c=0.8)],
            SeriesKey(FeatureKind.C_TRANSMITTED, "1.1.1.1"): [_flag(0, m=9.0, c=0.3)],
        }
        events = score_aggregate(flags, h=4, score_threshold=4)
        assert events[0].mse == 9.0
        assert events[0].cosine == 0.3

import fcntl
import math
import os
import random
import time
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnswatch import detector, matching
from dnswatch.baseline_ar import detect_series_ar
from dnswatch.detector import (
    COLD_START,
    DetectorConfig,
    Window,
    WindowFlag,
    _predict_asm,
    cold_start_decision,
    compute_thresholds,
    cosine,
    detect_each,
    detect_series,
    mse,
    predict,
    score_aggregate,
)
from dnswatch.ingest import aggregate_all
from dnswatch.matching import RankIndex, Tolerance, scan, search
from dnswatch.model import MAX_COUNT, FeatureKind, MinuteSeries, SeriesKey
from dnswatch.synth import AttackSpec, SynthProfile, iter_events


def _series(values, start=0):
    return MinuteSeries(start, tuple(values))


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

    def test_zero_prediction_is_dissimilar(self):
        assert cosine([0, 0], [1, 2]) == 0.0
        assert cosine([0.0, -0.0], [0, 0]) == 0.0

    def test_underflowing_norms_are_dissimilar(self):
        # the squared norm, or the product of both, underflows to 0: no
        # measurable direction, where dividing by it would raise
        assert cosine([1e-170] * 3, [5.0] * 3) == 0.0
        assert cosine([1e-200], [1e-200]) == 0.0
        assert cosine([5.0] * 3, [1e-170] * 3) == 0.0
        assert cosine([1e-100] * 2, [1e-100] * 2) == 0.0  # each norm > 0, the product not

    @given(st.data())
    def test_range_for_non_negative_inputs(self, data):
        n = data.draw(st.integers(1, 12))
        pred = data.draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
        obs = data.draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
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


class TestPredict:
    def test_empty_match_set_is_cold_start(self):
        assert predict([1, 2, 3], [], 1, 1).values is None
        assert predict([1, 2, 3], [], 1, 1) == COLD_START

    def test_single_contributor_copies_following_window(self):
        text = [9.0, 9.0, 1.0, 2.0, 3.0]
        pred = predict(text, [0], 2, 3)
        assert pred.values == (1.0, 2.0, 3.0)
        assert pred.contributor_count == 1

    def test_hand_average(self):
        pred = predict([1, 2, 3, 1, 2, 4], [0, 3], 2, 1)
        assert pred.values == (3.5,)
        assert pred.contributor_count == 2

    def test_truncated_follow_up_windows_are_excluded(self):
        # the match at 4 has no complete following window
        pred = predict([1, 2, 7, 8, 1, 2], [0, 4], 2, 2)
        assert pred.values == (7.0, 8.0)
        assert pred.contributor_count == 1

    def test_all_truncated_is_cold_start(self):
        # the only match is the pattern's own occurrence at the tail
        assert predict([1, 2, 1, 2], [2], 2, 1).values is None

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            predict([1, 2], [], 0, 1)
        with pytest.raises(ValueError):
            predict([1, 2], [], 1, 0)

    @given(st.data())
    def test_averaging_bounds_and_permutation_invariance(self, data):
        text = data.draw(st.lists(st.integers(0, 50), min_size=6, max_size=60))
        k = data.draw(st.integers(1, 3))
        h = data.draw(st.integers(1, 3))
        max_start = len(text) - k - h
        starts = data.draw(
            st.lists(st.integers(0, max(max_start, 0)), min_size=1, max_size=6, unique=True)
        )
        pred = predict(text, starts, k, h)
        shuffled = data.draw(st.permutations(starts))
        assert predict(text, list(shuffled), k, h) == pred
        if pred.values is not None:
            contributors = [s for s in starts if s + k + h <= len(text)]
            for i, value in enumerate(pred.values):
                column = [text[s + k + i] for s in contributors]
                assert min(column) <= value <= max(column)


class TestColdStartDecision:
    def test_zero_observation_never_flags(self):
        assert cold_start_decision([50.0] * 4, [0.0] * 4, 10.0) is False
        assert cold_start_decision([0.0] * 4, [0.0] * 4, 10.0) is False

    def test_order_of_magnitude_rule(self):
        assert cold_start_decision([50.0] * 5, [500.0] * 5, 10.0) is True
        assert cold_start_decision([50.0] * 5, [100.0] * 5, 10.0) is False

    def test_zero_pattern_floor(self):
        # denominator floors at 1, so tiny observations stay quiet
        assert cold_start_decision([0.0] * 5, [5.0] * 5, 10.0) is False
        assert cold_start_decision([0.0] * 5, [10.0] * 5, 10.0) is True

    def test_means_are_left_folds_on_every_python(self):
        # A left fold of ten 0.1s is just below 1 and of ten 1.1s just below
        # 11; the builtin sum() compensates from Python 3.12 on and would
        # give 1 and 11, turning both answers round.
        assert cold_start_decision([0.0], [0.1] * 10, 0.1) is False
        assert cold_start_decision([1.1] * 10, [1.0999999999999999], 1.0) is True

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            cold_start_decision([], [1.0], 10.0)
        with pytest.raises(ValueError):
            cold_start_decision([1.0], [], 10.0)
        for factor in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="factor"):
                cold_start_decision([1.0], [1.0], factor)

    @given(
        st.lists(st.integers(0, 100), min_size=1, max_size=20),
        st.integers(0, 500),
        st.integers(1, 20),
    )
    def test_monotone_in_observed_mean(self, pattern, base, bump):
        observed_low = [float(base)] * 4
        observed_high = [float(base + bump)] * 4
        low = cold_start_decision(pattern, observed_low, 10.0)
        high = cold_start_decision(pattern, observed_high, 10.0)
        assert high or not low


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

    def test_all_zero_observed_window_never_flags(self):
        # the prediction is far from the silent window and their cosine is 0
        values = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0] * 10 + [0.0] * 6
        last = detect_series(_series(values), DetectorConfig(k=6, lookback=48))[-1]
        assert (last.window_start, last.cold_start, last.cosine) == (60, False, 0.0)
        assert last.mse > 100.0 and not last.flagged

    def test_too_short_series_rejected(self):
        cfg = DetectorConfig(k=24)
        with pytest.raises(ValueError, match="49"):
            detect_series(_series([1.0] * 48), cfg)

    # detect names a failure by its first series, which holds only if a
    # series long enough for one window raises nothing, on either method.
    # Counts near 2**53 make AR fit windows alone once sum(y**2) passes it.
    @pytest.mark.parametrize("detect", [detect_series, detect_series_ar])
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 24),
        st.integers(1, 24),
        st.sampled_from(["alphabet", "zero", "constant", "spiky"]),
        st.data(),
    )
    def test_a_series_long_enough_for_a_window_raises_nothing(self, detect, k, h, shape, data):
        cfg = DetectorConfig(
            k=k, h=h, lookback=data.draw(st.integers(k + h, 160)), stride=data.draw(st.integers(1, h))
        )
        n = data.draw(st.integers(k + h + 1, k + h + 160))
        count = st.integers(0, 9) | st.integers(0, int(MAX_COUNT) - 1) | st.just(int(MAX_COUNT) - 1)
        if shape == "alphabet":
            values = data.draw(st.lists(st.sampled_from(data.draw(st.lists(count, min_size=1, max_size=3))),
                                        min_size=n, max_size=n))
        elif shape == "spiky":
            values = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
            for _ in range(data.draw(st.integers(1, 4))):
                values[data.draw(st.integers(0, n - 1))] = data.draw(count)
        else:
            values = [0 if shape == "zero" else data.draw(count)] * n
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flags = detect(_series(map(float, values)), cfg)
        assert len(flags) == len(range(k, n - h + 1, cfg.stride))

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


class TestPlanOracle:
    # The threshold of window t sees the running maximum of the minutes
    # before t only: the observed minute t is not yet known.
    @settings(max_examples=200)
    @given(
        values=st.lists(
            st.one_of(st.integers(0, 2000).map(float), st.sampled_from([0.0, -0.0, 9.0, 10.0])),
            min_size=3,
            max_size=120,
        ),
        stride_vs_k=st.sampled_from(["below", "at", "above"]),
        data=st.data(),
    )
    def test_thresholds_follow_the_minutes_before_each_window(self, values, stride_vs_k, data):
        n = len(values)
        k = data.draw(st.integers(2 if stride_vs_k == "below" else 1, max(2, (n - 1) // 2)), label="k")
        h = data.draw(st.integers(1, 10), label="h")
        if n < k + h + 1:
            values += [1.0] * (k + h + 1 - n)
            n = len(values)
        if stride_vs_k == "below":
            stride = data.draw(st.integers(1, k - 1), label="stride")
        elif stride_vs_k == "above":
            stride = data.draw(st.integers(k + 1, 3 * k), label="stride")
        else:
            stride = k
        lookback = data.draw(st.integers(k + h, n + 10), label="lookback")
        epsilon = data.draw(st.sampled_from([0.0, 0.1, 0.5]), label="epsilon")
        cfg = DetectorConfig(k=k, h=h, lookback=lookback, epsilon=epsilon, stride=stride)
        windows = detector._plan_windows(_series(values), cfg)
        assert [w.t for w in windows] == list(range(k, n - h + 1, stride))
        for t, lo, thr in windows:
            want = compute_thresholds(max([0.0, *values[:t]]), values[t - k : t], epsilon)
            assert lo == max(0, t - lookback)
            got = (thr.error_threshold, thr.alpha, thr.beta)
            assert _hex(got) == _hex((want.error_threshold, want.alpha, want.beta)), t


def _hex(pred):
    return None if pred is None else [float.hex(v) for v in pred]


# Zero runs of mixed signed zeros between short bursts of non-zero counts,
# some near 2**52 so that their sums round and the order of summation shows.
_SPARSE = st.lists(
    st.tuples(
        st.lists(st.sampled_from([0.0, -0.0]), max_size=90),
        st.lists(
            st.one_of(
                st.sampled_from([1.0, 2.0, 2.0**52 - 1, 2.0**52 + 1]),
                st.integers(1, 2**53 - 1).map(float),
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


class TestRankIndexOwner:
    def _run(self, lookback):
        rng = random.Random(5)
        values = tuple(float(rng.choice([0, 3, 4, 9, 30])) for _ in range(2000))
        cfg = DetectorConfig(lookback=lookback)
        windows = detector._plan_windows(_series(values), cfg)
        made = []

        def index_of(text):
            made.append(RankIndex(text))
            return made[-1]

        # Every indexed scan of a long span first asks the index whether a
        # pattern tail ends in it; in this noise none does.
        with mock.patch.object(detector, "RankIndex", index_of), mock.patch.object(
            matching, "_tail_ends", wraps=matching._tail_ends
        ) as tails:
            _predict_asm(values, cfg, windows)
        assert len(made) == 1 and made[0].values is values
        return made[0], tails

    def test_long_histories_skip_through_the_series_index(self):
        index, tails = self._run(1440)
        assert tails.call_count > 0
        assert all(call.args[0] is index for call in tails.call_args_list)

    def test_short_histories_build_no_codes(self):
        index, tails = self._run(58)
        assert tails.call_count == 0
        assert "codes" not in vars(index) and "levels" not in vars(index)


def _outcomes_hex(flags_each):
    """Each series' flags with their floats in hex."""
    return [
        [(f.window_start, f.flagged, f.mse is not None and f.mse.hex(),
          f.cosine is not None and f.cosine.hex(), f.cold_start) for f in flags]
        for flags in flags_each
    ]


def _paced(detect, seconds):
    """``detect`` after a pause, so that the processes take turns at the queue."""

    def paced(series, cfg):
        time.sleep(seconds)
        return detect(series, cfg)

    return paced


_EACH_CFG = DetectorConfig(k=8, lookback=96)


def _each_series(count):
    # a daily shape, noise and rare spikes: the series differ, so each index
    # has outcomes of its own, and both matched and cold-start windows flag
    rng = random.Random(count)
    return [
        _series(float(5 * i + t % 12 + rng.randrange(3) + 40 * (rng.random() < 0.02)) for t in range(300))
        for i in range(count)
    ]


class TestDetectEach:
    @pytest.fixture(autouse=True)
    def _no_process_or_fd_left(self):
        fds = sorted(os.listdir("/proc/self/fd"))
        yield
        assert sorted(os.listdir("/proc/self/fd")) == fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _cpus(monkeypatch, count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    @pytest.mark.parametrize("detect", [detect_series, detect_series_ar])
    @pytest.mark.parametrize("cpus, count", [
        (1, 7), (2, 1), (3, 1), (3, 2), (2, 7), (3, 7),
    ], ids=["one-cpu", "one-series-of-two-cpus", "one-series-of-three-cpus",
            "fewer-series-than-cpus", "more-series-than-two-cpus", "more-series-than-three-cpus"])
    def test_outcomes_are_those_of_the_serial_loop(self, monkeypatch, detect, cpus, count):
        series = _each_series(count)
        want = [detect(s, _EACH_CFG) for s in series]
        self._cpus(monkeypatch, cpus)
        got = detect_each(series, _paced(detect, 0.01), _EACH_CFG)
        assert _outcomes_hex(got) == _outcomes_hex(want)

    @pytest.mark.parametrize("detect", [detect_series, detect_series_ar])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_an_error_that_detect_raises_is_raised(self, monkeypatch, detect, cpus):
        series = _each_series(7)
        series[4] = _series([1.0] * 9)
        self._cpus(monkeypatch, cpus)
        with pytest.raises(ValueError, match="got 9"):
            detect_each(series, _paced(detect, 0.01), _EACH_CFG)

    def test_a_series_whose_worker_left_is_detected_by_the_parent(self, monkeypatch):
        series = _each_series(7)
        parent = os.getpid()

        def leaving(s, cfg):
            if os.getpid() != parent:
                os._exit(3)  # on the first series a worker claims
            return detect_series(s, cfg)

        self._cpus(monkeypatch, 3)
        got = detect_each(series, _paced(leaving, 0.01), _EACH_CFG)
        assert _outcomes_hex(got) == _outcomes_hex([detect_series(s, _EACH_CFG) for s in series])

    @pytest.mark.parametrize("small_pipes", [False, True], ids=["64-KiB-pipes", "4-KiB-pipes"])
    def test_more_series_than_claims_are_claimed_in_blocks(self, monkeypatch, small_pipes):
        # 16,385 series make blocks of two; a pipe of 4 KiB holds 1,024 of
        # their claims, and the parent detects the series of the rest
        series = [_series([float(i)]) for i in range(detector._MAX_CLAIMS + 1)]

        def first_minute(s, cfg):
            return [WindowFlag(s.start_minute, bool(s.values[0] % 2), s.values[0], None, True)]

        if small_pipes:
            pipe = os.pipe

            def small_pipe():
                fds = pipe()
                fcntl.fcntl(fds[1], fcntl.F_SETPIPE_SZ, 4096)
                return fds

            monkeypatch.setattr(os, "pipe", small_pipe)
        self._cpus(monkeypatch, 2)
        got = detect_each(series, first_minute, _EACH_CFG)
        assert got == [first_minute(s, _EACH_CFG) for s in series]

    def test_a_worker_whose_parent_has_gone_claims_nothing(self):
        queue, feed = os.pipe()
        try:
            os.write(feed, b"".join(j.to_bytes(4, "little") for j in range(3)))
            os.close(feed)
            assert list(detector._claims(queue, 5, 2, parent=os.getppid() + 1)) == []
            assert list(detector._claims(queue, 5, 2, parent=os.getppid())) == [0, 1, 2, 3, 4]
        finally:
            os.close(queue)

    def test_the_parent_forks_with_one_thread(self, monkeypatch):
        # Python 3.12 warns about a fork while other threads run: numpy's
        # BLAS threads stop at a fork, and dnswatch starts none
        def threads():
            with open("/proc/self/status") as fh:
                return next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))

        fork = os.fork
        counts = []

        def counting_fork():
            pid = fork()
            if pid:
                counts.append(threads())
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        self._cpus(monkeypatch, 3)
        series = _each_series(3)
        want = [detect_series_ar(s, _EACH_CFG) for s in series]  # BLAS has started
        assert _outcomes_hex(detect_each(series, detect_series_ar, _EACH_CFG)) == _outcomes_hex(want)
        assert counts == [1, 1]

    def test_one_cpu_forks_nothing(self, monkeypatch):
        def fork():
            raise AssertionError("forked with one CPU")

        monkeypatch.setattr(os, "fork", fork)
        self._cpus(monkeypatch, 1)
        series = _each_series(3)
        got = detect_each(series, detect_series, _EACH_CFG)
        assert _outcomes_hex(got) == _outcomes_hex([detect_series(s, _EACH_CFG) for s in series])


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

    @pytest.mark.parametrize("factor", [0.0, -1.0, math.nan, math.inf])
    def test_cold_start_factor_must_be_finite_and_positive(self, factor):
        # A nan or infinite factor would never flag a cold-start window.
        with pytest.raises(ValueError, match="cold_start_factor"):
            DetectorConfig(cold_start_factor=factor)


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


_AGGREGATE_KEYS = (
    SeriesKey(FeatureKind.A_TOTAL_PACKETS),
    SeriesKey(FeatureKind.B_MALFORMED_RECEIVED, "1.1.1.1"),
    SeriesKey(FeatureKind.B_MALFORMED_RECEIVED, "2.2.2.2"),
    SeriesKey(FeatureKind.C_TRANSMITTED, "1.1.1.1"),
    SeriesKey(FeatureKind.C_TRANSMITTED, "2.2.2.2"),
)


@st.composite
def _window_flag(draw):
    start = draw(st.integers(0, 16))  # narrow, so runs often touch or leave one-minute gaps
    flagged = draw(st.booleans())
    if draw(st.booleans()):
        return WindowFlag(start, flagged, None, None, True)
    m = draw(st.sampled_from([0.0, 5e-324, 3.0]) | st.floats(0.0, 1e6))
    c = draw(st.sampled_from([1.0000000000000002, 1.0, 0.0, -0.0]) | st.floats(-1.0, 1.0))
    return WindowFlag(start, flagged, m, c, False)


def _aggregate_by_minute(flags_by_key, h, score_threshold):
    """score_aggregate brute force: every minute asks every window whether it covers it."""
    keys = sorted(flags_by_key)
    flagged = [(key.feature, f) for key in keys for f in flags_by_key[key] if f.flagged]
    if not flagged:
        return []

    def covering(minute):
        return [(feat, f) for feat, f in flagged if f.window_start <= minute < f.window_start + h]

    first = min(f.window_start for _, f in flagged)
    last = max(f.window_start for _, f in flagged) + h
    hot = [
        m for m in range(first, last)
        if sum(feat.score for feat in {feat for feat, _ in covering(m)}) > score_threshold
    ]
    runs: list[list[int]] = []
    for m in hot:
        if runs and runs[-1][-1] == m - 1:
            runs[-1].append(m)
        else:
            runs.append([m])
    events = []
    for run in runs:
        features = set()
        mses, coses = [], []
        for m in run:
            here = covering(m)
            features |= {feat for feat, _ in here}
            minute_mses = [f.mse for _, f in here if f.mse is not None]
            minute_coses = [f.cosine for _, f in here if f.cosine is not None]
            if minute_mses:
                mses.append(max([0.0] + minute_mses))
            if minute_coses:
                coses.append(min([1.0] + minute_coses))  # a cosine past 1 reads as 1
        events.append((
            "aggregate", run[0], run[-1],
            max(mses).hex() if mses else (0.0).hex(),
            min(coses).hex() if coses else None,
            frozenset(features), sum(feat.score for feat in features),
        ))
    return events


class TestScoreAggregateOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(_AGGREGATE_KEYS), st.lists(_window_flag(), max_size=6), max_size=5
        ),
        st.integers(1, 6),
        st.integers(3, 6),
    )
    def test_every_field_matches_the_per_minute_oracle(self, flags_by_key, h, score_threshold):
        events = score_aggregate(flags_by_key, h, score_threshold)
        got = [
            (
                e.key, e.start_minute, e.end_minute, e.mse.hex(),
                None if e.cosine is None else e.cosine.hex(), e.features, e.score,
            )
            for e in events
        ]
        assert got == _aggregate_by_minute(flags_by_key, h, score_threshold)

import dataclasses
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnswatch import baseline_ar
from dnswatch.baseline_ar import ArModel, _predict_ar, detect_series_ar, fit_ar, forecast_ar
from dnswatch.detector import DetectorConfig, _decide, _plan_windows
from dnswatch.ingest import aggregate_all
from dnswatch.model import MAX_COUNT, FeatureKind, MinuteSeries, SeriesKey
from dnswatch.synth import AttackSpec, SynthProfile, iter_events


def _series(values, start=0):
    return MinuteSeries(start, tuple(values))


def _ar1(n, coef, seed, sigma=1.0):
    rng = np.random.default_rng(seed)
    y = np.zeros(n)
    for t in range(1, n):
        y[t] = coef * y[t - 1] + rng.normal(0.0, sigma)
    return y


def _window_local_predictions(values, cfg, windows):
    """The AR predictions with every window fitted from its own history alone."""
    arr = np.asarray(values, dtype=float)

    def predict(lo, t):
        history = arr[lo:t]
        n = history.size
        if n < 4:
            return [float(history.mean())] * cfg.h
        return forecast_ar(fit_ar(history, min(60, n // 4)), history, cfg.h)

    return [predict(lo, t) for t, lo, _ in windows]


def _bits(flags):
    return [
        tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(f))
        for f in flags
    ]


class TestFitAr:
    def test_constant_history_forecasts_constant(self):
        model = fit_ar([7.0] * 200, 5)
        forecast = forecast_ar(model, [7.0] * 10, 4)
        assert forecast == pytest.approx([7.0] * 4, abs=1e-6)

    def test_ar1_coefficient_recovery(self):
        y = _ar1(10_000, 0.5, seed=42)
        model = fit_ar(y, 5)
        assert 0.45 <= model.coefficients[1] <= 0.55

    def test_periodic_series_lag_and_fit(self):
        period = [1.0, 5.0, 2.0]
        series = period * 60
        model = fit_ar(series, 9)
        assert model.lag >= 3
        # residuals near zero: the forecast continues the cycle exactly
        forecast = forecast_ar(model, series, 6)
        assert forecast == pytest.approx(period * 2, abs=1e-6)

    def test_history_too_short(self):
        with pytest.raises(ValueError):
            fit_ar([1.0, 2.0, 3.0], 1)
        with pytest.raises(ValueError):
            fit_ar(list(range(20)), 10)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(3)
        y = rng.uniform(10, 90, 400)
        L = 12
        model = fit_ar(y, L)
        p = model.lag
        X = np.column_stack(
            [np.ones(len(y) - L)] + [y[L - i : len(y) - i] for i in range(1, p + 1)]
        )
        residual = y[L:] - X @ np.array(model.coefficients)
        gram_scale = np.linalg.norm(X, axis=0) * np.linalg.norm(residual)
        assert np.all(np.abs(X.T @ residual) <= 1e-6 * np.maximum(gram_scale, 1.0))

    def test_aic_lag_non_decreasing_with_history_on_periodic_data(self):
        period = [3.0, 8.0, 1.0, 6.0, 2.0, 9.0, 4.0]  # period 7
        lags = []
        for n in (40, 80, 160, 320):
            data = (period * (n // len(period) + 1))[:n]
            lags.append(fit_ar(data, min(20, n // 4)).lag)
        assert all(a <= b for a, b in zip(lags, lags[1:]))


class TestForecastAr:
    def test_zero_horizon(self):
        model = ArModel(lag=1, coefficients=(0.0, 0.5))
        assert forecast_ar(model, [8.0], 0) == []

    def test_hand_iteration(self):
        model = ArModel(lag=1, coefficients=(0.0, 0.5))
        assert forecast_ar(model, [1.0, 8.0], 2) == [4.0, 2.0]

    def test_history_shorter_than_lag(self):
        model = ArModel(lag=3, coefficients=(0.0, 0.1, 0.1, 0.1))
        with pytest.raises(ValueError):
            forecast_ar(model, [1.0, 2.0], 1)


class TestDetectSeriesAr:
    def test_constant_series_never_flags(self):
        cfg = DetectorConfig(k=6, lookback=24, stride=3)
        flags = detect_series_ar(_series([100.0] * 120), cfg)
        assert flags and not any(f.flagged for f in flags)

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
        flags = detect_series_ar(total, cfg)
        hits = [
            f
            for f in flags
            if f.flagged and f.window_start < 2030 and f.window_start + cfg.h > 2000
        ]
        assert hits, "no flagged window overlaps the injected attack"

    def test_deterministic(self):
        values = [float(40 + (i % 13)) for i in range(300)]
        cfg = DetectorConfig(k=12, lookback=60, stride=6)
        assert detect_series_ar(_series(values), cfg) == detect_series_ar(_series(values), cfg)

    def test_same_windows_as_matching_detector(self):
        from dnswatch.detector import detect_series

        values = [float(40 + (i % 13)) for i in range(300)]
        cfg = DetectorConfig(k=12, lookback=60, stride=6)
        asm = detect_series(_series(values, start=77), cfg)
        ar = detect_series_ar(_series(values, start=77), cfg)
        assert [f.window_start for f in asm] == [f.window_start for f in ar]


class TestWholeSeriesSums:
    """Detection reads every window's fit off prefix sums of the whole series."""

    @settings(max_examples=25)
    @given(st.integers(24, 239), st.integers(3, 9), st.sampled_from([0, 3, 5000]), st.data())
    def test_integer_counts_fit_bit_for_bit_as_window_local(self, lookback, stride, top, data):
        # the series outlasts the lookback, so later windows start at lo > 0,
        # and the early windows' histories grow, so their max_lag varies
        counts = data.draw(
            st.lists(st.integers(0, top), min_size=lookback + 40, max_size=lookback + 100)
        )
        series = _series([float(c) for c in counts], start=5)
        cfg = DetectorConfig(k=12, h=12, lookback=lookback, stride=stride)
        windows = _plan_windows(series, cfg)
        reference = _decide(series, cfg, windows, _window_local_predictions(series.values, cfg, windows))
        assert _bits(detect_series_ar(series, cfg)) == _bits(reference)

    # Past 2**53 the whole-series differences round once the counts drop
    # below 50: squares near 2**52 shift the fits, near 2**104 they leave
    # no normal equations that factor.
    @pytest.mark.parametrize("high", [2**26, 2**52])
    def test_sums_past_max_count_fit_every_window_alone(self, high):
        rng = np.random.default_rng(3)
        counts = np.concatenate([high + rng.integers(0, 2**10, 100), rng.integers(0, 50, 300)])
        series = _series(counts.astype(float).tolist(), start=1000)
        cfg = DetectorConfig(lookback=48)
        windows = _plan_windows(series, cfg)
        reference = _decide(series, cfg, windows, _window_local_predictions(series.values, cfg, windows))
        assert _bits(detect_series_ar(series, cfg)) == _bits(reference)

    def test_sums_past_max_count_are_not_built(self):
        # sum(y**2) passes 2**53 after about 2,250 of these minutes; the sums
        # of lookback 240, at candidate lags up to 60, would take 62 * (n + 1) floats
        n = 5000
        rng = np.random.default_rng(1)
        series = _series(rng.integers(2_000_000, 2_000_040, n).astype(float).tolist())
        tracemalloc.start()
        try:
            detect_series_ar(series, DetectorConfig(lookback=240))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 62 * (n + 1) * 8

    # sum(y**2) is 2**53 - 2**28 + 2 + 98 * tail**2: 11,004 below 2**53 at a
    # tail of 1655, past it from 1656 on
    @pytest.mark.parametrize("tail", [1, 1655, 1656, 1700])
    def test_sums_are_built_when_their_squares_sum_below_max_count(self, tail):
        arr = np.array([2.0**26 - 1] * 2 + [float(tail)] * 98)
        exact = baseline_ar._LaggedSums(arr, 1)._sums[0, -1] < MAX_COUNT
        assert exact == (tail <= 1655)
        cfg = DetectorConfig()
        windows = _plan_windows(_series(arr.tolist()), cfg)
        with mock.patch.object(
            baseline_ar, "_LaggedSums", side_effect=baseline_ar._LaggedSums
        ) as built:
            _predict_ar(arr.tolist(), cfg, windows)
        # fit_ar builds sums over a window's history alone
        assert any(call.args[0].size == arr.size for call in built.call_args_list) == exact


def _hex(predictions):
    return [[v.hex() for v in p] for p in predictions]


class TestBatchedFit:
    """Detection fits windows in stacks and forecasts them all at once."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 300),
        st.integers(1, 30),
        st.integers(1, 9),
        st.integers(1, 4),
        st.sampled_from([0, 1, 7, 5000]),
        st.data(),
    )
    def test_predictions_bit_for_bit_as_fit_ar_and_forecast_ar(self, lookback, h, stride, k, top, data):
        # The early windows' histories grow, so they fall into several
        # max_lag groups; the series outlasts the lookback by at least 100
        # minutes, so the last group spans more than one chunk.  A short
        # lookback caps the lag below a long h.  With k below 4 the first
        # windows' histories are too short to fit and hold the mean flat.
        cfg = DetectorConfig(k=k, h=h, lookback=max(lookback, k + h), stride=stride)
        counts = data.draw(
            st.lists(st.integers(0, top), min_size=cfg.lookback + 100, max_size=cfg.lookback + 200)
        )
        values = [float(c) for c in counts]
        windows = _plan_windows(_series(values), cfg)
        got = _predict_ar(values, cfg, windows)
        assert _hex(got) == _hex(_window_local_predictions(values, cfg, windows))

    def test_no_window_fitted_holds_every_mean_flat(self):
        # a lookback of 3 leaves every history too short for a regression
        cfg = DetectorConfig(k=1, h=1, lookback=3)
        values = [float(c) for c in np.random.default_rng(2).integers(0, 50, 40)]
        windows = _plan_windows(_series(values), cfg)
        got = _predict_ar(values, cfg, windows)
        assert _hex(got) == _hex(_window_local_predictions(values, cfg, windows))

    def test_chunk_that_does_not_factor_falls_back_per_window(self):
        # Histories inside the constant stretch give singular normal
        # equations that a 1e-9 ridge does not make factorable; the windows
        # around them are noisy, so chunks mix both kinds.
        rng = np.random.default_rng(5)
        values = np.concatenate(
            [rng.integers(0, 50, 200), np.full(300, 1e4), rng.integers(0, 50, 200)]
        ).astype(float)
        cfg = DetectorConfig(k=12, h=12, lookback=100, stride=10)
        windows = _plan_windows(_series(values), cfg)
        with mock.patch.object(baseline_ar, "_solve", wraps=baseline_ar._solve) as spy:
            got = _predict_ar(values, cfg, windows)
        stacks = [call.args[0].shape[0] for call in spy.call_args_list]
        assert max(stacks) == baseline_ar._CHUNK and stacks.count(1) >= baseline_ar._CHUNK
        assert _hex(got) == _hex(_window_local_predictions(values, cfg, windows))


def _forecast_each(y, t, lags, coef, h):
    """forecast_ar of each window of a stack, from its history ``y[:t]``."""
    return [
        forecast_ar(ArModel(lag, tuple(c[: lag + 1])), y[:end], h)
        for end, lag, c in zip(t.tolist(), lags.tolist(), coef.tolist())
    ]


def _stack(y, t, lags, coef):
    """Arrays of a hand-built stack; a coefficient row is zero past its lag."""
    lags = np.array(lags)
    coef = np.array(coef, dtype=float)
    coef[np.arange(coef.shape[1]) > lags[:, None]] = 0.0
    return np.array(y, dtype=float), np.array(t), lags, coef


class TestForecastAll:
    """The forecast pass over a stack of windows, against forecast_ar of each."""

    def _check(self, y, t, lags, coef, h):
        y, t, lags, coef = _stack(y, t, lags, coef)
        got = baseline_ar._forecast_all(y, t, lags, coef, h)
        assert got.shape == (lags.size, h)
        assert _hex(got.tolist()) == _hex(_forecast_each(y.tolist(), t, lags, coef, h))

    def test_every_window_at_lag_0(self):
        coef = [[3.5, 9.0], [-0.0, 1.0], [0.0, -2.0]]
        self._check(np.arange(10.0), [4, 10, 0], [0, 0, 0], coef, 5)

    def test_lags_0_and_top_mixed(self):
        rng = np.random.default_rng(1)
        coef = rng.normal(0.0, 0.4, (6, 4))
        self._check(rng.integers(0, 50, 30), [9, 30, 17, 4, 12, 25], [0, 3, 3, 0, 3, 0], coef, 6)

    def test_horizon_past_the_top_lag(self):
        rng = np.random.default_rng(2)
        coef = rng.normal(0.0, 0.3, (5, 5))
        self._check(rng.integers(0, 50, 40), [10, 40, 22, 7, 31], [4, 1, 2, 4, 3], coef, 3 * 4 + 5)

    def test_history_shorter_than_the_top_lag_clips_at_the_start(self):
        # windows ending before minute top read history rows from before
        # minute 0, clipped to it, which only lags past their own reach
        rng = np.random.default_rng(3)
        coef = rng.normal(0.0, 0.3, (4, 7))
        self._check(rng.integers(1, 50, 20), [20, 2, 3, 0], [6, 1, 2, 0], coef, 8)

    def test_negative_zero_keeps_its_sign(self):
        # -0.0 + -1.0 * 0.0 stays -0.0, and -2.0 * -0.0 fed back is +0.0
        y = [0.0, -0.0, 0.0, 0.0]
        coef = [[-0.0, -1.0, -2.0], [-0.0, 0.0, 0.0], [0.0, -1.0, 0.0], [-0.0, 3.0, 0.0]]
        self._check(y, [4, 4, 3, 2], [2, 0, 1, 1], coef, 5)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 12), st.integers(1, 8), st.integers(1, 30), st.data())
    def test_random_stacks_bit_for_bit(self, top, count, h, data):
        values = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0])
        n = data.draw(st.integers(top, 60))
        y = data.draw(st.lists(values, min_size=n, max_size=n))
        lags = data.draw(st.lists(st.integers(0, top), min_size=count, max_size=count))
        t = [data.draw(st.integers(lag, n)) for lag in lags]
        coef = data.draw(
            st.lists(
                st.lists(st.floats(-2.0, 2.0) | st.just(-0.0), min_size=top + 1, max_size=top + 1),
                min_size=count,
                max_size=count,
            )
        )
        self._check(y, t, lags, coef, h)

    def test_forecast_that_overflows_warns_as_one_forecast_does(self):
        # Window 0 overflows in its product and window 1 in its sum; both
        # then hold inf.  Their terms past lag 1 would be 0 * inf, an invalid
        # value no single forecast forms.  Window 2 stays finite.
        y, t, lags, coef = _stack(
            [1.0, 1.5e308, 1e200],
            [3, 2, 3],
            [1, 1, 3],
            [[0.0, 1e200, 0, 0], [1e308, 1.0, 0, 0], [1.0, 0.5, 1e-300, 0.25]],
        )
        h = 6

        def caught(forecast):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                result = forecast()
            return result, seen

        # np.float64 coefficients make each forecast's overflow warn
        scalar = np.array([np.float64(c) for c in coef.ravel()], dtype=object).reshape(coef.shape)
        each, each_seen = caught(lambda: _forecast_each(y.tolist(), t, lags, scalar, h))
        got, got_seen = caught(lambda: baseline_ar._forecast_all(y, t, lags, coef, h))
        assert np.isinf(got[:2]).all() and np.isfinite(got[2]).all()
        assert _hex(got.tolist()) == _hex(each)

        def kinds(seen):
            return {str(w.message).split(" encountered")[0] for w in seen}

        assert kinds(got_seen) == kinds(each_seen) == {"overflow"}
        # from the package, where tier-1 turns such a warning into a failure
        assert {w.filename for w in got_seen} == {baseline_ar.__file__}


class TestSilentHistories:
    """A window whose history holds no nonzero minute is a lag-0 model, never fitted."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 12),
        st.integers(1, 5),
        st.integers(12, 120),
        st.sampled_from(["lo", "t - 1"]),
        st.data(),
    )
    def test_sparse_series_bit_for_bit_as_window_local(self, k, h, stride, lookback, lone, data):
        # Long zero stretches with short bursts; with k below 4 the first
        # histories are too short to fit.  One window's history then holds a
        # single nonzero minute, at its lo or at t - 1: a fit that reads
        # only zero targets, or one nonzero target on zero lags.
        cfg = DetectorConfig(k=k, h=h, lookback=max(lookback, k + h), stride=stride)
        n = data.draw(st.integers(cfg.lookback + 20, cfg.lookback + 200))
        values = [0.0] * n
        for _ in range(data.draw(st.integers(0, 4))):
            start = data.draw(st.integers(0, n - 1))
            burst = data.draw(st.lists(st.integers(1, 50), min_size=1, max_size=5))
            for i, c in enumerate(burst[: n - start], start):
                values[i] = float(c)
        t, lo, _ = data.draw(st.sampled_from(_plan_windows(_series(values), cfg)))
        values[lo:t] = [0.0] * (t - lo)
        values[lo if lone == "lo" else t - 1] = float(data.draw(st.integers(1, 50)))
        windows = _plan_windows(_series(values), cfg)
        got = _predict_ar(values, cfg, windows)
        assert _hex(got) == _hex(_window_local_predictions(values, cfg, windows))

    def test_negative_zero_minutes_flag_and_score_as_window_local(self):
        # Silent histories of -0.0, of +0.0 and -0.0 mixed, and of +0.0,
        # each followed by a burst, so that the observed windows after them
        # are zero or not.  Should a fit and the lag-0 mean give zeros of
        # different signs, mse and cosine read them alike.
        values = (
            [-0.0] * 60
            + [9.0, 4.0, 6.0]
            + [0.0, -0.0] * 40
            + [3.0] * 5
            + [0.0] * 50
            + [-0.0, 2.0] * 30
            + [-0.0] * 40
        )
        series = _series(values, start=3)
        cfg = DetectorConfig(k=6, h=6, lookback=24, stride=3)
        windows = _plan_windows(series, cfg)
        reference = _decide(series, cfg, windows, _window_local_predictions(values, cfg, windows))
        got = detect_series_ar(series, cfg)
        assert any(f.mse for f in got) and not all(f.cosine for f in got)
        assert _bits(got) == _bits(reference)

    def test_no_silent_window_reaches_a_fit(self):
        # Zero stretches, noise, and a constant stretch whose stacks do not
        # factor, so windows reach both the stacked fit and fit_ar alone.
        rng = np.random.default_rng(9)
        values = np.concatenate(
            [np.zeros(150), rng.integers(0, 50, 150), np.zeros(200), np.full(300, 1e4), np.zeros(150)]
        ).tolist()
        cfg = DetectorConfig(k=12, h=12, lookback=100, stride=10)
        windows = _plan_windows(_series(values), cfg)
        fitted = [(lo, t) for t, lo, _ in windows if t - lo >= 4 and any(values[lo:t])]
        silent = [(lo, t) for t, lo, _ in windows if t - lo >= 4 and not any(values[lo:t])]
        assert fitted and silent
        stacked = []
        real_fit = baseline_ar._LaggedSums.fit

        def fit(self, lo, t, max_lag):
            # the sums of the whole series, not those fit_ar builds alone
            if self._sums.shape[1] == len(values) + 1:
                stacked.extend(zip(lo.tolist(), t.tolist()))
            return real_fit(self, lo, t, max_lag)

        with mock.patch.object(baseline_ar._LaggedSums, "fit", fit), mock.patch.object(
            baseline_ar, "fit_ar", wraps=baseline_ar.fit_ar
        ) as alone:
            got = _predict_ar(values, cfg, windows)
        histories = [call.args[0] for call in alone.call_args_list]
        assert histories and all(np.any(history) for history in histories)
        assert not set(stacked) & set(silent)
        assert set(fitted) <= set(stacked)
        assert _hex(got) == _hex(_window_local_predictions(values, cfg, windows))

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_all_zero_series_fits_nothing(self, zero):
        values = [zero] * 400
        cfg = DetectorConfig(k=3, h=5, lookback=60, stride=4)
        windows = _plan_windows(_series(values), cfg)
        with mock.patch.object(baseline_ar, "_solve") as solve, mock.patch.object(
            baseline_ar, "fit_ar"
        ) as alone:
            got = _predict_ar(values, cfg, windows)
        assert not solve.called and not alone.called
        assert got == [[0.0] * cfg.h] * len(windows)

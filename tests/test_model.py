import math

import pytest

from dnswatch.model import FeatureKind, MinuteSeries, SeriesKey


def _series(values, start=0):
    return MinuteSeries(start, tuple(values))


class TestFeatureKind:
    def test_scores(self):
        assert FeatureKind.A_TOTAL_PACKETS.score == 1
        assert FeatureKind.B_MALFORMED_RECEIVED.score == 2
        assert FeatureKind.C_TRANSMITTED.score == 4


class TestSeriesKey:
    def test_global_feature_takes_no_ip(self):
        with pytest.raises(ValueError):
            SeriesKey(FeatureKind.A_TOTAL_PACKETS, "1.2.3.4")

    def test_per_ip_features_require_ip(self):
        with pytest.raises(ValueError):
            SeriesKey(FeatureKind.B_MALFORMED_RECEIVED)
        with pytest.raises(ValueError):
            SeriesKey(FeatureKind.C_TRANSMITTED)

    def test_label_round_trip(self):
        for key in (
            SeriesKey(FeatureKind.A_TOTAL_PACKETS),
            SeriesKey(FeatureKind.B_MALFORMED_RECEIVED, "10.0.0.9"),
            SeriesKey(FeatureKind.C_TRANSMITTED, "10.0.0.1"),
        ):
            assert SeriesKey.from_label(key.label()) == key


class TestMinuteSeries:
    def test_rejects_negative_counts(self):
        for bad in (-2.0, -5e-324, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="non-negative and below 2"):
                _series([1.0, bad])

    def test_accepts_negative_zero_as_it_is(self):
        (zero,) = _series([-0.0]).values
        assert zero == 0.0 and math.copysign(1.0, zero) == -1.0

    def test_counts_must_stay_below_2_53(self):
        assert _series([2.0**53 - 1]).values == (2.0**53 - 1,)
        assert _series([0, 2**53 - 1]).values == (0.0, 2.0**53 - 1)
        for bad in (2.0**53, 1e160):
            with pytest.raises(ValueError, match="below 2"):
                _series([1.0, bad])


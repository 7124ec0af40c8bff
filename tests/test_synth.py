import math
from collections import Counter

import pytest

from dnswatch.model import MAX_COUNT
from dnswatch.synth import (
    ATTACKER_IP,
    HIGH_WINDOW,
    VICTIM_IP,
    AttackSpec,
    SynthProfile,
    _minute_quota,
    iter_events,
    truth_intervals,
)


def _packets_per_minute(profile):
    per_minute = Counter()
    for rec in iter_events(profile):
        per_minute[rec.ts // 60] += rec.count
    return per_minute


class TestProfileValidation:
    def test_attack_outside_horizon_rejected(self):
        with pytest.raises(ValueError):
            SynthProfile(days=1, attacks=(AttackSpec(1430, 30, 10.0),))

    def test_noise_range(self):
        with pytest.raises(ValueError):
            SynthProfile(noise_fraction=1.0)

    @pytest.mark.parametrize("field", ["high_rate", "low_rate"])
    @pytest.mark.parametrize("rate", [0.0, math.nan, math.inf, -math.inf, 1e300, 1e18])
    def test_rates_must_be_finite_and_drawable(self, field, rate):
        # 1e18 packets an hour put about 1.7e16 in a minute, more than ingest takes
        with pytest.raises(ValueError, match=field):
            SynthProfile(days=1, **{field: rate})

    @pytest.mark.parametrize("noise_fraction", [0.0, 0.05, 0.9])
    @pytest.mark.parametrize("field", ["high_rate", "low_rate"])
    def test_largest_accepted_rate_gives_minutes_ingest_takes(self, field, noise_fraction):
        def accepted(rate):
            try:
                SynthProfile(days=1, attacks=(), noise_fraction=noise_fraction, **{field: rate})
                return True
            except ValueError:
                return False

        lo, hi = 1.0, 1e300
        while (mid := (lo + hi) / 2) not in (lo, hi):
            lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
        # a minute draws round(quota * noise) packets, noise at most 1 + noise_fraction
        peak = max(round(_minute_quota(lo, m) * (1.0 + noise_fraction)) for m in range(60))
        assert MAX_COUNT / 2 < peak < MAX_COUNT

    # 1e15 and 1e300 would put more packets in a minute than ingest takes
    @pytest.mark.parametrize("multiplier", [0.0, math.nan, math.inf, 1e15, 1e300])
    def test_attack_multiplier_must_be_finite_and_positive(self, multiplier):
        with pytest.raises(ValueError, match="attack at minute 10: magnitude_multiplier"):
            SynthProfile(days=1, attacks=(AttackSpec(10, 30, multiplier),))

    @pytest.mark.parametrize(
        "rates", [{}, {"high_rate": 61.0, "low_rate": 59.0, "noise_fraction": 0.9}]
    )
    def test_largest_accepted_multiplier_gives_minutes_ingest_takes(self, rates):
        def accepted(multiplier):
            try:
                return SynthProfile(days=1, attacks=(AttackSpec(830, 60, multiplier),), **rates)
            except ValueError:
                return None

        lo, hi = 1.0, 1e300
        while (mid := (lo + hi) / 2) not in (lo, hi):
            lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
        peak = max(_packets_per_minute(accepted(lo)).values())
        assert MAX_COUNT / 4 < peak < MAX_COUNT

    def test_days_must_fit_what_ingest_zero_fills(self):
        # ingest zero-fills at most 366 days of minutes
        with pytest.raises(ValueError, match=r"days must lie in \[1, 366\], got 367"):
            SynthProfile(days=367)
        assert SynthProfile(days=366).total_minutes == 366 * 1440

    def test_default_profile_is_ten_days_five_attacks(self):
        profile = SynthProfile()
        assert profile.days == 10
        assert len(profile.attacks) == 5
        assert all(a.duration_minutes == 30 for a in profile.attacks)
        assert all(a.magnitude_multiplier == 10.0 for a in profile.attacks)


class TestGenerate:
    def test_no_attacks_means_empty_truth(self):
        profile = SynthProfile(days=1, attacks=())
        assert truth_intervals(profile) == []

    def test_truth_matches_configured_attacks(self):
        profile = SynthProfile(days=1, attacks=(AttackSpec(100, 30, 5.0),), seed=3)
        truth = truth_intervals(profile)
        assert len(truth) == 1
        assert (truth[0].start_minute, truth[0].end_minute) == (100, 129)

    def test_same_seed_identical_output(self):
        profile = SynthProfile(days=1, high_rate=900.0, low_rate=300.0, attacks=(), seed=42)
        assert list(iter_events(profile)) == list(iter_events(profile))

    def test_different_seed_differs(self):
        base = dict(days=1, high_rate=900.0, low_rate=300.0, attacks=())
        a = list(iter_events(SynthProfile(seed=1, **base)))
        b = list(iter_events(SynthProfile(seed=2, **base)))
        assert a != b

    def test_noise_free_profile_hits_exact_arithmetic_count(self):
        profile = SynthProfile(
            days=1, high_rate=200_000.0, low_rate=75_000.0, noise_fraction=0.0,
            attacks=(), seed=7,
        )
        count = sum(rec.count for rec in iter_events(profile))
        assert count == 10 * 200_000 + 14 * 75_000  # 3,050,000

    def test_minute_rates_respect_noise_envelope(self):
        profile = SynthProfile(
            days=1, high_rate=6000.0, low_rate=1200.0, noise_fraction=0.1,
            attacks=(), seed=11,
        )
        per_minute = _packets_per_minute(profile)
        lo_hour, hi_hour = HIGH_WINDOW
        for minute, count in per_minute.items():
            hour = (minute % 1440) // 60
            rate = profile.high_rate if lo_hour <= hour < hi_hour else profile.low_rate
            ceiling = math.ceil((rate / 60.0) * 1.1) + 1  # +1 for quota rounding
            assert count <= ceiling, (minute, count, ceiling)

    def test_attack_minutes_scale_by_multiplier(self):
        attack = AttackSpec(700, 20, 8.0)
        profile = SynthProfile(
            days=1, high_rate=6000.0, low_rate=1200.0, noise_fraction=0.1,
            attacks=(attack,), seed=13,
        )
        per_minute = _packets_per_minute(profile)
        base = profile.low_rate / 60.0  # minute 700-719 lies in the low window
        for minute in range(700, 720):
            assert per_minute[minute] >= 8.0 * (1 - 0.1) * base - 2

    def test_attack_traffic_lights_up_per_ip_features(self):
        attack = AttackSpec(700, 20, 8.0)
        profile = SynthProfile(
            days=1, high_rate=6000.0, low_rate=1200.0, noise_fraction=0.0,
            attacks=(attack,), seed=13,
        )
        recs = [r for r in iter_events(profile) if 700 * 60 <= r.ts < 720 * 60]
        tx_from_attacker = [r for r in recs if r.src_ip == ATTACKER_IP and r.direction == "tx"]
        rx_malformed = [
            r for r in recs if r.dst_ip == VICTIM_IP and r.direction == "rx" and r.malformed
        ]
        assert tx_from_attacker and rx_malformed

    def test_baseline_has_no_malformed_traffic(self):
        profile = SynthProfile(days=1, high_rate=900.0, low_rate=300.0, attacks=(), seed=19)
        assert not any(r.malformed for r in iter_events(profile))

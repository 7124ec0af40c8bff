"""Deterministic synthetic traffic with diurnal shape and injected attacks.

The generator emits one event record per run of identical packets, which
carries the run's length as its ``count``: per minute, one record for each
client that sends, and during an attack one for the attacker's transmissions
and one for its malformed receptions.  Baseline traffic is
client-to-server transmissions whose hourly rate follows a two-level daily
profile (a busy window at ``high_rate`` packets per hour, ``low_rate``
otherwise).  Hourly totals are distributed over minutes by integer quota so a
noise-free profile produces exactly its arithmetic packet count.  During an
attack the per-minute rate is multiplied; the extra packets come from a
dedicated attacker address, half as clean transmissions and the rest as
malformed receptions at a victim address.

Everything is driven by one seeded generator, so identical profiles produce
byte-identical event streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .ingest import MAX_SPAN_MINUTES, DnsEventRecord, GroundTruthInterval
from .model import MAX_COUNT

CLIENT_IPS = ("10.0.0.11", "10.0.0.12", "10.0.0.13", "10.0.0.14")
SERVER_IPS = ("10.0.1.53", "10.0.2.53")
ATTACKER_IP = "198.51.100.66"
VICTIM_IP = SERVER_IPS[0]
HIGH_WINDOW = (14, 24)  # busy daily hours [start, end)


@dataclass(frozen=True)
class AttackSpec:
    start_minute: int
    duration_minutes: int
    magnitude_multiplier: float

    def covers(self, minute: int) -> bool:
        return self.start_minute <= minute < self.start_minute + self.duration_minutes


# Five half-hour bursts at ten times the base rate, spread over a ten-day
# horizon and deliberately offset from round half-hours.
_DEFAULT_ATTACKS = tuple(AttackSpec(s, 30, 10.0) for s in (3490, 5320, 7400, 10970, 13360))


@dataclass(frozen=True)
class SynthProfile:
    days: int = 10
    high_rate: float = 20000.0  # packets per hour inside the busy window
    low_rate: float = 7500.0
    noise_fraction: float = 0.05
    attacks: tuple[AttackSpec, ...] = _DEFAULT_ATTACKS
    seed: int = 1234

    def __post_init__(self) -> None:
        # ingest zero-fills at most MAX_SPAN_MINUTES
        if not 1 <= self.days <= MAX_SPAN_MINUTES // 1440:
            raise ValueError(f"days must lie in [1, {MAX_SPAN_MINUTES // 1440}], got {self.days!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        for name in ("high_rate", "low_rate"):
            rate = getattr(self, name)
            if not rate > 0.0:  # also false for nan
                raise ValueError(f"{name} must be positive, got {rate!r}")
        if not 0.0 <= self.noise_fraction < 1.0:
            raise ValueError("noise_fraction must lie in [0, 1)")
        horizon = self.total_minutes
        # A minute holds about quota * noise packets, times the multiplier in
        # an attack, with quota at most rate / 60 + 1 and noise at most
        # 1 + noise_fraction.  Rounding rate * (m + 1) / 60 for the quota and
        # the products after it adds less than 2**-40 of that, and 16 covers
        # the roundings of small counts, so that ingest takes every minute gen
        # writes.
        name = "high_rate" if self.high_rate >= self.low_rate else "low_rate"
        rate = getattr(self, name)
        per_unit = (rate / 60.0 + 1.0) * (1.0 + self.noise_fraction) * (1.0 + 2.0**-40)
        limit = (MAX_COUNT - 16.0) / per_unit
        if limit < 1.0:
            raise ValueError(f"{name} puts 2**53 packets or more in a minute, got {rate!r}")
        for attack in self.attacks:
            where = f"attack at minute {attack.start_minute}"
            if attack.start_minute < 0 or attack.start_minute + attack.duration_minutes > horizon:
                raise ValueError(f"{where} outside the horizon")
            if attack.duration_minutes < 1:
                raise ValueError(f"{where}: duration_minutes must be positive")
            if not 0.0 < attack.magnitude_multiplier < limit:
                raise ValueError(f"{where}: magnitude_multiplier must lie in (0, {limit:.3g})")

    @property
    def total_minutes(self) -> int:
        return self.days * 1440


def truth_intervals(profile: SynthProfile) -> list[GroundTruthInterval]:
    return [
        GroundTruthInterval(a.start_minute, a.start_minute + a.duration_minutes - 1, "attack")
        for a in profile.attacks
    ]


def _minute_quota(rate_per_hour: float, minute_in_hour: int) -> int:
    # Integer quota per minute; the 60 quotas of an hour sum to round(rate).
    return round(rate_per_hour * (minute_in_hour + 1) / 60.0) - round(
        rate_per_hour * minute_in_hour / 60.0
    )


def iter_events(profile: SynthProfile) -> Iterator[DnsEventRecord]:
    """Stream records in time order, one per run of identical packets, each
    with a ``count`` of at least 1."""
    import numpy as np  # here, not at the top: importing the package skips numpy

    rng = np.random.default_rng(profile.seed)
    senders = [(ip, SERVER_IPS[idx % len(SERVER_IPS)]) for idx, ip in enumerate(CLIENT_IPS)]
    share = np.full(len(senders), 1.0 / len(senders))
    lo_hour, hi_hour = HIGH_WINDOW
    nf = profile.noise_fraction
    for minute in range(profile.total_minutes):
        hour = (minute % 1440) // 60
        rate = profile.high_rate if lo_hour <= hour < hi_hour else profile.low_rate
        quota = _minute_quota(rate, minute % 60)
        noise = rng.uniform(1.0 - nf, 1.0 + nf)
        base_count = round(quota * noise)
        ts = minute * 60
        for (client, server), n in zip(senders, rng.multinomial(base_count, share).tolist()):
            if n > 0:
                yield DnsEventRecord(ts, client, server, "tx", False, n)
        attack = next((a for a in profile.attacks if a.covers(minute)), None)
        if attack is None:
            continue
        # negative for a multiplier below 1: the attack adds no packets then
        extra = round(quota * noise * (attack.magnitude_multiplier - 1.0))
        tx_part = extra // 2
        rx_part = extra - tx_part
        if tx_part > 0:
            yield DnsEventRecord(ts, ATTACKER_IP, VICTIM_IP, "tx", False, tx_part)
        if rx_part > 0:
            yield DnsEventRecord(ts, ATTACKER_IP, VICTIM_IP, "rx", True, rx_part)

"""Score detections against labeled intervals and sweep configurations.

A detected event that overlaps at least one truth interval is a true
positive (each such event counts once, and every truth interval it touches
is marked hit).  A detected event touching no truth interval is a false
positive.  A truth interval hit by nothing is a false negative.  True
negatives are counted over fixed-width evaluation windows of the timeline
that contain neither a detection nor a truth interval; they affect no
reported rate.  This module also writes the sweep CSV and ``eval``'s lines.
"""

from __future__ import annotations

import json
from dataclasses import asdict, astuple, dataclass, fields, replace
from typing import Iterable, Mapping, Sequence

from .baseline_ar import detect_series_ar
from .detector import (
    AnomalyEvent,
    DetectorConfig,
    detect_each,
    detect_series,
    score_aggregate,
)
from .ingest import GroundTruthInterval
from .model import MinuteSeries, SeriesKey

METHODS = ("asm", "ar")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int


def _overlaps(ev: AnomalyEvent, iv: GroundTruthInterval) -> bool:
    return ev.start_minute <= iv.end_minute and iv.start_minute <= ev.end_minute


def confusion(
    detected: Iterable[AnomalyEvent],
    truth: Sequence[GroundTruthInterval],
    timeline: tuple[int, int],
    window: int,
) -> ConfusionCounts:
    """Interval-overlap confusion counts; ``timeline`` is [start, end) in
    minutes and ``window`` the true-negative bucket width."""
    if window < 1:
        raise ValueError("window must be at least 1")
    events = list(detected)
    hit: set[int] = set()  # the truth intervals that some event overlaps
    tp = 0
    for ev in events:
        touched = {i for i, iv in enumerate(truth) if _overlaps(ev, iv)}
        hit |= touched
        tp += bool(touched)
    # Bucket j holds minutes [start + j*window, start + (j+1)*window).  An interval makes
    # busy the buckets of its first and last minute in the timeline and those between.
    start, end = timeline
    busy = sorted(
        ((max(a, start) - start) // window, (min(b, end - 1) - start) // window)
        for a, b in ((e.start_minute, e.end_minute) for e in [*events, *truth])
        if a < end and b >= start
    )
    tn = max(0, -(-(end - start) // window))
    reach = 0  # the buckets before it are counted busy already
    for lo, hi in busy:
        tn -= max(0, hi + 1 - max(lo, reach))
        reach = max(reach, hi + 1)
    return ConfusionCounts(tp=tp, fp=len(events) - tp, fn=len(truth) - len(hit), tn=tn)


def metrics(c: ConfusionCounts) -> dict[str, float]:
    tpr = c.tp / (c.tp + c.fn) if c.tp + c.fn > 0 else 0.0
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp > 0 else 1.0
    f1 = 2 * precision * tpr / (precision + tpr) if precision + tpr > 0 else 0.0
    return {"tpr": tpr, "fnr": 1.0 - tpr, "precision": precision, "f1": f1}


def eval_text(counts: ConfusionCounts, fmt: str) -> str:
    """The counts and rates that ``eval`` prints, as JSON or as two CSV lines."""
    payload = {**asdict(counts), **metrics(counts)}
    if fmt == "json":
        return json.dumps(payload) + "\n"
    return f"{','.join(payload)}\n{','.join(map(repr, payload.values()))}\n"


@dataclass(frozen=True)
class SweepRow:
    method: str
    lookback_min: int
    score_gt: int
    tpr: float
    fnr: float
    precision: float
    f1: float
    mean_fp: float
    mean_fn: float


SWEEP_HEADER = ",".join(f.name for f in fields(SweepRow))


def sweep(
    series_by_key: Mapping[SeriesKey, MinuteSeries],
    truth: Sequence[GroundTruthInterval],
    base_cfg: DetectorConfig,
    lookbacks: Sequence[int],
    score_thresholds: Sequence[int],
    methods: Sequence[str] = METHODS,
) -> list[SweepRow]:
    """Evaluate the full (method, lookback, score threshold) grid.

    Detection runs once per method and lookback; the score thresholds only
    re-aggregate the cached per-window flags.  False counts are also reported
    as per-day means over the timeline span.
    """
    if not series_by_key:
        raise ValueError("no series to evaluate")
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    any_series = next(iter(series_by_key.values()))
    timeline = (any_series.start_minute, any_series.start_minute + len(any_series))
    days = max(1.0, (timeline[1] - timeline[0]) / 1440.0)
    rows: list[SweepRow] = []
    keys = sorted(series_by_key)
    ordered = [series_by_key[key] for key in keys]
    for method in methods:
        detect = detect_series if method == METHODS[0] else detect_series_ar
        for lookback in lookbacks:
            cfg = replace(base_cfg, lookback=lookback)
            flags = dict(zip(keys, detect_each(ordered, detect, cfg)))
            for threshold in score_thresholds:
                events = score_aggregate(flags, cfg.h, threshold)
                counts = confusion(events, truth, timeline, cfg.stride)
                rows.append(
                    SweepRow(
                        method,
                        lookback,
                        threshold,
                        **metrics(counts),
                        mean_fp=counts.fp / days,
                        mean_fn=counts.fn / days,
                    )
                )
    return rows


def sweep_rows_to_csv(rows: Iterable[SweepRow]) -> str:
    lines = [SWEEP_HEADER]
    for r in rows:
        lines.append(",".join(v if isinstance(v, str) else repr(v) for v in astuple(r)))
    return "\n".join(lines) + "\n"

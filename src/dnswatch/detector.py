"""Per-series detection loop and cross-feature score aggregation.

For each evaluation time the last ``k`` minutes form the pattern, the next
``h`` minutes form the observed window, and the preceding ``lookback``
minutes form the history searched for approximate occurrences of the
pattern.  The post-match average becomes the prediction; a window is flagged
when the prediction and the observation disagree on BOTH measures: mean
squared error above the adaptive threshold and cosine similarity below the
configured cutoff.  The two measures are deliberately complementary: the
squared error is scale dependent while the cosine is scale invariant, so
noise that inflates one rarely clears both.  A window with no match to
average is flagged by the cold-start rule instead: when its mean is an order
of magnitude above the pattern's.

Each series runs in three steps: a plan of every window's history bounds and
thresholds, which no method changes; the method's prediction for each window,
or none, given the whole plan so that it may share work across windows; and
the decision, the same for every method.  The matching method shares one
rank index of the series (see :mod:`dnswatch.matching`) and scans each
window's history in place; a window whose pattern is all zero is not
scanned but answered from the series' zero runs, found by one regex over a
zero mask of the series.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce
from itertools import groupby
from operator import add
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

# The loop calls scan, not search; search stays a name of this module because
# the benchmark's tracer (perfbench/child.py) wraps detector.search by name.
from .matching import RankIndex, Tolerance, scan, search  # noqa: F401
from .model import FeatureKind, MinuteSeries, SeriesKey


@dataclass(frozen=True)
class DetectorConfig:
    """Tunable parameters of the detection loop.

    ``h`` defaults to ``k`` and ``stride`` defaults to ``h`` (non-overlapping
    observed windows).  ``lookback`` must leave room for one pattern plus one
    observed window.
    """

    k: int = 24
    h: Optional[int] = None
    lookback: int = 1440
    epsilon: float = 0.1
    cos_threshold: float = 0.9
    stride: Optional[int] = None
    cold_start_factor: float = 10.0

    def __post_init__(self) -> None:
        if self.h is None:
            object.__setattr__(self, "h", self.k)
        if self.stride is None:
            object.__setattr__(self, "stride", self.h)
        if self.k < 1 or self.h < 1:
            raise ValueError("k and h must be at least 1")
        if self.lookback < self.k + self.h:
            raise ValueError("lookback must be at least k + h")
        if self.stride < 1:
            raise ValueError("stride must be at least 1")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1)")
        if not 0.0 < self.cos_threshold <= 1.0:
            raise ValueError("cos_threshold must lie in (0, 1]")
        if not 0.0 < self.cold_start_factor < math.inf:
            raise ValueError("cold_start_factor must be finite and positive")


@dataclass(frozen=True)
class ThresholdSet(Tolerance):
    """Adaptive error threshold, with the search tolerances derived from it."""

    error_threshold: float


def mse(pred: Sequence[float], observed: Sequence[float]) -> float:
    """Mean squared error between two equal-length windows."""
    if len(pred) != len(observed) or len(pred) == 0:
        raise ValueError("windows must be non-empty and equally long")
    total = 0.0
    for p, e in zip(pred, observed):
        d = p - e
        total += d * d
    return total / len(pred)


def cosine(pred: Sequence[float], observed: Sequence[float]) -> float:
    """Cosine similarity; scale invariant.

    A window with no measurable direction has cosine 0, so it reads as
    dissimilar: a zero vector on either side, or values so small (per-element
    magnitudes below about 1e-154) that the squared norms underflow to 0.
    """
    if len(pred) != len(observed) or len(pred) == 0:
        raise ValueError("windows must be non-empty and equally long")
    dot = 0.0
    pp = 0.0
    ee = 0.0
    for p, e in zip(pred, observed):
        dot += p * e
        pp += p * p
        ee += e * e
    if pp * ee == 0.0:
        return 0.0
    return dot / math.sqrt(pp * ee)


def _mean(values: Sequence[float]) -> float:
    # A left fold, not sum(), which compensates from Python 3.12 on and so
    # would give other bits there.
    return reduce(add, values, 0.0) / len(values)


def compute_thresholds(maxvalue: float, pattern: Sequence[float], epsilon: float) -> ThresholdSet:
    """Error threshold from the running maximum, search tolerances from it.

    error_threshold = (log base (10 - epsilon) of maxvalue) squared, clamped
    below at 1 while the maximum has not exceeded the base;
    alpha = error_threshold * (1 + epsilon) * mean(pattern) / len(pattern);
    beta  = error_threshold * mean(pattern).
    """
    if len(pattern) == 0:
        raise ValueError("pattern must be non-empty")
    base = 10.0 - epsilon
    if maxvalue <= base:
        err = 1.0
    else:
        err = (math.log(maxvalue) / math.log(base)) ** 2
    mean_p = _mean(pattern)
    return ThresholdSet(
        error_threshold=err,
        alpha=err * (1.0 + epsilon) * mean_p / len(pattern),
        beta=err * mean_p,
    )


@dataclass(frozen=True)
class Prediction:
    """Averaged post-match window, or a cold-start marker when none exists."""

    values: Optional[tuple[float, ...]]
    contributor_count: int


COLD_START = Prediction(values=None, contributor_count=0)


def predict(text: Sequence[float], starts: Sequence[int], k: int, h: int) -> Prediction:
    """Average the ``h`` values following each match of a length-``k`` pattern.

    ``starts`` are match start indices into ``text``.  Only matches with a
    complete following window (``start + k + h <= len(text)``) contribute;
    with no contributors the result is the cold-start marker.
    """
    if k < 1 or h < 1:
        raise ValueError("pattern length and horizon must be at least 1")
    contributors = [s for s in starts if s + k + h <= len(text)]
    if not contributors:
        return COLD_START
    values = [0.0] * h
    for s in contributors:
        values = list(map(add, values, text[s + k : s + k + h]))
    n = len(contributors)
    return Prediction(values=tuple(v / n for v in values), contributor_count=n)


def cold_start_decision(
    pattern: Sequence[float], observed: Sequence[float], factor: float
) -> bool:
    """Anomaly call when no prediction exists: is the observed window an
    order of magnitude above the pattern that precedes it?

    True iff ``mean(observed) >= factor * max(mean(pattern), 1)``.  The floor
    of 1 in the denominator keeps all-zero patterns from flagging every
    non-zero window, and an all-zero observed window is never flagged.
    """
    if len(pattern) == 0 or len(observed) == 0:
        raise ValueError("pattern and observed window must be non-empty")
    if not 0.0 < factor < math.inf:
        raise ValueError("factor must be finite and positive")
    return _mean(observed) >= factor * max(_mean(pattern), 1.0)


@dataclass(frozen=True)
class WindowFlag:
    """Outcome of one evaluation window of one series.

    ``window_start`` is the epoch minute of the first observed minute.  On
    the cold-start path no prediction exists, so ``mse`` and ``cosine`` are
    absent.
    """

    window_start: int
    flagged: bool
    mse: Optional[float]
    cosine: Optional[float]
    cold_start: bool


class Window(NamedTuple):
    """One evaluation window of a series, as planned before any prediction.

    The pattern is ``values[t - k:t]``, the observed window ``values[t:t + h]``
    and the history a method predicts from ``values[lo:t]``.
    """

    t: int
    lo: int
    thresholds: ThresholdSet


def _plan_windows(series: MinuteSeries, cfg: DetectorConfig) -> list[Window]:
    """Every evaluation window of a series with its history and thresholds.

    Nothing here depends on the method; the thresholds come from the running
    maximum of the series, so they do not depend on the lookback either.
    """
    values = series.values
    n = len(values)
    minimum = cfg.k + cfg.h + 1
    if n < minimum:
        raise ValueError(f"series must have at least {minimum} minutes, got {n}")
    windows: list[Window] = []
    maxvalue = 0.0
    seen = 0
    for t in range(cfg.k, n - cfg.h + 1, cfg.stride):
        maxvalue = max(maxvalue, max(values[seen:t]))  # the minutes before t only
        seen = t
        thr = compute_thresholds(maxvalue, values[t - cfg.k : t], cfg.epsilon)
        windows.append(Window(t, max(0, t - cfg.lookback), thr))
    return windows


def _predict_all_zero(
    values: Sequence[float], zero: bytes, lo: int, hi: int, k: int, h: int
) -> Optional[tuple[float, ...]]:
    """What ``scan`` + ``predict`` give for an all-zero pattern, read off
    ``zero``, the series with a zero byte for each zero minute.

    The tolerances are then zero, so the scan accepts exactly the greedy
    blocks of ``k`` zeros of each zero run clipped to ``[lo, hi)``, and each
    of them contributes.  The next ``h`` minutes of a block inside its run
    add only zeros, which leave every partial sum unchanged, so only the
    blocks whose next minutes cross the run's end are summed, in scan order.
    """
    count = 0
    acc = [0.0] * h
    for run in re.compile(rb"\x00{%d,}" % k).finditer(zero, lo, hi):
        first, end = run.span()
        top = end - k  # latest block start
        count += (top - first) // k + 1
        # Only blocks starting after end - k - h see minutes past the run.
        summed = first + max(0, (end - k - h - first) // k + 1) * k
        for s in range(summed, top + 1, k):
            acc = [a + v for a, v in zip(acc, values[s + k : s + k + h])]
    if not count:
        return None
    return tuple(a / count for a in acc)


def _predict_asm(
    values: Sequence[float], cfg: DetectorConfig, windows: Sequence[Window]
) -> list[Optional[tuple[float, ...]]]:
    """The post-match average of each window, or ``None`` on the cold-start path."""
    k, h = cfg.k, cfg.h
    zero: Optional[bytes] = None
    index = RankIndex(values)  # levels and codes are built on its first long scan
    predictions: list[Optional[tuple[float, ...]]] = []
    for t, lo, thr in windows:
        pattern = values[t - k : t]
        # Only matches whose next h minutes end by t contribute.  The scan
        # runs left to right, so those are exactly the matches it finds in
        # [lo, hi): the minutes from t - h on change none of them.
        hi = max(lo, t - h)
        # Keyed on the pattern, not on alpha == 0: a subnormal pattern mean
        # also rounds alpha to zero without the pattern being all zero.
        if not any(pattern):
            if zero is None:
                zero = bytes(map(bool, values))  # any()'s test, so -0.0 is zero
            predictions.append(_predict_all_zero(values, zero, lo, hi, k, h))
            continue
        starts = scan(index, pattern, thr, lo, hi)
        predictions.append(predict(values, starts, k, h).values)
    return predictions


def _decide(
    series: MinuteSeries,
    cfg: DetectorConfig,
    windows: Sequence[Window],
    predictions: Sequence[Optional[Sequence[float]]],
) -> list[WindowFlag]:
    """Flag each window from its prediction, or by the cold-start rule without one."""
    values = series.values
    flags: list[WindowFlag] = []
    for (t, _, thr), predicted in zip(windows, predictions):
        observed = values[t : t + cfg.h]
        minute = series.start_minute + t
        if predicted is None:
            flagged = cold_start_decision(values[t - cfg.k : t], observed, cfg.cold_start_factor)
            flags.append(WindowFlag(minute, flagged, None, None, True))
            continue
        err = mse(predicted, observed)
        cos = cosine(predicted, observed)
        flagged = err > thr.error_threshold and cos < cfg.cos_threshold and any(observed)
        flags.append(WindowFlag(minute, flagged, err, cos, False))
    return flags


def detect_series(series: MinuteSeries, cfg: DetectorConfig) -> list[WindowFlag]:
    """Run match-predict-compare over every evaluation window of a series."""
    windows = _plan_windows(series, cfg)
    return _decide(series, cfg, windows, _predict_asm(series.values, cfg, windows))


@dataclass(frozen=True)
class AnomalyEvent:
    """A reported anomaly interval after cross-feature aggregation.

    ``end_minute`` is inclusive.  ``mse`` is the largest error among the
    contributing flagged windows (0 when all were cold-start flags) and
    ``cosine`` the smallest similarity (absent when all were cold-start).
    """

    key: str
    start_minute: int
    end_minute: int
    mse: float
    cosine: Optional[float]
    features: frozenset[FeatureKind]
    score: int


AGGREGATE_KEY = "aggregate"


def score_aggregate(
    flags_by_key: Mapping["SeriesKey", Iterable[WindowFlag]],
    h: int,
    score_threshold: int,
) -> list[AnomalyEvent]:
    """Merge per-series flags into scored anomaly events.

    A feature counts as triggered at a minute when any series of that feature
    is flagged in a window covering the minute.  Minutes whose summed feature
    scores exceed ``score_threshold`` are grouped into maximal consecutive
    runs, one event per run, carrying the union of triggered features.
    """
    triggered: dict[int, set[FeatureKind]] = {}
    worst_mse: dict[int, float] = {}
    worst_cos: dict[int, float] = {}
    for key in sorted(flags_by_key):
        for flag in flags_by_key[key]:
            if not flag.flagged:
                continue
            for minute in range(flag.window_start, flag.window_start + h):
                triggered.setdefault(minute, set()).add(key.feature)
                if flag.mse is not None:
                    worst_mse[minute] = max(worst_mse.get(minute, 0.0), flag.mse)
                if flag.cosine is not None:
                    worst_cos[minute] = min(worst_cos.get(minute, 1.0), flag.cosine)
    hot = sorted(
        m for m, feats in triggered.items() if sum(f.score for f in feats) > score_threshold
    )
    events: list[AnomalyEvent] = []
    # consecutive minutes share their distance to their index in hot
    for _, run in groupby(enumerate(hot), key=lambda p: p[1] - p[0]):
        span = [m for _, m in run]
        feats = frozenset().union(*(triggered[m] for m in span))
        events.append(
            AnomalyEvent(
                key=AGGREGATE_KEY,
                start_minute=span[0],
                end_minute=span[-1],
                mse=max((worst_mse[m] for m in span if m in worst_mse), default=0.0),
                cosine=min((worst_cos[m] for m in span if m in worst_cos), default=None),
                features=feats,
                score=sum(f.score for f in feats),
            )
        )
    return events

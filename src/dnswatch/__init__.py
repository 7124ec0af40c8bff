"""Anomaly detection for per-minute traffic feature series.

The detector treats history as a text and the most recent measurements as a
pattern, finds tolerance-bounded occurrences of the pattern in the history,
predicts the next window from what followed those occurrences, and flags
windows whose observations disagree with the prediction on both a scale
dependent and a scale invariant measure.
"""

from .baseline_ar import ArModel, detect_series_ar, fit_ar, forecast_ar
from .coldstart import (
    ColdStartParams,
    choice_count_ie,
    choice_count_lower,
    expected_matches,
    monte_carlo_matches,
)
from .detector import (
    AnomalyEvent,
    DetectorConfig,
    ThresholdSet,
    WindowFlag,
    compute_thresholds,
    cosine,
    detect_series,
    mse,
    score_aggregate,
)
from .evalharness import ConfusionCounts, SweepRow, confusion, metrics, sweep
from .ingest import (
    DnsEventRecord,
    GroundTruthInterval,
    ParseError,
    aggregate_all,
    parse_events,
    parse_ground_truth,
)
from .matching import (
    IncrementalMatcher,
    Tolerance,
    incremental_advance,
    incremental_new,
    incremental_search,
    prefix_function,
    search,
    total_error,
)
from .model import FeatureKind, MinuteSeries, SeriesKey
from .predictor import COLD_START, Prediction, cold_start_decision, predict
from .synth import AttackSpec, SynthProfile, iter_events, truth_intervals

__version__ = "0.1.0"

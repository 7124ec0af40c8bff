"""Anomaly detection for per-minute traffic feature series.

The detector treats history as a text and the most recent measurements as a
pattern, finds tolerance-bounded occurrences of the pattern in the history,
predicts the next window from what followed those occurrences, and flags
windows whose observations disagree with the prediction on both a scale
dependent and a scale invariant measure.
"""

__version__ = "0.1.0"

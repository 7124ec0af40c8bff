"""Build the expected next window from history matches.

Each accepted match start contributes the values that immediately follow the
matched window; the prediction is their per-position average.  Matches whose
following window would run past the end of history are excluded entirely,
which keeps the prediction exactly ``horizon`` long and, as a side effect,
drops the pattern's own occurrence at the tail of the history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Optional, Sequence


@dataclass(frozen=True)
class Prediction:
    """Averaged post-match window, or a cold-start marker when none exists."""

    values: Optional[tuple[float, ...]]
    contributor_count: int


COLD_START = Prediction(values=None, contributor_count=0)


def predict(
    text: Sequence[float], starts: Sequence[int], k: int, h: int
) -> Prediction:
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
    # Left folds, not sum(), which compensates from Python 3.12 on.
    mean_obs = reduce(add, observed, 0.0) / len(observed)
    mean_pat = reduce(add, pattern, 0.0) / len(pattern)
    return mean_obs >= factor * max(mean_pat, 1.0)

"""Tolerant pattern search over numeric sequences.

A pattern P approximately occurs in a text T when every aligned element pair
differs by at most ``alpha`` during the scan and the total absolute
difference over the window is at most ``beta``.  The scan is a KMP-style
single pass: a prefix table built with the same per-element tolerance drives
the shifts, so the whole search runs in time linear in ``len(T) + len(P)``.

Guarantees of the returned start indices:

* every start passes an independent ``total_error(P, T, start) <= beta``
  recheck (beta-soundness);
* consecutive starts differ by at least ``len(P)`` (the scan state resets
  after every full per-element match, whether or not the total-error check
  passes, so a failing window still consumes its span of text).

Per-element closeness of every aligned pair is NOT guaranteed for accepted
starts: closeness within ``alpha`` is not transitive, so shifts taken through
the prefix table can admit pairs slightly beyond it.  Only beta-soundness and
spacing are contractual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Tolerance:
    """Per-element bound ``alpha`` and total-difference bound ``beta``."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("tolerances must be non-negative")


def prefix_function(pattern: Sequence[float], alpha: float) -> list[int]:
    """Length of the longest proper prefix that is an alpha-close suffix,
    for every prefix of ``pattern``.

    With ``alpha == 0`` this is the classical KMP prefix function.
    """
    m = len(pattern)
    if m == 0:
        raise ValueError("pattern must be non-empty")
    ret = [0]
    for i in range(1, m):
        j = ret[i - 1]
        while j > 0 and abs(pattern[j] - pattern[i]) > alpha:
            j = ret[j - 1]
        ret.append(j + 1 if abs(pattern[j] - pattern[i]) <= alpha else j)
    return ret


def total_error(pattern: Sequence[float], text: Sequence[float], offs: int) -> float:
    """Sum of absolute differences between ``pattern`` and the text window at ``offs``."""
    if offs < 0 or offs + len(pattern) > len(text):
        raise IndexError(
            f"window [{offs}, {offs + len(pattern)}) outside text of length {len(text)}"
        )
    total = 0.0
    for i in range(len(pattern)):
        total += abs(pattern[i] - text[offs + i])
    return total


def search(text: Sequence[float], pattern: Sequence[float], tol: Tolerance) -> list[int]:
    """Start indices of non-overlapping approximate occurrences of ``pattern``.

    Returns an empty list when the pattern is longer than the text, so
    callers can degrade gracefully while history is still short.
    """
    m = len(pattern)
    if m == 0:
        raise ValueError("pattern must be non-empty")
    if m > len(text):
        return []
    alpha = tol.alpha
    beta = tol.beta
    pi = prefix_function(pattern, alpha)
    pat = list(pattern)
    out: list[int] = []
    j = 0
    # Hot loop: local names only, abs() unrolled to a branch.
    for i, x in enumerate(text):
        d = x - pat[j]
        if d < 0.0:
            d = -d
        while j > 0 and d > alpha:
            j = pi[j - 1]
            d = x - pat[j]
            if d < 0.0:
                d = -d
        if d <= alpha:
            j += 1
            if j == m:
                start = i - m + 1
                err = 0.0
                for q in range(m):
                    e = pat[q] - text[start + q]
                    err += -e if e < 0.0 else e
                if err <= beta:
                    out.append(start)
                j = 0
    return out


@dataclass(frozen=True)
class IncrementalMatcher:
    """Streaming matcher state for a pattern that slides forward one minute
    at a time.

    Instead of rebuilding the prefix table after each slide, the pattern
    grows by the new measurement and the oldest elements are treated as
    wildcards that match anything.  The prefix table is extended by a single
    recurrence step per advance.  Once the grown pattern reaches twice its
    initial length, the matcher restarts from the most recent
    ``initial_length`` values with a fresh table.

    The effective pattern (the non-wildcard suffix) always has
    ``initial_length`` elements between operations.
    """

    grown_pattern: tuple[float, ...]
    ignored_prefix: int
    initial_length: int
    tolerance: Tolerance
    prefix_table: tuple[int, ...]

    @property
    def effective_pattern(self) -> tuple[float, ...]:
        return self.grown_pattern[self.ignored_prefix :]


def incremental_new(initial: Sequence[float], tol: Tolerance) -> IncrementalMatcher:
    if len(initial) == 0:
        raise ValueError("initial pattern must be non-empty")
    return IncrementalMatcher(
        grown_pattern=tuple(float(v) for v in initial),
        ignored_prefix=0,
        initial_length=len(initial),
        tolerance=tol,
        prefix_table=tuple(prefix_function(initial, tol.alpha)),
    )


def _wild_close(grown: tuple[float, ...], ignored: int, alpha: float, j: int, i: int) -> bool:
    # Positions before the ignored prefix match anything.
    return j < ignored or abs(grown[j] - grown[i]) <= alpha


def incremental_advance(matcher: IncrementalMatcher, value: float) -> IncrementalMatcher:
    """Slide the effective pattern forward by one measurement."""
    grown = matcher.grown_pattern + (float(value),)
    ignored = matcher.ignored_prefix + 1
    if len(grown) >= 2 * matcher.initial_length:
        return incremental_new(grown[-matcher.initial_length :], matcher.tolerance)
    alpha = matcher.tolerance.alpha
    table = list(matcher.prefix_table)
    # One further step of the prefix recurrence; earlier entries are kept
    # as computed under the previous wildcard count.
    i = len(grown) - 1
    j = table[i - 1]
    while j > 0 and not _wild_close(grown, ignored, alpha, j, i):
        j = table[j - 1]
    table.append(j + 1 if _wild_close(grown, ignored, alpha, j, i) else j)
    return IncrementalMatcher(
        grown_pattern=grown,
        ignored_prefix=ignored,
        initial_length=matcher.initial_length,
        tolerance=matcher.tolerance,
        prefix_table=tuple(table),
    )


def incremental_search(matcher: IncrementalMatcher, text: Sequence[float]) -> list[int]:
    """Starts of approximate occurrences of the effective pattern.

    Wildcard positions always match and contribute nothing to the total
    error, so the beta check covers the effective suffix only.  Starts are
    reported where the effective suffix aligns in ``text``.
    """
    grown = matcher.grown_pattern
    table = matcher.prefix_table
    ignored = matcher.ignored_prefix
    alpha = matcher.tolerance.alpha
    beta = matcher.tolerance.beta
    glen = len(grown)
    if glen > len(text):
        return []
    out: list[int] = []
    j = 0
    for i, x in enumerate(text):
        while j > 0 and not (j < ignored or abs(x - grown[j]) <= alpha):
            j = table[j - 1]
        if j < ignored or abs(x - grown[j]) <= alpha:
            j += 1
        if j == glen:
            win_start = i - glen + 1
            err = 0.0
            for q in range(ignored, glen):
                err += abs(grown[q] - text[win_start + q])
            if err <= beta:
                out.append(win_start + ignored)
            j = 0
    return out

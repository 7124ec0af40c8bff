"""Tolerant pattern search over numeric sequences.

A pattern P approximately occurs in a text T when every aligned element pair
differs by at most ``alpha`` during the scan and the total absolute
difference over the window is at most ``beta``.  The scan is a KMP-style
single pass: a prefix table built with the same per-element tolerance drives
the shifts, so the scan itself runs in time linear in ``len(T) + len(P)``.

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

Skipping in C.  Most of a long text is crossed at state 0 by elements that
do not advance it.  A :class:`RankIndex` writes the text once as bytes, one
per element: the rank of its value among the text's distinct values (its
levels), or for more than 256 levels a bucket of neighbouring ranks.  The
scan calls ``x`` close to ``p`` when ``fl(x - p)`` lies in
``[-alpha, alpha]``, and correctly rounded subtraction is monotone in ``x``,
so the levels close to ``p`` form one contiguous run of ranks; two
bisections over the levels find it.  A 256-byte table then marks each byte
close to ``P[0]`` and each close to ``P[1]``, ``bytes.translate`` marks the
scanned span, and one regex compiled at import finds the next element that
is close to ``P[0]`` and followed by one close to ``P[1]``.  The lookahead is
exact because ``pi[0] == 0``: state 1 failing at ``P[1]`` falls back to state
0 and compares that same element with ``P[0]``, just as a scan that never
left state 0 would.  From each element found, the KMP steps, prefix-table
fallbacks and beta check run as they always did until the state is back at
0.  With buckets the marks cover a superset of the close elements, which
only costs steps: a stepped element that does not advance the state leaves
it at 0.  The index costs one byte per element plus the sorted levels, and
``O(n log L)`` to build once per text of ``n`` elements with ``L`` levels.
A text holding NaN has no order to rank by and is always stepped.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from operator import eq
from typing import Optional, Sequence


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


class RankIndex:
    """A sequence of values, also written as one byte per element.

    ``levels`` are the distinct values in ascending order.  The byte of an
    element is the rank ``r`` of its value among the ``L`` levels, scaled to
    ``r * 256 // L``: the rank itself when there are at most 256 levels, a
    bucket of neighbouring ranks beyond.  ``codes`` is ``None`` when a value
    is NaN.  Both are built on first use, so a sequence that is only ever
    scanned over short spans never pays for them.
    """

    def __init__(self, values: Sequence[float]) -> None:
        self.values = values

    @cached_property
    def levels(self) -> list[float]:
        return sorted(set(self.values))

    @cached_property
    def codes(self) -> Optional[bytes]:
        if not all(map(eq, self.levels, self.levels)):
            return None  # NaN equals nothing, itself included
        n = len(self.levels)
        code = dict(zip(self.levels, (r * 256 // n for r in range(n))))
        return bytes(map(code.__getitem__, self.values))

    def code_range(self, p: float, alpha: float) -> tuple[int, int]:
        """``range(first, end)`` of the codes of the elements that the scan
        finds alpha-close to ``p``; with at most 256 levels, of no others."""
        first = bisect_left(self.levels, True, key=lambda v: v - p >= -alpha)
        end = bisect_left(self.levels, True, key=lambda v: v - p > alpha)
        if first == end:
            return 0, 0
        n = len(self.levels)
        return first * 256 // n, (end - 1) * 256 // n + 1


# Spans shorter than this are stepped element by element: marking them costs
# about as much as stepping them.
_SKIP_SPAN = 512
# Elements copied for each slice stepped after a search; the state is checked
# again after each slice.
_STEP_SLICE = 32
# The mark of an element is 1 when it is close to pattern[0], plus 2 when it
# is close to pattern[1].
_MARK_NEXT = bytes.maketrans(b"\x00\x01", b"\x02\x03")
_ADVANCES = re.compile(rb"[\x01\x03]")
_ADVANCES_THEN_NEXT = re.compile(rb"[\x01\x03](?=[\x02\x03])")


def _state0_marks(
    index: RankIndex, pattern: Sequence[float], alpha: float, lo: int, hi: int
) -> tuple[bytes, re.Pattern]:
    """Marks of ``index.values[lo:hi]``, and the regex that finds in them
    every element where scan state 0 advances whose successor, for a pattern
    of two or more, is close to ``pattern[1]``."""
    table = bytearray(256)
    first, end = index.code_range(pattern[0], alpha)
    table[first:end] = b"\x01" * (end - first)
    if len(pattern) == 1:
        regex = _ADVANCES
    else:
        first, end = index.code_range(pattern[1], alpha)
        table[first:end] = table[first:end].translate(_MARK_NEXT)
        regex = _ADVANCES_THEN_NEXT
    return index.codes[lo:hi].translate(table), regex


def scan(index: RankIndex, pattern: Sequence[float], tol: Tolerance, lo: int, hi: int) -> list[int]:
    """Starts of non-overlapping approximate occurrences of ``pattern`` in
    ``index.values[lo:hi]``, as indices into ``index.values``: exactly
    ``search(index.values[lo:hi], pattern, tol)``, each shifted by ``lo``.

    Returns an empty list when the pattern is longer than the span.
    """
    values = index.values
    if not 0 <= lo <= hi <= len(values):
        raise IndexError(f"span [{lo}, {hi}) outside text of length {len(values)}")
    m = len(pattern)
    if m == 0:
        raise ValueError("pattern must be non-empty")
    if m > hi - lo:
        return []
    alpha = tol.alpha
    beta = tol.beta
    pat = list(pattern)
    find = None
    if hi - lo >= _SKIP_SPAN and index.codes is not None:
        marks, regex = _state0_marks(index, pat, alpha, lo, hi)
        find = regex.search
    pi = None
    out: list[int] = []
    # Positions count from lo, as in marks, so that short spans use only
    # the small ints that Python keeps cached.
    span = hi - lo
    i = j = 0
    while i < span:
        stop = span
        if find is not None:
            if j == 0:
                found = find(marks, i)
                if found is None:
                    break
                i = found.start()
            # State 0 usually returns within a few elements, so only a short
            # slice is copied before the state is checked again.
            stop = min(span, i + _STEP_SLICE)
        if pi is None:
            pi = prefix_function(pat, alpha)
        # Hot loop: local names only, abs() unrolled to a branch.  With a
        # finder, it runs only until the state is back to 0.
        for i, x in enumerate(values[lo + i : lo + stop], i):
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
                    start = lo + i - m + 1
                    err = 0.0
                    for a, y in zip(pat, values[start : start + m]):
                        e = a - y
                        err += -e if e < 0.0 else e
                    if err <= beta:
                        out.append(start)
                    j = 0
            elif find is not None:
                break
        i += 1
    return out


def search(text: Sequence[float], pattern: Sequence[float], tol: Tolerance) -> list[int]:
    """Start indices of non-overlapping approximate occurrences of ``pattern``.

    Returns an empty list when the pattern is longer than the text, so
    callers can degrade gracefully while history is still short.  The text
    is indexed afresh; a caller that scans one text many times keeps a
    :class:`RankIndex` of it and calls :func:`scan`.
    """
    return scan(RankIndex(text), pattern, tol, 0, len(text))


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

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
do not advance it.  A :class:`RankIndex` of a text of at most 256 distinct
values (levels) writes it once as bytes, one per element: the rank of its
value among the levels.  The scan calls ``x`` close to ``p`` when
``fl(x - p)`` lies in ``[-alpha, alpha]``, and correctly rounded subtraction
is monotone in ``x``, so the levels close to ``p`` form one contiguous run of
ranks; two bisections over the levels find it, and a 256-byte table that
marks those ranks 1 turns the span's bytes into its marks, which are exactly
its close elements, with one ``bytes.translate``.

* **Candidates.**  The marks of ``P[0]`` and those of ``P[1]`` shifted back
  by one, with a 1 for the span's last element (every element, for a
  pattern of one), are ANDed as two big integers into the candidate
  string: 1 where an element close to ``P[0]`` is followed by one close to
  ``P[1]`` or ends the span.  ``bytes.find`` (a memchr) finds the next one.
  The lookahead is exact because ``pi[0] == 0``: state 1 failing at
  ``P[1]`` falls back to state 0 and compares that same element with
  ``P[0]``, just as a scan that never left state 0 would.  From each
  candidate the KMP steps, prefix-table fallbacks and beta check run as
  they always did until the state is back at 0.
* **Skip to state 2.**  For ``m >= 3`` a candidate with two elements after
  it in the span leaves the scan at state 2 after its successor, and
  stepping starts at the element after that with ``j = 2``.
* **Exit at ``P[2]``.**  When also ``pi[1] == 0``, an element not marked
  close to ``P[2]`` (a third translate) takes state 2 back to state 0 and
  is compared with ``P[0]`` afresh, which is a state-0 search from it: the
  scan searches again from there and steps nothing.

The index costs one byte per element plus the sorted levels, and
``O(n log L)`` to build for ``n`` elements with ``L`` levels, so only a
caller that scans one text many times keeps one and pays that; :func:`scan`
skips only through a :class:`RankIndex` it is given, and :func:`search`
steps its text.  A text of more than 256 levels gets no bytes and is
stepped, and so is one holding NaN or an infinity: NaN has no order to rank
by, and ``inf - inf`` is NaN, which the scan never finds close although the
infinite level lies inside its own run of ranks, and which at a state above
0 neither advances nor falls back.
"""

from __future__ import annotations

from bisect import bisect_left
from math import isfinite
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence


@dataclass(frozen=True)
class Tolerance:
    """Per-element bound ``alpha`` and total-difference bound ``beta``."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        # NaN compares false with everything, so it fails here too
        if not (self.alpha >= 0 and self.beta >= 0):
            raise ValueError(
                f"tolerances must be non-negative numbers, got alpha {self.alpha!r}"
                f" and beta {self.beta!r}"
            )


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

    ``levels`` are the distinct values in ascending order, and the byte of an
    element is the rank of its value among them.  ``codes`` is ``None`` when
    there are more than 256 levels, or when a value is NaN or infinite: NaN
    has no order to rank by, and ``inf - inf`` is NaN, which neither advances
    the scan's state nor lets it fall back, so no mark can stand for it.
    Both are built on first use, so a sequence that is only ever scanned over
    short spans never pays for them.
    """

    def __init__(self, values: Sequence[float]) -> None:
        self.values = values

    @cached_property
    def levels(self) -> list[float]:
        return sorted(set(self.values))

    @cached_property
    def codes(self) -> Optional[bytes]:
        if len(self.levels) > 256 or not all(map(isfinite, self.levels)):
            return None  # NaN has no order, and inf - inf is NaN
        return bytes(map({v: r for r, v in enumerate(self.levels)}.__getitem__, self.values))

    def code_range(self, p: float, alpha: float) -> tuple[int, int]:
        """``range(first, end)`` of the ranks of the levels that the scan
        finds alpha-close to ``p``."""
        first = bisect_left(self.levels, True, key=lambda v: v - p >= -alpha)
        return first, bisect_left(self.levels, True, key=lambda v: v - p > alpha)


# Spans shorter than this are stepped element by element: marking them costs
# about as much as stepping them.
_SKIP_SPAN = 512
# Elements copied for each slice stepped after a search; the state is checked
# again after each slice.
_STEP_SLICE = 32


def _marks(index: RankIndex, p: float, alpha: float) -> bytes:
    """A translate table that maps the codes of ``code_range(p, alpha)`` to 1
    and every other code to 0."""
    first, end = index.code_range(p, alpha)
    return bytes(first) + b"\x01" * (end - first) + bytes(256 - end)


def _candidates(
    index: RankIndex, pattern: Sequence[float], alpha: float, lo: int, hi: int
) -> bytes:
    """1 at each position of ``index.values[lo:hi]`` marked close to
    ``pattern[0]`` whose successor is marked close to ``pattern[1]`` or that
    ends the span (every position marked close to ``pattern[0]``, for a
    pattern of one); 0 elsewhere."""
    codes = index.codes
    head = codes[lo:hi].translate(_marks(index, pattern[0], alpha))
    if len(pattern) == 1:
        return head
    # The successor's mark, shifted onto its predecessor; the last position
    # has none and keeps its own.
    succ = codes[lo + 1 : hi].translate(_marks(index, pattern[1], alpha)) + b"\x01"
    both = int.from_bytes(head, "big") & int.from_bytes(succ, "big")
    return both.to_bytes(hi - lo, "big")


def scan(
    text: Sequence[float] | RankIndex, pattern: Sequence[float], tol: Tolerance, lo: int, hi: int
) -> list[int]:
    """Starts of non-overlapping approximate occurrences of ``pattern`` in
    ``text[lo:hi]``, as indices into ``text``: exactly
    ``search(text[lo:hi], pattern, tol)``, each shifted by ``lo``, so empty
    when the pattern is longer than the span.  ``text`` is a sequence, which
    is stepped, or a :class:`RankIndex` of one, through which spans of
    ``_SKIP_SPAN`` or more skip their state-0 stretches in C.
    """
    indexed = isinstance(text, RankIndex)
    values = text.values if indexed else text
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
    pi = prefix_function(pat, alpha)
    # Positions count from lo, as in the candidate string, so that short
    # spans use only the small ints that Python keeps cached.
    span = hi - lo
    cand = third = None
    if indexed and span >= _SKIP_SPAN and text.codes is not None:
        cand = _candidates(text, pat, alpha, lo, hi)
        # The marks are exact: a candidate's minute and its successor are
        # close to pattern[0] and pattern[1], so they take the state to 2.
        # With pi[1] == 0, a minute not close to pattern[2] falls back to
        # state 0 and is compared with pattern[0] afresh, as a search from it
        # does; otherwise it falls back to state 1, so no minute exits.
        if m >= 3 and pi[1] == 0:
            third = text.codes[lo:hi].translate(_marks(text, pat[2], alpha))
    out: list[int] = []
    i = j = 0
    while i < span:
        stop = span
        if cand is not None:
            if j == 0:
                i = cand.find(1, i)
                if i < 0:
                    break
                if m >= 3 and i + 2 < span:
                    i += 2
                    if third is not None and not third[i]:
                        continue
                    j = 2
            # State 0 usually returns within a few elements, so only a short
            # slice is copied before the state is checked again.
            stop = min(span, i + _STEP_SLICE)
        # Hot loop: local names only, abs() unrolled to a branch.  With a
        # candidate string, it runs only until the state is back to 0.
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
            elif cand is not None:
                break
        i += 1
    return out


def search(text: Sequence[float], pattern: Sequence[float], tol: Tolerance) -> list[int]:
    """Start indices of non-overlapping approximate occurrences of ``pattern``.

    Returns an empty list when the pattern is longer than the text, so
    callers can degrade gracefully while history is still short.  The text
    is stepped element by element and not indexed; a caller that scans one
    text many times keeps a :class:`RankIndex` of it and calls :func:`scan`.
    """
    return scan(text, pattern, tol, 0, len(text))


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

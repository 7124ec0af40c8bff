"""Tolerant pattern search over numeric sequences.

A pattern P approximately occurs in a text T when every aligned element pair
differs by at most ``alpha`` during the scan and the total absolute
difference over the window is at most ``beta``.  The scan is a KMP-style
single pass: a prefix table built with the same per-element tolerance drives
the shifts, so the scan itself runs in time linear in ``len(T) + len(P)``.

Guarantees of the returned start indices:

* the total absolute difference of every start's window, summed afresh, is
  at most ``beta`` (beta-soundness; ``total_error`` in
  ``tests/test_matching.py`` is that recheck);
* consecutive starts differ by at least ``len(P)`` (the scan state resets
  after every full per-element match, whether or not the total-error check
  passes, so a failing window still consumes its span of text).

Per-element closeness of every aligned pair is NOT guaranteed for accepted
starts: closeness within ``alpha`` is not transitive, so shifts taken through
the prefix table can admit pairs slightly beyond it.  Only beta-soundness and
spacing are contractual.

Skipping in C.  Most of a long text is crossed at state 0 by elements that
do not advance it.  A :class:`RankIndex` of a text of at most 256 distinct
values (levels), each an integer as every count is, writes it once as bytes,
one per element: the rank of its value among the levels.  The scan calls
``x`` close to ``p`` when ``fl(x - p)`` lies in ``[-alpha, alpha]``, and
correctly rounded subtraction is monotone in ``x``, so the levels close to
``p`` form one contiguous run of ranks; two bisections over the levels find
it, and a 256-byte table that marks those ranks 1 turns the span's bytes
into its marks, which are exactly its close elements, with one
``bytes.translate``.  The scan skips so only for a pattern whose every value
is a level, as every pattern ``detect`` takes from its series is: each value
is then close to itself, so no run of ranks is empty.

* **Candidates.**  The marks of ``P[0]`` are the candidate string: at
  state 0 an element not close to ``P[0]`` leaves the state at 0, so the
  scan passes over it.  ``bytes.find`` (a memchr) finds the next candidate,
  and from it, with ``j = 0``, the KMP steps, prefix-table fallbacks and
  beta check run as they always did until the state is back at 0.
* **No tail, no match.**  Before any candidate, the scan checks that the span
  can end a full match at all.  Let ``L = m - max(pi)``, at least 1.  The
  state rises by at most one per element, and an element that raises it from
  ``q`` to ``q + 1`` is close to ``P[q]``.  Take the last element up to a
  full match at ``i`` at which the state did not rise by one from where it
  stood: it fell back through the prefix table, or missed at state 0, so
  from it the state climbs from some ``q <= max(pi)`` to ``m`` one element
  at a time (from 0 if there is none since the last reset or the span's
  start).  So ``x[i - r]`` is close to ``P[m - 1 - r]`` for every ``r < L``.
  The index keeps, for each rank ``r`` a scan asks about, a bit per
  element set where the code is at most ``r``; the elements close to
  ``P[q]`` are one of those bitsets less a smaller one, sliced to the span's
  bytes.  Shifted by ``r`` and ANDed over ``r < L`` (a Shift-And test of the
  aligned suffix, after Baeza-Yates and Gonnet), they leave the possible
  ends in ``[lo + L - 1, hi)``.  None means no full match, so the scan returns
  ``[]``; the exact path and the block jump return what stepping returns, so
  they agree.  In the three-day benchmark data this answers 304 (seed 1234)
  and 307 (seed 4321) of the 1,253 windows at each of lookbacks 1440 and
  7200, every ``C:`` window that would build candidates, and 1,126 and 923
  of the 4,193 ten-day windows.
* **Whole blocks.**  Once the certificate passes, the scan translates the
  span once more, into its runs: 1 where an element is close to *every*
  value of ``P``.  ``code_range`` is monotone in ``p``, so those are the
  ranks from the first of ``code_range(max(P))`` to the end of
  ``code_range(min(P))``.  Where a search for a candidate lands in a run,
  each whole block of ``len(P)`` elements of it takes state 0 to a full
  match with no fallback and leaves the state at 0, as stepping does; the
  scan jumps the blocks.  Let ``worst`` be the larger of
  ``max(P) - levels[first]`` and ``levels[end - 1] - min(P)``.  Rounded
  subtraction is monotone, so no term of a block's total error exceeds
  ``worst``, and a left fold of ``m`` such terms is at most
  ``m * worst * (1 + 2**-53) ** (m - 1)``; when
  ``worst * m * (1 + m * 2**-51) <= beta`` every block is a start, and
  otherwise each block's error is summed from the hot loop's terms in its
  order.  The flat patterns of ``A`` take this path: in the three-day
  benchmark data, 149 (seed 1234) and 153 (seed 4321) of the 1,253 windows
  at each of lookbacks 1440 and 7200, and 566 of the 4,193 ten-day windows;
  none at lookback 58, whose spans are stepped.

Matching exactly.  When ``alpha`` is below the index's ``gap``, the smallest
difference of two adjacent levels, the scan neither builds candidates nor
steps: it returns the non-overlapping occurrences of ``P``'s codes in the
span's codes, one ``bytes.find`` each, the next searched from the previous
start plus ``len(P)``.  The starts are the same:

* correctly rounded subtraction is monotone, so two distinct levels differ
  by at least ``gap > alpha``, and the scan finds ``x`` close to a level
  ``p`` exactly when ``x == p``, that is, when their codes are equal
  (``-0.0`` ranks as ``0.0``, and their difference is 0);
* the prefix table is then the classical one, and a KMP that resets after
  every full match reports the leftmost non-overlapping occurrences, which
  is what the repeated searches find;
* each occurrence has a total error of ``0.0 <= beta``.

At ``alpha == gap`` the scan keeps to its candidates.  Low per-IP counts
take this path: in the three-day benchmark data, 331 (seed 1234) and 328
(seed 4321) of the windows scanned through an index at each of lookbacks
1440 and 7200, all of them in the ``C:`` series.  ``TestPathCounts`` in
``tests/test_matching.py`` pins the three-day counts of every path.

The index costs one byte per element plus the sorted levels, and
``O(n log L)`` to build for ``n`` elements with ``L`` levels, and an eighth
of a byte per element for each rank whose bitset a scan reads, so only a
caller that scans one text many times keeps one and pays that; :func:`scan`
skips only through a :class:`RankIndex` it is given, and :func:`search`
steps its text.  A text of more than 256 levels, or of a level that is no
integer, gets no bytes and is stepped, and so is a pattern with a value that
is no level, so that :func:`scan` is :func:`search` for any text.
"""

from __future__ import annotations

from bisect import bisect_left
from math import inf
from operator import add, sub
from dataclasses import dataclass
from functools import cached_property, reduce
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


class RankIndex:
    """A sequence of values, also written as one byte per element.

    ``levels`` are the distinct values in ascending order, ``ranks`` maps
    each to its rank, and the byte of an element is the rank of its value.
    ``gap`` is the smallest difference of two adjacent levels, subtracted as
    the scan subtracts; below it, the scan matches codes exactly.  ``codes``
    is ``None`` when there are more than 256 levels, or when a level is not
    an integer, which no count is.  All are built on first use, and so is
    each bitset of :meth:`at_most`, so a sequence that is only ever scanned
    over short spans never pays for them.
    """

    def __init__(self, values: Sequence[float]) -> None:
        self.values = values
        self._at_most: dict[int, bytes] = {}

    @cached_property
    def levels(self) -> list[float]:
        return sorted(set(self.values))

    @cached_property
    def ranks(self) -> dict[float, int]:
        """The rank of each level; ``-0.0`` finds the rank of ``0.0``."""
        return {v: r for r, v in enumerate(self.levels)}

    @cached_property
    def codes(self) -> Optional[bytes]:
        # is_integer is false for NaN and the infinities; levels may be ints
        if len(self.levels) > 256 or not all(float(v).is_integer() for v in self.levels):
            return None
        return bytes(map(self.ranks.__getitem__, self.values))

    @cached_property
    def gap(self) -> float:
        """The smallest difference of two adjacent levels, subtracted as the
        scan subtracts; ``inf`` for fewer than two levels."""
        return min(map(sub, self.levels[1:], self.levels[:-1]), default=inf)

    def code_range(self, p: float, alpha: float) -> tuple[int, int]:
        """``range(first, end)`` of the ranks of the levels that the scan
        finds alpha-close to ``p``."""
        first = bisect_left(self.levels, True, key=lambda v: v - p >= -alpha)
        return first, bisect_left(self.levels, True, key=lambda v: v - p > alpha)

    def at_most(self, r: int) -> bytes:
        """A bit per element, set where its code is at most ``r``, packed
        eight to a byte with element 0 in the first byte's top bit; built on
        first use for each rank, and kept."""
        bits = self._at_most.get(r)
        if bits is None:
            table = b"1" * (r + 1) + b"0" * (255 - r)
            n = len(self.codes)
            # int() reads the ASCII digits as one base-2 number, element 0 first.
            packed = int(self.codes.translate(table), 2) << (-n % 8)
            bits = self._at_most[r] = packed.to_bytes((n + 7) // 8, "big")
        return bits


# Spans shorter than this are stepped element by element: marking them costs
# about as much as stepping them.
_SKIP_SPAN = 512
# Elements copied for each slice stepped after a search; the state is checked
# again after each slice.
_STEP_SLICE = 32


def _marks(first: int, end: int) -> bytes:
    """A translate table that maps the codes ``range(first, end)`` to 1 and
    every other code to 0."""
    return bytes(first) + b"\x01" * (end - first) + bytes(256 - end)


def _candidates(
    index: RankIndex, pattern: Sequence[float], alpha: float, lo: int, hi: int
) -> bytes:
    """1 at each position of ``index.values[lo:hi]`` marked close to
    ``pattern[0]``, 0 elsewhere."""
    return index.codes[lo:hi].translate(_marks(*index.code_range(pattern[0], alpha)))


def _tail_ends(
    index: RankIndex, pattern: Sequence[float], alpha: float, tail: int, lo: int, hi: int
) -> bool:
    """Whether some ``i`` in ``[lo + tail - 1, hi)`` ends ``tail`` elements
    each marked close to the value of ``pattern`` it aligns with when
    ``pattern`` ends at ``i``; every value of ``pattern`` is a level."""
    # Element i is bit 8 * b - 1 - i of the bytes sliced from each bitset.
    first_byte, b = lo // 8, (hi + 7) // 8
    ends = ((1 << (hi - lo - tail + 1)) - 1) << (8 * b - hi)
    marked: dict[float, int] = {}  # the close elements of each value, once
    for r in range(tail):
        p = pattern[-1 - r]
        close = marked.get(p)
        if close is None:
            first, end = index.code_range(p, alpha)
            # The ranks at most end - 1 less those at most first - 1, a subset.
            close = int.from_bytes(index.at_most(end - 1)[first_byte:b], "big")
            if first:
                close ^= int.from_bytes(index.at_most(first - 1)[first_byte:b], "big")
            marked[p] = close
        # Element i - r moves onto end position i.
        ends &= close >> r
        if not ends:
            return False
    return True


def _runs(
    index: RankIndex, pattern: Sequence[float], tol: Tolerance, lo: int, hi: int
) -> tuple[bytes, bool]:
    """1 at each position of ``index.values[lo:hi]`` that the scan finds
    close to every value of ``pattern``, 0 elsewhere, and whether a bound
    puts the total error of any block of ``len(pattern)`` such positions
    within ``tol.beta`` (if not, each block must be summed).  The string is
    empty when no level is close to every value."""
    top, bottom = max(pattern), min(pattern)
    # code_range is monotone in p, so the highest value has the highest first
    # rank and the lowest value the lowest end.
    first = index.code_range(top, tol.alpha)[0]
    end = index.code_range(bottom, tol.alpha)[1]
    if first >= end:
        return b"", False
    # Rounded subtraction is monotone, so no term exceeds worst, and a left
    # fold of m terms is at most m * worst * (1 + 2**-53) ** (m - 1).
    worst = max(top - index.levels[first], index.levels[end - 1] - bottom)
    m = len(pattern)
    fits = worst * m * (1.0 + m * 2.0**-51) <= tol.beta
    return index.codes[lo:hi].translate(_marks(first, end)), fits


def scan(
    text: Sequence[float] | RankIndex, pattern: Sequence[float], tol: Tolerance, lo: int, hi: int
) -> list[int]:
    """Starts of non-overlapping approximate occurrences of ``pattern`` in
    ``text[lo:hi]``, as indices into ``text``: exactly
    ``search(text[lo:hi], pattern, tol)``, each shifted by ``lo``, so empty
    when the pattern is longer than the span.  ``text`` is a sequence, which
    is stepped, or a :class:`RankIndex` of one, through which spans of
    ``_SKIP_SPAN`` or more return at once when no pattern tail ends in them,
    skip their state-0 stretches in C and jump whole blocks of elements
    close to every pattern value, or, below the index's ``gap``, are
    searched for the pattern's codes.
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
    # Positions count from lo, as in the candidate string, so that short
    # spans use only the small ints that Python keeps cached.
    span = hi - lo
    codes = text.codes if indexed and span >= _SKIP_SPAN else None
    if codes is not None and not all(map(text.ranks.__contains__, pat)):
        codes = None  # a pattern of levels has each value close to its own code
    if codes is not None and alpha < text.gap:
        # Below the level gap only equal values are close, and every match
        # has total error 0.0: the scan is classical KMP, resetting after each
        # full match, which finds what repeated searches for the codes find.
        needle = bytes(map(text.ranks.__getitem__, pat))
        found: list[int] = []
        start = codes.find(needle, lo, hi)
        while start >= 0:
            found.append(start)
            start = codes.find(needle, start + m, hi)
        return found
    pi = prefix_function(pat, alpha)
    cand = runs = None
    fits = False
    if codes is not None:
        # A full match ends on m - max(pi) minutes that each raised the state
        # by one, so none can end where those minutes are not close to the
        # pattern's last values.
        if not _tail_ends(text, pat, alpha, m - max(pi), lo, hi):
            return []
        cand = _candidates(text, pat, alpha, lo, hi)
        runs, fits = _runs(text, pat, tol, lo, hi)
    out: list[int] = []
    i = j = 0
    while i < span:
        stop = span
        if cand is not None:
            if j == 0:
                i = cand.find(1, i)
                if i < 0:
                    break
                if runs and runs[i]:
                    # Each whole block of the run takes the state from 0 to m
                    # with no fallback and leaves it at 0.
                    q = runs.find(0, i)
                    n = ((span if q < 0 else q) - i) // m
                    if n:
                        blocks = range(lo + i, lo + i + n * m, m)
                        if fits:
                            out.extend(blocks)
                        else:
                            # The hot loop's terms, in its order.
                            out.extend(
                                s for s in blocks
                                if reduce(add, map(abs, map(sub, pat, values[s : s + m])), 0.0) <= beta
                            )
                        i += n * m
                        continue
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
                    if cand is not None:
                        break  # state 0 is searched for
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

import functools
import itertools
import math
import operator
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from dnswatch import detector, matching
from dnswatch.detector import DetectorConfig, ThresholdSet, detect_series
from dnswatch.ingest import aggregate_all
from dnswatch.matching import RankIndex, Tolerance, prefix_function, scan, search
from dnswatch.synth import SynthProfile, iter_events


def classical_prefix(pattern):
    # textbook prefix function, used as the tolerance-zero oracle
    table = [0] * len(pattern)
    for i in range(1, len(pattern)):
        j = table[i - 1]
        while j > 0 and pattern[i] != pattern[j]:
            j = table[j - 1]
        if pattern[i] == pattern[j]:
            j += 1
        table[i] = j
    return table


def greedy_exact_scan(text, pattern):
    # leftmost non-overlapping exact occurrences
    out = []
    m = len(pattern)
    s = 0
    while s + m <= len(text):
        if list(text[s : s + m]) == list(pattern):
            out.append(s)
            s += m
        else:
            s += 1
    return out


def reference_search(text, pattern, tol):
    # The scan as it was before the rank index, kept verbatim as the oracle
    # of the indexed one: every element stepped in Python.
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


def total_error(pattern, text, offs):
    # The recheck of beta-soundness: the window's total absolute difference,
    # summed afresh.
    if offs < 0 or offs + len(pattern) > len(text):
        raise IndexError(
            f"window [{offs}, {offs + len(pattern)}) outside text of length {len(text)}"
        )
    total = 0.0
    for i in range(len(pattern)):
        total += abs(pattern[i] - text[offs + i])
    return total


def exhaustive_tolerant_scan(text, pattern, tol):
    # Leftmost non-overlapping windows whose every aligned pair is within
    # alpha and whose total error is within beta.
    out = []
    m = len(pattern)
    s = 0
    while s + m <= len(text):
        if all(abs(p - x) <= tol.alpha for p, x in zip(pattern, text[s : s + m])) and (
            total_error(pattern, text, s) <= tol.beta
        ):
            out.append(s)
            s += m
        else:
            s += 1
    return out


# Levels that repeat, signed zeros among them: counts, as a series holds.
_LEVELS = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 10.0]),
        st.integers(0, 50).map(float),
    ),
    min_size=1,
    max_size=12,
)


def _traced_scan(text, pattern, tol, lo, hi):
    """``scan``'s starts, and a count of what it called: the prefix tables
    it built, the tail tests it ran and those that found no end, the ranges
    of whole blocks it jumped and the blocks in them, and the blocks whose
    error it summed.  The spies replace the module's names; the scan itself
    is unchanged."""
    seen = Counter()
    tail_ends = matching._tail_ends

    def table(*args):
        seen["tables"] += 1
        return prefix_function(*args)

    def tail(*args):
        ends = tail_ends(*args)
        seen["tails"] += 1
        seen["certified"] += not ends
        return ends

    def blocks(*args):
        if len(args) == 3:
            seen["jumps"] += 1
            seen["blocks"] += len(range(*args))
        return range(*args)

    def summed(*args):
        seen["summed"] += 1
        return functools.reduce(*args)

    with mock.patch.multiple(matching, create=True, prefix_function=table, _tail_ends=tail,
                             range=blocks, reduce=summed):
        starts = scan(text, pattern, tol, lo, hi)
    return starts, seen


def _path(seen, pattern, lo, hi):
    # the path of a traced scan, named for hypothesis' statistics
    if len(pattern) > hi - lo:
        return "pattern longer than the span"
    if not seen["tables"]:
        return "exact"
    if not seen["tails"]:
        return "stepped"
    if seen["certified"]:
        return "no tail ends"
    if not seen["jumps"]:
        return "candidates"
    return "blocks summed" if seen["summed"] else "blocks under the bound"


@st.composite
def _scan_cases(draw):
    """A text of up to several thousand elements with copies of the pattern
    planted in it, a tolerance whose alpha often equals the distance between
    two levels, and a span ``[lo, hi)`` of the text.  Infinite levels and
    pattern values, and infinite tolerances, reach the pairs whose
    difference is ``inf - inf``, which is NaN; those and a level that is no
    integer make the scan step."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    levels = draw(_LEVELS, label="levels")
    if rng.random() < 0.2:  # a text with a level that is no count is stepped
        levels = levels + rng.sample([math.inf, -math.inf, 2.5], rng.randint(1, 2))
    # Patterns beyond 32 elements outlast the slice stepped after a search.
    m = draw(st.integers(1, 12) | st.integers(30, 50), label="m")
    infinite = [math.inf, -math.inf] if draw(st.booleans(), label="infinite pattern values") else []
    values = st.sampled_from(levels + infinite)
    pattern = draw(st.lists(values, min_size=m, max_size=m), label="pattern")
    if m >= 2 and draw(st.booleans(), label="pattern[1] = pattern[0]"):
        pattern[1] = pattern[0]  # pi[1] == 1 at every alpha
    n = draw(st.sampled_from([m, 40, 600, 3000, 6000]), label="n")
    if draw(st.booleans(), label="more than 256 levels"):
        levels = levels + [rng.uniform(0.0, 50.0) for _ in range(300)]
    text = []
    while len(text) < n:
        r = rng.random()
        if r < 0.3:
            # A copy of the pattern, each element kept or swapped for a level,
            # after a few of its first elements that fall back into it.
            text.extend(pattern[: rng.randint(0, 2)])
            text.extend(p if rng.random() < 0.8 else rng.choice(levels) for p in pattern)
        elif r < 0.6:
            # A partial match, which falls back through the prefix table.
            text.extend(pattern[: rng.randint(1, m)])
        else:
            text.extend(rng.choice(levels) for _ in range(rng.randint(1, 40)))
    text = tuple(text[:n])
    ordered = sorted(set(text))
    # A pattern value that is no level is stepped, so it is drawn less often.
    if len(ordered) >= 2 and draw(st.integers(0, 3), label="a pattern value between two levels") == 0:
        i = rng.randrange(len(ordered) - 1)
        pattern[rng.randrange(m)] = ordered[i] + (ordered[i + 1] - ordered[i]) / 2
    a, b = draw(st.sampled_from(levels), label="a"), draw(st.sampled_from(levels), label="b")
    # Below the text's smallest level gap only equal values are close.
    level_gap = min((y - x for x, y in zip(ordered, ordered[1:])), default=math.inf)
    gaps = [abs(a - b), abs(a - b) * 2, level_gap, math.nextafter(level_gap, 0), level_gap / 2]
    alpha = draw(st.sampled_from([0.0, *(g for g in gaps if not math.isnan(g)), 1e9, math.inf]),
                 label="alpha")
    beta = draw(st.sampled_from([0.0, alpha * m / 2, alpha * m, 1e12, math.inf]), label="beta")
    lo = draw(st.integers(0, n) | st.just(0), label="lo")
    hi = draw(st.integers(lo, n) | st.just(n), label="hi")
    if m >= 2:
        event(f"pi[1] == {prefix_function(pattern, alpha)[1]}")
    return text, pattern, Tolerance(alpha, beta), lo, hi


def _fold(terms):
    # the scan's left fold of a block's total error
    return functools.reduce(operator.add, terms, 0.0)


@st.composite
def _run_cases(draw):
    """A text of long runs over at most 256 levels, a pattern that is flat
    but for one outlier (a level, or at times a value that is no level, which
    is stepped), and a span of at least ``_SKIP_SPAN``.  Runs of minutes close
    to every pattern value last ``m - 1``, ``m``, ``m + 1`` or several
    blocks, and beta is drawn at ``m`` times the largest difference of a
    pattern value and such a minute, just below it and just above it."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    if draw(st.booleans(), label="256 levels"):
        levels = [float(v) for v in range(256)]
    else:
        levels = sorted(set(draw(_LEVELS, label="levels")))
    m = draw(st.sampled_from([1, 2, 3]) | st.integers(4, 30), label="m")
    pattern = [draw(st.sampled_from(levels), label="flat")] * m
    outlier = draw(st.none() | st.sampled_from(levels) | st.integers(0, 60).map(float)
                   | st.sampled_from([2.5, math.nan, math.inf]), label="outlier")
    if outlier is not None:
        pattern[rng.randrange(m)] = outlier
    a, b = draw(st.sampled_from(levels), label="a"), draw(st.sampled_from(levels), label="b")
    gaps = [abs(a - b), abs(pattern[0] - pattern[-1]), levels[-1] - levels[0]]
    alpha = draw(st.sampled_from([g for g in gaps if not math.isnan(g)] + [0.5, math.inf]),
                 label="alpha")
    close = [v for v in levels if all(abs(v - p) <= alpha for p in pattern)]
    n = draw(st.sampled_from([matching._SKIP_SPAN, 600, 1500, 3000]), label="n")
    text = []
    while len(text) < n:
        r = rng.random()
        if close and r < 0.5:
            length = rng.choice([m - 1, m, m + 1, 2 * m, 3 * m + 1, rng.randint(1, 100)])
            # The ends of the close levels give the largest terms.
            value = rng.choice([close[0], close[-1], rng.choice(close)])
            text.extend(value if rng.random() < 0.8 else rng.choice(close) for _ in range(length))
        elif r < 0.7:
            # A copy of the pattern, whose NaN or infinity a level replaces, so
            # that the text keeps its codes.
            text.extend(
                p if math.isfinite(p) and rng.random() < 0.8 else rng.choice(levels) for p in pattern
            )
        else:
            text.extend(rng.choice(levels) for _ in range(rng.randint(1, 10)))
    text = text[:n]
    if close and draw(st.booleans(), label="a run ends the text"):
        length = rng.choice([m - 1, m, m + 1])
        text = text[: n - length] + [rng.choice(close)] * length
    text = tuple(text)
    worst = max((abs(p - v) for p in pattern for v in close), default=1.0)
    bound = worst * m
    beta = draw(st.sampled_from([
        bound, math.nextafter(bound, 0), math.nextafter(bound, math.inf),
        _fold([worst] * m), bound / 2, 0.0, math.inf,
    ]), label="beta")
    lo = draw(st.integers(0, n - matching._SKIP_SPAN) | st.just(0), label="lo")
    hi = draw(st.integers(lo + matching._SKIP_SPAN, n) | st.just(n), label="hi")
    return text, pattern, Tolerance(alpha, beta), lo, hi


def _tail(pattern, alpha):
    # how many of the pattern's last values a full match must end on
    return len(pattern) - max(prefix_function(pattern, alpha))


@st.composite
def _tail_cases(draw):
    """A text over at most 12 levels stitched from copies of the pattern,
    many with one value swapped for a level not close to it, most often one
    of the last values that a full match must end on; at times a whole copy
    ends the span, at times it is the only one, and at times each minute
    that ends those last values is swapped for a level not close to the
    pattern's last.  The pattern has ``m`` of 1, 2, 3 or 24 values and
    repeats a period of ``p``, so that ``max(pi)`` runs from 0 to ``m - 1``,
    with a value that is no level in it at times, which is stepped.  Alpha
    is at, just below or just above the level gap (every level follows the
    span), and the span is ``_SKIP_SPAN`` minus one, ``_SKIP_SPAN``, one
    more, or longer."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    levels = sorted(set(draw(_LEVELS, label="levels")))
    m = draw(st.sampled_from([1, 2, 3, 24]), label="m")
    period = draw(st.sampled_from([1, m]) | st.integers(1, m), label="period")
    base = rng.sample(levels, period) if period <= len(levels) else rng.choices(levels, k=period)
    pattern = (base * m)[:m]
    odd = draw(st.sampled_from([None] * 12 + [math.nan, math.inf, -math.inf, 2.5, 61.0]),
               label="a value that is no level")
    if odd is not None:
        pattern[m - 1 - min(rng.randrange(m), rng.randrange(m))] = odd
    gap = RankIndex(levels).gap
    a, b = draw(st.sampled_from(levels), label="a"), draw(st.sampled_from(levels), label="b")
    alpha = draw(st.sampled_from([0.0, gap, math.nextafter(gap, 0), math.nextafter(gap, math.inf),
                                  abs(a - b), math.inf]), label="alpha")
    beta = draw(st.sampled_from([0.0, alpha * m / 2, 1e12, math.inf]), label="beta")
    finite = [p if math.isfinite(p) else rng.choice(levels) for p in pattern]
    span = draw(st.sampled_from([matching._SKIP_SPAN, matching._SKIP_SPAN - 1,
                                 matching._SKIP_SPAN + 1, 1200]), label="span")
    lo = draw(st.integers(0, 20), label="lo")
    whole = draw(st.booleans(), label="whole copies before the span's end")
    tail = _tail(finite, alpha)
    text = []
    while len(text) < lo + span:
        r = rng.random()
        copy = list(finite)
        if r < 0.5 or (r < 0.6 and not whole):
            # A near miss: one value swapped, most often one of the tail's.
            q = m - 1 - rng.randrange(tail if rng.random() < 0.8 else m)
            far = [v for v in levels if not abs(v - copy[q]) <= alpha]
            copy[q] = rng.choice(far or levels)
            text.extend(copy)
        elif r < 0.6:
            text.extend(copy)
        elif r < 0.8:
            text.extend(copy[: rng.randint(1, m)])
        else:
            text.extend(rng.choice(levels) for _ in range(rng.randint(1, 10)))
    text = text[: lo + span]
    if draw(st.booleans(), label="a whole copy ends the span"):
        text[lo + span - m :] = finite
    far = [v for v in levels if not abs(v - finite[-1]) <= alpha]
    if far and draw(st.booleans(), label="no tail ends in the span"):
        # Left to right, so that a swap makes no end at a later minute.
        for i in range(lo + tail - 1, lo + span):
            if all(abs(text[i - r] - finite[m - 1 - r]) <= alpha for r in range(tail)):
                text[i] = rng.choice(far)
    text = tuple(text + levels)
    return text, pattern, Tolerance(alpha, beta), lo, lo + span


class TestScan:
    @settings(max_examples=500)
    @given(case=_scan_cases(), skip_span=st.sampled_from([0, 1, matching._SKIP_SPAN]))
    def test_matches_the_stepped_scan_exactly(self, case, skip_span):
        text, pattern, tol, lo, hi = case
        want = [lo + s for s in reference_search(text[lo:hi], pattern, tol)]
        # With the threshold at 0 or 1 every span is skipped through, so
        # short texts exercise the skip as well as long ones.
        with mock.patch.object(matching, "_SKIP_SPAN", skip_span):
            starts, seen = _traced_scan(RankIndex(text), pattern, tol, lo, hi)
            event(_path(seen, pattern, lo, hi))
            assert starts == want
            assert scan(text, pattern, tol, lo, hi) == want
            if (lo, hi) == (0, len(text)):
                assert search(text, pattern, tol) == want

    def test_one_index_serves_every_span(self):
        rng = random.Random(17)
        text = tuple(float(rng.choice([0, 1, 2, 3, 5, 8])) for _ in range(5000))
        index = RankIndex(text)
        pattern = text[2000:2024]
        tol = Tolerance(1.0, 12.0)
        for lo, hi in [(0, 5000), (1000, 2000), (1999, 4100), (4400, 5000), (0, 600)]:
            want = [lo + s for s in reference_search(text[lo:hi], pattern, tol)]
            assert scan(index, pattern, tol, lo, hi) == want

    @pytest.mark.parametrize("m", [4, 40])
    def test_dense_candidates_stop_at_the_span_end(self, m):
        # Every minute is close to pattern[0], so each search finds the next
        # minute and the scan steps slice after slice, one pattern of 40
        # across several slices; the text goes on past hi.
        rng = random.Random(2024)
        text = tuple(rng.choice([1.0, 2.0, 3.0, 4.0]) for _ in range(3000))
        pattern = [2.0, 3.0] + [rng.choice([2.0, 3.0, 4.0]) for _ in range(m - 2)]
        # Some windows close in every minute still fail beta.
        tol = Tolerance(2.0, 1.2 * m)
        index = RankIndex(text)
        for lo, hi in [(0, 2990), (100, 2100), (7, 2999)]:
            want = [lo + s for s in reference_search(text[lo:hi], pattern, tol)]
            assert want
            assert scan(index, pattern, tol, lo, hi) == want

    def test_candidate_that_ends_the_span_is_stepped(self):
        # The only minute close to the pattern's first value is the span's
        # last, so stepping from it must stop at the span's end.  The
        # 3 past both spans puts the level gap at alpha, so the scan takes
        # the candidate path, not the exact one.
        text = (5.0,) * 1000 + (2.0, 2.0, 3.0)
        index = RankIndex(text)
        tol = Tolerance(1.0, 0.0)
        assert 1000 >= matching._SKIP_SPAN and index.codes is not None and index.gap == tol.alpha
        with mock.patch.object(matching, "_candidates", wraps=matching._candidates) as spy:
            assert scan(index, [2.0], tol, 0, 1001) == [1000]
            assert scan(index, [2.0], tol, 2, 1002) == [1000, 1001]
        assert spy.call_count == 2
        # No minute past the span completes a match that its last one starts.
        assert reference_search(text[:1001], [2.0, 3.0], Tolerance(1.0, 1.0)) == []
        assert scan(index, [2.0, 3.0], Tolerance(1.0, 1.0), 0, 1001) == []

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_candidates_follow_their_stepped_definition(self, alpha):
        # Every string of up to 5 codes over 4 levels, each a span of one
        # text that goes on past it: 1 where the minute is close to
        # pattern[0], whatever follows it.
        levels = (0.0, 1.0, 2.0, 3.0)
        text, spans = [], []
        for n in range(6):
            for word in itertools.product(levels, repeat=n):
                spans.append((len(text), len(text) + n))
                text.extend(word)
        index = RankIndex(tuple(text))

        def close(x, p):
            return abs(x - p) <= alpha

        patterns = [[p] for p in levels] + [list(pq) for pq in itertools.product(levels, repeat=2)]
        for pattern in patterns:
            for lo, hi in spans:
                want = bytes(close(x, pattern[0]) for x in text[lo:hi])
                assert matching._candidates(index, pattern, alpha, lo, hi) == want, (
                    pattern,
                    text[lo:hi],
                )

    @settings(max_examples=400)
    @given(case=_tail_cases())
    def test_tails_match_the_stepped_scan(self, case):
        text, pattern, tol, lo, hi = case
        want = [lo + s for s in reference_search(text[lo:hi], pattern, tol)]
        tail = _tail(pattern, tol.alpha)
        event(f"max(pi) {'0' if tail == len(pattern) else 'm - 1' if tail == 1 else 'between'}")
        starts, seen = _traced_scan(RankIndex(text), pattern, tol, lo, hi)
        event(_path(seen, pattern, lo, hi))
        assert starts == want
        assert scan(text, pattern, tol, lo, hi) == want

    @settings(max_examples=200)
    @given(case=_tail_cases())
    def test_every_full_match_ends_on_its_tail(self, case):
        # With beta = inf every full match of the stepped scan is a start,
        # and each ends on m - max(pi) elements close to the pattern's last
        # values.  (A text holding NaN or an infinity gets no codes and is
        # never certified: there an element whose difference is NaN leaves
        # the state where it stood.)
        text, pattern, tol, lo, hi = case
        m, tail = len(pattern), _tail(pattern, tol.alpha)
        for beta in (tol.beta, math.inf):
            for s in scan(text, pattern, Tolerance(tol.alpha, beta), lo, hi):
                assert all(
                    abs(text[s + m - 1 - r] - pattern[m - 1 - r]) <= tol.alpha for r in range(tail)
                ), (s, tail)

    def test_a_full_match_need_not_end_on_more_than_its_tail(self):
        # pi is [0, 1, 2, 0] at alpha 1, so a match ends on 2 close elements.
        # Here 3 matches pattern[2] at state 2 and fails pattern[3] at state 3,
        # falling back to state 2, so the match starts on a 3 that is not
        # close to pattern[1]: a certificate of 3 elements would miss it.
        pattern = [0.0, 1.0, 2.0, 5.0]
        text = (20.0,) * 600 + (0.0, 1.0, 3.0, 3.0, 5.0) + (20.0,) * 5
        tol = Tolerance(1.0, 4.0)
        assert _tail(pattern, tol.alpha) == 2 and RankIndex(text).gap <= tol.alpha
        want = reference_search(text, pattern, tol)
        assert want == [601] and abs(text[602] - pattern[1]) > tol.alpha
        assert scan(RankIndex(text), pattern, tol, 0, len(text)) == want

    def test_a_window_no_tail_can_end_builds_no_candidates_and_steps_nothing(self):
        # Each pattern's last values occur in the text, but never in the
        # order its tail needs: the 10s planted as candidates are followed by
        # 1 and then by 5, never by a minute close to 2, to 5 or to 10.  A
        # scan reads no value of a text it steps nothing in.
        class Unread(tuple):
            def __getitem__(self, key):
                raise AssertionError(f"the scan read values[{key!r}]")

        rng = random.Random(12)
        noise = []
        while len(noise) < 3000:
            noise.extend([10.0, 1.0, 5.0] if rng.random() < 0.05 else [float(rng.randint(0, 4))])
        text = Unread(noise)
        index = RankIndex(text)
        tol = Tolerance(1.0, 10.0)
        for pattern in ([10.0, 1.0, 2.0, 3.0], [10.0, 5.0], [0.0, 10.0, 10.0]):
            with mock.patch.object(matching, "_candidates", wraps=matching._candidates) as spy:
                assert scan(index, pattern, tol, 0, len(text)) == []
            assert not spy.called, pattern
            assert reference_search(tuple(text), pattern, tol) == []
        # The same text and pattern stepped: the 10s are candidates.
        assert matching._candidates(index, [10.0, 1.0, 2.0, 3.0], 1.0, 0, len(text)).count(1) > 50

    @pytest.mark.parametrize("n_levels, n", [(1, 600), (2, 601), (37, 607), (256, 608)])
    def test_at_most_sets_a_bit_for_each_code_at_most_r(self, n_levels, n):
        rng = random.Random(n)
        levels = [float(v) for v in rng.sample(range(1000), n_levels)]
        text = tuple(levels + [rng.choice(levels) for _ in range(n - n_levels)])
        index = RankIndex(text)
        for r in range(n_levels):
            bits = index.at_most(r)
            assert len(bits) == (n + 7) // 8
            got = [bits[k // 8] >> (7 - k % 8) & 1 for k in range(8 * len(bits))]
            assert got == [int(c <= r) for c in index.codes] + [0] * (-n % 8), r
            assert index.at_most(r) is bits  # built once
        built = [index.at_most(r) for r in range(n_levels)]
        # every rank's bitset is kept once all of them have been asked for
        assert all(index.at_most(r) is bits for r, bits in enumerate(built))

    @pytest.mark.parametrize("n_levels", [1, 2, 37, 200, 256])
    def test_codes_are_the_ranks_of_at_most_256_levels(self, n_levels):
        rng = random.Random(n_levels)
        levels = sorted(rng.sample(range(10_000), n_levels))
        text = tuple(float(v) for v in levels + [rng.choice(levels) for _ in range(600)])
        rank = {float(v): r for r, v in enumerate(levels)}
        assert RankIndex(text).codes == bytes(rank[x] for x in text)

    def test_more_than_256_levels_are_stepped(self):
        text = tuple(float(v) for v in range(257)) * 3
        assert RankIndex(text).codes is None

    @pytest.mark.parametrize("n_levels", [256, 257])
    def test_scan_at_the_level_limit_matches_the_stepped_scan(self, n_levels):
        # At 256 levels the marks are exact and the scan steps from its
        # candidates; at 257 it steps every minute.
        rng = random.Random(n_levels)
        levels = [float(v) for v in range(n_levels)]
        pattern = [rng.choice(levels) for _ in range(6)]
        text = []
        while len(text) < 4000:
            text.extend(pattern if rng.random() < 0.3 else rng.sample(levels, 10))
        text = tuple(text) + tuple(levels)
        assert len(set(text)) == n_levels
        with mock.patch.object(matching, "_SKIP_SPAN", 0):
            for tol in (Tolerance(0.0, 0.0), Tolerance(1.0, 3.0), Tolerance(40.0, 100.0)):
                want = reference_search(text, pattern, tol)
                assert want
                assert scan(RankIndex(text), pattern, tol, 0, len(text)) == want

    def test_gap_is_the_smallest_difference_of_adjacent_levels(self):
        assert RankIndex((6.0, 0.0, 3.0, 1.0, 0.0)).gap == 1.0
        assert RankIndex((0.1, 0.3, 0.7)).gap == 0.3 - 0.1  # as the scan subtracts
        assert RankIndex((2.0,) * 5).gap == math.inf
        index = RankIndex((0.0, -0.0, 1.0))
        assert index.ranks == {0.0: 0, 1.0: 1} and index.ranks[-0.0] == 0
        assert index.codes == bytes([0, 0, 1])

    @pytest.mark.parametrize("text, pattern", [
        ((1.0,) * 600, [1.0, 1.0]),
        ((1.0, 2.0) * 300, [1.0, 2.0, 1.0]),
        ((0.0,) * 300 + (1.0, 0.0) * 150, [0.0, 1.0, 0.0, 1.0]),
    ])
    def test_exact_path_reports_non_overlapping_occurrences(self, text, pattern):
        # Periodic texts overlap every occurrence with the next; below the
        # level gap the scan takes the leftmost, as the stepped scan does.
        index = RankIndex(text)
        for lo, hi in [(0, len(text)), (1, 599), (3, 600)]:
            want = [lo + s for s in reference_search(text[lo:hi], pattern, Tolerance(0.0, 0.0))]
            assert want == [lo + s for s in greedy_exact_scan(text[lo:hi], pattern)]
            for alpha in (0.0, 0.5, math.nextafter(1.0, 0)):
                assert scan(index, pattern, Tolerance(alpha, 0.0), lo, hi) == want

    def test_exact_path_skips_candidates_and_the_prefix_table(self):
        # A C-like series: low counts, mostly 0, with a gap of 1 between its
        # levels.  Below the gap the codes are searched directly; at the gap
        # the scan builds candidates and steps.
        rng = random.Random(5)
        text = tuple(float(rng.choice([0, 0, 0, 0, 1, 1, 2, 3, 5])) for _ in range(4000))
        index = RankIndex(text)
        assert index.gap == 1.0
        pattern = text[2000:2024]
        for alpha, stepped in [(0.0, False), (math.nextafter(1.0, 0), False), (1.0, True)]:
            tol = Tolerance(alpha, 3.0)
            with mock.patch.object(
                matching, "_candidates", wraps=matching._candidates
            ) as candidates, mock.patch.object(
                matching, "prefix_function", wraps=matching.prefix_function
            ) as table:
                got = scan(index, pattern, tol, 0, 3000)
            assert (candidates.called, table.called) == (stepped, stepped)
            assert got == reference_search(text[:3000], pattern, tol)
            assert got

    def test_pattern_value_that_is_no_level_is_stepped(self):
        text = tuple(float(v) for v in [0, 1, 2, 4] * 200)
        index = RankIndex(text)
        # Below the level gap and at it, neither on the exact path, which
        # builds no prefix table, nor through the index.
        for pattern in ([1.0, 2.0, 3.0], [1.0, math.nan], [math.inf, 1.0], [1.5], [-1.0]):
            for tol in (Tolerance(0.5, 10.0), Tolerance(1.0, 10.0)):
                starts, seen = _traced_scan(index, pattern, tol, 0, len(text))
                assert starts == reference_search(text, pattern, tol)
                assert _path(seen, pattern, 0, len(text)) == "stepped", (pattern, tol)

    @pytest.mark.parametrize("odd", [0.5, 5e-324, 2.0**51 + 0.5, math.nan, math.inf])
    def test_levels_that_are_no_integers_are_stepped(self, odd):
        # Only a text of integer levels gets codes, as every series is one.
        rng = random.Random(3)
        text = tuple(rng.choice([0.0, 1.0, 3.0, odd]) for _ in range(2000))
        index = RankIndex(text)
        assert index.codes is None
        for pattern in ([1.0, 3.0, 1.0], [odd, 0.0]):
            for tol in (Tolerance(0.0, 0.0), Tolerance(1.0, 4.0)):
                starts, seen = _traced_scan(index, pattern, tol, 0, len(text))
                assert starts == reference_search(text, pattern, tol)
                assert _path(seen, pattern, 0, len(text)) == "stepped"
        # Levels may be ints.
        assert RankIndex((0, 1, 3) * 200).codes == bytes([0, 1, 2]) * 200

    @settings(max_examples=300)
    @given(case=_run_cases())
    def test_whole_blocks_match_the_stepped_scan(self, case):
        text, pattern, tol, lo, hi = case
        want = [lo + s for s in reference_search(text[lo:hi], pattern, tol)]
        starts, seen = _traced_scan(RankIndex(text), pattern, tol, lo, hi)
        event(_path(seen, pattern, lo, hi))
        assert starts == want
        assert scan(text, pattern, tol, lo, hi) == want

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, math.inf])
    def test_runs_follow_their_stepped_definition(self, alpha):
        # 1 where the minute is close to every pattern value, each a level.
        # A block of such minutes said to fit has a total error within beta
        # even if every term is the largest.
        levels = (0.0, 1.0, 2.0, 4.0, 7.0)
        text = tuple(itertools.chain.from_iterable(itertools.permutations(levels)))
        index = RankIndex(text)
        lo, hi = 3, len(text) - 2
        patterns = [list(p) for m in (1, 2, 3) for p in itertools.product(levels, repeat=m)]
        for pattern in patterns:
            close = [x for x in text[lo:hi] if all(abs(x - p) <= alpha for p in pattern)]
            worst = max((abs(p - x) for p in pattern for x in close), default=0.0)
            for beta in (0.0, worst * len(pattern), math.nextafter(worst * len(pattern), 0), math.inf):
                runs, fits = matching._runs(index, pattern, Tolerance(alpha, beta), lo, hi)
                want = bytes(all(abs(x - p) <= alpha for p in pattern) for x in text[lo:hi])
                assert (runs or bytes(hi - lo)) == want, pattern
                if close:
                    assert fits <= (_fold([worst] * len(pattern)) <= beta), (pattern, beta)
                    assert fits >= (beta == math.inf), (pattern, beta)

    def test_a_block_fits_only_within_the_rounded_bound(self):
        # Each block of 2 is 1 from the flat pattern in every minute, so its
        # total error is exactly 24; the bound, rounded up, passes 24, so
        # at beta = 24 every block is summed, and only at inf does each fit.
        # The pattern's 1 is a level past the span.
        text = ((2.0,) * 72 + (10.0,)) * 10 + (1.0,)
        index = RankIndex(text)
        pattern = [1.0] * 24
        for beta, blocks, summed in [(24.0, 30, 30), (23.0, 0, 30), (1.0, 0, 30), (math.inf, 30, 0)]:
            tol = Tolerance(1.0, beta)
            want = reference_search(text, pattern, tol)
            assert len(want) == blocks
            starts, seen = _traced_scan(index, pattern, tol, 0, len(text) - 1)
            assert starts == want
            assert (seen["blocks"], seen["summed"]) == (30, summed), beta

    def test_runs_are_built_once_for_each_window_the_certificate_passes(self):
        # Right after the candidates, whether or not the window then matches;
        # never where no tail ends in the span, nor on the exact path.
        rng = random.Random(8)
        noise = [float(rng.choice([0, 1, 2, 3, 5, 8])) for _ in range(4000)]
        pattern = noise[2000:2024]
        text = tuple(noise[:2000] + pattern * 3 + noise[2000:] + [40.0])
        index = RankIndex(text)
        tol = Tolerance(1.0, 12.0)
        assert index.gap == 1.0
        with mock.patch.object(matching, "_runs", wraps=matching._runs) as spy:
            # No minute of the span is close to 40, so no tail ends in it.
            for never in ([40.0] * 24, pattern[:12] + [40.0] * 12, pattern[:-1] + [40.0]):
                assert scan(index, never, tol, 0, len(text) - 1) == []
            # Below the level gap the pattern's codes are searched for.
            exact = Tolerance(0.5, 12.0)
            assert scan(index, pattern, exact, 0, len(text)) == reference_search(text, pattern, exact)
            assert not spy.called
            # Its tail of two ends where a 0 meets an 8, but no 24 minutes
            # alternate so.
            alternating = [0.0, 8.0] * 12
            assert scan(index, alternating, tol, 0, len(text)) == []
            assert spy.call_count == 1
            got = scan(index, pattern, tol, 10, len(text) - 5)
            assert len(got) >= 3 and spy.call_count == 2
            assert spy.call_args.args[1:] == (pattern, tol, 10, len(text) - 5)
        assert reference_search(text[:-1], [40.0] * 24, tol) == []
        assert reference_search(text, alternating, tol) == []
        assert got == [10 + s for s in reference_search(text[10:-5], pattern, tol)]

    def test_infinite_levels_are_stepped(self):
        # inf - inf is NaN, which the scan never finds close although the inf
        # level's code lies in the code range of inf, and which at state 1
        # neither advances nor falls back: marks of this text would skip
        # minutes that the stepped scan matches.
        rng = random.Random(0)
        text = tuple(rng.choice([math.inf, -math.inf, 1.0, 2.0, 3.0]) for _ in range(600))
        pattern = [math.inf, 2.0, math.inf, 2.0]
        tol = Tolerance(math.inf, math.inf)
        index = RankIndex(text)
        assert index.codes is None
        want = reference_search(text, pattern, tol)
        assert want[:6] == [1, 5, 9, 13, 17, 27]
        assert scan(index, pattern, tol, 0, len(text)) == want

    def test_small_alphabets_match_the_stepped_scan(self):
        # Texts over a few values, stitched mostly from prefixes of the
        # pattern, so that partial matches fall back through the prefix table
        # at every turn; patterns whose pi[1] is 1 fall back from state 2 to
        # state 1, not 0.  Every span is skipped through.
        rng = random.Random(1)
        alphabets = [(math.inf, -math.inf, 1.0, 2.0, 3.0), (0.0, 1.0, 2.0, 3.0, 4.0, 8.0)]
        tols = [Tolerance(0.0, 0.0), Tolerance(0.5, 1.0), Tolerance(1.0, 4.0), Tolerance(2.0, 4.0),
                Tolerance(1.0, math.inf), Tolerance(math.inf, math.inf)]
        with mock.patch.object(matching, "_SKIP_SPAN", 0):
            for _ in range(300):
                alphabet = rng.choice(alphabets)
                m = rng.randint(1, 8)
                pattern = [rng.choice(alphabet) for _ in range(m)]
                text = []
                while len(text) < 200:
                    k = rng.randint(1, m)
                    text.extend(
                        pattern[:k] if rng.random() < 0.7 else (rng.choice(alphabet) for _ in range(k))
                    )
                text = tuple(text)
                tol = rng.choice(tols)
                want = reference_search(text, pattern, tol)
                assert scan(RankIndex(text), pattern, tol, 0, len(text)) == want, (pattern, tol)

    @pytest.mark.parametrize("lo, hi", [(-1, 5), (3, 2), (0, 11)])
    def test_span_outside_the_text_is_rejected(self, lo, hi):
        with pytest.raises(IndexError, match="outside text of length 10"):
            scan(RankIndex([1.0] * 10), [1.0], Tolerance(0, 0), lo, hi)

    def test_nan_in_the_text_is_stepped(self):
        text = tuple([1.0, 2.0, math.nan, 1.0, 2.0, 3.0] * 200)
        tol = Tolerance(0.5, 1.0)
        assert RankIndex(text).codes is None
        assert search(text, [1.0, 2.0, 3.0], tol) == reference_search(text, [1.0, 2.0, 3.0], tol)
        assert search(text, [2.0, 1.0], tol) == reference_search(text, [2.0, 1.0], tol)

    def test_infinite_values_rank_at_the_ends(self):
        text = tuple([math.inf, 1.0, -math.inf, 2.0, 1.0, 2.0] * 200)
        for pattern, tol in [
            ([1.0, 2.0], Tolerance(0.0, 0.0)),
            ([math.inf, 1.0], Tolerance(0.5, math.inf)),
            ([-math.inf, 2.0], Tolerance(math.inf, math.inf)),
        ]:
            assert search(text, pattern, tol) == reference_search(text, pattern, tol)

    @settings(max_examples=100)
    @given(case=_scan_cases())
    def test_contracts_against_exhaustive_tolerant_oracle(self, case):
        # The scan and the exhaustive oracle may disagree (closeness within
        # alpha is not transitive); only the two contracts are gated on.
        text, pattern, tol, lo, hi = case
        index = RankIndex(text)
        starts = scan(index, pattern, tol, lo, hi)
        m = len(pattern)
        for s in starts:
            assert lo <= s and s + m <= hi
            assert total_error(pattern, text, s) <= tol.beta
        assert all(b - a >= m for a, b in zip(starts, starts[1:]))
        oracle = [lo + s for s in exhaustive_tolerant_scan(text[lo:hi], pattern, tol)]
        event("agrees with the exhaustive oracle" if starts == oracle else "disagrees")


@functools.cache
def _three_day_series(seed):
    # The benchmark's three-day data: gen --days 3 --high-rate 5000
    # --low-rate 1875, with the default attacks that end within the horizon.
    attacks = tuple(a for a in SynthProfile().attacks if a.start_minute + a.duration_minutes <= 3 * 1440)
    return aggregate_all(iter_events(SynthProfile(3, 5000.0, 1875.0, 0.05, attacks, seed)))


class TestPathCounts:
    # How detect's windows go through the scan on the three-day benchmark
    # data, counted through spies on the scan's module names: the windows
    # matched exactly, those with no tail end, those that jump whole blocks,
    # the blocks they jump and those under the rounded bound, the rest being
    # summed one by one.  The digests pin the starts; these pin the paths,
    # so that a change of the index's gate or of its data shows.
    @pytest.mark.parametrize("seed, lookback, exact, certified, jumping, blocks, under", [
        (1234, 1440, 331, 304, 149, 3_900, 3_152),
        (1234, 7200, 331, 304, 149, 7_487, 6_173),
        (4321, 1440, 328, 307, 153, 3_969, 3_289),
        (4321, 7200, 328, 307, 153, 7_556, 6_315),
    ])
    def test_three_day_benchmark_windows(self, seed, lookback, exact, certified, jumping, blocks,
                                         under):
        got = Counter()

        def traced(text, pattern, tol, lo, hi):
            starts, seen = _traced_scan(text, pattern, tol, lo, hi)
            got[_path(seen, pattern, lo, hi)] += 1
            got["jumping"] += bool(seen["jumps"])
            got["blocks"] += seen["blocks"]
            got["summed"] += seen["summed"]
            return starts

        series = _three_day_series(seed)
        with mock.patch.object(detector, "scan", traced):
            for key in sorted(series):
                detect_series(series[key], DetectorConfig(lookback=lookback))
        assert (got["exact"], got["no tail ends"], got["jumping"]) == (exact, certified, jumping)
        assert (got["blocks"], got["blocks"] - got["summed"]) == (blocks, under)


class TestPrefixFunction:
    def test_zero_tolerance_equals_classical(self):
        assert prefix_function([1, 2, 1, 2], 0) == [0, 0, 1, 2]

    def test_single_element(self):
        assert prefix_function([5], 0) == [0]
        assert prefix_function([5], 100) == [0]

    def test_hand_trace_with_tolerance(self):
        assert prefix_function([1, 2, 3], 1) == [0, 1, 2]

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            prefix_function([], 0)

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=50))
    def test_classical_oracle(self, pattern):
        assert prefix_function(pattern, 0) == classical_prefix(pattern)

    @given(
        st.lists(st.integers(0, 9), min_size=1, max_size=50),
        st.integers(0, 6),
    )
    def test_table_bounds(self, pattern, alpha):
        table = prefix_function(pattern, alpha)
        assert table[0] == 0
        assert all(0 <= table[i] <= i for i in range(len(table)))


class TestTotalError:
    def test_identity_window(self):
        assert total_error([3, 1, 4], [3, 1, 4, 9], 0) == 0

    def test_hand_sum(self):
        assert total_error([1, 2], [3, 1], 0) == 3

    def test_empty_pattern(self):
        assert total_error([], [1, 2, 3], 0) == 0

    def test_window_exceeds_text(self):
        with pytest.raises(IndexError):
            total_error([1, 2], [1, 2], 1)


class TestSearch:
    def test_exact_periodic_text(self):
        assert search([1, 2, 1, 2, 1, 2], [1, 2], Tolerance(0, 0)) == [0, 2, 4]

    def test_hand_trace_with_tolerance(self):
        assert search([10, 11, 50, 10, 12], [10, 11], Tolerance(2, 3)) == [0, 3]

    def test_pattern_longer_than_text(self):
        assert search([9, 9, 9], [1, 2, 3, 4], Tolerance(5, 20)) == []

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            search([1, 2], [], Tolerance(0, 0))

    @pytest.mark.parametrize("alpha, beta", [
        (math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan), (-1.0, 0.0), (0.0, -1e-300),
    ])
    def test_nan_or_negative_tolerance_rejected(self, alpha, beta):
        # A NaN alpha would find no element close, so search([1.0] * 5, [1.0])
        # would return [] where alpha 0 finds all five starts.
        with pytest.raises(ValueError, match="tolerances must be non-negative numbers"):
            Tolerance(alpha, beta)
        with pytest.raises(ValueError, match="tolerances must be non-negative numbers"):
            ThresholdSet(alpha=alpha, beta=beta, error_threshold=1.0)

    def test_beta_failing_match_still_consumes_text(self):
        # The window at 0 passes per-element checks but fails the total
        # bound; the scan state still resets, so the overlapping window at 1
        # is skipped even though it would pass both checks on its own.
        text = [4.0, 6.0, 5.0]
        pattern = [5.0, 5.0]
        assert total_error(pattern, text, 1) == 1  # independently valid
        assert search(text, pattern, Tolerance(1, 1)) == []

    def test_exact_match_oracle_seeded(self):
        rng = random.Random(4711)
        for _ in range(1000):
            n = rng.randint(1, 200)
            m = rng.randint(1, 8)
            alphabet = rng.randint(2, 10)
            text = [float(rng.randrange(alphabet)) for _ in range(n)]
            pattern = [float(rng.randrange(alphabet)) for _ in range(m)]
            got = search(text, pattern, Tolerance(0, 0))
            assert got == greedy_exact_scan(text, pattern)

    def test_beta_soundness_and_spacing_seeded(self):
        rng = random.Random(2718)
        for _ in range(1000):
            n = rng.randint(1, 120)
            m = rng.randint(1, min(10, n))
            text = [float(rng.randrange(12)) for _ in range(n)]
            pattern = [float(rng.randrange(12)) for _ in range(m)]
            tol = Tolerance(rng.uniform(0, 5), rng.uniform(0, 20))
            starts = search(text, pattern, tol)
            for s in starts:
                recomputed = sum(abs(pattern[i] - text[s + i]) for i in range(m))
                assert recomputed <= tol.beta + 1e-12
            assert all(b - a >= m for a, b in zip(starts, starts[1:]))

    def test_text_is_stepped_without_an_index(self):
        # A one-shot search pays no sort of the levels or byte map: the
        # index would cost more than the scan it serves.
        rng = random.Random(99)
        floats = tuple(rng.uniform(0.0, 10.0) for _ in range(3000))
        counts = tuple(float(rng.choice([0, 1, 2, 5])) for _ in range(3000))
        with_nan = counts[:1500] + (math.nan,) + counts[1501:]
        assert len(floats) > matching._SKIP_SPAN
        with mock.patch.object(RankIndex, "__init__", side_effect=AssertionError("indexed")):
            for text, pattern, tol in [
                (floats, floats[100:104], Tolerance(2.0, 6.0)),
                (counts, counts[10:20], Tolerance(1.0, 5.0)),
                (with_nan, [1.0, 2.0], Tolerance(1.0, 2.0)),
                (counts, [2.0], Tolerance(0.0, 0.0)),
            ]:
                want = reference_search(text, pattern, tol)
                assert want
                assert search(text, pattern, tol) == want

    def test_determinism(self):
        text = [float(i % 7) for i in range(500)]
        pattern = [0.0, 1.0, 2.0]
        tol = Tolerance(1, 4)
        assert search(text, pattern, tol) == search(text, pattern, tol)

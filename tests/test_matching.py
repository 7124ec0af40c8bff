import math
import random
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from dnswatch import matching
from dnswatch.matching import RankIndex, Tolerance, prefix_function, scan, search, total_error


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


# Levels that repeat, signed zeros and the smallest subnormal among them.
_LEVELS = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, 1.0, 2.0, 2.5, 3.0, 10.0]),
        st.floats(min_value=0.0, max_value=50.0),
    ),
    min_size=1,
    max_size=12,
)


@st.composite
def _scan_cases(draw):
    """A text of up to several thousand elements with copies of the pattern
    planted in it, a tolerance whose alpha often equals the distance between
    two levels, and a span ``[lo, hi)`` of the text."""
    levels = draw(_LEVELS, label="levels")
    # Patterns beyond 32 elements outlast the slice stepped after a search.
    m = draw(st.integers(1, 12) | st.integers(30, 50), label="m")
    pattern = draw(st.lists(st.sampled_from(levels), min_size=m, max_size=m), label="pattern")
    n = draw(st.sampled_from([m, 40, 600, 3000, 6000]), label="n")
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    if draw(st.booleans(), label="more than 256 levels"):
        levels = levels + [rng.uniform(0.0, 50.0) for _ in range(300)]
    text = []
    while len(text) < n:
        if rng.random() < 0.3:
            # A copy of the pattern, each element kept or swapped for a level.
            text.extend(p if rng.random() < 0.8 else rng.choice(levels) for p in pattern)
        else:
            text.extend(rng.choice(levels) for _ in range(rng.randint(1, 40)))
    text = tuple(text[:n])
    a, b = draw(st.sampled_from(levels), label="a"), draw(st.sampled_from(levels), label="b")
    alpha = draw(st.sampled_from([0.0, abs(a - b), abs(a - b) * 2, 1e9]), label="alpha")
    beta = draw(st.sampled_from([0.0, alpha * m / 2, alpha * m, 1e12]), label="beta")
    lo = draw(st.integers(0, n), label="lo")
    hi = draw(st.integers(lo, n), label="hi")
    return text, pattern, Tolerance(alpha, beta), lo, hi


class TestScan:
    @settings(max_examples=300)
    @given(case=_scan_cases(), skip_span=st.sampled_from([0, 1, matching._SKIP_SPAN]))
    def test_matches_the_stepped_scan_exactly(self, case, skip_span):
        text, pattern, tol, lo, hi = case
        want = [lo + s for s in reference_search(text[lo:hi], pattern, tol)]
        # With the threshold at 0 or 1 every span is skipped through, so
        # short texts exercise the skip as well as long ones.
        with mock.patch.object(matching, "_SKIP_SPAN", skip_span):
            assert scan(RankIndex(text), pattern, tol, lo, hi) == want
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
        # Every minute is close to pattern[0] and pattern[1], so each search
        # finds the next minute and the scan steps slice after slice, one
        # pattern of 40 across several slices; the text goes on past hi.
        rng = random.Random(2024)
        text = tuple(rng.choice([0.5, 1.0, 1.5, 2.0]) for _ in range(3000))
        pattern = [1.0, 1.5] + [rng.choice([1.0, 1.5, 2.0]) for _ in range(m - 2)]
        # Some windows close in every minute still fail beta.
        tol = Tolerance(1.0, 0.6 * m)
        index = RankIndex(text)
        for lo, hi in [(0, 2990), (100, 2100), (7, 2999)]:
            want = [lo + s for s in reference_search(text[lo:hi], pattern, tol)]
            assert want
            assert scan(index, pattern, tol, lo, hi) == want

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

    def test_determinism(self):
        text = [float(i % 7) for i in range(500)]
        pattern = [0.0, 1.0, 2.0]
        tol = Tolerance(1, 4)
        assert search(text, pattern, tol) == search(text, pattern, tol)

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dnswatch.predictor import COLD_START, cold_start_decision, predict


class TestPredict:
    def test_empty_match_set_is_cold_start(self):
        assert predict([1, 2, 3], [], 1, 1).values is None
        assert predict([1, 2, 3], [], 1, 1) == COLD_START

    def test_single_contributor_copies_following_window(self):
        text = [9.0, 9.0, 1.0, 2.0, 3.0]
        pred = predict(text, [0], 2, 3)
        assert pred.values == (1.0, 2.0, 3.0)
        assert pred.contributor_count == 1

    def test_hand_average(self):
        pred = predict([1, 2, 3, 1, 2, 4], [0, 3], 2, 1)
        assert pred.values == (3.5,)
        assert pred.contributor_count == 2

    def test_truncated_follow_up_windows_are_excluded(self):
        # the match at 4 has no complete following window
        pred = predict([1, 2, 7, 8, 1, 2], [0, 4], 2, 2)
        assert pred.values == (7.0, 8.0)
        assert pred.contributor_count == 1

    def test_all_truncated_is_cold_start(self):
        # the only match is the pattern's own occurrence at the tail
        assert predict([1, 2, 1, 2], [2], 2, 1).values is None

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            predict([1, 2], [], 0, 1)
        with pytest.raises(ValueError):
            predict([1, 2], [], 1, 0)

    @given(st.data())
    def test_averaging_bounds_and_permutation_invariance(self, data):
        text = data.draw(st.lists(st.integers(0, 50), min_size=6, max_size=60))
        k = data.draw(st.integers(1, 3))
        h = data.draw(st.integers(1, 3))
        max_start = len(text) - k - h
        starts = data.draw(
            st.lists(st.integers(0, max(max_start, 0)), min_size=1, max_size=6, unique=True)
        )
        pred = predict(text, starts, k, h)
        shuffled = data.draw(st.permutations(starts))
        assert predict(text, list(shuffled), k, h) == pred
        if pred.values is not None:
            contributors = [s for s in starts if s + k + h <= len(text)]
            for i, value in enumerate(pred.values):
                column = [text[s + k + i] for s in contributors]
                assert min(column) <= value <= max(column)


class TestColdStartDecision:
    def test_zero_observation_never_flags(self):
        assert cold_start_decision([50.0] * 4, [0.0] * 4, 10.0) is False
        assert cold_start_decision([0.0] * 4, [0.0] * 4, 10.0) is False

    def test_order_of_magnitude_rule(self):
        assert cold_start_decision([50.0] * 5, [500.0] * 5, 10.0) is True
        assert cold_start_decision([50.0] * 5, [100.0] * 5, 10.0) is False

    def test_zero_pattern_floor(self):
        # denominator floors at 1, so tiny observations stay quiet
        assert cold_start_decision([0.0] * 5, [5.0] * 5, 10.0) is False
        assert cold_start_decision([0.0] * 5, [10.0] * 5, 10.0) is True

    def test_means_are_left_folds_on_every_python(self):
        # A left fold of ten 0.1s is just below 1 and of ten 1.1s just below
        # 11; the builtin sum() compensates from Python 3.12 on and would
        # give 1 and 11, turning both answers round.
        assert cold_start_decision([0.0], [0.1] * 10, 0.1) is False
        assert cold_start_decision([1.1] * 10, [1.0999999999999999], 1.0) is True

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            cold_start_decision([], [1.0], 10.0)
        with pytest.raises(ValueError):
            cold_start_decision([1.0], [], 10.0)
        with pytest.raises(ValueError):
            cold_start_decision([1.0], [1.0], 0.0)

    @given(
        st.lists(st.integers(0, 100), min_size=1, max_size=20),
        st.integers(0, 500),
        st.integers(1, 20),
    )
    def test_monotone_in_observed_mean(self, pattern, base, bump):
        observed_low = [float(base)] * 4
        observed_high = [float(base + bump)] * 4
        low = cold_start_decision(pattern, observed_low, 10.0)
        high = cold_start_decision(pattern, observed_high, 10.0)
        assert high or not low

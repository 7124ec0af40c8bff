import itertools
import re
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dnswatch import coldstart
from dnswatch.coldstart import (
    ColdStartParams,
    choice_count_ie,
    choice_count_lower,
    expected_matches,
)


def brute_force_compositions(k, alpha, beta):
    # ordered k-tuples with parts in [1, alpha] summing to beta
    return sum(
        1
        for parts in itertools.product(range(1, alpha + 1), repeat=k)
        if sum(parts) == beta
    )


class TestChoiceCountLower:
    def test_worked_example(self):
        assert choice_count_lower(5, 100, 250) == 20_200_500

    def test_beta_below_alpha_boundary(self):
        # shifts floor to zero, leaving max(1, beta)
        assert choice_count_lower(5, 100, 50) == 50
        assert choice_count_lower(5, 100, 0) == 1

    def test_hand_evaluation(self):
        assert choice_count_lower(2, 1, 2) == 9

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            choice_count_lower(3, 0, 5)

    def test_more_shifts_than_letters_builds_no_power(self):
        # C(24, 10**6) is 0, and 3**(10**6) alone takes about 200 KB
        tracemalloc.start()
        try:
            assert choice_count_lower(24, 1, 10**6) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestChoiceCountIe:
    def test_hand_cases(self):
        assert choice_count_ie(3, 2, 4) == 3
        assert choice_count_ie(1, 5, 3) == 1
        assert choice_count_ie(3, 3, 2) == 0  # beta below k: impossible

    def test_exhaustive_against_brute_force(self):
        for k in range(1, 5):
            for alpha in range(1, 4):
                for beta in range(0, 11):
                    assert choice_count_ie(k, alpha, beta) == brute_force_compositions(
                        k, alpha, beta
                    ), (k, alpha, beta)

    def test_sum_stops_at_k(self, monkeypatch):
        # C(k, i) is 0 for every i > k, so only i = 0..k take two combs each
        calls = []

        def counted(n, r):
            calls.append((n, r))
            return comb(n, r)

        monkeypatch.setattr(coldstart, "comb", counted)
        assert choice_count_ie(10, 1, 10**6) == 0
        assert len(calls) <= 2 * (10 + 1)

    @given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 12))
    def test_monotone_in_alpha(self, k, alpha, beta):
        assert choice_count_ie(k, alpha, beta) <= choice_count_ie(k, alpha + 1, beta)


class TestExpectedMatches:
    def test_lower_mode_worked_example(self):
        params = ColdStartParams(l=1440, k=5, d=3, alpha=100, beta=250)
        value = expected_matches(params, "lower")
        assert value == Fraction(1436 * 20_200_500, 10**10)
        assert abs(float(value) - 2.9008) <= 1e-4

    def test_inclusion_exclusion_worked_example(self):
        params = ColdStartParams(l=1440, k=5, d=3, alpha=100, beta=250)
        value = expected_matches(params, "inclusion_exclusion")
        assert value == Fraction(85_958_071_116, 10**10)
        assert 8.5 <= float(value) <= 9.5

    def test_single_alignment_when_l_equals_k(self):
        base = ColdStartParams(l=5, k=5, d=2, alpha=10, beta=25)
        wider = ColdStartParams(l=6, k=5, d=2, alpha=10, beta=25)
        assert expected_matches(wider, "lower") == 2 * expected_matches(base, "lower")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            expected_matches(ColdStartParams(10, 2, 1, 1, 2), "exact")

    @given(st.integers(5, 50))
    def test_monotone_in_history_length(self, l):
        a = expected_matches(ColdStartParams(l, 3, 2, 2, 5), "inclusion_exclusion")
        b = expected_matches(ColdStartParams(l + 1, 3, 2, 2, 5), "inclusion_exclusion")
        assert b >= a

    def test_exact_arithmetic(self):
        value = expected_matches(ColdStartParams(l=100, k=3, d=2, alpha=3, beta=7), "lower")
        assert isinstance(value, Fraction)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ColdStartParams(l=3, k=5, d=1, alpha=1, beta=1)
        with pytest.raises(ValueError):
            ColdStartParams(l=5, k=5, d=0, alpha=1, beta=1)
        with pytest.raises(ValueError):
            ColdStartParams(l=5, k=2, d=1, alpha=-1, beta=1)

    @pytest.mark.parametrize(
        "params, flags",
        [
            ((10, 5, 10**9, 1, 2), "--d and --k"),  # 10**((d - 1) * k): 5e9 digits
            ((10**9, 10**9, 1, 1, 10**9), "--l, --k, --alpha and --beta"),  # 3**(10**9)
            ((2**18, 2**18, 1, 1, 2**17), "--k, --alpha and --beta"),  # comb(2**18, 2**17)
            ((4096, 4096, 5, 2**1000, 2**1012), "--l, --k, --d, --alpha and --beta"),  # the gcd
        ],
        ids=["denominator", "numerator", "binomial", "gcd"],
    )
    def test_integers_too_large_to_build_are_rejected_unbuilt(self, params, flags):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(flags) + " are too large"):
                ColdStartParams(*params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_inclusion_exclusion_checks_its_own_integers(self):
        # beta // alpha > k, so the lower mode builds no power, but the
        # inclusion-exclusion sum has 10**5 + 1 terms of about 2.5e6 bits
        params = ColdStartParams(l=10**5, k=10**5, d=1, alpha=1, beta=10**12)
        assert expected_matches(params, "lower") == 0
        with pytest.raises(ValueError, match="binomials of inclusion_exclusion"):
            expected_matches(params, "inclusion_exclusion")

    def test_what_answers_at_once_is_accepted(self):
        # 10**99990 takes a few milliseconds
        params = ColdStartParams(l=100, k=10, d=10**4, alpha=1, beta=2)
        assert expected_matches(params, "lower") == Fraction(91 * 45 * 9, 10**99990)

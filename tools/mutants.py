"""Mutation gate: every contract the tests pin must fail a test when broken.

Each mutant names a file under ``src/dnswatch``, an exact snippet that must
occur there exactly once, its replacement, and the tests that must kill it.
For each mutant the script copies ``src/`` to a temporary directory, applies
the replacement, and runs ``python -m pytest -q -x -p no:cacheprovider`` on
the named tests with ``PYTHONPATH`` set to the copy and the temporary
directory as the working directory, so nothing is written into the checkout.
First the named tests run once on an unmutated copy and must all pass there.

Exits 1 if any mutant survives, any snippet is missing or ambiguous, or the
tests fail without a mutant.  Run it from anywhere, with the test
dependencies installed:

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/dnswatch
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # node ids relative to the checkout


_SCAN_EXACT = "tests/test_matching.py::TestScan::test_matches_the_stepped_scan_exactly"
_WHOLE_BLOCKS = "tests/test_matching.py::TestScan::test_whole_blocks_match_the_stepped_scan"
_RUNS_DEFINED = "tests/test_matching.py::TestScan::test_runs_follow_their_stepped_definition[{alpha}]"
_TAILS = "tests/test_matching.py::TestScan::test_tails_match_the_stepped_scan"
_ROUNDED_BOUND = "tests/test_matching.py::TestScan::test_a_block_fits_only_within_the_rounded_bound"
_AGGREGATE_ORACLE = (
    "tests/test_detector.py::TestScoreAggregateOracle::test_every_field_matches_the_per_minute_oracle"
)
_ALL_ZERO_ORACLE = "tests/test_detector.py::TestAllZeroPatterns::test_fast_path_matches_search_and_predict"
_COLD_START = "tests/test_detector.py::TestColdStartDecision::"
_DETECT_EACH = "tests/test_detector.py::TestDetectEach::"
_SILENT_AR = (
    "tests/test_baseline_ar.py::TestSilentHistories::"
    "test_negative_zero_minutes_flag_and_score_as_window_local"
)

MUTANTS = [
    # matching: the scan
    Mutant(
        "beta-soundness",
        "matching.py",
        "                    if err <= beta:\n                        out.append(start)",
        "                    if err < beta:\n                        out.append(start)",
        (
            "tests/test_matching.py::TestScan::test_candidate_that_ends_the_span_is_stepped",
            _SCAN_EXACT,
        ),
    ),
    Mutant(
        "reset-after-a-full-match",
        "matching.py",
        "                        out.append(start)\n                    j = 0",
        "                        out.append(start)\n                    j = pi[j - 1]",
        (
            "tests/test_matching.py::TestScan::test_dense_candidates_stop_at_the_span_end[4]",
            _SCAN_EXACT,
        ),
    ),
    Mutant(
        "candidates-close-to-the-first-value",
        "matching.py",
        "_marks(*index.code_range(pattern[0], alpha))",
        "_marks(*index.code_range(pattern[-1], alpha))",
        (
            "tests/test_matching.py::TestScan::test_candidates_follow_their_stepped_definition[0.0]",
            _SCAN_EXACT,
        ),
    ),
    Mutant(
        "tail-no-longer-than-m-minus-max-pi",
        "matching.py",
        "m - max(pi), lo, hi)",
        "m - max(pi) + 1, lo, hi)",
        (
            "tests/test_matching.py::TestScan::test_a_full_match_need_not_end_on_more_than_its_tail",
            _TAILS,
        ),
    ),
    Mutant(
        "tail-no-shorter-than-m-minus-max-pi",
        "matching.py",
        "m - max(pi), lo, hi)",
        "m - max(pi) - 1, lo, hi)",
        (
            "tests/test_matching.py::TestScan::"
            "test_a_window_no_tail_can_end_builds_no_candidates_and_steps_nothing",
        ),
    ),
    Mutant(
        "tail-element-r-shifted-by-r",
        "matching.py",
        "ends &= close >> r",
        "ends &= close >> (r + 1)",
        (
            "tests/test_matching.py::TestScan::test_candidate_that_ends_the_span_is_stepped",
            _TAILS,
        ),
    ),
    Mutant(
        "tail-close-from-the-first-rank-on",
        "matching.py",
        "index.at_most(first - 1)",
        "index.at_most(first)",
        (_TAILS, _SCAN_EXACT),
    ),
    Mutant(
        "step-slice-clamped-to-the-span",
        "matching.py",
        "stop = min(span, i + _STEP_SLICE)",
        "stop = i + _STEP_SLICE",
        (
            "tests/test_matching.py::TestScan::test_dense_candidates_stop_at_the_span_end[4]",
            "tests/test_matching.py::TestScan::test_candidate_that_ends_the_span_is_stepped",
        ),
    ),
    Mutant(
        "exact-path-only-below-1",
        "matching.py",
        "alpha < 1:",
        "alpha <= 1:",
        (
            "tests/test_matching.py::TestScan::test_exact_path_skips_candidates_and_the_prefix_table",
            "tests/test_matching.py::TestScan::test_candidate_that_ends_the_span_is_stepped",
        ),
    ),
    Mutant(
        "exact-path-searches-on-past-the-match",
        "matching.py",
        "codes.find(needle, start + m, hi)",
        "codes.find(needle, start + 1, hi)",
        (
            "tests/test_matching.py::TestScan::test_exact_path_reports_non_overlapping_occurrences",
        ),
    ),
    Mutant(
        "no-codes-for-levels-that-are-no-integers",
        "matching.py",
        "float(v) == v and float(v).is_integer() for v in self.levels",
        "float(v) == v for v in self.levels",
        (
            "tests/test_matching.py::TestScan::test_infinite_levels_are_stepped",
            "tests/test_matching.py::TestScan::test_nan_in_the_text_is_stepped",
            "tests/test_matching.py::TestScan::test_levels_that_are_no_integers_are_stepped[0.5]",
        ),
    ),
    Mutant(
        "no-codes-for-ints-that-no-float-equals",
        "matching.py",
        "float(v) == v and float(v).is_integer() for v in self.levels",
        "float(v).is_integer() for v in self.levels",
        ("tests/test_matching.py::TestScan::test_an_int_that_no_float_equals_is_stepped",),
    ),
    Mutant(
        "index-only-for-a-pattern-of-levels",
        "matching.py",
        "if codes is not None and not all(map(text.ranks.__contains__, pat)):",
        "if codes is not None and False:",
        (
            "tests/test_matching.py::TestScan::test_pattern_value_that_is_no_level_is_stepped",
            _SCAN_EXACT,
        ),
    ),
    Mutant(
        "runs-close-to-every-value",
        "matching.py",
        "first = index.code_range(top, tol.alpha)[0]",
        "first = index.code_range(bottom, tol.alpha)[0]",
        (_RUNS_DEFINED.format(alpha=1.0), _WHOLE_BLOCKS),
    ),
    Mutant(
        "block-bound-counts-every-term",
        "matching.py",
        "fits = worst * m * (1.0 + m * 2.0**-51) <= tol.beta",
        "fits = worst * (1.0 + m * 2.0**-51) <= tol.beta",
        (_ROUNDED_BOUND, _WHOLE_BLOCKS),
    ),
    Mutant(
        "block-bound-keeps-its-margin",
        "matching.py",
        "fits = worst * m * (1.0 + m * 2.0**-51) <= tol.beta",
        "fits = worst * m <= tol.beta",
        (_ROUNDED_BOUND,),
    ),
    Mutant(
        "each-block-within-beta",
        "matching.py",
        "values[s : s + m])), 0.0) <= beta",
        "values[s : s + m])), 0.0) < beta",
        (_ROUNDED_BOUND, _WHOLE_BLOCKS),
    ),
    Mutant(
        "jump-whole-blocks-only",
        "matching.py",
        "i += n * m\n",
        "i += n * m + 1\n",
        (_WHOLE_BLOCKS,),
    ),
    # model
    Mutant(
        "series-counts-are-integers",
        "model.py",
        "return all(map(float.is_integer, vals)) and (",
        "return (",
        (
            "tests/test_model.py::TestMinuteSeries::test_rejects_counts_that_are_no_integers",
            "tests/test_cli.py::TestSeriesLoader::"
            "test_count_out_of_range_is_named_by_its_line_number[as-written-1.5]",
        ),
    ),
    Mutant(
        "series-names-the-first-count-that-is-no-integer",
        "model.py",
        "if not _counts((float(v),))",
        "if not _counts((float(v) // 1,))",
        (
            "tests/test_cli.py::TestSeriesLoader::test_rejected_series_file_is_named[non-integer]",
        ),
    ),
    # detector
    Mutant(
        "cosine-0-for-an-underflowing-norm",
        "detector.py",
        "    if pp * ee == 0.0:\n        return 0.0",
        "    if pp == 0.0 or ee == 0.0:\n        return 0.0",
        ("tests/test_detector.py::TestCosine::test_underflowing_norms_are_dissimilar",),
    ),
    Mutant(
        "decide-needs-a-nonzero-observation",
        "detector.py",
        "cos < cfg.cos_threshold and any(observed)",
        "cos < cfg.cos_threshold",
        (
            "tests/test_detector.py::TestDetectSeries::test_all_zero_observed_window_never_flags",
        ),
    ),
    Mutant(
        "score-must-exceed-the-threshold",
        "detector.py",
        "sum(f.score for f in feats) > score_threshold",
        "sum(f.score for f in feats) >= score_threshold",
        (
            "tests/test_detector.py::TestScoreAggregate::test_unflagged_windows_are_ignored",
            "tests/test_detector.py::TestScoreAggregate::test_events_are_disjoint_sorted_maximal_runs",
        ),
    ),
    Mutant(
        "cosine-floor-of-1",
        "detector.py",
        "worst_cos.get(minute, 1.0)",
        "worst_cos.get(minute, flag.cosine)",
        (_AGGREGATE_ORACLE,),
    ),
    Mutant(
        "events-split-at-a-gap",
        "detector.py",
        "key=lambda p: p[1] - p[0]",
        "key=lambda p: (p[1] - p[0]) // 2",
        (_AGGREGATE_ORACLE,),
    ),
    Mutant(
        "all-zero-block-sum",
        "detector.py",
        "summed = first + max(0, (end - k - h - first) // k + 1) * k",
        "summed = first + max(0, (end - k - h - first) // k + 2) * k",
        (_ALL_ZERO_ORACLE,),
    ),
    Mutant(
        "all-zero-runs-from-lo",
        "detector.py",
        ".finditer(zero, lo, hi)",
        ".finditer(zero, 0, hi)",
        (_ALL_ZERO_ORACLE,),
    ),
    Mutant(
        "cold-start-flags-at-factor-times-the-pattern",
        "detector.py",
        "_mean(observed) >= factor",
        "_mean(observed) > factor",
        (
            _COLD_START + "test_order_of_magnitude_rule",
            _COLD_START + "test_zero_pattern_floor",
            _COLD_START + "test_means_are_left_folds_on_every_python",
        ),
    ),
    Mutant(
        "cold-start-pattern-mean-floor-of-1",
        "detector.py",
        "max(_mean(pattern), 1.0)",
        "_mean(pattern)",
        (
            _COLD_START + "test_zero_observation_never_flags",
            _COLD_START + "test_zero_pattern_floor",
            _COLD_START + "test_means_are_left_folds_on_every_python",
            "tests/test_detector.py::TestDetectSeries::test_all_zero_series_never_flags",
        ),
    ),
    Mutant(
        "thresholds-read-only-minutes-before-t",
        "detector.py",
        "max(values[seen:t])",
        "max(values[seen : t + 1])",
        (
            "tests/test_detector.py::TestPlanOracle::test_thresholds_follow_the_minutes_before_each_window",
        ),
    ),
    # detector: detect_each
    Mutant(
        "outcomes-merged-in-index-order",
        "detector.py",
        "return [done[i] if i in done else _outcome(detect, series[i], cfg) for i in range(end)]",
        "return [*done.values(), *(_outcome(detect, series[i], cfg) for i in range(end) if i not in done)][:end]",
        (_DETECT_EACH + "test_outcomes_are_those_of_the_serial_loop",),
    ),
    Mutant(
        "series-no-worker-returned-are-detected-by-the-parent",
        "detector.py",
        "return [done[i] if i in done else _outcome(detect, series[i], cfg) for i in range(end)]",
        "return [done[i] for i in range(end) if i in done]",
        (_DETECT_EACH + "test_a_series_whose_worker_left_is_detected_by_the_parent",),
    ),
    Mutant(
        "the-first-error-in-input-order-ends-the-outcomes",
        "detector.py",
        "end = min((i + 1 for i, r in done.items() if isinstance(r, ValueError)), default=n)",
        "end = next((i + 1 for i, r in done.items() if isinstance(r, ValueError)), n)",
        (_DETECT_EACH + "test_the_first_error_in_input_order_ends_the_outcomes",),
    ),
    # baseline_ar
    Mutant(
        "lag-0-for-an-all-zero-history-ends-at-t",
        "baseline_ar.py",
        "max_lags[nonzero[t] == nonzero[lo]] = 0",
        "max_lags[nonzero[t - 1] == nonzero[lo]] = 0",
        (_SILENT_AR,),
    ),
    Mutant(
        "lag-0-for-an-all-zero-history-starts-at-lo",
        "baseline_ar.py",
        "max_lags[nonzero[t] == nonzero[lo]] = 0",
        "max_lags[nonzero[t] == nonzero[lo + 1]] = 0",
        (_SILENT_AR,),
    ),
    Mutant(
        "lag-0-model-is-the-mean",
        "baseline_ar.py",
        "arr[lo[i] : t[i]].mean()",
        "arr[lo[i] : t[i]].max()",
        (
            "tests/test_baseline_ar.py::TestBatchedFit::test_no_window_fitted_holds_every_mean_flat",
        ),
    ),
    Mutant(
        "window-sums-start-at-lo",
        "baseline_ar.py",
        "first = lo + max_lag",
        "first = 0 * lo + max_lag",
        (
            "tests/test_baseline_ar.py::TestWholeSeriesSums::test_integer_counts_fit_bit_for_bit_as_window_local",
        ),
    ),
    Mutant(
        "forecast-forms-no-term-past-the-lag",
        "baseline_ar.py",
        "out=terms[1:], where=within)",
        "out=terms[1:])",
        (
            "tests/test_baseline_ar.py::TestForecastAll::test_forecast_that_overflows_warns_as_one_forecast_does",
        ),
    ),
    # ingest
    Mutant(
        "series-blocks-continue-the-minutes",
        "ingest.py",
        "_exact_rows(block, None if start is None else start + len(values))",
        "_exact_rows(block, None)",
        (
            "tests/test_cli.py::TestSeriesLoader::test_gap_on_a_block_boundary_is_not_contiguous",
        ),
    ),
    Mutant(
        "series-rows-hold-one-comma",
        "ingest.py",
        "_ROW * n % tuple(fields) != text",
        '"%d\\n%s\\n" * n % tuple(fields) != text.replace(",", "\\n")',
        (
            "tests/test_cli.py::TestSeriesLoader::test_row_without_a_comma_before_a_row_with_two_is_named",
        ),
    ),
    Mutant(
        "series-line-numbers-advance-by-block",
        "ingest.py",
        "        lineno += len(block)\n",
        "",
        (
            "tests/test_cli.py::TestSeriesLoader::test_bad_row_in_the_second_block_is_named_by_its_line_number",
        ),
    ),
    Mutant(
        "series-count-line-counts-the-blank-lines-before-it",
        "ingest.py",
        "line = 2 + k + bisect_right(blanks, k)",
        "line = 2 + k + bisect_right(blanks, k - 1)",
        (
            "tests/test_cli.py::TestSeriesLoader::"
            "test_count_out_of_range_is_named_by_its_line_number[loose-nan]",
        ),
    ),
    Mutant(
        "series-writer-blocks-continue-the-minutes",
        "ingest.py",
        "fields[::2] = range(start + at, start + at + n)",
        "fields[::2] = range(start, start + n)",
        (
            "tests/test_ingest.py::TestSeriesFormat::test_rows_are_the_bytes_of_one_row_at_a_time",
            "tests/test_ingest.py::TestSeriesFormat::test_a_series_of_many_blocks_round_trips",
        ),
    ),
    Mutant(
        "events-bad-line-is-numbered-from-the-block",
        "ingest.py",
        "lambda row: first + block.index(keys[rows.index(row)])",
        "lambda row: first + block.index(keys[rows.index(row)]) + 1",
        ("tests/test_ingest.py::TestParseEvents::test_bad_timestamp",),
    ),
    Mutant(
        "events-quoted-field-ends-on-its-line",
        "ingest.py",
        "        if len(rows) <= end:\n",
        "        if False:\n",
        (
            "tests/test_ingest.py::TestCountedRuns::test_quoted_field_that_runs_on_is_named_at_its_line",
            "tests/test_cli.py::TestExitCodes::test_quoted_field_that_runs_on_exits_2_naming_file_and_line",
        ),
    ),
    Mutant(
        "events-rows-read-before-a-csv-error-are-checked",
        "ingest.py",
        "        with suppress(csv.Error):  # the rows read before the error are kept\n"
        "            rows.extend(reader)\n",
        "        try:\n            rows.extend(reader)\n        except csv.Error:\n            rows.clear()\n",
        (
            "tests/test_ingest.py::TestCountedRuns::"
            "test_block_edge_case[bad-row-then-a-field-over-the-limit]",
        ),
    ),
    Mutant(
        "truth-rows-are-named-by-their-physical-line",
        "ingest.py",
        "            lineno, after = after, reader.line_num + 1\n",
        "            lineno = reader.line_num\n",
        (
            "tests/test_ingest.py::TestCountedRuns::test_bad_truth_names_its_line"
            "[with-a-label-of-two-lines]",
        ),
    ),
    Mutant(
        "truth-rows-are-named-by-lines-not-rows",
        "ingest.py",
        "        for row in reader:\n            lineno, after = after, reader.line_num + 1\n",
        "        for lineno, row in enumerate(reader, start=2):\n",
        (
            "tests/test_ingest.py::TestCountedRuns::test_bad_truth_names_its_line"
            "[after-a-label-of-two-lines]",
        ),
    ),
    Mutant(
        "events-record-carries-its-count",
        "ingest.py",
        "malformed == \"1\", count))",
        "malformed == \"1\", 1))",
        (
            "tests/test_ingest.py::TestParseEvents::test_identical_lines_are_one_counted_record",
        ),
    ),
    # synth
    Mutant(
        "attack-adds-no-negative-packets",
        "synth.py",
        "if tx_part > 0:",
        "if tx_part:",
        ("tests/test_cli.py::TestGen::test_records_count_the_packets_gen_writes",),
    ),
    # coldstart
    Mutant(
        "lower-count-returns-0-without-the-power",
        "coldstart.py",
        "if shifts > k:",
        "if False:",
        (
            "tests/test_coldstart.py::TestChoiceCountLower::test_more_shifts_than_letters_builds_no_power",
        ),
    ),
    Mutant(
        "lower-count-is-0-only-past-k",
        "coldstart.py",
        "if shifts > k:",
        "if shifts >= k:",
        ("tests/test_coldstart.py::TestChoiceCountLower::test_hand_evaluation",),
    ),
    Mutant(
        "sizes-too-large-to-build-are-rejected",
        "coldstart.py",
        "    if value > limit:",
        "    if False:",
        (
            "tests/test_coldstart.py::TestParams::test_integers_too_large_to_build_are_rejected_unbuilt",
        ),
    ),
    Mutant(
        "ie-sum-stops-at-k",
        "coldstart.py",
        "range(min(k, (beta - 1) // alpha) + 1)",
        "range((beta - 1) // alpha + 1)",
        ("tests/test_coldstart.py::TestChoiceCountIe::test_sum_stops_at_k",),
    ),
    Mutant(
        "ie-sum-reaches-k",
        "coldstart.py",
        "range(min(k, (beta - 1) // alpha) + 1)",
        "range(min(k - 1, (beta - 1) // alpha) + 1)",
        (
            "tests/test_coldstart.py::TestChoiceCountIe::test_exhaustive_against_brute_force",
        ),
    ),
]


def _pytest(src: Path, cwd: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    argv += [str(ROOT / t) for t in tests]
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)


def _copy(tmp: Path) -> Path:
    src = tmp / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def run(mutant: Mutant) -> str:
    """``killed``, ``survived``, or what kept the mutant from running."""
    with tempfile.TemporaryDirectory(prefix="dnswatch-mutant-") as tmp:
        src = _copy(Path(tmp))
        path = src / "dnswatch" / mutant.file
        text = path.read_text()
        found = text.count(mutant.snippet)
        if found != 1:
            return f"snippet found {found} times in {mutant.file}"
        path.write_text(text.replace(mutant.snippet, mutant.replacement))
        out = _pytest(src, Path(tmp), mutant.tests)
    if out.returncode == 1:
        return "killed"
    if out.returncode == 0:
        return "survived"
    return f"pytest exited {out.returncode}:\n{out.stdout}{out.stderr}"


def main() -> int:
    tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="dnswatch-mutant-") as tmp:
        clean = _pytest(_copy(Path(tmp)), Path(tmp), tests)
    if clean.returncode != 0:
        print(f"mutants: the named tests fail without a mutant:\n{clean.stdout}{clean.stderr}")
        return 1
    failed = 0
    t0 = time.perf_counter()
    for mutant in MUTANTS:
        t = time.perf_counter()
        result = run(mutant)
        print(f"{mutant.name}: {result} ({time.perf_counter() - t:.1f} s)", flush=True)
        failed += result != "killed"
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} killed in {time.perf_counter() - t0:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

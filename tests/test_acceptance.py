"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The heavyweight end-to-end criterion builds the default ten-day
synthetic dataset once per session.
"""

import itertools
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from dnswatch.baseline_ar import fit_ar
from dnswatch.coldstart import ColdStartParams, choice_count_ie, expected_matches
from dnswatch.detector import DetectorConfig, compute_thresholds, cosine, mse
from dnswatch.evalharness import sweep
from dnswatch.ingest import aggregate_all
from dnswatch.matching import (
    Tolerance,
    incremental_advance,
    incremental_new,
    incremental_search,
    search,
)
from dnswatch.synth import SynthProfile, iter_events, truth_intervals


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="session")
def default_dataset():
    profile = SynthProfile()
    series = aggregate_all(iter_events(profile))
    return series, truth_intervals(profile)


def _run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "dnswatch", *args], capture_output=True, text=True
    )


def test_criterion_01_expectation_reproduction():
    t0 = time.perf_counter()
    lower = _run_cli(
        ["expect", "--l", "1440", "--k", "5", "--d", "3",
         "--alpha", "100", "--beta", "250", "--mode", "lower"]
    )
    ie = _run_cli(
        ["expect", "--l", "1440", "--k", "5", "--d", "3",
         "--alpha", "100", "--beta", "250", "--mode", "inclusion_exclusion"]
    )
    elapsed = time.perf_counter() - t0
    lower_val = float(lower.stdout)
    ie_val = float(ie.stdout)
    exact_ie = expected_matches(ColdStartParams(1440, 5, 3, 100, 250), "inclusion_exclusion")
    ok = (
        lower.returncode == 0
        and ie.returncode == 0
        and abs(lower_val - 2.9008) <= 0.0001
        and 8.5 <= ie_val <= 9.5
        and exact_ie == Fraction(85_958_071_116, 10**10)
        and elapsed < 2.0  # two invocations, < 1 s each
    )
    _verdict(
        "criterion 1 (expectation reproduction)",
        ok,
        f"lower={lower_val} ie={ie_val} exact={exact_ie} wall={elapsed:.2f}s for both runs",
    )


def test_criterion_02_inclusion_exclusion_exactness():
    t0 = time.perf_counter()
    checked = 0
    all_match = True
    for k in range(1, 5):
        for alpha in range(1, 4):
            for beta in range(0, 11):
                brute = sum(
                    1
                    for parts in itertools.product(range(1, alpha + 1), repeat=k)
                    if sum(parts) == beta
                )
                checked += 1
                if choice_count_ie(k, alpha, beta) != brute:
                    all_match = False
    elapsed = time.perf_counter() - t0
    ok = all_match and elapsed < 1.0
    _verdict(
        "criterion 2 (bounded-composition exactness)",
        ok,
        f"{checked} parameter triples, exhaustive match={all_match}, {elapsed:.3f}s",
    )


def test_criterion_03_exact_matching_oracle():
    rng = random.Random(4711)
    cases = 0
    for _ in range(1000):
        n = rng.randint(1, 200)
        m = rng.randint(1, 8)
        alphabet = rng.randint(2, 10)
        text = [float(rng.randrange(alphabet)) for _ in range(n)]
        pattern = [float(rng.randrange(alphabet)) for _ in range(m)]
        expected = []
        s = 0
        while s + m <= n:
            if text[s : s + m] == pattern:
                expected.append(s)
                s += m
            else:
                s += 1
        assert search(text, pattern, Tolerance(0, 0)) == expected
        cases += 1
    _verdict("criterion 3 (exact-match oracle)", cases == 1000, f"{cases} random cases agree")


def test_criterion_04_beta_soundness_and_spacing():
    rng = random.Random(2718)
    starts_checked = 0
    for _ in range(1000):
        n = rng.randint(1, 150)
        m = rng.randint(1, min(12, n))
        text = [float(rng.randrange(12)) for _ in range(n)]
        pattern = [float(rng.randrange(12)) for _ in range(m)]
        tol = Tolerance(rng.uniform(0, 5), rng.uniform(0, 20))
        starts = search(text, pattern, tol)
        for s in starts:
            err = sum(abs(pattern[i] - text[s + i]) for i in range(m))
            assert err <= tol.beta + 1e-12
            starts_checked += 1
        assert all(b - a >= m for a, b in zip(starts, starts[1:]))
    _verdict(
        "criterion 4 (beta-soundness and spacing)",
        True,
        f"1000 random cases, {starts_checked} accepted starts rechecked",
    )


def test_criterion_05_linear_time_search():
    rng = random.Random(99)
    big = [float(rng.randint(0, 9)) for _ in range(10**6)]
    small = big[: 10**5]
    pattern = [float(rng.randint(0, 9)) for _ in range(60)]
    tol = Tolerance(1.0, 5.0)

    def best_of(text, repeats=3):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            search(text, pattern, tol)
            times.append(time.perf_counter() - t0)
        return min(times)

    t_big = best_of(big)
    t_small = best_of(small)
    ratio = t_big / t_small
    ok = t_big < 1.0 and 5.0 <= ratio <= 20.0
    _verdict(
        "criterion 5 (linear-time search)",
        ok,
        f"t(1e6)={t_big:.3f}s t(1e5)={t_small:.4f}s ratio={ratio:.1f}",
    )


def test_criterion_06_incremental_matcher():
    rng = random.Random(60660)
    restarts_seen = 0
    searches_checked = 0
    for _ in range(500):
        k = rng.randint(2, 8)
        tol = Tolerance(rng.uniform(0, 4), rng.uniform(0, 15))
        fed = [float(rng.randint(0, 11)) for _ in range(k)]
        matcher = incremental_new(fed, tol)
        for _ in range(rng.randint(1, 3 * k)):
            value = float(rng.randint(0, 11))
            before = matcher.ignored_prefix
            matcher = incremental_advance(matcher, value)
            fed.append(value)
            assert len(matcher.grown_pattern) - matcher.ignored_prefix == k
            if matcher.ignored_prefix == 0 and before == k - 1:
                # restart must leave exactly the state of a fresh matcher
                assert matcher == incremental_new(fed[-k:], tol)
                restarts_seen += 1
        text = [float(rng.randint(0, 11)) for _ in range(rng.randint(k, 60))]
        suffix = matcher.effective_pattern
        starts = incremental_search(matcher, text)
        for s in starts:
            err = sum(abs(suffix[i] - text[s + i]) for i in range(k))
            assert err <= tol.beta + 1e-12
        assert all(b - a >= k for a, b in zip(starts, starts[1:]))
        searches_checked += 1
    ok = restarts_seen > 0 and searches_checked == 500
    _verdict(
        "criterion 6 (incremental matcher)",
        ok,
        f"500 interleavings, {restarts_seen} restarts verified against fresh state",
    )


def test_criterion_07_end_to_end_synthetic_detection(default_dataset):
    series, truth = default_dataset
    lookbacks = [round(days * 1440) for days in (0.04, 0.08, 0.25, 0.5, 0.75, 1, 2, 3, 4, 5)]
    cfg = DetectorConfig()
    t0 = time.perf_counter()
    rows = sweep(series, truth, cfg, lookbacks, [4, 5])
    elapsed = time.perf_counter() - t0
    headline = next(r for r in rows if r.method == "asm" and r.lookback_min == 1440 and r.score_gt == 4)
    asm_fn = [r.mean_fn for r in rows if r.method == "asm"]
    ar_fn = [r.mean_fn for r in rows if r.method == "ar"]
    asm_mean = sum(asm_fn) / len(asm_fn)
    ar_mean = sum(ar_fn) / len(ar_fn)
    ok = headline.f1 >= 0.9 and asm_mean <= ar_mean and elapsed < 300.0
    _verdict(
        "criterion 7 (end-to-end synthetic detection)",
        ok,
        f"F1@1day,>4={headline.f1:.3f} asm_mean_fn={asm_mean:.3f} "
        f"ar_mean_fn={ar_mean:.3f} sweep={elapsed:.0f}s over {len(rows)} cells",
    )


def test_criterion_08_ar_recovery():
    import numpy as np

    rng = np.random.default_rng(8801)
    y = np.zeros(10_000)
    for t in range(1, y.size):
        y[t] = 0.5 * y[t - 1] + rng.normal(0.0, 1.0)
    model = fit_ar(y, 5)
    coefficient = model.coefficients[1]
    ok = abs(coefficient - 0.5) <= 0.05
    _verdict(
        "criterion 8 (autoregression recovery)",
        ok,
        f"lag-1 coefficient {coefficient:.4f} (target 0.5 +/- 0.05, lag={model.lag})",
    )


def test_criterion_09_unit_formulas():
    checks = [
        mse([1.0, 2.0], [1.0, 2.0]) == 0.0,
        mse([1, 2], [3, 4]) == 4.0,
        mse([0], [3]) == 9.0,
        cosine([1.0, 2.0], [1.0, 2.0]) == 1.0,
        cosine([1, 0], [0, 1]) == 0.0,
        cosine([1, 2], [2, 4]) == 1.0,
    ]
    thr = compute_thresholds(1000.0, [100.0] * 10, 0.0)
    checks += [
        abs(thr.error_threshold - 9.0) < 1e-9,
        abs(thr.alpha - 90.0) < 1e-9,
        abs(thr.beta - 900.0) < 1e-9,
    ]
    ok = all(checks)
    _verdict(
        "criterion 9 (unit formulas)",
        ok,
        f"mse/cosine examples exact, thresholds=({thr.error_threshold:.6f}, "
        f"{thr.alpha:.6f}, {thr.beta:.6f})",
    )


def test_criterion_10_cli_determinism(tmp_path):
    gen_args = ["gen", "--days", "1", "--seed", "11", "--high-rate", "3000",
                "--low-rate", "1200", "--attack", "700:25:10"]
    outputs = []
    for tag in ("one", "two"):
        events = tmp_path / f"events_{tag}.csv"
        truth = tmp_path / f"truth_{tag}.csv"
        result = _run_cli(gen_args + ["--out-events", str(events), "--out-truth", str(truth)])
        assert result.returncode == 0, result.stderr
        series_dir = tmp_path / f"series_{tag}"
        assert _run_cli(["ingest", "--events", str(events), "--out-dir", str(series_dir)]).returncode == 0
        report = tmp_path / f"report_{tag}.json"
        windows = tmp_path / f"windows_{tag}.csv"
        assert _run_cli(
            ["detect", "--series-dir", str(series_dir), "--report", str(report),
             "--emit-windows", str(windows), "--lookback", "480"]
        ).returncode == 0
        sweep_out = tmp_path / f"sweep_{tag}.csv"
        assert _run_cli(
            ["sweep", "--events", str(events), "--truth", str(truth),
             "--out", str(sweep_out), "--lookbacks-days", "0.1,0.25",
             "--score-thresholds", "4,5"]
        ).returncode == 0
        outputs.append(
            tuple(p.read_bytes() for p in (events, truth, report, windows, sweep_out))
        )
    ok = outputs[0] == outputs[1]
    _verdict(
        "criterion 10 (pipeline determinism)",
        ok,
        "gen, detect and sweep outputs byte-identical across reruns",
    )

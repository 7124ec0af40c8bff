"""dnswatch benchmark: one workload, timed or traced, with output checks.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {ingest,detect-asm,detect-ar}
        [--seed N] [--seconds S] [--trace 0|1] [--days D]

The program is driven only from outside: each run is a fresh interpreter
(``child.py``) that imports ``dnswatch`` from this checkout's ``src`` and
calls ``dnswatch.cli.main``.  Inputs are produced by ``dnswatch gen`` and
``dnswatch ingest`` from ``--seed`` in a scratch directory inside the
checkout, which is removed at the end.

``--trace 0`` reports the end-to-end metrics: ``wall_rel`` (median over runs
of run wall time in units of a reference loop run between the commands in
the same child), ``setup_s`` (median of several set-ups, corrected for host
speed by the same loop and given in seconds) and ``peak_rss_mb``.  ``--trace 1``
makes a separate traced run and reports the per-layer metrics.  Every
command's exit code and output digest is checked; ``failed``/``attempted``
is the error rate.  The second-to-last line of standard output records the
host, each run's reference time and the digests; the last line is the
result.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("ingest", "detect-asm", "detect-ar")
DEFAULT_SEED = 1234
LOOKBACKS = (58, 1440, 7200)
# A quarter of gen's default packet rates: the series keep gen's default
# shape and length per day while gen and ingest stay cheap enough to repeat.
HIGH_RATE = "5000"
LOW_RATE = "1875"
DEFAULT_DAYS = 3
WINDOW = 24  # detect's default k = h = stride
SETUP_REPS = 5
# setup_s is a set-up's time in reference loops, like wall_rel, times this:
# seconds on a host where the loop takes 0.2 s, about its time on a 2-core
# x86-64 VM.  Raw seconds drift with the host by more than the metric's bound.
REF_LOOP_S = 0.2
TRACE_REPS = 3
CHILD_TIMEOUT_S = 170


class Ledger:
    """Counts commands attempted and failed, and checks output digests.

    A digest is expected to equal the committed reference for this seed and
    size when there is one, otherwise the first value seen in this run.
    """

    def __init__(self, reference: dict[str, str]) -> None:
        self.expected = dict(reference)
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, steps: list[dict], result: dict | None) -> bool:
        """Account for one child's steps.

        True when every command exited 0, so the child's times are usable;
        a digest mismatch counts as a failed command but keeps the times.
        """
        if result is None:
            self.problems.append(f"child running {steps[0]['run']}.. exited abnormally")
        completed = result is not None
        for i, step in enumerate(steps):
            if step.get("drain"):
                continue
            self.attempted += 1
            ok = result is not None and result["steps"][i]["rc"] == 0
            if result is not None and not ok:
                self.problems.append(f"{step['run']}: exit code {result['steps'][i]['rc']}")
                completed = False
            if ok:
                for key, path in step["outputs"].items():
                    got = result["steps"][i]["stdout"].strip() if path is None else digest(path)
                    want = self.expected.setdefault(key, got)
                    self.seen[key] = got
                    if got != want:
                        ok = False
                        self.problems.append(f"{key}: {got} differs from expected {want}")
            if not ok:
                self.failed += 1
        return completed

    def fail(self, problems: list[str]) -> None:
        """Count an output that an independent check rejected."""
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def digest(path: Path) -> str:
    h = hashlib.sha256()
    files = sorted(path.iterdir()) if path.is_dir() else [path]
    for f in files:
        h.update(f.name.encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def run_child(steps: list[dict], **options) -> dict | None:
    """Run ``steps`` in a fresh child; its result, or None when it failed."""
    spec = {
        "src": str(SRC),
        "steps": [{k: step.get(k) for k in ("run", "argv", "drain")} for step in steps],
        **options,
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


class Plan:
    """Paths and command lines of one workload."""

    def __init__(self, workload: str, seed: int, days: int, work: Path) -> None:
        self.workload = workload
        self.method = workload.partition("-")[2]
        self.events = work / "events.csv"
        self.truth = work / "truth.csv"
        self.series = work / "series"
        self.work = work
        self.gen = {
            "run": "gen",
            "argv": ["gen", "--days", str(days), "--seed", str(seed),
                     "--high-rate", HIGH_RATE, "--low-rate", LOW_RATE,
                     "--out-events", str(self.events), "--out-truth", str(self.truth)],
            "outputs": {"gen.events": self.events, "gen.truth": self.truth},
        }
        self.ingest = {
            "run": "ingest",
            "argv": ["ingest", "--events", str(self.events), "--out-dir", str(self.series)],
            "outputs": {"ingest.series": self.series},
        }

    def setup(self) -> list[dict]:
        return [self.gen] if self.workload == "ingest" else [self.gen, self.ingest]

    def report(self, lb: int) -> Path:
        return self.work / f"report.lb{lb}.json"

    def windows(self, lb: int) -> Path:
        return self.work / f"windows.lb{lb}.csv"

    def op(self) -> list[dict]:
        if self.workload == "ingest":
            return [self.ingest]
        steps = []
        for lb in LOOKBACKS:
            tag = f"{self.method}.lb{lb}"
            steps.append({
                "run": f"detect.lb{lb}",
                "argv": ["detect", "--series-dir", str(self.series), "--method", self.method,
                         "--lookback", str(lb), "--report", str(self.report(lb)),
                         "--emit-windows", str(self.windows(lb))],
                "outputs": {f"{tag}.report": self.report(lb), f"{tag}.windows": self.windows(lb)},
            })
            steps.append({
                "run": f"eval.lb{lb}",
                "argv": ["eval", "--report", str(self.report(lb)), "--truth", str(self.truth),
                         "--format", "json"],
                "outputs": {f"{tag}.eval": None},
            })
        return steps

    def traced_setup(self) -> list[dict]:
        """gen and ingest, each interleaved with a drain pass of its producer."""
        steps = []
        for stage, base in (("gen", self.gen), ("ingest", self.ingest)):
            for _ in range(TRACE_REPS):
                steps.append({"run": stage, "argv": base["argv"], "drain": stage, "outputs": {}})
                steps.append(base)
        return steps

    def check_outputs(self) -> list[str]:
        """Checks that hold for every seed; problems found, if any."""
        try:
            problems = check_series(self.events, self.series)
            if self.workload != "ingest":
                for lb in LOOKBACKS:
                    problems += check_detect(self.series, self.report(lb), self.windows(lb))
        except (OSError, ValueError) as exc:
            problems = [f"outputs unreadable: {exc}"]
        return problems


def check_series(events: Path, series_dir: Path) -> list[str]:
    """Recount the events independently and compare with the series CSVs.

    Feature A counts every record, B counts malformed receptions per
    receiver, C counts transmissions per sender, zero-filled over the span of
    all records.
    """
    counts: Counter = Counter()
    with open(events) as fh:
        next(fh)
        for line in fh:
            ts, src, dst, direction, malformed = line.rstrip("\r\n").split(",")
            minute = int(ts) // 60
            counts["A", minute] += 1
            if direction == "rx" and malformed == "1":
                counts["B_" + dst, minute] += 1
            if direction == "tx":
                counts["C_" + src, minute] += 1
    minutes = [m for _, m in counts]
    lo, hi = min(minutes), max(minutes)
    expected = {}
    for key in sorted({k for k, _ in counts}):
        expected[key + ".csv"] = [float(counts[key, m]) for m in range(lo, hi + 1)]
    got = {}
    for f in sorted(series_dir.glob("*.csv")):
        rows = [line.split(",") for line in f.read_text().splitlines()[1:]]
        if [int(m) for m, _ in rows] != list(range(lo, lo + len(rows))):
            return [f"{f.name}: minutes do not start at {lo} or are not contiguous"]
        got[f.name] = [float(v) for _, v in rows]
    if got.keys() != expected.keys():
        return [f"series files {sorted(got)} but events give {sorted(expected)}"]
    return [f"{name}: counts differ from the events" for name in got if got[name] != expected[name]]


def check_detect(series_dir: Path, report: Path, windows: Path) -> list[str]:
    """Window rows match the series count and length; the report parses."""
    files = sorted(series_dir.glob("*.csv"))
    n = len(files[0].read_text().splitlines()) - 1
    per_series = len(range(WINDOW, n - WINDOW + 1, WINDOW))
    rows = windows.read_text().splitlines()[1:]
    problems = []
    if len(rows) != len(files) * per_series:
        problems.append(f"{windows.name}: {len(rows)} rows, expected {len(files) * per_series}")
    events = json.loads(report.read_text())
    if not isinstance(events, list) or any(e.get("score", 0) <= 4 for e in events):
        problems.append(f"{report.name}: not a list of events scoring above 4")
    return problems


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def relative_wall(result: dict) -> float:
    """A child's wall time in units of the reference loop.

    The host's speed drifts by tens of percent within seconds, and a step's
    time correlates best with the reference loops run next to it, so each
    step is divided by the mean of the two loops that bracket it, and the
    import by the first loop.
    """
    refs = result["ref_s"]
    rel = result["import_s"] / refs[0]
    for i, step in enumerate(result["steps"]):
        rel += step["wall_s"] / ((refs[i] + refs[i + 1]) / 2)
    return rel


def timed(plan: Plan, ledger: Ledger, seconds: float, info: dict) -> dict:
    setups = []
    for _ in range(SETUP_REPS):
        result = run_child(plan.setup(), ref=True)
        if not ledger.record(plan.setup(), result):
            raise SystemExit(f"set-up failed: {ledger.problems}")
        setups.append({"wall_s": result["wall_s"], "ref_s": result["ref_s"],
                       "wall_rel": relative_wall(result)})
    runs = []
    deadline = time.perf_counter() + seconds
    while True:
        result = run_child(plan.op(), ref=True)
        if ledger.record(plan.op(), result):
            runs.append({"wall_s": result["wall_s"], "ref_s": result["ref_s"],
                         "wall_rel": relative_wall(result),
                         "peak_rss_mb": result["maxrss_kb"] / 1024})
        if time.perf_counter() >= deadline:
            break
    if not runs:
        raise SystemExit(f"no run succeeded: {ledger.problems}")
    ledger.fail(plan.check_outputs())
    info["setups"] = setups
    info["runs"] = runs
    return {
        "wall_rel": (statistics.median(r["wall_rel"] for r in runs), "ratio"),
        "setup_s": (statistics.median(s["wall_rel"] for s in setups) * REF_LOOP_S, "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
    }


def traced(plan: Plan, ledger: Ledger, info: dict) -> dict:
    setup_spans = plan.work / "spans-setup.json"
    op_spans = plan.work / "spans-op.json"
    steps = plan.traced_setup()
    if not ledger.record(steps, run_child(steps, spans=str(setup_spans))):
        raise SystemExit(f"traced set-up failed: {ledger.problems}")
    traced_run = run_child(plan.op(), ref=True, spans=str(op_spans))
    ok = ledger.record(plan.op(), traced_run)
    plain_run = run_child(plan.op(), ref=True)
    if not (ledger.record(plan.op(), plain_run) and ok):
        raise SystemExit(f"traced run failed: {ledger.problems}")
    ledger.fail(plan.check_outputs())
    metrics = setup_layers(json.loads(setup_spans.read_text()))
    metrics.update(detect_layers(json.loads(op_spans.read_text())))
    metrics["process.wall_s"] = (traced_run["wall_s"], "s")
    metrics["process.cpu_s"] = (traced_run["cpu_s"], "s")
    metrics["process.ref_s"] = (statistics.median(traced_run["ref_s"]), "s")
    metrics["process.trace_overhead"] = (relative_wall(traced_run) / relative_wall(plain_run), "ratio")
    info["runs"] = [{"traced_wall_s": traced_run["wall_s"], "wall_s": plain_run["wall_s"],
                     "ref_s": traced_run["ref_s"] + plain_run["ref_s"]}]
    return metrics


def _tree(spans: list[list]):
    """Durations, and child span indices per span."""
    dur = [s[2] - s[1] for s in spans]
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] is not None:
            kids[s[3]].append(i)
    return dur, kids


def setup_layers(spans: list[list]) -> dict:
    """Layer times of gen and ingest from interleaved drain and full passes.

    A subtracted self time is a difference of medians over the repeats, so
    drift between two single passes does not decide it.
    """
    dur, kids = _tree(spans)
    found: dict[str, list[float]] = {}
    records: dict[str, int] = {}
    for i, s in enumerate(spans):
        if s[0] not in ("cli.gen", "cli.ingest"):
            continue
        for c in kids[i]:
            name = spans[c][0]
            if name in ("synth.iter_events", "ingest.parse_events"):
                records[name] = spans[c][5]["records"]
            elif name == "ingest.aggregate_all":
                build = sum(dur[g] for g in kids[c])
                found.setdefault("series_build", []).append(build)
                found.setdefault("aggregate_self", []).append(dur[c] - build)
                found.setdefault("ingest_write", []).append(dur[i] - dur[c])
            found.setdefault(name, []).append(dur[c])
    med = {k: statistics.median(v) for k, v in found.items()}
    return {
        "synth.iter_events_s": (med["synth.iter_events"], "s"),
        "synth.events": (records["synth.iter_events"], "count"),
        "ingest.write_events_s": (med["ingest.write_events"] - med["synth.iter_events"], "s"),
        "ingest.parse_events_s": (med["ingest.parse_events"], "s"),
        "ingest.aggregate_all_s": (med["aggregate_self"] - med["ingest.parse_events"], "s"),
        "ingest.records": (records["ingest.parse_events"], "count"),
        "model.series_build_s": (med["series_build"], "s"),
        "cli.ingest_write_s": (med["ingest_write"], "s"),
    }


def _pct_us(values: list[float], q: float) -> float:
    return quantile(values, q) * 1e6


def detect_layers(spans: list[list]) -> dict:
    """Per-lookback layer metrics of the detect and eval commands.

    Every metric is emitted on every workload; a layer that does not run on
    a workload reads 0.
    """
    dur, kids = _tree(spans)
    self_s = [d - sum(dur[c] for c in k) for d, k in zip(dur, kids)]
    out: dict = {}
    score_agg = eval_s = confusion_s = 0.0
    for lb in LOOKBACKS:
        by: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            if s[4] in (f"detect.lb{lb}", f"eval.lb{lb}"):
                by.setdefault(s[0], []).append(i)

        def total(name: str, values=dur) -> float:
            return sum(values[i] for i in by.get(name, []))

        def attr(name: str, key: str) -> list:
            return [spans[i][5][key] for i in by.get(name, [])]

        search = [dur[i] for i in by.get("matching.search", [])]
        fits = [dur[i] for i in by.get("baseline_ar.fit_ar", [])]
        hits = attr("predictor.predict", "hit")
        lags = attr("baseline_ar.fit_ar", "lag")
        loops = by.get("detector.detect_series", []) + by.get("baseline_ar.detect_series_ar", [])
        windows = sum(spans[i][5]["windows"] for i in loops)
        cold = sum(spans[i][5]["cold"] for i in loops)
        sfx = f".lb{lb}"
        out.update({
            "matching.search_s" + sfx: (sum(search), "s"),
            "matching.search_calls" + sfx: (len(search), "count"),
            "matching.search_p50_us" + sfx: (_pct_us(search, 0.5), "us"),
            "matching.search_p99_us" + sfx: (_pct_us(search, 0.99), "us"),
            "matching.text_elems" + sfx: (sum(attr("matching.search", "text")), "count"),
            "matching.starts" + sfx: (sum(attr("matching.search", "starts")), "count"),
            "predictor.predict_s" + sfx: (total("predictor.predict"), "s"),
            "predictor.hit_ratio" + sfx: (sum(hits) / len(hits) if hits else 0.0, "ratio"),
            "baseline_ar.detect_series_ar_s" + sfx: (total("baseline_ar.detect_series_ar"), "s"),
            "baseline_ar.self_s" + sfx: (total("baseline_ar.detect_series_ar", self_s), "s"),
            "baseline_ar.fit_ar_s" + sfx: (sum(fits), "s"),
            "baseline_ar.fit_p50_us" + sfx: (_pct_us(fits, 0.5), "us"),
            "baseline_ar.fit_p99_us" + sfx: (_pct_us(fits, 0.99), "us"),
            "baseline_ar.fit_calls" + sfx: (len(fits), "count"),
            "baseline_ar.forecast_ar_s" + sfx: (total("baseline_ar.forecast_ar"), "s"),
            "baseline_ar.mean_lag" + sfx: (statistics.fmean(lags) if lags else 0.0, "count"),
            "detector.detect_series_s" + sfx: (sum(dur[i] for i in loops), "s"),
            "detector.self_s" + sfx: (sum(self_s[i] for i in loops), "s"),
            "detector.windows" + sfx: (windows, "count"),
            "detector.cold_frac" + sfx: (cold / windows if windows else 0.0, "ratio"),
            "detector.flagged" + sfx: (sum(spans[i][5]["flagged"] for i in loops), "count"),
            "cli.detect_self_s" + sfx: (total("cli.detect", self_s), "s"),
        })
        score_agg += total("detector.score_aggregate")
        eval_s += total("cli.eval")
        confusion_s += total("evalharness.confusion")
    out["detector.score_aggregate_s"] = (score_agg, "s")
    out["cli.eval_s"] = (eval_s, "s")
    out["evalharness.confusion_s"] = (confusion_s, "s")
    return out


def host_record() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--days", type=int, default=DEFAULT_DAYS,
                        help="dataset length; the smoke test uses 1")
    args = parser.parse_args(argv)
    if not (SRC / "dnswatch" / "cli.py").is_file():
        print(f"perfbench: no dnswatch sources under {SRC}", file=sys.stderr)
        return 2
    info = {"workload": args.workload, "seed": args.seed, "days": args.days,
            "trace": args.trace, "host": host_record()}
    references = json.loads((BENCH / "reference.json").read_text())["digests"]
    key = f"days{args.days}-seed{args.seed}"
    info["reference"] = key if key in references else None
    ledger = Ledger(references.get(key, {}))
    # On SIGTERM, unwind through the finally below: subprocess.run kills and
    # reaps the running child, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        plan = Plan(args.workload, args.seed, args.days, work)
        if args.trace:
            metrics = traced(plan, ledger, info)
        else:
            metrics = timed(plan, ledger, args.seconds, info)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info["digests"] = ledger.seen
    info["problems"] = ledger.problems
    info["error_rate"] = ledger.failed / ledger.attempted
    print(json.dumps(info))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

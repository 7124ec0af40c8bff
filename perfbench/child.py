"""One measured run of dnswatch commands in a fresh interpreter.

Usage: python3 child.py SPEC_JSON

SPEC_JSON is a JSON object with keys

* ``src``: directory that holds the ``dnswatch`` package (the checkout's ``src``);
* ``steps``: list of ``{"run": name, "argv": [...], "drain": null | "gen" | "ingest"}``;
  each step calls ``dnswatch.cli.main(argv)`` in this process;
* ``ref``: run the reference loop before each step and after the last one;
* ``spans``: when set, a path; layer spans are recorded and written there as JSON.

A ``drain`` step runs the same command with the stage's producer swapped for a
loop that only consumes the records: ``gen`` drains ``iter_events`` instead of
writing it, ``ingest`` drains ``parse_events`` instead of aggregating it.  Its
span times the producer alone, so the writer's and aggregator's own time can be
derived by subtraction.

The last line of standard output is one JSON object: ``import_s`` (importing
``dnswatch``), ``wall_s`` (the import plus every step, without the reference
loops), ``cpu_s`` (likewise), ``ref_s`` (the reference-loop times, one more
than there are steps), ``maxrss_kb`` and per step ``rc``, ``stdout`` and
``wall_s``.  The program's own standard output is captured per step, so
nothing else reaches this process's standard output.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import io
import json
import resource
import sys
import time
from pathlib import Path

# Sizes give about 0.2 s on a 2-core x86-64 VM.  The inputs are small and
# reused, so the loop adds less than 1 MB to a child's peak RSS.
REF_DICT_ITERS = 100_000
REF_CSV_LINES = 3_000
REF_CSV_PASSES = 10
REF_SCAN_ELEMS = 2_000
REF_SCAN_PASSES = 250
REF_CUMSUM_ROUNDS = 60


@functools.cache
def _ref_inputs():
    text = "".join(
        f"{60 * (i // 300)},10.0.0.{11 + i % 4},10.0.1.53,{'rx' if i % 9 == 0 else 'tx'},{i % 2}\n"
        for i in range(REF_CSV_LINES)
    )
    pattern = [float((i * 37) % 50) for i in range(24)]
    values = [float((i * 53) % 51) for i in range(REF_SCAN_ELEMS)]
    return text, pattern, values


def ref_loop() -> float:
    """Time a fixed miniature of the kinds of work the pipeline does.

    Four parts, each a fixed input: dict counting in bytecode, CSV parsing
    with dict aggregation, a tolerant scan over floats in bytecode, and numpy
    lagged-product cumsums as in the AR fit.  Numpy takes about two fifths of
    the time and each other part one fifth.  On a shared 2-core host, the
    workloads' command times tracked this mix more closely than a single
    pure-Python loop (see README.md).  Called after ``import dnswatch``, so
    loading numpy is not part of it.
    """
    import numpy as np

    text, pattern, values = _ref_inputs()
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(REF_DICT_ITERS):
        x = (i * 2654435761) % 4093
        table[x] = table.get(x, 0) + 1
        acc += x if x & 1 else -x
    per_minute: dict[tuple[str, int], int] = {}
    for _ in range(REF_CSV_PASSES):
        for row in csv.reader(io.StringIO(text)):
            key = (row[1], int(row[0]) // 60)
            per_minute[key] = per_minute.get(key, 0) + 1
    j = matches = 0
    for _ in range(REF_SCAN_PASSES):
        for x in values:
            d = x - pattern[j]
            if d < 0.0:
                d = -d
            if d <= 20.0:
                j += 1
                if j == len(pattern):
                    j = 0
                    matches += 1
            else:
                j = 0
    y = np.arange(1440, dtype=float) % 97.0
    total = 0.0
    for _ in range(REF_CUMSUM_ROUNDS):
        for lag in range(100):
            total += float(np.cumsum(y[: y.size - lag] * y[lag:])[-1])
    elapsed = time.perf_counter() - t0
    if acc == 1 or len(per_minute) == 0 or matches < 0 or total <= 0:  # keeps results live
        raise RuntimeError("reference loop produced an impossible result")
    return elapsed


class Recorder:
    """In-memory spans ``[name, start, end, parent, run, attrs]``.

    ``wrap`` replaces a function by name in the module that calls it, since
    dnswatch modules import each other's functions by name.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed code; yields the span's attribute dict."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, 0.0, 0.0, parent, self.run, {}]
        self.spans.append(record)
        self._stack.append(sid)
        record[1] = time.perf_counter()
        try:
            yield record[5]
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, attrs_of=None) -> None:
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = original(*args, **kwargs)
                if attrs_of is not None:
                    attrs.update(attrs_of(args, result))
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def unpatch(self) -> None:
        """Undo the latest ``wrap`` or ``patch``."""
        module, attr, original = self._patches.pop()
        setattr(module, attr, original)

    def restore(self) -> None:
        while self._patches:
            self.unpatch()


def _install(rec: Recorder) -> None:
    baseline_ar = sys.modules["dnswatch.baseline_ar"]
    cli = sys.modules["dnswatch.cli"]
    detector = sys.modules["dnswatch.detector"]
    ingest = sys.modules["dnswatch.ingest"]

    def flag_counts(args, flags):
        return {
            "windows": len(flags),
            "cold": sum(1 for f in flags if f.cold_start),
            "flagged": sum(1 for f in flags if f.flagged),
        }

    rec.wrap(detector, "search", "matching.search",
             lambda a, r: {"text": len(a[0]), "starts": len(r)})
    rec.wrap(detector, "predict", "predictor.predict",
             lambda a, r: {"hit": int(r.contributor_count > 0)})
    rec.wrap(baseline_ar, "fit_ar", "baseline_ar.fit_ar", lambda a, r: {"lag": r.lag})
    rec.wrap(baseline_ar, "forecast_ar", "baseline_ar.forecast_ar")
    rec.wrap(cli, "detect_series", "detector.detect_series", flag_counts)
    rec.wrap(cli, "detect_series_ar", "baseline_ar.detect_series_ar", flag_counts)
    rec.wrap(cli, "score_aggregate", "detector.score_aggregate")
    rec.wrap(cli, "confusion", "evalharness.confusion")
    rec.wrap(cli, "aggregate_all", "ingest.aggregate_all")
    rec.wrap(cli, "write_events", "ingest.write_events")
    rec.wrap(ingest, "MinuteSeries", "model.series_build")


def _drain(rec: Recorder, name: str, empty):
    # cli passes the record iterator as the last positional argument of both
    # write_events(fh, records) and aggregate_all(records).
    def consume(*args, **kwargs):
        with rec.span(name) as attrs:
            attrs["records"] = sum(1 for _ in args[-1])
        return empty

    return consume


def main(spec: dict) -> int:
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    refs = []
    rec = Recorder()
    c0 = time.process_time()
    t0 = time.perf_counter()
    cli = importlib.import_module("dnswatch.cli")
    import_wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"dnswatch imported from {cli.__file__}, outside {src}")
    if spec.get("spans"):
        _install(rec)
    steps = []
    for step in spec["steps"]:
        if spec.get("ref"):
            refs.append(ref_loop())
        rec.run = step["run"]
        drain = step.get("drain")
        if drain == "gen":
            rec.patch(cli, "write_events", _drain(rec, "synth.iter_events", 0))
        elif drain == "ingest":
            rec.patch(cli, "aggregate_all", _drain(rec, "ingest.parse_events", {}))
        out = io.StringIO()
        c0 = time.process_time()
        s0 = time.perf_counter()
        with contextlib.redirect_stdout(out), rec.span("cli." + step["argv"][0]):
            rc = cli.main(step["argv"])
        cpu += time.process_time() - c0
        steps.append({"rc": rc, "stdout": out.getvalue(), "wall_s": time.perf_counter() - s0})
        if drain:
            rec.unpatch()
    if spec.get("ref"):
        refs.append(ref_loop())
    rec.restore()
    if spec.get("spans"):
        Path(spec["spans"]).write_text(json.dumps(rec.spans))
    result = {
        "import_s": import_wall,
        "wall_s": import_wall + sum(step["wall_s"] for step in steps),
        "cpu_s": cpu,
        "ref_s": refs,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "steps": steps,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))

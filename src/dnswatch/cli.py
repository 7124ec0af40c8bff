"""Command-line front end.

Subcommands wire the pipeline end to end: ``gen`` writes a synthetic event
and truth file, ``ingest`` turns events into per-series minute CSVs,
``detect`` runs a detector over the series and writes the anomaly report,
``eval`` scores a report against truth, ``sweep`` runs the full comparison
grid, and ``expect`` prints the cold-start occurrence expectation.

Exit codes: 0 on success, 1 on usage errors, 2 on data errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from itertools import repeat
from pathlib import Path
from typing import Optional, Sequence
from urllib.parse import quote, unquote

from .baseline_ar import detect_series_ar
from .coldstart import ColdStartParams, expected_matches
from .detector import AnomalyEvent, DetectorConfig, detect_series, score_aggregate
from .evalharness import METHODS, confusion, metrics, sweep, sweep_rows_to_csv
from .ingest import (
    ParseError,
    parse_events,
    parse_ground_truth,
    aggregate_all,
    write_events,
    write_ground_truth,
)
from .model import FeatureKind, MinuteSeries, SeriesKey
from .synth import AttackSpec, SynthProfile, iter_events, truth_intervals

DEFAULT_LOOKBACK_DAYS = "0.04,0.08,0.25,0.5,0.75,1,2,3,4,5"
SERIES_HEADER = "minute,value"
_DEFAULTS = DetectorConfig()


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this artifact reserves 2
    # for data errors.  Flags must be spelled in full, so that a flag that
    # one subcommand lacks is not read as a longer flag it has.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        # A subcommand's parser takes every argument after the subcommand,
        # so it reports leftovers itself, with its own usage, instead of
        # handing them back to the top-level parser.
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _add_detector_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=_DEFAULTS.k, help="pattern length in minutes")
    p.add_argument("--h", type=int, default=None, help="prediction horizon in minutes (default: k)")
    p.add_argument("--epsilon", type=float, default=_DEFAULTS.epsilon, help="log-base adjustment in [0,1)")
    p.add_argument(
        "--cos-threshold", type=float, default=_DEFAULTS.cos_threshold, help="similarity cutoff in (0,1]"
    )
    p.add_argument("--stride", type=int, default=None, help="minutes between evaluations (default: h)")
    p.add_argument(
        "--cold-start-factor",
        type=float,
        default=_DEFAULTS.cold_start_factor,
        help="order-of-magnitude factor",
    )


def _config_from_args(args: argparse.Namespace, lookback: int) -> DetectorConfig:
    return DetectorConfig(
        k=args.k,
        h=args.h,
        lookback=lookback,
        epsilon=args.epsilon,
        cos_threshold=args.cos_threshold,
        stride=args.stride,
        cold_start_factor=args.cold_start_factor,
    )


def _parse_attack(text: str) -> AttackSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"attack must be start:duration:multiplier, got {text!r}"
        )
    try:
        return AttackSpec(int(parts[0]), int(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _profile_from_args(args: argparse.Namespace) -> SynthProfile:
    if args.attack:
        attacks = tuple(args.attack)
    else:
        horizon = args.days * 1440
        attacks = tuple(
            a for a in SynthProfile().attacks if a.start_minute + a.duration_minutes <= horizon
        )
    return SynthProfile(
        days=args.days,
        high_rate=args.high_rate,
        low_rate=args.low_rate,
        noise_fraction=args.noise,
        attacks=attacks,
        seed=args.seed,
    )


def _cmd_gen(args: argparse.Namespace) -> int:
    profile = _profile_from_args(args)
    with open(args.out_events, "w", newline="") as fh:
        count = write_events(fh, iter_events(profile))
    with open(args.out_truth, "w", newline="") as fh:
        write_ground_truth(fh, truth_intervals(profile))
    print(f"wrote {count} events to {args.out_events}, {len(profile.attacks)} truth intervals")
    return 0


def _series_filename(key: SeriesKey) -> str:
    # The IP is percent-encoded so IPv6 colons survive; IPv4 bytes are unchanged.
    if key.ip is None:
        return f"{key.feature.value}.csv"
    return f"{key.feature.value}_{quote(key.ip, safe='')}.csv"


def _cmd_ingest(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    with open(args.events, newline="") as fh:
        series = aggregate_all(parse_events(fh))
    # detect reads every CSV in the directory, so one left by an earlier
    # capture would be scored as part of this one.
    names = {_series_filename(key) for key in series}
    stale = sorted(f.name for f in out_dir.glob("*.csv") if f.name not in names)
    if stale:
        raise ParseError(
            f"{out_dir} holds series files that this capture does not write:"
            f" {', '.join(stale)}; remove them or choose another --out-dir"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    for key in sorted(series):
        s = series[key]
        path = out_dir / _series_filename(key)
        with open(path, "w", newline="") as fh:
            fh.write(f"{SERIES_HEADER}\n")
            for i, v in enumerate(s.values):
                fh.write(f"{s.start_minute + i},{v!r}\n")
    print(f"wrote {len(series)} series to {out_dir}")
    return 0


def _bad_row(f: Path, lines: Sequence[str], lineno: int) -> ParseError:
    """The error naming the first row that does not parse, in a block of
    lines of a series file that starts at line ``lineno``."""
    for lineno, line in enumerate(lines, start=lineno):
        line = line.strip()
        if not line:
            continue
        m_raw, _, v_raw = line.partition(",")
        try:
            int(m_raw)
            float(v_raw)
        except ValueError:
            return ParseError(f"{f} line {lineno}: bad row {line!r}")
    raise AssertionError(f"{f}: every row parses")


def _load_series_dir(path: str) -> dict[SeriesKey, MinuteSeries]:
    series: dict[SeriesKey, MinuteSeries] = {}
    files = sorted(Path(path).glob("*.csv"))
    if not files:
        raise ParseError(f"no series CSVs found in {path}")
    first_span = None
    for f in files:
        feature, sep, ip = f.stem.partition("_")
        try:
            key = SeriesKey.from_label(f"{feature}:{unquote(ip)}" if sep else feature)
        except ValueError as exc:
            raise ParseError(f"{f}: {exc}") from None
        # Two names that decode to one key would otherwise overwrite each other.
        canonical = _series_filename(key)
        if canonical != f.name:
            raise ParseError(f"{f}: series {key.label()} is stored as {canonical}, not {f.name}")
        minutes: list[int] = []
        values: list[float] = []
        # Universal newlines: "\r\n" and "\r" end a line, as "\n" does.
        with open(f) as fh:
            header = fh.readline().strip()
            if header != SERIES_HEADER:
                raise ParseError(f"{f}: bad series header {header!r}")
            lineno = 2
            # A block of lines at a time: lists of a whole file's rows would
            # raise peak memory by about a megabyte per 4,320-minute series.
            while lines := fh.readlines(1 << 13):
                rows = list(filter(None, map(str.strip, lines)))  # blank lines dropped
                if rows:
                    m_raw, _, v_raw = zip(*map(str.partition, rows, repeat(",")))
                    try:
                        minutes += map(int, m_raw)
                        values += map(float, v_raw)
                    except ValueError:
                        raise _bad_row(f, lines, lineno) from None
                lineno += len(lines)
        if not values:
            raise ParseError(f"{f}: empty series")
        if minutes != list(range(minutes[0], minutes[0] + len(minutes))):
            raise ParseError(f"{f}: minutes are not contiguous")
        span = (minutes[0], minutes[-1])
        first_span = first_span or span
        if span != first_span:
            raise ParseError(
                f"{f}: minutes {span[0]}-{span[1]} differ from {files[0].name}"
                f" minutes {first_span[0]}-{first_span[1]}; all series must share one span"
            )
        try:
            series[key] = MinuteSeries(key, minutes[0], tuple(values))
        except ValueError as exc:
            raise ParseError(f"{f}: {exc}") from None
    return series


def _event_to_json(ev: AnomalyEvent) -> dict:
    return {
        "key": ev.key,
        "start_minute": ev.start_minute,
        "end_minute": ev.end_minute,
        "mse": ev.mse,
        "cosine": ev.cosine,
        "features": sorted(f.value for f in ev.features),
        "score": ev.score,
    }


def _cmd_detect(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args, args.lookback)
    series = _load_series_dir(args.series_dir)
    detect = detect_series if args.method == METHODS[0] else detect_series_ar
    flags = {key: detect(series[key], cfg) for key in sorted(series)}
    events = score_aggregate(flags, cfg.h, args.score_threshold)
    with open(args.report, "w") as fh:
        json.dump([_event_to_json(ev) for ev in events], fh, indent=2)
        fh.write("\n")
    if args.emit_windows:
        with open(args.emit_windows, "w", newline="") as fh:
            fh.write("series_key,window_start,flagged,mse,cosine,cold_start\n")
            for key in sorted(flags):
                for w in flags[key]:
                    mse_s = "" if w.mse is None else repr(w.mse)
                    cos_s = "" if w.cosine is None else repr(w.cosine)
                    fh.write(
                        f"{key.label()},{w.window_start},{int(w.flagged)},"
                        f"{mse_s},{cos_s},{int(w.cold_start)}\n"
                    )
    print(f"wrote {len(events)} events to {args.report}")
    return 0


def _load_report(path: str) -> list[AnomalyEvent]:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise ParseError(f"{path}: report must be a JSON list of events")
    events = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ParseError(f"{path}: report item {i} is not an object: {item!r}")
        try:
            fields = {f.name: item[f.name] for f in dataclasses.fields(AnomalyEvent)}
        except KeyError as exc:
            raise ParseError(f"{path}: report item {i} lacks key {exc.args[0]!r}") from None
        for name, kind in (("start_minute", int), ("end_minute", int), ("features", list)):
            value = fields[name]
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ParseError(
                    f"{path}: report item {i} key {name!r} must be of type"
                    f" {kind.__name__}, got {value!r}"
                )
        if fields["end_minute"] < fields["start_minute"]:
            raise ParseError(
                f"{path}: report item {i} end_minute {fields['end_minute']}"
                f" before start_minute {fields['start_minute']}"
            )
        fields["features"] = frozenset(FeatureKind(v) for v in fields["features"])
        events.append(AnomalyEvent(**fields))
    return events


def _cmd_eval(args: argparse.Namespace) -> int:
    events = _load_report(args.report)
    with open(args.truth, newline="") as fh:
        truth = parse_ground_truth(fh)
    bounds = [iv.start_minute for iv in truth] + [ev.start_minute for ev in events]
    ends = [iv.end_minute for iv in truth] + [ev.end_minute for ev in events]
    start = args.timeline_start if args.timeline_start is not None else (min(bounds) if bounds else 0)
    end = args.timeline_end if args.timeline_end is not None else (max(ends) + 1 if ends else 1)
    if start >= end:
        raise ParseError(f"timeline [{start}, {end}) is empty: its start must be before its end")
    counts = confusion(events, truth, (start, end), args.window)
    m = metrics(counts)
    payload = {
        "tp": counts.tp,
        "fp": counts.fp,
        "fn": counts.fn,
        "tn": counts.tn,
        "tpr": m["tpr"],
        "fnr": m["fnr"],
        "precision": m["precision"],
        "f1": m["f1"],
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(",".join(payload))
        print(",".join(repr(v) for v in payload.values()))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    with open(args.events, newline="") as fh:
        series = aggregate_all(parse_events(fh))
    with open(args.truth, newline="") as fh:
        truth = parse_ground_truth(fh)
    lookbacks = [round(float(d) * 1440) for d in args.lookbacks_days.split(",")]
    thresholds = [int(s) for s in args.score_thresholds.split(",")]
    methods = args.methods.split(",")
    cfg = _config_from_args(args, max(lookbacks))
    rows = sweep(series, truth, cfg, lookbacks, thresholds, methods)
    with open(args.out, "w", newline="") as fh:
        fh.write(sweep_rows_to_csv(rows))
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


def _cmd_expect(args: argparse.Namespace) -> int:
    params = ColdStartParams(l=args.l, k=args.k, d=args.d, alpha=args.alpha, beta=args.beta)
    value = expected_matches(params, args.mode)
    print(f"{float(value):.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dnswatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("gen", help="generate synthetic events and ground truth", formatter_class=fmt)
    p.add_argument("--days", type=int, default=10)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--high-rate", type=float, default=20000.0, help="busy-window packets per hour")
    p.add_argument("--low-rate", type=float, default=7500.0, help="off-hours packets per hour")
    p.add_argument("--noise", type=float, default=0.05, help="multiplicative noise fraction")
    p.add_argument(
        "--attack",
        action="append",
        type=_parse_attack,
        default=None,
        metavar="START:DUR:MULT",
        help="inject an attack (repeatable; default: built-in schedule)",
    )
    p.add_argument("--out-events", required=True)
    p.add_argument("--out-truth", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("ingest", help="aggregate events into per-series minute CSVs", formatter_class=fmt)
    p.add_argument("--events", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("detect", help="run a detector over ingested series", formatter_class=fmt)
    p.add_argument("--series-dir", required=True)
    p.add_argument("--method", choices=METHODS, default=METHODS[0])
    p.add_argument("--report", required=True, help="output JSON report path")
    p.add_argument("--emit-windows", default=None, help="also write per-window flag CSV here")
    p.add_argument("--lookback", type=int, default=_DEFAULTS.lookback, help="history length in minutes")
    p.add_argument("--score-threshold", type=int, default=4, help="feature score must exceed this")
    _add_detector_flags(p)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("eval", help="score a report against ground truth", formatter_class=fmt)
    p.add_argument("--report", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--window", type=int, default=24, help="true-negative bucket width in minutes")
    p.add_argument("--timeline-start", type=int, default=None)
    p.add_argument("--timeline-end", type=int, default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="full method/lookback/threshold comparison grid", formatter_class=fmt)
    p.add_argument("--events", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lookbacks-days", default=DEFAULT_LOOKBACK_DAYS)
    p.add_argument("--score-thresholds", default="4,5")
    p.add_argument("--methods", default=",".join(METHODS))
    _add_detector_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("expect", help="cold-start occurrence expectation", formatter_class=fmt)
    p.add_argument("--l", type=int, required=True, help="history length in letters")
    p.add_argument("--k", type=int, required=True, help="pattern length in letters")
    p.add_argument("--d", type=int, required=True, help="digits per letter")
    p.add_argument("--alpha", type=int, required=True, help="per-letter tolerance")
    p.add_argument("--beta", type=int, required=True, help="total tolerance")
    p.add_argument("--mode", choices=["lower", "inclusion_exclusion"], default="lower")
    p.set_defaults(func=_cmd_expect)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"dnswatch: {exc}", file=sys.stderr)
        return 2

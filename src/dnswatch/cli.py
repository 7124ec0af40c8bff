"""Command-line front end.

Subcommands wire the pipeline end to end: ``gen`` writes a synthetic event
and truth file, ``ingest`` turns events into per-series minute CSVs,
``detect`` runs a detector over the series and writes the anomaly report,
``eval`` scores a report against truth, ``sweep`` runs the full comparison
grid, and ``expect`` prints the cold-start occurrence expectation.

Exit codes: 0 on success, 1 on usage errors, 2 on data errors, 130 on an
interrupt.

This module owns the arguments and paths only: it checks them, opens each
file and names it in its reader's errors.  ``ingest`` owns the file formats.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from .baseline_ar import detect_series_ar
from .coldstart import MODES, ColdStartParams, expected_matches
from .detector import DetectorConfig, detect_each, detect_series, score_aggregate
from .evalharness import METHODS, confusion, eval_text, sweep, sweep_rows_to_csv
from .ingest import (
    ParseError,
    aggregate_all,
    parse_events,
    parse_ground_truth,
    read_report,
    read_series,
    series_filename,
    series_key,
    write_events,
    write_ground_truth,
    write_report,
    write_series,
    write_windows,
)
from .model import MinuteSeries, SeriesKey
from .synth import AttackSpec, SynthProfile, iter_events, truth_intervals

DEFAULT_LOOKBACK_DAYS = "0.04,0.08,0.25,0.5,0.75,1,2,3,4,5"
_DEFAULTS = DetectorConfig()
_PROFILE = SynthProfile()
T = TypeVar("T")


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
    # every other field is the flag of the same name
    fields = dataclasses.fields(DetectorConfig)
    return DetectorConfig(
        lookback=lookback, **{f.name: getattr(args, f.name) for f in fields if f.name != "lookback"}
    )


def _same_file(a: str | Path, b: str | Path) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist yet
        return Path(a).resolve() == Path(b).resolve()


def _check_outputs(
    args: argparse.Namespace, outputs: Sequence[str], inputs: Sequence[str] = ()
) -> None:
    """Reject an output flag that names a directory, whose directory does not
    exist, or whose file is that of an input flag or of another output flag,
    before any input is read or any work is done.  Nothing is opened here: an
    output path that names an input must not be truncated before the input is
    read."""
    seen = [(flag, getattr(args, flag[2:].replace("-", "_"))) for flag in inputs]
    for flag in outputs:
        path = getattr(args, flag[2:].replace("-", "_"))
        if path is None:
            continue
        if Path(path).is_dir():
            raise ValueError(f"{flag} {path} is a directory")
        if not Path(path).parent.is_dir():
            raise ValueError(f"{flag} {path}: {Path(path).parent} is not a directory")
        for other, other_path in seen:
            if _same_file(path, other_path):
                raise ValueError(f"{flag} {path} and {other} {other_path} name the same file")
        seen.append((flag, path))


@contextlib.contextmanager
def _naming(path: str | Path) -> Iterator[None]:
    """Prefix a ValueError raised inside with the path of the file it is about."""
    try:
        yield
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _parse_attack(text: str) -> AttackSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"attack must be start:duration:multiplier, got {text!r}")
    try:
        return AttackSpec(int(parts[0]), int(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_gen(args: argparse.Namespace) -> int:
    _check_outputs(args, ["--out-events", "--out-truth"])
    horizon = args.days * 1440
    default = [a for a in _PROFILE.attacks if a.start_minute + a.duration_minutes <= horizon]
    attacks = tuple(args.attack or default)
    profile = SynthProfile(args.days, args.high_rate, args.low_rate, args.noise, attacks, args.seed)
    with open(args.out_events, "w", newline="") as fh:
        count = write_events(fh, iter_events(profile))
    with open(args.out_truth, "w", newline="") as fh:
        write_ground_truth(fh, truth_intervals(profile))
    print(f"wrote {count} events to {args.out_events}, {len(profile.attacks)} truth intervals")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    # checked before the events are read: no series file can be written over
    # a directory of its name, and detect would read any *.csv as a series
    if out_dir.exists() and not out_dir.is_dir():
        raise ValueError(f"--out-dir {out_dir} is not a directory")
    dirs = sorted(f.name for f in out_dir.glob("*.csv") if f.is_dir())
    if dirs:
        raise ValueError(
            f"--out-dir {out_dir} holds directories named as series files: {', '.join(dirs)}"
        )
    with open(args.events, newline="") as fh, _naming(args.events):
        series = aggregate_all(parse_events(fh))
    # detect reads every CSV in the directory, so one left by an earlier
    # capture would be scored as part of this one.
    names = {series_filename(key) for key in series}
    stale = sorted(f.name for f in out_dir.glob("*.csv") if f.name not in names)
    if stale:
        raise ParseError(
            f"{out_dir} holds series files that this capture does not write:"
            f" {', '.join(stale)}; remove them or choose another --out-dir"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    for key in sorted(series):
        with open(out_dir / series_filename(key), "w", newline="") as fh:
            write_series(fh, series[key])
    print(f"wrote {len(series)} series to {out_dir}")
    return 0


def _load_series_dir(path: str) -> dict[SeriesKey, MinuteSeries]:
    series: dict[SeriesKey, MinuteSeries] = {}
    files = sorted(Path(path).glob("*.csv"))
    if not files:
        raise ParseError(f"no series CSVs found in {path}")
    first_span = None
    for f in files:
        with _naming(f):
            key = series_key(f.name)
            with open(f) as fh:
                s = read_series(fh)
            span = (s.start_minute, s.start_minute + len(s) - 1)
            first_span = first_span or span
            if span != first_span:
                raise ParseError(
                    f"minutes {span[0]}-{span[1]} differ from {files[0].name}"
                    f" minutes {first_span[0]}-{first_span[1]}; all series must share one span"
                )
            series[key] = s
    return series


def _cmd_detect(args: argparse.Namespace) -> int:
    _check_outputs(args, ["--report", "--emit-windows"])
    # detect reads every CSV in --series-dir, the next run included
    for flag, path in (("--report", args.report), ("--emit-windows", args.emit_windows)):
        if path and path.endswith(".csv") and _same_file(Path(path).parent, args.series_dir):
            raise ValueError(f"{flag} {path} is a series file of --series-dir {args.series_dir}")
    cfg = _config_from_args(args, args.lookback)
    series = _load_series_dir(args.series_dir)
    detect = detect_series if args.method == METHODS[0] else detect_series_ar
    keys = sorted(series)
    # Every series shares one span, and a span too short for a window is the
    # one data error detection raises, so the first series names it.
    with _naming(Path(args.series_dir) / series_filename(keys[0])):
        flags = dict(zip(keys, detect_each([series[key] for key in keys], detect, cfg)))
    events = score_aggregate(flags, cfg.h, args.score_threshold)
    with open(args.report, "w") as fh:
        write_report(fh, events)
    if args.emit_windows:
        with open(args.emit_windows, "w", newline="") as fh:
            write_windows(fh, flags)
    print(f"wrote {len(events)} events to {args.report}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    with open(args.report) as fh, _naming(args.report):
        events = read_report(fh)
    with open(args.truth, newline="") as fh, _naming(args.truth):
        truth = parse_ground_truth(fh)
    bounds = [iv.start_minute for iv in truth] + [ev.start_minute for ev in events]
    ends = [iv.end_minute for iv in truth] + [ev.end_minute for ev in events]
    start = args.timeline_start if args.timeline_start is not None else (min(bounds) if bounds else 0)
    end = args.timeline_end if args.timeline_end is not None else (max(ends) + 1 if ends else 1)
    if start >= end:
        raise ParseError(f"timeline [{start}, {end}) is empty: its start must be before its end")
    counts = confusion(events, truth, (start, end), args.window)
    print(eval_text(counts, args.format), end="")
    return 0


def _grid(flag: str, text: str, convert: Callable[[str], T]) -> list[T]:
    """The comma-separated items of a grid flag, each converted."""
    items = []
    for item in text.split(","):
        try:
            items.append(convert(item))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{flag}: bad item {item!r}: {exc}") from None
    return items


def _method(name: str) -> str:
    if name not in METHODS:
        raise ValueError(f"must be one of {', '.join(METHODS)}")
    return name


def _cmd_sweep(args: argparse.Namespace) -> int:
    # The output is checked against its directory and the inputs, then the
    # other flags at a lookback that passes, then each item of the grid, all
    # before a file is opened.
    _check_outputs(args, ["--out"], ["--events", "--truth"])
    cfg = _config_from_args(args, sys.maxsize)
    lookbacks = _grid(
        "--lookbacks-days",
        args.lookbacks_days,
        lambda d: dataclasses.replace(cfg, lookback=round(float(d) * 1440)).lookback,
    )
    thresholds = _grid("--score-thresholds", args.score_thresholds, int)
    methods = _grid("--methods", args.methods, _method)
    with open(args.events, newline="") as fh, _naming(args.events):
        series = aggregate_all(parse_events(fh))
    with open(args.truth, newline="") as fh, _naming(args.truth):
        truth = parse_ground_truth(fh)
    # the series that a detector rejects are those of the events file
    with _naming(args.events):
        rows = sweep(series, truth, cfg, lookbacks, thresholds, methods)
    with open(args.out, "w", newline="") as fh:
        fh.write(sweep_rows_to_csv(rows))
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


def _cmd_expect(args: argparse.Namespace) -> int:
    params = ColdStartParams(l=args.l, k=args.k, d=args.d, alpha=args.alpha, beta=args.beta)
    value = expected_matches(params, args.mode)
    try:
        value = float(value)
    except OverflowError:
        raise ValueError("these --l, --k, --d, --alpha and --beta overflow a float") from None
    print(f"{value:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # --help shows the docstring but its last paragraph, which is about the code
    parser = _Parser(prog="dnswatch", description=__doc__.rpartition("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("gen", help="generate synthetic events and ground truth", formatter_class=fmt)
    p.add_argument("--days", type=int, default=_PROFILE.days)
    p.add_argument("--seed", type=int, default=_PROFILE.seed)
    p.add_argument(
        "--high-rate", type=float, default=_PROFILE.high_rate, help="busy-window packets per hour"
    )
    p.add_argument("--low-rate", type=float, default=_PROFILE.low_rate, help="off-hours packets per hour")
    p.add_argument(
        "--noise", type=float, default=_PROFILE.noise_fraction, help="multiplicative noise fraction"
    )
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
    p.add_argument("--mode", choices=MODES, default="lower")
    p.set_defaults(func=_cmd_expect)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"dnswatch: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # any worker detect forked is reaped by now
        print("dnswatch: interrupted", file=sys.stderr)
        return 130

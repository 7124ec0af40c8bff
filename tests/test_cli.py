import ast
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dnswatch import cli, evalharness
from dnswatch.cli import _load_series_dir, main
from dnswatch.detector import AnomalyEvent
from dnswatch.ingest import MAX_SPAN_MINUTES, _BLOCK_LINES, _event_to_json, aggregate_all
from dnswatch.model import FeatureKind, SeriesKey
from dnswatch.synth import AttackSpec, SynthProfile, iter_events

BASE_GEN = [
    "gen", "--days", "1", "--seed", "7",
    "--high-rate", "3000", "--low-rate", "1200",
    "--attack", "700:25:10",
]


def run_cli(args):
    # in-process for speed; subprocess variants below check exit codes
    return main([str(a) for a in args])


def _tree(root):
    """Every path under root, with the bytes of each file."""
    return {p: p.is_file() and p.read_bytes() for p in root.rglob("*")}


def gen_small(tmp_path, seed=7):
    events = tmp_path / "events.csv"
    truth = tmp_path / "truth.csv"
    args = BASE_GEN[:]
    args[args.index("--seed") + 1] = str(seed)
    assert run_cli(args + ["--out-events", events, "--out-truth", truth]) == 0
    return events, truth


class TestGen:
    def test_determinism_byte_identical(self, tmp_path):
        e1, t1 = gen_small(tmp_path)
        e2 = tmp_path / "events2.csv"
        t2 = tmp_path / "truth2.csv"
        run_cli(BASE_GEN + ["--out-events", e2, "--out-truth", t2])
        assert e1.read_bytes() == e2.read_bytes()
        assert t1.read_bytes() == t2.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        e1, _ = gen_small(tmp_path, seed=7)
        sub = tmp_path / "b"
        sub.mkdir()
        e2, _ = gen_small(sub, seed=8)
        assert e1.read_bytes() != e2.read_bytes()

    def test_records_count_the_packets_gen_writes(self, tmp_path, capsys):
        # A multiplier below 1 takes packets away: the attack adds no record.
        profile = SynthProfile(days=2, high_rate=900.0, low_rate=300.0, seed=7,
                               attacks=(AttackSpec(100, 30, 0.5), AttackSpec(1500, 20, 3.0)))
        records = list(iter_events(profile))
        assert min(rec.count for rec in records) >= 1
        packets = sum(rec.count for rec in records)
        assert packets == 26595
        series = aggregate_all(records)
        assert sum(series[SeriesKey(FeatureKind.A_TOTAL_PACKETS)].values) == packets
        events, truth = tmp_path / "events.csv", tmp_path / "truth.csv"
        assert run_cli(["gen", "--days", "2", "--seed", "7", "--high-rate", "900",
                        "--low-rate", "300", "--attack", "100:30:0.5", "--attack", "1500:20:3",
                        "--out-events", events, "--out-truth", truth]) == 0
        assert capsys.readouterr().out.startswith(f"wrote {packets} events to {events},")
        assert events.read_text().count("\n") == 1 + packets  # the header and a line per packet
        assert cli.write_events(io.StringIO(), records) == packets

    def test_default_attacks_filtered_to_horizon(self, tmp_path):
        events = tmp_path / "e.csv"
        truth = tmp_path / "t.csv"
        assert run_cli(["gen", "--days", "1", "--out-events", events, "--out-truth", truth]) == 0
        assert truth.read_text().strip() == "start_minute,end_minute,label"


class TestPipeline:
    def test_gen_ingest_detect_eval(self, tmp_path):
        events, truth = gen_small(tmp_path)
        series_dir = tmp_path / "series"
        assert run_cli(["ingest", "--events", events, "--out-dir", series_dir]) == 0
        names = sorted(p.name for p in series_dir.glob("*.csv"))
        assert "A.csv" in names
        assert any(n.startswith("B_") for n in names)
        assert any(n.startswith("C_") for n in names)

        report = tmp_path / "report.json"
        windows = tmp_path / "windows.csv"
        code = run_cli(
            ["detect", "--series-dir", series_dir, "--report", report,
             "--emit-windows", windows, "--lookback", "480"]
        )
        assert code == 0
        data = json.loads(report.read_text())
        assert len(data) >= 1
        assert list(data[0]) == [
            "key", "start_minute", "end_minute", "mse", "cosine", "features", "score",
        ]
        event_span = (data[0]["start_minute"], data[0]["end_minute"])
        assert event_span[0] <= 729 and event_span[1] >= 700  # overlaps the attack
        header = windows.read_text().splitlines()[0]
        assert header == "series_key,window_start,flagged,mse,cosine,cold_start"

        out = subprocess.run(
            [sys.executable, "-m", "dnswatch", "eval", "--report", str(report),
             "--truth", str(truth), "--format", "json"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload["tp"] >= 1 and payload["fn"] == 0

    def test_report_event_keys_follow_the_fields_with_features_sorted(self):
        event = AnomalyEvent(
            key="aggregate", start_minute=300, end_minute=309, mse=2.5, cosine=None,
            features=frozenset({FeatureKind.C_TRANSMITTED, FeatureKind.A_TOTAL_PACKETS}),
            score=5,
        )
        assert json.dumps(_event_to_json(event)) == (
            '{"key": "aggregate", "start_minute": 300, "end_minute": 309, "mse": 2.5,'
            ' "cosine": null, "features": ["A", "C"], "score": 5}'
        )

    def test_detect_method_ar_runs(self, tmp_path):
        events, _ = gen_small(tmp_path)
        series_dir = tmp_path / "series"
        run_cli(["ingest", "--events", events, "--out-dir", series_dir])
        report = tmp_path / "ar.json"
        assert (
            run_cli(["detect", "--series-dir", series_dir, "--method", "ar",
                     "--report", report, "--lookback", "480"])
            == 0
        )
        assert json.loads(report.read_text()) is not None

    def test_detect_determinism(self, tmp_path):
        events, _ = gen_small(tmp_path)
        series_dir = tmp_path / "series"
        run_cli(["ingest", "--events", events, "--out-dir", series_dir])
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        w1, w2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        for r, w in ((r1, w1), (r2, w2)):
            run_cli(["detect", "--series-dir", series_dir, "--report", r,
                     "--emit-windows", w, "--lookback", "480"])
        assert r1.read_bytes() == r2.read_bytes()
        assert w1.read_bytes() == w2.read_bytes()

    def test_series_keys_round_trip_through_file_names(self, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text(
            "ts_epoch_s,src_ip,dst_ip,direction,malformed\n"
            "60,2001:db8::1,10.0.1.53,tx,0\n"
            "120,10.0.0.11,10.0.1.53,tx,0\n"
        )
        series_dir = tmp_path / "series"
        assert run_cli(["ingest", "--events", events, "--out-dir", series_dir]) == 0
        names = sorted(p.name for p in series_dir.glob("*.csv"))
        assert names == ["A.csv", "C_10.0.0.11.csv", "C_2001%3Adb8%3A%3A1.csv"]
        keys = set(_load_series_dir(str(series_dir)))
        assert SeriesKey(FeatureKind.C_TRANSMITTED, "2001:db8::1") in keys
        assert SeriesKey(FeatureKind.C_TRANSMITTED, "10.0.0.11") in keys

    def test_sweep_small_grid(self, tmp_path):
        events, truth = gen_small(tmp_path)
        out = tmp_path / "sweep.csv"
        code = run_cli(
            ["sweep", "--events", events, "--truth", truth, "--out", out,
             "--lookbacks-days", "0.1,0.25", "--score-thresholds", "4,5"]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("method,lookback_min")
        assert len(lines) == 1 + 2 * 2 * 2  # methods x lookbacks x thresholds


class TestExitCodes:
    def test_short_series_exits_2_naming_minimum(self, tmp_path):
        series_dir = tmp_path / "series"
        series_dir.mkdir()
        rows = "\n".join(f"{m},{5.0!r}" for m in range(30))
        (series_dir / "A.csv").write_text("minute,value\n" + rows + "\n")
        out = subprocess.run(
            [sys.executable, "-m", "dnswatch", "detect", "--series-dir", str(series_dir),
             "--report", str(tmp_path / "r.json"), "--lookback", "48"],
            capture_output=True, text=True,
        )
        assert out.returncode == 2
        assert "49" in out.stderr  # k + h + 1 for the default k = h = 24

    @pytest.mark.parametrize("command", ["detect", "sweep"])
    def test_an_interrupt_exits_130_once_every_worker_is_reaped(
        self, tmp_path, capsys, monkeypatch, command
    ):
        series_dir = tmp_path / "series"
        series_dir.mkdir()
        rows = "".join(f"{m},{m % 7}.0\n" for m in range(100))
        for name in ("A.csv", "C_10.0.0.11.csv", "C_10.0.0.12.csv"):
            (series_dir / name).write_text("minute,value\n" + rows)
        events = tmp_path / "events.csv"
        events.write_text("ts_epoch_s,src_ip,dst_ip,direction,malformed\n"
                          + "".join(f"{60 * m},10.0.0.{11 + m % 2},10.0.1.53,tx,0\n" for m in range(100)))
        truth = tmp_path / "truth.csv"
        truth.write_text("start_minute,end_minute,label\n")

        def interrupted(series, cfg):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "detect_series", interrupted)
        monkeypatch.setattr(evalharness, "detect_series", interrupted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        out = tmp_path / "out"
        argv = {
            "detect": ["detect", "--series-dir", series_dir, "--report", out, "--lookback", "48"],
            "sweep": ["sweep", "--events", events, "--truth", truth, "--out", out,
                      "--methods", "asm", "--lookbacks-days", "0.04"],
        }[command]
        fds = sorted(os.listdir("/proc/self/fd"))
        assert run_cli(argv) == 130
        assert capsys.readouterr().err == "dnswatch: interrupted\n"
        assert not out.exists()
        assert sorted(os.listdir("/proc/self/fd")) == fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("argv", [
        ["expect", "--bogus", "1"],
        # sweep takes these only as grids; a single value is not abbreviated
        # into --lookbacks-days or --score-thresholds either
        ["sweep", "--events", "nope.csv", "--truth", "nope.csv", "--out", "o.csv",
         "--lookback", "60"],
        ["sweep", "--events", "nope.csv", "--truth", "nope.csv", "--out", "o.csv",
         "--score-threshold", "5"],
        ["detect", "--series-dir", "x", "--report", "y", "--lookb", "10"],
        # an attack of two fields is no attack
        ["gen", "--days", "1", "--out-events", "e", "--out-truth", "t", "--attack", "1:2"],
    ], ids=["expect-bogus", "sweep-lookback", "sweep-score-threshold", "detect-lookb",
            "gen-attack-of-two-fields"])
    def test_unknown_flag_exits_1(self, argv):
        out = subprocess.run(
            [sys.executable, "-m", "dnswatch", *argv],
            capture_output=True, text=True,
        )
        assert out.returncode == 1
        assert "error" in out.stderr
        if argv[0] == "gen":
            assert "attack must be start:duration:multiplier, got '1:2'" in out.stderr
        # the subcommand's own usage, which lists the flags it does take
        assert f"usage: dnswatch {argv[0]}" in out.stderr

    def test_unknown_subcommand_exits_1(self):
        out = subprocess.run(
            [sys.executable, "-m", "dnswatch", "frobnicate"],
            capture_output=True, text=True,
        )
        assert out.returncode == 1

    def test_nan_series_value_exits_2(self, tmp_path):
        series_dir = tmp_path / "series"
        series_dir.mkdir()
        rows = [f"{m},5.0" for m in range(60)]
        rows[30] = "30,nan"
        (series_dir / "A.csv").write_text("minute,value\n" + "\n".join(rows) + "\n")
        assert run_cli(["detect", "--series-dir", series_dir,
                        "--report", tmp_path / "r.json", "--lookback", "48"]) == 2

    @pytest.mark.parametrize("method", ["asm", "ar"])
    def test_huge_series_value_exits_2_naming_file(self, tmp_path, capsys, method):
        # squares of such values overflow, so every window would score nan
        series_dir = tmp_path / "series"
        series_dir.mkdir()
        rows = "\n".join(f"{m},{1e160 + m * 1e145!r}" for m in range(200))
        (series_dir / "A.csv").write_text("minute,value\n" + rows + "\n")
        assert run_cli(["detect", "--series-dir", series_dir, "--method", method,
                        "--report", tmp_path / "r.json", "--lookback", "48"]) == 2
        err = capsys.readouterr().err
        assert "A.csv" in err and "2**53" in err

    def test_ar_on_large_constant_counts_exits_0(self, tmp_path):
        # a Gram near 3e14 rounds away every absolute ridge step
        series_dir = tmp_path / "series"
        series_dir.mkdir()
        rows = "\n".join(f"{m},1000000.0" for m in range(600))
        (series_dir / "A.csv").write_text("minute,value\n" + rows + "\n")
        windows = tmp_path / "w.csv"
        assert run_cli(["detect", "--series-dir", series_dir, "--method", "ar",
                        "--report", tmp_path / "r.json", "--lookback", "400",
                        "--emit-windows", windows]) == 0
        assert "True" not in windows.read_text()

    @pytest.mark.parametrize("method", ["asm", "ar"])
    def test_tiny_values_exit_2_naming_the_first(self, tmp_path, method):
        # a count is an integer, so 1e-170 is none, on either method
        series_dir = tmp_path / "series"
        series_dir.mkdir()
        values = [5.0] * 3 + [1e-170] * 200 + [5.0] * 48
        rows = "".join(f"{m},{v!r}\n" for m, v in enumerate(values))
        (series_dir / "A.csv").write_text("minute,value\n" + rows)
        out = subprocess.run(
            [sys.executable, "-m", "dnswatch", "detect", "--series-dir", str(series_dir),
             "--method", method, "--report", str(tmp_path / "r.json"), "--lookback", "100"],
            capture_output=True, text=True,
        )
        assert out.returncode == 2, out.stderr
        assert out.stderr == (
            f"dnswatch: {series_dir / 'A.csv'}: line 5: minute counts must be integers"
            " in [0, 2**53), got 1e-170\n"
        )

    def test_series_without_shared_span_exits_2(self, tmp_path, capsys):
        series_dir = tmp_path / "series"
        series_dir.mkdir()
        a_rows = "\n".join(f"{m},5.0" for m in range(0, 60))
        c_rows = "\n".join(f"{m},5.0" for m in range(100, 180))
        (series_dir / "A.csv").write_text("minute,value\n" + a_rows + "\n")
        (series_dir / "C_1.2.3.4.csv").write_text("minute,value\n" + c_rows + "\n")
        assert run_cli(["detect", "--series-dir", series_dir,
                        "--report", tmp_path / "r.json", "--lookback", "48"]) == 2
        err = capsys.readouterr().err
        assert "C_1.2.3.4.csv: minutes 100-179 differ from A.csv minutes 0-59" in err

    @pytest.mark.parametrize("report, message", [
        ([{"key": "aggregate", "start_minute": 1}], "lacks key 'end_minute'"),
        ([["aggregate", 1, 2]], "report item 0 is not an object"),
        ([{"key": "aggregate", "start_minute": 1, "end_minute": 2, "mse": 0.0,
           "cosine": None, "features": ["X"], "score": 5}], "'X'"),
        ([{"key": "aggregate", "start_minute": "a", "end_minute": 2, "mse": 0.0,
           "cosine": None, "features": ["C"], "score": 4}],
         "report item 0 key 'start_minute' must be of type int"),
        ([{"key": "aggregate", "start_minute": 1, "end_minute": True, "mse": 0.0,
           "cosine": None, "features": ["C"], "score": 4}],
         "report item 0 key 'end_minute' must be of type int"),
        ([{"key": "aggregate", "start_minute": 1, "end_minute": 2, "mse": 0.0,
           "cosine": None, "features": 7, "score": 4}],
         "report item 0 key 'features' must be of type list"),
        ([{"key": "aggregate", "start_minute": 1, "end_minute": 2, "mse": 0.0,
           "cosine": None, "features": "CA", "score": 5}],
         "report item 0 key 'features' must be of type list"),
    ], ids=["missing-key", "not-an-object", "unknown-feature", "str-start", "bool-end",
            "int-features", "str-features"])
    def test_malformed_report_exits_2(self, tmp_path, capsys, report, message):
        truth = tmp_path / "truth.csv"
        truth.write_text("start_minute,end_minute,label\n")
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert run_cli(["eval", "--report", path, "--truth", truth]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ('[{"key"', "Expecting ':' delimiter: line 1 column 8 (char 7)"),
        ('[{"key": "aggregate", "start_minute": 1, "end_minute": 2, "mse": 0.0,'
         ' "cosine": null, "features": ["C", "Z"], "score": 5}]',
         "report item 0 key 'features': 'Z' is not a valid FeatureKind"),
        (b"[\xff]", "can't decode byte 0xff"),
    ], ids=["truncated", "unknown-feature", "not-utf-8"])
    def test_report_errors_name_the_file(self, tmp_path, capsys, text, message):
        truth = tmp_path / "truth.csv"
        truth.write_text("start_minute,end_minute,label\n")
        path = tmp_path / "report.json"
        (path.write_bytes if isinstance(text, bytes) else path.write_text)(text)
        assert run_cli(["eval", "--report", path, "--truth", truth]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"dnswatch: {path}: ") and message in err, err

    @pytest.mark.parametrize("text", ["[" * 200_000, "[" * 200_000 + "]" * 200_000],
                             ids=["open", "closed"])
    def test_deeply_nested_report_exits_2_naming_the_file(self, tmp_path, capsys, text):
        truth = tmp_path / "truth.csv"
        truth.write_text("start_minute,end_minute,label\n")
        path = tmp_path / "deep.json"
        path.write_text(text)
        assert run_cli(["eval", "--report", path, "--truth", truth]) == 2
        err = capsys.readouterr().err
        assert err == f"dnswatch: {path}: report nests arrays or objects too deeply to decode\n"

    def test_report_event_ending_before_it_starts_exits_2(self, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        truth.write_text("start_minute,end_minute,label\n")
        path = tmp_path / "report.json"
        path.write_text(json.dumps([{"key": "aggregate", "start_minute": 50, "end_minute": 10,
                                     "mse": 0.0, "cosine": None, "features": ["C"], "score": 4}]))
        assert run_cli(["eval", "--report", path, "--truth", truth]) == 2
        assert f"{path}: report item 0 end_minute 10 before start_minute 50" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, message", [
        (["60,a,b,tx,0", "inf,a,b,tx,0"], "line 3: infinite timestamp 'inf'"),
        # a float rounds these, 18014398509482039 to the minute after its own
        (["60,a,b,tx,0", "18014398509482039,a,b,tx,0"],
         "line 3: timestamp '18014398509482039' is not below 2**53"),
        (["60,a,b,tx,0", "1e300,a,b,tx,0"], "line 3: timestamp '1e300' is not below 2**53"),
        (["60,a,b,tx,0", f"{60 * (1 + MAX_SPAN_MINUTES)},a,b,tx,0"],
         f"events span minutes 1 to {1 + MAX_SPAN_MINUTES}"),
        (["60,,10.0.1.53,tx,0"], "line 2: field 'src_ip' is empty on a tx row"),
        (["60,a,b,tx,0"] * 3 + ["60,10.0.0.66,,rx,1"],
         "line 5: field 'dst_ip' is empty on a malformed rx row"),
    ], ids=["inf-timestamp", "timestamp-past-2**53", "1e300-timestamp", "span-over-bound",
            "empty-src-ip", "empty-dst-ip"])
    def test_bad_events_exit_2(self, tmp_path, capsys, rows, message):
        events = tmp_path / "events.csv"
        events.write_text("ts_epoch_s,src_ip,dst_ip,direction,malformed\n" + "\n".join(rows) + "\n")
        assert run_cli(["ingest", "--events", events, "--out-dir", tmp_path / "s"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("argv, message", [
        (["gen", "--attack", "10:0:3"], "attack at minute 10: duration_minutes must be positive"),
        (["detect", "--k", "0"], "k and h must be at least 1"),
        (["detect", "--h", "0"], "k and h must be at least 1"),
        (["detect", "--stride", "0"], "stride must be at least 1"),
        # the last --series-dir is the one read
        (["detect", "--series-dir", "{tmp}/empty"], "no series CSVs found in {tmp}/empty"),
        (["eval", "--window", "0"], "window must be at least 1"),
    ], ids=["gen-attack-duration-0", "detect-k-0", "detect-h-0", "detect-stride-0",
            "detect-no-series", "eval-window-0"])
    def test_bad_setting_exits_2_naming_it(self, tmp_path, capsys, argv, message):
        (tmp_path / "series").mkdir()
        (tmp_path / "series" / "A.csv").write_text("minute,value\n" + "0,1.0\n" * 60)
        (tmp_path / "empty").mkdir()
        (tmp_path / "truth.csv").write_text("start_minute,end_minute,label\n")
        (tmp_path / "report.json").write_text("[]")
        files = {
            "gen": ["--days", "1", "--out-events", tmp_path / "e.csv",
                    "--out-truth", tmp_path / "t.csv"],
            "detect": ["--series-dir", tmp_path / "series", "--report", tmp_path / "r.json"],
            "eval": ["--report", tmp_path / "report.json", "--truth", tmp_path / "truth.csv"],
        }[argv[0]]
        before = _tree(tmp_path)
        assert run_cli([argv[0], *files, *(a.format(tmp=tmp_path) for a in argv[1:])]) == 2
        assert capsys.readouterr().err == f"dnswatch: {message.format(tmp=tmp_path)}\n"
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("sub", ["ingest", "sweep"])
    def test_quoted_field_that_runs_on_exits_2_naming_file_and_line(self, tmp_path, capsys, sub):
        events = tmp_path / "events.csv"
        # no series may be keyed on the IP "10.0.0.\n11"
        events.write_text(
            'ts_epoch_s,src_ip,dst_ip,direction,malformed\n60,"10.0.0.\n11",10.0.1.53,tx,0\n'
        )
        truth = tmp_path / "truth.csv"
        truth.write_text("start_minute,end_minute,label\n")
        out = tmp_path / "out"
        args = {
            "ingest": ["--events", events, "--out-dir", out],
            "sweep": ["--events", events, "--truth", truth, "--out", out],
        }[sub]
        assert run_cli([sub, *args]) == 2
        err = capsys.readouterr().err
        assert err == f"dnswatch: {events}: line 2: quoted field does not end on its line\n"
        assert not out.exists()

    @pytest.mark.parametrize("sub, flag", [
        ("ingest", "--events"), ("sweep", "--events"), ("sweep", "--truth"), ("eval", "--truth"),
    ])
    def test_parse_error_names_the_file(self, tmp_path, capsys, sub, flag):
        events, truth = gen_small(tmp_path)
        report = tmp_path / "report.json"
        report.write_text("[]")
        bad = tmp_path / "bad.csv"
        if flag == "--events":
            bad.write_text("ts_epoch_s,src_ip,dst_ip,direction,malformed\n60,a,b,tx,0\nsoon,a,b,tx,0\n")
            message = "line 3: unparsable timestamp 'soon'"
        else:
            bad.write_text("start_minute,end_minute,label\n5,2,x\n")
            message = "line 2: end_minute 2 before start_minute 5"
        args = {
            "ingest": ["--events", events, "--out-dir", tmp_path / "s"],
            "sweep": ["--events", events, "--truth", truth, "--out", tmp_path / "o.csv",
                      "--methods", "ar", "--lookbacks-days", "0.04"],
            "eval": ["--report", report, "--truth", truth],
        }[sub]
        args[args.index(flag) + 1] = bad
        assert run_cli([sub, *args]) == 2
        assert f"dnswatch: {bad}: {message}\n" in capsys.readouterr().err

    def test_sweep_names_the_events_file_of_a_series_too_short_to_detect(self, tmp_path, capsys):
        events = tmp_path / "events.csv"
        events.write_text("ts_epoch_s,src_ip,dst_ip,direction,malformed\n60,a,b,tx,0\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("start_minute,end_minute,label\n")
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--events", events, "--truth", truth, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == f"dnswatch: {events}: series must have at least 49 minutes, got 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("sub, header", [
        ("ingest", "ts_epoch_s,src_ip,dst_ip,direction,malformed"),
        ("detect", "minute,value"),
        ("eval", "start_minute,end_minute,label"),
    ])
    def test_byte_that_is_not_utf_8_names_the_file(self, tmp_path, capsys, sub, header):
        series_dir = tmp_path / "series"
        series_dir.mkdir()
        bad = series_dir / "A.csv" if sub == "detect" else tmp_path / "bad.csv"
        bad.write_bytes(f"{header}\n".encode() + b"60,\xff\n")
        report = tmp_path / "report.json"
        report.write_text("[]")
        args = {
            "ingest": ["--events", bad, "--out-dir", tmp_path / "s"],
            "detect": ["--series-dir", series_dir, "--report", report],
            "eval": ["--report", report, "--truth", bad],
        }[sub]
        assert run_cli([sub, *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"dnswatch: {bad}: 'utf-8' codec can't decode byte 0xff"), err

    @pytest.mark.parametrize("sub, header, row", [
        ("ingest", "ts_epoch_s,src_ip,dst_ip,direction,malformed", "60,{},b,tx,0"),
        ("eval", "start_minute,end_minute,label", "1,2,{}"),
    ])
    def test_field_over_the_csv_limit_names_file_and_line(self, tmp_path, capsys, sub, header, row):
        # csv rejects a field of more than 131,072 characters
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{header}\n{row.format('a')}\n{row.format('a' * 200_000)}\n")
        report = tmp_path / "report.json"
        report.write_text("[]")
        args = {
            "ingest": ["--events", bad, "--out-dir", tmp_path / "s"],
            "eval": ["--report", report, "--truth", bad],
        }[sub]
        assert run_cli([sub, *args]) == 2
        err = capsys.readouterr().err
        assert err == f"dnswatch: {bad}: line 3: field larger than field limit (131072)\n"

    @pytest.mark.parametrize("sub, flag, other", [
        ("gen", "--out-truth", "--out-events"),
        ("sweep", "--out", "--events"),
        ("sweep", "--out", "--truth"),
        ("detect", "--emit-windows", "--report"),
    ])
    @pytest.mark.parametrize("link", ["same-path", "hard-link"])
    def test_output_that_names_another_file_flag_exits_2_writing_nothing(
        self, tmp_path, capsys, sub, flag, other, link
    ):
        events, truth = gen_small(tmp_path)
        series_dir = tmp_path / "series"
        assert run_cli(["ingest", "--events", events, "--out-dir", series_dir]) == 0
        report = tmp_path / "report.json"
        report.write_text("[]")
        args = {
            "gen": [*BASE_GEN[1:], "--out-events", events, "--out-truth", truth],
            "sweep": ["--events", events, "--truth", truth, "--out", tmp_path / "o.csv",
                      "--methods", "ar", "--lookbacks-days", "0.04"],
            "detect": ["--series-dir", series_dir, "--method", "ar", "--report", report,
                       "--emit-windows", tmp_path / "w.csv"],
        }[sub]
        target = args[args.index(other) + 1]
        if link == "hard-link":
            os.link(target, tmp_path / "alias")
            target = tmp_path / "alias"
        args[args.index(flag) + 1] = target
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert run_cli([sub, *args]) == 2
        assert f"{flag} {target} and {other} " in capsys.readouterr().err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("flag, name", [("--report", "A.csv"), ("--emit-windows", "new.csv")])
    def test_detect_output_in_the_series_dir_exits_2_writing_nothing(self, tmp_path, capsys, flag, name):
        events, _ = gen_small(tmp_path)
        series_dir = tmp_path / "series"
        assert run_cli(["ingest", "--events", events, "--out-dir", series_dir]) == 0
        before = {p: p.read_bytes() for p in series_dir.iterdir()}
        outputs = {"--report": tmp_path / "r.json", "--emit-windows": tmp_path / "w.csv"}
        outputs[flag] = tmp_path / "." / "series" / name
        assert run_cli(["detect", "--series-dir", series_dir,
                        *(a for pair in outputs.items() for a in pair)]) == 2
        err = capsys.readouterr().err
        assert f"{flag} {outputs[flag]} is a series file of --series-dir {series_dir}" in err
        assert {p: p.read_bytes() for p in series_dir.iterdir()} == before
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "w.csv").exists()

    def test_ingest_refuses_series_files_of_another_capture(self, tmp_path, capsys):
        header = "ts_epoch_s,src_ip,dst_ip,direction,malformed\n"
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        first.write_text(header + "60,10.0.0.1,10.0.1.53,tx,0\n")
        second.write_text(header + "60,10.0.0.2,10.0.1.53,tx,0\n")
        series_dir = tmp_path / "series"
        assert run_cli(["ingest", "--events", first, "--out-dir", series_dir]) == 0
        before = {p.name: p.read_bytes() for p in series_dir.iterdir()}
        assert run_cli(["ingest", "--events", second, "--out-dir", series_dir]) == 2
        err = capsys.readouterr().err
        assert "does not write: C_10.0.0.1.csv;" in err
        # nothing is deleted or written
        assert {p.name: p.read_bytes() for p in series_dir.iterdir()} == before

    def test_reingest_of_the_same_capture_succeeds(self, tmp_path):
        events, _ = gen_small(tmp_path)
        series_dir = tmp_path / "series"
        assert run_cli(["ingest", "--events", events, "--out-dir", series_dir]) == 0
        first = {p.name: p.read_bytes() for p in series_dir.iterdir()}
        assert run_cli(["ingest", "--events", events, "--out-dir", series_dir]) == 0
        assert {p.name: p.read_bytes() for p in series_dir.iterdir()} == first

    def test_series_files_decoding_to_one_key_exit_2(self, tmp_path, capsys):
        series_dir = tmp_path / "series"
        series_dir.mkdir()
        rows = "minute,value\n" + "\n".join(f"{m},1.0" for m in range(60)) + "\n"
        (series_dir / "C_10.0.0.1.csv").write_text(rows)
        (series_dir / "C_10.0.0%2E1.csv").write_text(rows)
        assert run_cli(["detect", "--series-dir", series_dir,
                        "--report", tmp_path / "r.json", "--lookback", "48"]) == 2
        err = capsys.readouterr().err
        assert "C_10.0.0%2E1.csv: series C:10.0.0.1 is stored as C_10.0.0.1.csv" in err

    @pytest.mark.parametrize("name, message", [
        ("C.csv", "feature C requires an ip"),
        ("A_1.2.3.4.csv", "feature A takes no ip"),
        ("X.csv", "unknown feature in series label 'X'"),
    ])
    def test_series_file_name_that_does_not_decode_exits_2_naming_file(
        self, tmp_path, capsys, name, message
    ):
        series_dir = tmp_path / "series"
        series_dir.mkdir()
        rows = "minute,value\n" + "\n".join(f"{m},1.0" for m in range(60)) + "\n"
        (series_dir / name).write_text(rows)
        assert run_cli(["detect", "--series-dir", series_dir,
                        "--report", tmp_path / "r.json", "--lookback", "48"]) == 2
        assert f"{series_dir / name}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sub, flag",
        [("gen", "--out-events"), ("gen", "--out-truth"), ("detect", "--report"),
         ("detect", "--emit-windows"), ("sweep", "--out")],
    )
    def test_output_in_a_missing_directory_exits_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, sub, flag
    ):
        events, truth = gen_small(tmp_path)
        series_dir = tmp_path / "series"
        assert run_cli(["ingest", "--events", events, "--out-dir", series_dir]) == 0
        inputs = set(tmp_path.rglob("*"))
        out = tmp_path / "out"
        out.mkdir()
        outputs = {
            "gen": {"--out-events": out / "e.csv", "--out-truth": out / "t.csv"},
            "detect": {"--report": out / "r.json", "--emit-windows": out / "w.csv"},
            "sweep": {"--out": out / "s.csv"},
        }[sub]
        missing = tmp_path / "missing" / "x.csv"
        outputs[flag] = missing
        args = {
            "gen": BASE_GEN[1:],
            "detect": ["--series-dir", series_dir, "--method", "ar"],
            "sweep": ["--events", events, "--truth", truth, "--methods", "ar",
                      "--lookbacks-days", "0.04"],
        }[sub]

        def no_work(*args, **kwargs):
            raise AssertionError("work done before the output directory was checked")

        for module in (cli, evalharness):
            monkeypatch.setattr(module, "detect_series", no_work)
            monkeypatch.setattr(module, "detect_series_ar", no_work)
        monkeypatch.setattr(cli, "iter_events", no_work)
        assert run_cli([sub, *args, *(a for pair in outputs.items() for a in pair)]) == 2
        err = capsys.readouterr().err
        assert f"{flag} {missing}: {missing.parent} is not a directory" in err
        assert set(tmp_path.rglob("*")) == inputs | {out}  # nothing written

    @pytest.mark.parametrize(
        "sub, flag",
        [("gen", "--out-events"), ("gen", "--out-truth"), ("detect", "--report"),
         ("detect", "--emit-windows"), ("sweep", "--out")],
    )
    def test_output_that_is_a_directory_exits_2_before_any_input_is_read(
        self, tmp_path, capsys, monkeypatch, sub, flag
    ):
        events, truth = gen_small(tmp_path)
        series_dir = tmp_path / "series"
        assert run_cli(["ingest", "--events", events, "--out-dir", series_dir]) == 0
        out = tmp_path / "out"
        out.mkdir()
        taken = out / "taken.csv"
        taken.mkdir()
        outputs = {
            "gen": {"--out-events": out / "e.csv", "--out-truth": out / "t.csv"},
            "detect": {"--report": out / "r.json", "--emit-windows": out / "w.csv"},
            "sweep": {"--out": out / "s.csv"},
        }[sub]
        outputs[flag] = taken
        args = {
            "gen": BASE_GEN[1:],
            "detect": ["--series-dir", series_dir, "--method", "ar"],
            "sweep": ["--events", events, "--truth", truth, "--methods", "ar",
                      "--lookbacks-days", "0.04"],
        }[sub]

        def no_work(*args, **kwargs):
            raise AssertionError("input read before the outputs were checked")

        for name in ("iter_events", "parse_events", "_load_series_dir"):
            monkeypatch.setattr(cli, name, no_work)
        before = _tree(tmp_path)
        assert run_cli([sub, *args, *(a for pair in outputs.items() for a in pair)]) == 2
        assert capsys.readouterr().err == f"dnswatch: {flag} {taken} is a directory\n"
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("kind", ["series file", "out-dir"])
    def test_ingest_over_a_directory_exits_2_before_the_events_are_read(
        self, tmp_path, capsys, monkeypatch, kind
    ):
        events, _ = gen_small(tmp_path)
        series_dir = tmp_path / "series"
        assert run_cli(["ingest", "--events", events, "--out-dir", series_dir]) == 0
        if kind == "series file":
            # a name this capture writes, sorted after others it writes
            taken = series_dir / "C_10.0.0.11.csv"
            taken.unlink()
            taken.mkdir()
            out_dir = series_dir
            message = f"--out-dir {out_dir} holds directories named as series files: {taken.name}"
        else:
            out_dir = series_dir / "A.csv"
            message = f"--out-dir {out_dir} is not a directory"

        def no_work(*args, **kwargs):
            raise AssertionError("events read before the series paths were checked")

        monkeypatch.setattr(cli, "parse_events", no_work)
        before = _tree(tmp_path)
        assert run_cli(["ingest", "--events", events, "--out-dir", out_dir]) == 2
        assert capsys.readouterr().err == f"dnswatch: {message}\n"
        assert _tree(tmp_path) == before

    def test_missing_file_exits_2(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "dnswatch", "ingest", "--events",
             str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path / "s")],
            capture_output=True, text=True,
        )
        assert out.returncode == 2


# Every float a command reads, as (subcommand, the flag with {} for the
# value, names of which the error must give at least one).  The flag and its
# value are one argument, or argparse would take "-inf" for a flag.
_FLOAT_INPUTS = [
    ("gen", "--high-rate={}", ("--high-rate", "high_rate")),
    ("gen", "--low-rate={}", ("--low-rate", "low_rate")),
    ("gen", "--noise={}", ("--noise", "noise_fraction")),
    ("gen", "--attack=10:30:{}", ("--attack", "magnitude_multiplier")),
    ("sweep", "--lookbacks-days=0.5,{}", ("--lookbacks-days",)),
    ("sweep", "--score-thresholds=4,{}", ("--score-thresholds",)),
] + [
    (sub, flag + "={}", (flag, flag[2:].replace("-", "_")))
    for sub in ("detect", "sweep")
    for flag in ("--epsilon", "--cos-threshold", "--cold-start-factor")
]


class TestBadNumbers:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "sub, flag, names", _FLOAT_INPUTS, ids=[s + f.split("=")[0] for s, f, _ in _FLOAT_INPUTS]
    )
    def test_non_finite_value_exits_2_naming_it(self, tmp_path, capsys, sub, flag, names, value):
        files = {
            "gen": ["--days", "1", "--out-events", tmp_path / "e.csv",
                    "--out-truth", tmp_path / "t.csv"],
            "detect": ["--series-dir", tmp_path / "series", "--report", tmp_path / "r.json"],
            "sweep": ["--events", tmp_path / "e.csv", "--truth", tmp_path / "t.csv",
                      "--out", tmp_path / "o.csv"],
        }[sub]
        assert run_cli([sub, *files, flag.format(value)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert any(name in err for name in names), err
        assert list(tmp_path.iterdir()) == []  # nothing written, nothing read

    def test_rate_too_large_to_draw_exits_2_writing_nothing(self, tmp_path, capsys):
        events = tmp_path / "e.csv"
        assert run_cli(["gen", "--days", "1", "--high-rate", "1e300",
                        "--out-events", events, "--out-truth", tmp_path / "t.csv"]) == 2
        assert "high_rate" in capsys.readouterr().err
        assert not events.exists()

    def test_negative_seed_exits_2_writing_nothing(self, tmp_path, capsys):
        events = tmp_path / "e.csv"
        assert run_cli(["gen", "--days", "1", "--seed", "-1",
                        "--out-events", events, "--out-truth", tmp_path / "t.csv"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "seed" in err
        assert not events.exists()

    @pytest.mark.parametrize("grid", ["0.001,5", "5,0.001", "0.001"])
    def test_sweep_lookback_below_k_plus_h_exits_2_before_reading(self, tmp_path, capsys, grid):
        # 0.001 days is one minute, shorter than k + h = 48
        assert run_cli(["sweep", "--events", tmp_path / "missing.csv", "--truth",
                        tmp_path / "t.csv", "--out", tmp_path / "o.csv",
                        "--lookbacks-days", grid]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "--lookbacks-days: bad item '0.001'" in err
        assert "lookback must be at least k + h" in err
        assert list(tmp_path.iterdir()) == []

    def test_sweep_unknown_method_exits_2_before_reading(self, tmp_path, capsys):
        assert run_cli(["sweep", "--events", tmp_path / "missing.csv", "--truth",
                        tmp_path / "t.csv", "--out", tmp_path / "o.csv",
                        "--methods", "asm,bogus"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "--methods: bad item 'bogus': must be one of asm, ar" in err
        assert list(tmp_path.iterdir()) == []

    def test_gen_beyond_what_ingest_reads_exits_2_writing_nothing(self, tmp_path, capsys):
        days = MAX_SPAN_MINUTES // 1440 + 1
        assert run_cli(["gen", "--days", days, "--high-rate", "60", "--low-rate", "60",
                        "--noise", "0", "--attack", "10:5:2",
                        "--out-events", tmp_path / "e.csv", "--out-truth", tmp_path / "t.csv"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "days must lie in [1, 366], got 367" in err
        assert list(tmp_path.iterdir()) == []

    def test_expectation_beyond_the_float_range_exits_2(self, capsys):
        assert run_cli(["expect", "--l", "5000", "--k", "2000", "--d", "1",
                        "--alpha", "1", "--beta", "1000"]) == 2
        assert "--beta" in capsys.readouterr().err


class TestEvalTimeline:
    # One truth interval at minutes 100-119 and one reported event at 300-309,
    # so the default timeline is [100, 310).
    @pytest.fixture
    def files(self, tmp_path):
        truth = tmp_path / "truth.csv"
        truth.write_text("start_minute,end_minute,label\n100,119,attack\n")
        report = tmp_path / "report.json"
        report.write_text(json.dumps([{"key": "aggregate", "start_minute": 300,
                                       "end_minute": 309, "mse": 1.0, "cosine": 0.5,
                                       "features": ["A", "C"], "score": 5}]))
        return ["eval", "--report", report, "--truth", truth, "--format", "json"]

    @pytest.mark.parametrize("flags, tn", [
        # Buckets of 24 from 100: 9, of which [100, 123] and [292, 309] are busy.
        ([], 7),
        # Buckets of 10 from 100: 21, of which 100, 110 and 300 are busy.
        (["--window", "10"], 18),
        # Buckets of 50 over [0, 400): 8, of which 100 and 300 are busy.
        (["--window", "50", "--timeline-start", "0", "--timeline-end", "400"], 6),
        # Buckets of 24 over [200, 310): 5, of which [296, 309] is busy.
        (["--timeline-start", "200"], 4),
        # Buckets of 24 over [100, 200): 5, of which [100, 123] is busy.
        (["--timeline-end", "200"], 4),
        # Buckets of 1 over [100, 10**12), of which 100-119 and 300-309 are busy.
        (["--window", "1", "--timeline-end", "1000000000000"], 10**12 - 100 - 30),
    ], ids=["defaults", "window", "both-ends", "start", "end", "trillion-minutes"])
    def test_flags_set_the_true_negative_buckets(self, files, capsys, flags, tn):
        assert run_cli(files + flags) == 0
        counts = json.loads(capsys.readouterr().out)
        assert (counts["tp"], counts["fp"], counts["fn"], counts["tn"]) == (0, 1, 1, tn)

    def test_json_and_csv_give_the_counts_then_the_rates(self, files, capsys):
        keys = ["tp", "fp", "fn", "tn", "tpr", "fnr", "precision", "f1"]
        assert run_cli(files) == 0
        assert capsys.readouterr().out == (
            '{"tp": 0, "fp": 1, "fn": 1, "tn": 7, "tpr": 0.0, "fnr": 1.0,'
            ' "precision": 0.0, "f1": 0.0}\n'
        )
        assert run_cli(files[:-1] + ["csv"]) == 0
        assert capsys.readouterr().out == ",".join(keys) + "\n0,1,1,7,0.0,1.0,0.0,0.0\n"

    @pytest.mark.parametrize("flags, message", [
        (["--timeline-start", "100000", "--timeline-end", "50"], "timeline [100000, 50) is empty"),
        (["--timeline-start", "400"], "timeline [400, 310) is empty"),
        (["--timeline-end", "100"], "timeline [100, 100) is empty"),
    ], ids=["reversed", "start-after-default-end", "end-at-default-start"])
    def test_empty_timeline_exits_2_naming_both_ends(self, files, capsys, flags, message):
        assert run_cli(files + flags) == 2
        assert message in capsys.readouterr().err


_CANONICAL = "minute,value\n7,1.0\n8,2.0\n9,10.0\n"


class TestSeriesLoader:
    def _write(self, tmp_path, text, name="A.csv"):
        series_dir = tmp_path / "series"
        series_dir.mkdir(parents=True, exist_ok=True)
        (series_dir / name).write_bytes(text.encode())
        return series_dir

    def test_blank_lines_and_whitespace_around_fields_are_accepted(self, tmp_path):
        text = (
            " minute,value \r\n"
            "\n"
            "7,1.0\r\n"
            "  8 , 2.0  \n"
            "\t\n"
            "9,\t3\r"
            "10 ,4e0\x1c\n"
            "   \n"
            "11,0\n"
            "\n"
        )
        series = _load_series_dir(str(self._write(tmp_path, text)))
        s = series[SeriesKey(FeatureKind.A_TOTAL_PACKETS)]
        assert s.start_minute == 7
        assert s.values == (1.0, 2.0, 3.0, 4.0, 0.0)

    @pytest.mark.parametrize("row, eol", [
        *(pytest.param(row, "\n", id=row)
          for row in ["9", "9,", ",3.0", "9,3.0,1", "x,3.0", "9,abc", "9;3.0"]),
        # Universal newlines: "\r\n" and a lone "\r" each end one line.
        pytest.param("9,abc", "\r\n", id="9,abc-crlf"),
        pytest.param("9,abc", "\r", id="9,abc-cr"),
    ])
    def test_bad_row_is_named_by_its_line_number(self, tmp_path, capsys, row, eol):
        text = f"minute,value\n7,1.0\n\n  \n8,2.0\n {row} \n10,4.0\n".replace("\n", eol)
        series_dir = self._write(tmp_path, text)
        assert run_cli(["detect", "--series-dir", series_dir,
                        "--report", tmp_path / "r.json", "--lookback", "48"]) == 2
        err = capsys.readouterr().err
        assert f"{series_dir / 'A.csv'}: line 6: bad row {row!r}" in err

    def test_bad_row_deep_in_a_long_file_is_named_by_its_line_number(self, tmp_path, capsys):
        # Rows of several blocks, some lines blank, the bad row far from the first.
        lines = [f"{m},{m % 7}.0" if m % 11 else "" for m in range(5000)]
        lines[3333] = "3333,x"
        series_dir = self._write(tmp_path, "minute,value\n" + "\n".join(lines) + "\n")
        assert run_cli(["detect", "--series-dir", series_dir,
                        "--report", tmp_path / "r.json", "--lookback", "48"]) == 2
        assert f"{series_dir / 'A.csv'}: line 3335: bad row '3333,x'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        pytest.param(_CANONICAL.replace("\n", "\r\n"), id="crlf"),
        pytest.param(_CANONICAL.replace("\n", "\r"), id="cr"),
        pytest.param(_CANONICAL[:-1], id="no-final-newline"),
        pytest.param("minute,value\n\n7,1.0\n \n8,2.0\n\t\n9,10.0\n\n", id="blank-lines"),
        pytest.param("minute,value\n 7 ,1.0\n8,\t2.0\n\t9\t, 10.0 \n", id="spaces-and-tabs"),
        pytest.param("minute,value\n+7,1.0\n8,2.0\n9,10.0\n", id="plus-minute"),
        pytest.param("minute,value\n7,1.0\n08,2.0\n9,10.0\n", id="zero-padded-minute"),
        pytest.param("minute,value\n7,1.0\n8,2.0\n9,1e1\n", id="exponent-value"),
    ])
    def test_rows_not_as_ingest_writes_them_load_as_their_canonical_rewrite(self, tmp_path, text):
        canonical = _load_series_dir(str(self._write(tmp_path / "canonical", _CANONICAL)))
        assert _load_series_dir(str(self._write(tmp_path, text))) == canonical

    def test_row_without_a_comma_before_a_row_with_two_is_named(self, tmp_path, capsys):
        # Together the two lines hold two commas and four fields, with every
        # other field a minute in place: only a look at each line tells them
        # from rows as ingest writes them.
        series_dir = self._write(tmp_path, "minute,value\n0,1.0\n1,2.0\n2\n3,3,4.0\n")
        assert run_cli(["detect", "--series-dir", series_dir,
                        "--report", tmp_path / "r.json", "--lookback", "48"]) == 2
        assert f"{series_dir / 'A.csv'}: line 4: bad row '2'" in capsys.readouterr().err

    @staticmethod
    def _rows(minutes):
        return "".join(f"{m},{m % 7}.0\n" for m in minutes)

    @pytest.mark.parametrize("gap", [
        pytest.param(False, id="contiguous"),
        # alone, the gap would give "minutes are not contiguous" once every row parsed
        pytest.param(True, id="gap-in-the-first-block"),
    ])
    def test_bad_row_in_the_second_block_is_named_by_its_line_number(self, tmp_path, capsys, gap):
        n = 5 * _BLOCK_LINES  # several blocks
        minutes = [*range(100_000, 100_010), *range(100_010 + gap, 100_000 + n + gap)]
        rows = self._rows(minutes).splitlines(keepends=True)
        bad = _BLOCK_LINES + 10
        rows[bad] = f"{minutes[bad]},x\n"
        series_dir = self._write(tmp_path, "minute,value\n" + "".join(rows))
        assert run_cli(["detect", "--series-dir", series_dir,
                        "--report", tmp_path / "r.json", "--lookback", "48"]) == 2
        err = capsys.readouterr().err
        assert f"{series_dir / 'A.csv'}: line {bad + 2}: bad row '{minutes[bad]},x'" in err

    def test_gap_on_a_block_boundary_is_not_contiguous(self, tmp_path, capsys):
        n, first = 3 * _BLOCK_LINES, _BLOCK_LINES
        minutes = [*range(100_000, 100_000 + first), *range(100_001 + first, 100_001 + n)]
        series_dir = self._write(tmp_path, "minute,value\n" + self._rows(minutes))
        assert run_cli(["detect", "--series-dir", series_dir,
                        "--report", tmp_path / "r.json", "--lookback", "48"]) == 2
        err = capsys.readouterr().err
        assert f"{series_dir / 'A.csv'}: line {first + 2}: minutes are not contiguous" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1.0", "1e300", "1.5", "5e-324"])
    @pytest.mark.parametrize("layout", [
        # rows as ingest writes them, converted a block at a time
        "as-written",
        # blank lines just before it and spaces: read line by line
        "loose",
        # the count in the second block, converted at once
        "second-block",
        # the first block read line by line, the count in the second
        "second-block-after-a-loose-one",
    ])
    def test_count_out_of_range_is_named_by_its_line_number(self, tmp_path, capsys, value, layout):
        second = layout.startswith("second-block")
        minutes = range(100_000, 100_000 + (3 * _BLOCK_LINES if second else 40))
        rows = self._rows(minutes).splitlines(keepends=True)
        bad = _BLOCK_LINES + 10 if second else 3  # index of the row
        rows[bad] = f"{minutes[bad]},{value}\n"
        if layout == "loose":
            rows[bad:bad] = ["\n", "  \n"]
            bad += 2
            rows[bad] = rows[bad].replace(",", " , ")
        elif layout == "second-block-after-a-loose-one":
            rows.insert(5, "\n")
            bad += 1
        series_dir = self._write(tmp_path, "minute,value\n" + "".join(rows))
        assert run_cli(["detect", "--series-dir", series_dir,
                        "--report", tmp_path / "r.json", "--lookback", "48"]) == 2
        err = capsys.readouterr().err
        message = f"line {bad + 2}: minute counts must be integers in [0, 2**53), got {float(value)!r}"
        assert f"{series_dir / 'A.csv'}: {message}\n" in err

    @pytest.mark.parametrize("method", ["asm", "ar"])
    def test_series_too_short_for_a_window_is_named(self, tmp_path, capsys, method):
        series_dir = self._write(tmp_path, "minute,value\n0,1.0\n")
        assert run_cli(["detect", "--series-dir", series_dir, "--method", method,
                        "--report", tmp_path / "r.json", "--lookback", "48"]) == 2
        err = capsys.readouterr().err
        assert err == f"dnswatch: {series_dir / 'A.csv'}: series must have at least 49 minutes, got 1\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_the_first_series_too_short_in_key_order_is_named(self, tmp_path, capsys, monkeypatch, cpus):
        # with three CPUs, three processes take the four series from one queue
        for name in ("C_10.0.0.12.csv", "C_10.0.0.11.csv", "B_10.0.1.53.csv", "A.csv"):
            series_dir = self._write(tmp_path, "minute,value\n0,1.0\n", name)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert run_cli(["detect", "--series-dir", series_dir,
                        "--report", tmp_path / "r.json", "--lookback", "48"]) == 2
        err = capsys.readouterr().err
        assert err == f"dnswatch: {series_dir / 'A.csv'}: series must have at least 49 minutes, got 1\n"

    @pytest.mark.parametrize("text, message", [
        ("minute,count\n0,1.0\n", "bad series header 'minute,count'"),
        ("minute,value\n\n \n", "empty series"),
        ("minute,value\n0,1.0\n2,1.0\n", "line 3: minutes are not contiguous"),
        ("minute,value\n0,1.0\n1,-1.0\n",
         "line 3: minute counts must be integers in [0, 2**53), got -1.0"),
        ("minute,value\n0,1.0\n\n1,2.5\n2,-1.0\n",
         "line 4: minute counts must be integers in [0, 2**53), got 2.5"),
        # a gap is named before a count out of range, even an earlier one
        ("minute,value\n0,1.0\n1,nan\n2,1.0\n\n4,1.0\n", "line 6: minutes are not contiguous"),
    ], ids=["header", "empty", "gap", "negative", "non-integer", "gap-after-a-nan"])
    def test_rejected_series_file_is_named(self, tmp_path, capsys, text, message):
        series_dir = self._write(tmp_path, text)
        assert run_cli(["detect", "--series-dir", series_dir,
                        "--report", tmp_path / "r.json", "--lookback", "48"]) == 2
        assert f"{series_dir / 'A.csv'}: {message}" in capsys.readouterr().err


class TestExpect:
    def test_worked_example_lower(self, capsys):
        assert run_cli(["expect", "--l", "1440", "--k", "5", "--d", "3",
                        "--alpha", "100", "--beta", "250", "--mode", "lower"]) == 0
        assert capsys.readouterr().out.strip() == "2.9008"

    def test_worked_example_inclusion_exclusion(self, capsys):
        assert run_cli(["expect", "--l", "1440", "--k", "5", "--d", "3",
                        "--alpha", "100", "--beta", "250",
                        "--mode", "inclusion_exclusion"]) == 0
        assert capsys.readouterr().out.strip() == "8.5958"

    def test_invalid_params_exit_2(self):
        assert run_cli(["expect", "--l", "3", "--k", "5", "--d", "1",
                        "--alpha", "1", "--beta", "1"]) == 2

    def test_integer_too_large_to_build_exits_2_at_once(self, capsys):
        # 10**((d - 1) * k) would hold about 5e9 digits
        t0 = time.perf_counter()
        assert run_cli(["expect", "--l", "10", "--k", "5", "--d", "1000000000",
                        "--alpha", "1", "--beta", "2"]) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert err.startswith("dnswatch: --d and --k are too large") and err.count("\n") == 1

    @pytest.mark.parametrize("mode", ["lower", "inclusion_exclusion"])
    def test_beta_beyond_every_window_is_zero_at_once(self, capsys, mode):
        # beta // alpha far above k: no window of k letters reaches it
        assert run_cli(["expect", "--l", "100", "--k", "10", "--d", "2", "--alpha", "1",
                        "--beta", "1000000000000", "--mode", mode]) == 0
        assert capsys.readouterr().out == "0.0000\n"


class TestHelp:
    @pytest.mark.parametrize("sub", ["gen", "ingest", "detect", "eval", "sweep", "expect"])
    def test_help_shows_defaults(self, sub):
        out = subprocess.run(
            [sys.executable, "-m", "dnswatch", sub, "--help"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        if sub in ("detect", "sweep"):
            for flag in ("--epsilon", "--cos-threshold", "--cold-start-factor"):
                assert flag in out.stdout
            assert "default" in out.stdout


_MODULES = sorted(p.stem for p in Path(cli.__file__).parent.glob("*.py") if p.stem != "__init__")


def _traced_names():
    """(module, name) of each ``rec.wrap(module, "name", ...)`` in the
    benchmark child's ``_install``, the module resolved from its
    ``module = sys.modules["dnswatch.module"]`` line there."""
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "child.py").read_text())
    install = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_install")
    modules = {
        a.targets[0].id: a.value.slice.value
        for a in ast.walk(install)
        if isinstance(a, ast.Assign) and isinstance(a.value, ast.Subscript)
    }
    return [
        (modules[c.args[0].id], c.args[1].value)
        for c in ast.walk(install)
        if isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute) and c.func.attr == "wrap"
    ]


# Runs the labelled commands in one fresh interpreter and reports, after the
# import and after each command, which of numpy and fractions are loaded.
_IMPORT_PROBE = """
import json, sys
import dnswatch.cli
loaded = lambda: [m for m in ("numpy", "fractions") if m in sys.modules]
seen = {"import": loaded()}
for label, argv in json.loads(sys.argv[1]).items():
    assert dnswatch.cli.main(argv) == 0, label
    seen[label] = loaded()
print(json.dumps(seen))
"""


class TestImports:
    @staticmethod
    def _fresh(code):
        # a fresh interpreter that imports the package under test
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)

    def test_every_name_the_benchmark_tracer_wraps_exists(self):
        # the tracer wraps each name by attribute once dnswatch.cli is
        # imported, so a moved name stops the traced benchmark runs
        names = _traced_names()
        assert len(names) >= 11
        missing = [(m, n) for m, n in names if not hasattr(sys.modules.get(m), n)]
        assert missing == []

    @pytest.mark.parametrize("module", _MODULES)
    def test_each_module_imports_on_its_own(self, module):
        out = self._fresh(f"import dnswatch.{module}")
        assert out.returncode == 0, out.stderr

    def test_the_package_loads_no_module_and_exports_no_name(self):
        out = self._fresh(
            "import json, sys, dnswatch\n"
            "print(json.dumps([sorted(m for m in sys.modules if m.startswith('dnswatch.')),\n"
            "                  sorted(n for n in vars(dnswatch) if not n.startswith('_'))]))"
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == [[], []]

    def test_the_cli_loads_pickle_only_where_it_forks(self):
        # only a forked worker's outcomes are pickled, and the import costs
        # about 3 ms of every command
        out = self._fresh("import sys, dnswatch.cli; print('pickle' in sys.modules)")
        assert out.returncode == 0, out.stderr
        assert out.stdout == "False\n"

    def test_numpy_loads_only_for_the_commands_that_compute_with_it(self, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text(
            "ts_epoch_s,src_ip,dst_ip,direction,malformed\n"
            + "".join(f"{60 * m},10.0.0.11,10.0.1.53,tx,0\n" for m in range(120) for _ in range(m % 7))
        )
        truth = tmp_path / "truth.csv"
        truth.write_text("start_minute,end_minute,label\n50,60,attack\n")
        series, report = str(tmp_path / "series"), str(tmp_path / "report.json")
        detect = ["detect", "--series-dir", series, "--report", report, "--lookback", "48"]
        steps = {
            "ingest": ["ingest", "--events", str(events), "--out-dir", series],
            "detect-asm": detect + ["--method", "asm"],
            "eval": ["eval", "--report", report, "--truth", str(truth)],
            "detect-ar": detect + ["--method", "ar"],
            "gen": ["gen", "--days", "1", "--high-rate", "600", "--low-rate", "300",
                    "--out-events", str(tmp_path / "gen.csv"), "--out-truth", str(tmp_path / "gen_truth.csv")],
            # only expect computes with exact rationals
            "expect": ["expect", "--l", "100", "--k", "5", "--d", "2", "--alpha", "1", "--beta", "3"],
        }
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, json.dumps(steps)],
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout.splitlines()[-1]) == {
            "import": [],
            "ingest": [],
            "detect-asm": [],
            "eval": [],
            # the probe does see a module once a command loads it
            "detect-ar": ["numpy"],
            "gen": ["numpy"],
            "expect": ["numpy", "fractions"],
        }

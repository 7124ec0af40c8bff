import json
import subprocess
import sys

import pytest

from dnswatch.cli import _load_series_dir, main
from dnswatch.ingest import MAX_SPAN_MINUTES
from dnswatch.model import FeatureKind, SeriesKey

BASE_GEN = [
    "gen", "--days", "1", "--seed", "7",
    "--high-rate", "3000", "--low-rate", "1200",
    "--attack", "700:25:10",
]


def run_cli(args):
    # in-process for speed; subprocess variants below check exit codes
    return main([str(a) for a in args])


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

    @pytest.mark.parametrize("argv", [
        ["expect", "--bogus", "1"],
        # sweep takes these only as grids; a single value is not abbreviated
        # into --lookbacks-days or --score-thresholds either
        ["sweep", "--events", "nope.csv", "--truth", "nope.csv", "--out", "o.csv",
         "--lookback", "60"],
        ["sweep", "--events", "nope.csv", "--truth", "nope.csv", "--out", "o.csv",
         "--score-threshold", "5"],
        ["detect", "--series-dir", "x", "--report", "y", "--lookb", "10"],
    ], ids=["expect-bogus", "sweep-lookback", "sweep-score-threshold", "detect-lookb"])
    def test_unknown_flag_exits_1(self, argv):
        out = subprocess.run(
            [sys.executable, "-m", "dnswatch", *argv],
            capture_output=True, text=True,
        )
        assert out.returncode == 1
        assert "error" in out.stderr
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
        (["60,a,b,tx,0", f"{60 * (1 + MAX_SPAN_MINUTES)},a,b,tx,0"],
         f"events span minutes 1 to {1 + MAX_SPAN_MINUTES}"),
    ], ids=["inf-timestamp", "span-over-bound"])
    def test_bad_events_exit_2(self, tmp_path, capsys, rows, message):
        events = tmp_path / "events.csv"
        events.write_text("ts_epoch_s,src_ip,dst_ip,direction,malformed\n" + "\n".join(rows) + "\n")
        assert run_cli(["ingest", "--events", events, "--out-dir", tmp_path / "s"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

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

    def test_missing_file_exits_2(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "dnswatch", "ingest", "--events",
             str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path / "s")],
            capture_output=True, text=True,
        )
        assert out.returncode == 2


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
    ], ids=["defaults", "window", "both-ends", "start", "end"])
    def test_flags_set_the_true_negative_buckets(self, files, capsys, flags, tn):
        assert run_cli(files + flags) == 0
        counts = json.loads(capsys.readouterr().out)
        assert (counts["tp"], counts["fp"], counts["fn"], counts["tn"]) == (0, 1, 1, tn)

    @pytest.mark.parametrize("flags, message", [
        (["--timeline-start", "100000", "--timeline-end", "50"], "timeline [100000, 50) is empty"),
        (["--timeline-start", "400"], "timeline [400, 310) is empty"),
        (["--timeline-end", "100"], "timeline [100, 100) is empty"),
    ], ids=["reversed", "start-after-default-end", "end-at-default-start"])
    def test_empty_timeline_exits_2_naming_both_ends(self, files, capsys, flags, message):
        assert run_cli(files + flags) == 2
        assert message in capsys.readouterr().err


class TestSeriesLoader:
    def _write(self, tmp_path, text, name="A.csv"):
        series_dir = tmp_path / "series"
        series_dir.mkdir(exist_ok=True)
        (series_dir / name).write_bytes(text.encode())
        return series_dir

    def test_blank_lines_and_whitespace_around_fields_are_accepted(self, tmp_path):
        text = (
            " minute,value \r\n"
            "\n"
            "7,1.5\r\n"
            "  8 , 2.0  \n"
            "\t\n"
            "9,\t3\r"
            "10 ,4.25\x1c\n"
            "   \n"
            "11,0\n"
            "\n"
        )
        series = _load_series_dir(str(self._write(tmp_path, text)))
        s = series[SeriesKey(FeatureKind.A_TOTAL_PACKETS)]
        assert s.start_minute == 7
        assert s.values == (1.5, 2.0, 3.0, 4.25, 0.0)

    @pytest.mark.parametrize("row", ["9", "9,", ",3.0", "9,3.0,1", "x,3.0", "9,abc", "9;3.0"])
    def test_bad_row_is_named_by_its_line_number(self, tmp_path, capsys, row):
        series_dir = self._write(tmp_path, f"minute,value\n7,1.0\n\n  \n8,2.0\n {row} \n10,4.0\n")
        assert run_cli(["detect", "--series-dir", series_dir,
                        "--report", tmp_path / "r.json", "--lookback", "48"]) == 2
        err = capsys.readouterr().err
        assert f"{series_dir / 'A.csv'} line 6: bad row {row!r}" in err

    def test_bad_row_deep_in_a_long_file_is_named_by_its_line_number(self, tmp_path, capsys):
        # Rows of several blocks, some lines blank, the bad row far from the first.
        lines = [f"{m},{m % 7}.5" if m % 11 else "" for m in range(5000)]
        lines[3333] = "3333,x"
        series_dir = self._write(tmp_path, "minute,value\n" + "\n".join(lines) + "\n")
        assert run_cli(["detect", "--series-dir", series_dir,
                        "--report", tmp_path / "r.json", "--lookback", "48"]) == 2
        assert f"{series_dir / 'A.csv'} line 3335: bad row '3333,x'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("minute,count\n0,1.0\n", "bad series header 'minute,count'"),
        ("minute,value\n\n \n", "empty series"),
        ("minute,value\n0,1.0\n2,1.0\n", "minutes are not contiguous"),
        ("minute,value\n0,1.0\n1,-1.0\n", "minute counts must be non-negative and below 2**53"),
    ], ids=["header", "empty", "gap", "negative"])
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


# Runs the labelled commands in one fresh interpreter and reports, after the
# import and after each command, whether numpy has been loaded.
_NUMPY_PROBE = """
import json, sys
import dnswatch.cli
seen = {"import": "numpy" in sys.modules}
for label, argv in json.loads(sys.argv[1]).items():
    assert dnswatch.cli.main(argv) == 0, label
    seen[label] = "numpy" in sys.modules
print(json.dumps(seen))
"""


class TestImports:
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
        }
        out = subprocess.run(
            [sys.executable, "-c", _NUMPY_PROBE, json.dumps(steps)],
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout.splitlines()[-1]) == {
            "import": False,
            "ingest": False,
            "detect-asm": False,
            "eval": False,
            # the probe does see numpy once a command loads it
            "detect-ar": True,
        }

"""Smoke test and one-table summary of the dnswatch benchmark.

Usage (from the root of a checkout):

    python3 perfbench/check.py [--days 1] [--seconds 1]

For every workload this runs ``run.py`` twice untraced and once traced on
seed 1234, and once untraced on the hold-out seed 4321.  Another seed is
checked by calling ``run.py --seed N`` directly.  It checks that every
metric named in BENCHMARK.json is emitted, that no command failed, and that
the output digests of the two untraced invocations are identical; then it
prints each end-to-end metric and the error rate by name with its unit.
The defaults make it a smoke test on a one-day dataset; ``--days 3
--seconds 20`` prints the figures of the benchmark's own size.
Exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import BENCH, DEFAULT_SEED, ROOT, WORKLOADS

HOLDOUT = 4321


def invoke(workload: str, seed: int, days: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--days", str(days), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit code {proc.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--days", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    problems = []
    for workload in WORKLOADS:
        runs = [invoke(workload, DEFAULT_SEED, args.days, args.seconds, 0) for _ in range(2)]
        traced = invoke(workload, DEFAULT_SEED, args.days, args.seconds, 1)
        holdout = invoke(workload, HOLDOUT, args.days, args.seconds, 0)
        for (info, result), names in zip(runs + [traced, holdout],
                                         [end_to_end, end_to_end, per_layer, end_to_end]):
            where = f"{workload} seed {info['seed']} trace {info['trace']}"
            missing = [n for n in names if n not in result["metrics"]]
            if missing:
                problems.append(f"{where}: metrics missing: {missing}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{where}: {result['failed']} failed: {info['problems']}")
        if runs[0][0]["digests"] != runs[1][0]["digests"]:
            problems.append(f"{workload}: digests differ between two invocations")
        info, result = runs[0]
        for name in end_to_end:
            metric = result["metrics"].get(name, {})
            print(f"{workload:10} {name:12} {metric.get('value', float('nan')):12.4f} {metric.get('unit')}")
        print(f"{workload:10} {'error_rate':12} {result['failed'] / result['attempted']:12.4f} ratio"
              f"  ({result['failed']} of {result['attempted']} commands)")
        for seed, (run_info, _) in ((DEFAULT_SEED, runs[0]), (HOLDOUT, holdout)):
            source = "committed reference" if run_info["reference"] else "the first run only"
            print(f"{workload:10} seed {seed}: {len(run_info['digests'])} digests checked against {source}")
    for problem in problems:
        print("FAIL", problem)
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

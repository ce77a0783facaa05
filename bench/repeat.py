#!/usr/bin/env python3
"""Same code, run twice over: ``python3 bench/repeat.py [--runs K]
[--workload NAME] [--seed N]``.

Runs the benchmark K times as set A and K times as set B (each run on its
own seed, every workload in turn, alternating A and B so slow drift hits
both) and prints, per workload and end-to-end metric, both medians, the
spread (interquartile distance over the median) and whether B's median
is within the metric's bound of A's.  This is the check the driver makes
with ten runs a set; it is also how a bound wider than the starting value
is justified.  A run whose ``host.spin_kops`` moved by more than 15 %
across the workload is flagged noisy.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, out_dir: Path) -> dict:
    out = out_dir / f"{workload}-{seed}.json"
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if done.returncode != 0 or not out.exists():
        sys.exit(f"run failed ({workload}, seed {seed}):\n{done.stdout}\n{done.stderr}")
    return json.loads(out.read_text())


def summarise(workload: str, set_a: list[dict], set_b: list[dict], table: dict) -> bool:
    from bench import stats

    agree = True
    print(f"== {workload}: {len(set_a)} + {len(set_b)} runs ==")
    print(f"  {'metric':28s} {'median A':>12s} {'median B':>12s} "
          f"{'spread A':>9s} {'spread B':>9s} {'B worse by':>10s} {'bound':>6s}")
    for name, entry in table.items():
        a = [run["metrics"][name]["value"] for run in set_a]
        b = [run["metrics"][name]["value"] for run in set_b]
        worse = stats.worse_by(statistics.median(a), statistics.median(b), entry["better"])
        spread = max(stats.spread(a), stats.spread(b))
        verdict = "ok"
        if worse > entry["bound"]:
            verdict, agree = "DISAGREE", False
        elif name != "setup_s" and spread > entry["bound"]:
            verdict, agree = "UNSTEADY", False
        print(f"  {name:28s} {statistics.median(a):12.4f} {statistics.median(b):12.4f} "
              f"{stats.spread(a):9.3f} {stats.spread(b):9.3f} {worse:+10.3f} "
              f"{entry['bound']:6.2f}  {verdict}")
    noisy = [run["seed"] for run in set_a + set_b if run["noisy"]]
    failed = [run["seed"] for run in set_a + set_b if not run["correct"]]
    if noisy:
        print(f"  noisy runs (spin_kops moved > 15 %): seeds {noisy}")
    if failed:
        print(f"  runs with failed operations: seeds {failed}")
        agree = False
    return agree


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3, help="runs per set (default 3)")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=100, help="first seed")
    args = parser.parse_args(argv)
    sys.path[:] = [str(ROOT)] + [p for p in sys.path if Path(p or ".").resolve() != BENCH_DIR]
    from bench import spec

    document = spec.load()
    names = [w["name"] for w in document["workloads"]]
    if args.workload != "all":
        names = [args.workload]
    table = spec.metric_table("end_to_end")
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    agree = True
    with tempfile.TemporaryDirectory(prefix="repeat-", dir=BENCH_DIR / "out") as tmp:
        for workload in names:
            sets: tuple[list, list] = ([], [])
            for i in range(2 * args.runs):
                sets[i % 2].append(run_once(workload, args.seed + i, Path(tmp)))
            agree &= summarise(workload, sets[0], sets[1], table)
    print("sets A and B agree on every metric" if agree else "sets A and B DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

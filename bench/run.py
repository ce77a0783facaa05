#!/usr/bin/env python3
"""Run the benchmark: ``python3 bench/run.py [--workload NAME] [--seed N]
[--seconds S] [--trace 0|1] [--quick] [--out FILE]``.

Without ``--workload`` every workload runs in turn.  ``--trace 0`` (the
default) drives a daemon in a separate OS process and prints the
end-to-end metrics; ``--trace 1`` reruns the workload in-process with the
layers wrapped in timers and prints the per-layer metrics and the ledger.
The last line of standard output is one JSON object per the contract in
``BENCHMARK.json``'s driver: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 1 when any operation failed.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
QUICK_SCALE = 0.02


def _bootstrap_path() -> None:
    """Import ``bench.*`` and ``repro.*`` from this checkout, and keep
    ``bench/`` itself off the path (``bench/trace.py`` must not shadow the
    standard library's ``trace``)."""
    if not (SRC / "repro" / "__main__.py").is_file():
        sys.exit(f"bench: no file service under {SRC}: nothing to measure")
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != BENCH_DIR]
    sys.path[:0] = [str(ROOT), str(SRC)]


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="planned length of the measured part (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: 2 %% of the op counts, one set-up, one restart")
    parser.add_argument("--out", default=None, help="also write the full result as JSON here")
    return parser.parse_args(argv)


def run_one(name: str, args: argparse.Namespace) -> dict:
    from bench import report, spec
    from bench.harness import run_untraced
    from bench.quiet import QuietBox
    from bench.workloads import NOMINAL_SECONDS, WORKLOADS

    seconds = args.seconds if args.seconds is not None else spec.load()["run_seconds"]
    scale = QUICK_SCALE if args.quick else seconds / NOMINAL_SECONDS
    cls = WORKLOADS[name]
    with QuietBox() as box:
        if args.trace:
            from bench.layers import run_traced

            result = run_traced(cls, args.seed, scale, OUT)
            kind = "per_layer"
        else:
            once = (1, 1, 0.0)
            repeats = {"setup_repeats": once, "restarts": once} if args.quick else {}
            result = run_untraced(cls, args.seed, scale, SRC, OUT, **repeats)
            kind = "end_to_end"
    result.extras["pinned_cpu"] = box.cpu
    print(report.render(result, kind))
    line = {
        "correct": result.correct,
        "attempted": result.tally.attempted,
        "failed": result.tally.failed,
        "metrics": spec.render(result.metrics, kind),
    }
    if args.out:
        full = dict(line, workload=name, seed=args.seed, scale=scale,
                    trace=args.trace, extras=result.extras,
                    calibration=result.calibration, noisy=result.noisy,
                    spin_kops=[result.spin_before, result.spin_after],
                    phases=[
                        {"name": p.name, "seconds": p.seconds, "ops": p.ops,
                         "start": p.start, "end": p.end,
                         "calibration_s": p.calibration_s,
                         "latencies": p.latencies, "ends": p.ends}
                        for p in result.phases
                    ])
        Path(args.out).write_text(json.dumps(full, indent=1, default=str))
    return line


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    _bootstrap_path()
    # A driver that gives up sends SIGTERM: leave through the finally
    # blocks, so the daemon and the spinner are reaped all the same.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    from bench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        sys.exit(f"bench: unknown workload {unknown[0]!r}; known: {', '.join(WORKLOADS)}")
    if args.out and len(names) > 1:
        sys.exit("bench: --out needs a single --workload")
    status = 0
    for name in names:
        line = run_one(name, args)
        print(json.dumps(line), flush=True)
        if not line["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

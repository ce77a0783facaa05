"""Print the ``src/repro`` lines nothing runs; exit 1 if more than RECORDED.

Traces, in this process, tier-1, ``benchmarks/``, soak 1..54, the mutant soak,
``serve --smoke`` on 1 and 2 shards, demo, fsck, salvage and stats (a child
process's lines count as unrun; test results are not gated).  Ten minutes:
PYTHONPATH=src python scripts/unrun.py"""

import contextlib
import itertools
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src" / "repro")
RECORDED = 259  # only ever lowered; 251 plus 8 lines thread timing decides
hits: dict[str, set[int]] = {}
entered: set[tuple[str, int]] = set()


def tracer(frame, event, arg):
    code = frame.f_code
    if event == "call":
        if not code.co_filename.startswith(SRC):
            return None
        entered.add((code.co_filename, code.co_firstlineno))
    hits.setdefault(code.co_filename, set()).add(frame.f_lineno)
    return tracer


def run_everything() -> None:
    import hypothesis
    import pytest
    from repro.__main__ import main
    hypothesis.settings.register_profile(  # the tracer slows every example
        "traced", deadline=None, suppress_health_check=list(hypothesis.HealthCheck))
    hypothesis.settings.load_profile("traced")
    results = ROOT / "benchmarks" / "results.txt"  # the benchmarks rewrite it
    kept = results.read_text()
    pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), str(ROOT / "benchmarks")])
    results.write_text(kept)
    for argv in (["soak", "--seed", "1..54", "--ops", "500"],
                 ["soak", "--seed", "1..3", "--ops", "120", "--mutant"],
                 ["serve", "--smoke"], ["serve", "--smoke", "--shards", "2"],
                 ["demo"], ["fsck"], ["salvage"], ["stats"]):
        with contextlib.suppress(SystemExit):
            main(["repro", *argv])


def report() -> int:
    total = unrun = 0
    for path in sorted(pathlib.Path(SRC).rglob("*.py")):
        codes, todo = [], [compile(path.read_text(), str(path), "exec")]
        while todo:  # the module's code object, then every nested one
            codes.append(todo.pop())
            todo += [c for c in codes[-1].co_consts if hasattr(c, "co_lines")]
        lines = sorted({n for code in codes for _, _, n in code.co_lines() if n})
        ran = hits.get(str(path), set()).__contains__
        spans = [list(g) for hit, g in itertools.groupby(lines, ran) if not hit]
        missed = sum(map(len, spans))
        total, unrun = total + len(lines), unrun + missed
        if spans:
            print(f"{path.relative_to(ROOT)}: {missed} unrun: " + ", ".join(
                f"{s[0]}" if len(s) == 1 else f"{s[0]}-{s[-1]}" for s in spans))
        never = [f"{c.co_qualname} (l.{c.co_firstlineno})" for c in sorted(
            codes[1:], key=lambda c: c.co_firstlineno) if not c.co_name.startswith("<")
            and (str(path), c.co_firstlineno) not in entered]
        if never:
            print("  never entered: " + ", ".join(never))
    print(f"unrun {unrun} of {total} executable lines; recorded {RECORDED}")
    return int(unrun > RECORDED)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    with contextlib.redirect_stdout(sys.stderr):
        run_everything()
    sys.exit(report())

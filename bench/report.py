"""The text report printed before the result line."""

from __future__ import annotations

from bench import spec
from bench.harness import Result


def render(result: Result, kind: str) -> str:
    table = spec.metric_table(kind)
    mode = "traced, in-process" if result.traced else "untraced, daemon in its own process"
    lines = [
        f"== {result.workload}  seed {result.seed}  scale {result.scale:.3g}  ({mode}) ==",
    ]
    for name, entry in table.items():
        value = result.metrics.get(name)
        shown = "missing" if value is None else f"{value:14.4f}"
        lines.append(f"  {name:44s} {shown} {entry['unit']}")
    if result.extras:
        lines.append("  -- reported, not gated --")
        for name, value in result.extras.items():
            if name == "ledger":
                continue
            if isinstance(value, float):
                value = f"{value:.4f}"
            lines.append(f"  {name:44s} {value}")
    ledger = result.extras.get("ledger")
    if ledger:
        lines.append(ledger)
    tally = result.tally
    lines.append(
        f"  operations: {tally.attempted} attempted, {tally.failed} failed "
        f"(failed_op_ratio {tally.failed_op_ratio:.6f})"
    )
    for note in tally.notes:
        lines.append(f"  FAILED: {note}")
    lines.append(
        f"  host.spin_kops before {result.spin_before:.0f} after {result.spin_after:.0f}"
        + ("  NOISY (raw Python speed moved > 15 %)" if result.noisy else "")
    )
    return "\n".join(lines)

"""Compare two traces of the same workload, span by span.

    python3 perfbench/tracediff.py BEFORE AFTER [--top N]

BEFORE and AFTER are `aggregate.json` files that a `--trace 1` run leaves in
`<workdir>/traces/<workload>/` (`<workload>-smoke/` with `--smoke`). The
output lists the spans whose self time changed most, with their call
counts, and the per-layer counts and ratios that changed. The raw spans of
each trace sit beside it in `spans.tsv.gz` (name, start, end, parent,
input, pid) for a finer, per-input comparison.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def diff_lines(before: dict, after: dict, top: int) -> list[str]:
    lines = []
    if before["workload"] != after["workload"] or before["smoke"] != after["smoke"]:
        lines.append(f"warning: comparing {before['workload']} with {after['workload']}")
    lines.append(f"wall_s {before['wall_s']:.3f} -> {after['wall_s']:.3f} "
                 f"({after['wall_s'] - before['wall_s']:+.3f})")
    names = set(before["spans"]) | set(after["spans"])
    empty = {"calls": 0, "self_s": 0.0}
    rows = []
    for name in names:
        b = before["spans"].get(name, empty)
        a = after["spans"].get(name, empty)
        rows.append((a["self_s"] - b["self_s"], name, b, a))
    rows.sort(key=lambda row: -abs(row[0]))
    lines.append(f"{'span':<36} {'calls before':>12} {'after':>9} "
                 f"{'self s before':>13} {'after':>9} {'change':>9}")
    for delta, name, b, a in rows[:top]:
        lines.append(f"{name:<36} {b['calls']:>12} {a['calls']:>9} "
                     f"{b['self_s']:>13.3f} {a['self_s']:>9.3f} {delta:>+9.3f}")
    changed = [
        (k, v, after["per_layer"].get(k))
        for k, v in before["per_layer"].items()
        if after["per_layer"].get(k) != v and not k.endswith("_s")
    ]
    if changed:
        lines.append("counts and ratios that changed:")
        for name, b, a in changed:
            lines.append(f"  {name:<44} {b} -> {a}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--top", type=int, default=15)
    args = parser.parse_args(argv)
    for line in diff_lines(load(args.before), load(args.after), args.top):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

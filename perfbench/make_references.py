"""Record the outputs every benchmark pass is checked against.

    python3 perfbench/make_references.py

Run from the root of a checkout whose outputs are known to be right. It runs
each workload, and its smoke variant, once through the same pass code as the
benchmark and writes `perfbench/references.json`. A pass that exits non-zero
or reports a violation is refused, and the two census workloads must agree.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import Bench
from workloads import REFERENCES, WORKLOADS, observe


def main() -> int:
    root = Path.cwd()
    references = {}
    with tempfile.TemporaryDirectory(dir=root) as scratch:
        for smoke in (False, True):
            runner = Bench(root, Path(scratch), smoke)
            for workload in WORKLOADS.values():
                result = runner.run_pass(workload, trace=False)
                if result["exit"] != 0:
                    print(f"{workload.name}: exit {result['exit']}", file=sys.stderr)
                    return 1
                seen = observe(workload, result["outputs"])
                if seen.get("violations"):
                    print(f"{workload.name}: {seen['violations']} violations", file=sys.stderr)
                    return 1
                key = workload.reference_key(smoke)
                if key in references and references[key] != seen:
                    print(f"{workload.name}: differs from {key}", file=sys.stderr)
                    return 1
                references[key] = seen
                print(f"{key}: {len(seen['records'])} records, {result['wall_s']:.2f} s")
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads and the correctness gate applied to every pass.

Each workload is one `greenheights` command line. Its inputs are fixed (a
census, two recipes, an enumeration prefix), so a run is deterministic; the
benchmark seed only orders the passes. A smoke variant of each workload runs
the same code path on inputs small enough for a test.

Every pass is checked against `references.json`, recorded from the seed code
by `make_references.py`. A check returns (attempted, failed, problems): the
inputs of the pass, how many of them did not match their reference, and why.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "census", "recipes" or "enumerate": selects the check
    args: tuple[str, ...]  # the command line after `greenheights`
    smoke_args: tuple[str, ...]
    why: str  # one line, ending with the layer the workload is meant to load

    def argv(self, smoke: bool) -> list[str]:
        return list(self.smoke_args if smoke else self.args)

    def reference_key(self, smoke: bool) -> str:
        # both census workloads must produce the same records
        base = "census4" if self.kind == "census" else self.name
        return f"{base}.smoke" if smoke else base


# REPORT and CSV are replaced by paths inside the pass's scratch directory.
REPORT = "{report}"
CSV = "{csv}"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "census4",
            "census",
            ("verify", "--enumerate-order", "4", "--report", REPORT, "--csv", CSV),
            ("verify", "--enumerate-order", "3", "--report", REPORT, "--csv", CSV),
            "order-4 census, 3,492 tables, one process: per-input overhead on tiny "
            "tables, cache hashing, records, JSON; loads verify, green caches, structure",
        ),
        Workload(
            "census4_jobs2",
            "census",
            ("verify", "--enumerate-order", "4", "--jobs", "2", "--report", REPORT,
             "--csv", CSV),
            ("verify", "--enumerate-order", "3", "--jobs", "2", "--report", REPORT,
             "--csv", CSV),
            "the order-4 census with --jobs 2: process pool, mtab round trip and a "
            "second validation per input; loads verify pool, core parse/format_mtab",
        ),
        Workload(
            "constructions",
            "recipes",
            ("verify", "sqfree:5", "asym:4", "--report", REPORT),
            ("verify", "sqfree:3", "asym:3", "--report", REPORT),
            "sqfree:5 and asym:4 (orders 326, 197): validation of derived tables and "
            "O(n^2) masks do the work; loads core build_semigroup, constructions, green",
        ),
        Workload(
            "enum5_iso",
            "enumerate",
            ("enumerate", "--order", "5", "--up-to-iso", "--limit", "1000"),
            ("enumerate", "--order", "4", "--up-to-iso", "--limit", "50"),
            "first 1000 order-5 tables up to isomorphism, no claims run: "
            "canonical_table and backtracking dominate; loads enumeration",
        ),
    )
}


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def _short(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def record_content(record: dict) -> list:
    """The semantic content of one report record: provenance, the five
    heights, the flags and the claim tuples. Layout and key order of the JSON
    do not enter it."""
    report = record["report"]
    heights = [report[k] for k in ("H_L", "H_R", "H_J", "H_H", "H_E")]
    flags = sorted((k, v) for k, v in report.items() if not k.startswith("H_"))
    claims = [
        [c["claim_id"], c["applicable"], c["holds"], c["witness"]]
        for c in record["claims"]
    ]
    return [record["input"]["provenance"], record["input"]["order"], heights, flags, claims]


def record_digests(report_doc: dict) -> list[str]:
    return [
        _short(json.dumps(record_content(r), sort_keys=True, separators=(",", ":")))
        for r in report_doc["inputs"]
    ]


def combined_digest(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()


def table_blocks(stdout: str) -> list[str]:
    """Split `enumerate` output into its mtab blocks."""
    return [block for block in stdout.split("\n\n") if block.strip()]


def closed_form_heights(recipe: str) -> dict[str, int]:
    """Heights the paper's formulas give for a recipe, where it has them."""
    kind, _, arg = recipe.partition(":")
    if kind == "asym":
        n = int(arg)
        return {"H_L": 2**n + n - 3, "H_R": 2**n + n - 3, "H_J": 2 ** (n + 1) - 4}
    if kind == "sqfree":
        k = int(arg)
        return {"H_L": k + 1, "H_R": k + 1, "H_J": k + 1, "H_H": 2}
    return {}


def observe(workload: Workload, outputs: dict) -> dict:
    """Reduce a pass's outputs to what its reference records.

    `outputs` maps "stdout", "report" and "csv" to file paths (absent when
    the workload writes no such file).
    """
    if workload.kind == "enumerate":
        text = Path(outputs["stdout"]).read_text(encoding="utf-8")
        return {
            "tables": len(table_blocks(text)),
            "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "records": [_short(b) for b in table_blocks(text)],
        }
    doc = json.loads(Path(outputs["report"]).read_text(encoding="utf-8"))
    digests = record_digests(doc)
    seen = {
        "inputs": doc["summary"]["input_count"],
        "violations": doc["summary"]["violation_count"],
        "claims": {
            k: [v["applicable"], v["held"]] for k, v in doc["summary"]["claims"].items()
        },
        "digest": combined_digest(digests),
        "records": digests,
    }
    if workload.kind == "census":
        with open(outputs["csv"], newline="", encoding="utf-8") as handle:
            seen["csv_rows"] = sum(1 for _ in csv.reader(handle))
    else:
        seen["heights"] = {
            r["input"]["provenance"]: {
                k: v for k, v in r["report"].items() if k.startswith("H_")
            }
            for r in doc["inputs"]
        }
    return seen


def check(workload: Workload, exit_code: int, outputs: dict, reference: dict):
    """Gate one pass: return (attempted, failed, problems).

    An input fails when the pass exits non-zero, when a whole-run total
    disagrees with the reference, or when its own record differs.
    """
    expected = reference["records"]
    attempted = len(expected)
    if exit_code != 0:
        return attempted, attempted, [f"exit code {exit_code}"]
    try:
        seen = observe(workload, outputs)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return attempted, attempted, [f"unreadable output: {exc!r}"]

    problems = []
    for key in ("inputs", "tables", "violations", "claims", "csv_rows", "digest"):
        if key in reference and seen.get(key) != reference[key]:
            problems.append(f"{key}: expected {reference[key]!r:.80}, got {seen.get(key)!r:.80}")
    for provenance, heights in seen.get("heights", {}).items():
        for key, value in closed_form_heights(provenance).items():
            if heights.get(key) != value:
                problems.append(f"{provenance}: {key} is {heights.get(key)}, closed form {value}")
    if workload.kind == "recipes" and seen.get("heights") != reference.get("heights"):
        problems.append("heights differ from the reference")

    got = seen["records"]
    bad = sum(
        1 for i, digest in enumerate(expected) if i >= len(got) or got[i] != digest
    )
    if len(got) != len(expected):
        problems.append(f"{len(got)} records, expected {len(expected)}")
    if problems and bad == 0:
        # a whole-run total is wrong though every record matches: no input
        # can be trusted
        bad = attempted
    return attempted, bad, problems

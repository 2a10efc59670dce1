"""Tests of the benchmark harness: BENCHMARK.json, the tracer, the
correctness gate and smoke runs of the whole command."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, Bench
from tracer import CLAIM_IDS, PER_LAYER, Tracer
from workloads import WORKLOADS, check, load_references

ROOT = Path(__file__).resolve().parents[1]
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert doc["per_layer"] == PER_LAYER
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert 1 <= len(doc["per_layer"]) <= 128


def test_claim_ids_match_the_registry():
    from greenheights.verify import CLAIM_IDS as registry

    assert CLAIM_IDS == registry


def test_tracer_records_nested_spans_and_restores_what_it_replaced():
    import greenheights.structure as structure
    import greenheights.verify as verify
    from greenheights.constructions import fixture

    before = (verify.k_height, structure.k_height, dict(verify._EVALUATORS))
    tracer = Tracer()
    tracer.install()
    try:
        assert verify.k_height is not before[0]
        verify.check_claims(fixture("fig1_u"))
    finally:
        tracer.uninstall()
    assert (verify.k_height, structure.k_height, verify._EVALUATORS) == before

    trace = tracer.aggregate()
    spans = trace["spans"]
    assert spans["verify.check_claims"]["calls"] == 1
    assert all(spans[f"verify.claim.{c}"]["calls"] == 1 for c in CLAIM_IDS)
    assert spans["green.k_height"]["calls"] > 0
    for agg in spans.values():
        assert -1e-9 <= agg["self_s"] <= agg["total_s"] + 1e-9
    # the claims run inside check_claims, so it covers their time
    claims = sum(spans[f"verify.claim.{c}"]["total_s"] for c in CLAIM_IDS)
    assert spans["verify.check_claims"]["total_s"] >= claims
    hits, misses = trace["caches"]["green.k_classes"]
    assert hits + misses == spans["green.k_classes"]["calls"]


def test_gate_counts_each_wrong_record(tmp_path):
    workload = WORKLOADS["census4"]
    reference = load_references()[workload.reference_key(smoke=True)]
    result = Bench(ROOT, tmp_path, smoke=True).run_pass(workload, trace=False)
    outputs = result["outputs"]
    assert result["exit"] == 0
    assert check(workload, 0, outputs, reference) == (113, 0, [])
    assert check(workload, 1, outputs, reference)[:2] == (113, 113)

    doc = json.loads(outputs["report"].read_text(encoding="utf-8"))
    doc["inputs"][5]["report"]["H_J"] += 1
    outputs["report"].write_text(json.dumps(doc), encoding="utf-8")
    attempted, failed, problems = check(workload, 0, outputs, reference)
    assert (attempted, failed) == (113, 1) and problems

    doc["inputs"][5]["report"]["H_J"] -= 1
    doc["summary"]["violation_count"] = 1
    outputs["report"].write_text(json.dumps(doc), encoding="utf-8")
    assert check(workload, 0, outputs, reference)[:2] == (113, 113)


def test_smoke_runs_report_every_metric(tmp_path):
    common = ["--smoke", "--seconds", "0.1", "--workdir", str(tmp_path)]
    done = subprocess.run(RUN + ["--workload", "constructions", "--trace", "0", *common],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    line = last_json_line(done.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    assert list(line["metrics"]) == [name for name, _ in END_TO_END]
    assert all(m["value"] > 0 for m in line["metrics"].values())

    done = subprocess.run(RUN + ["--workload", "enum5_iso", "--trace", "1", *common],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    line = last_json_line(done.stdout)
    assert line["correct"]
    assert list(line["metrics"]) == [m["name"] for m in PER_LAYER]
    assert line["metrics"]["enumeration.canonical_table.calls"]["value"] > 0
    assert (tmp_path / "traces" / "enum5_iso-smoke" / "spans.tsv.gz").is_file()


def test_refuses_to_run_outside_a_checkout(tmp_path):
    done = subprocess.run(RUN + ["--workload", "census4"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""

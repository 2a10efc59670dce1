import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from greenheights import analyze, fixture, format_mtab, parse_mtab, sweep
from greenheights.cli import main
from greenheights.errors import InternalCheckError, ParseError
from greenheights.verify import CLAIM_IDS, report_payload, summary_csv_rows
import greenheights.cli as cli_module
import greenheights.enumeration as enumeration_module
import greenheights.verify as verify_module

from helpers import INJECTED_FAULTS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_recipe_pipeline(capsys):
    code, out, _ = run(capsys, "analyze", "u-of:fig1_s")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "green-heights/1"
    assert (doc["H_L"], doc["H_R"], doc["H_J"]) == (3, 7, 7)


def test_analyze_trivial_table(capsys, tmp_path):
    path = tmp_path / "one.mtab"
    path.write_text("1\n0\n")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    doc = json.loads(out)
    assert all(doc[key] == 1 for key in ("H_L", "H_R", "H_J", "H_H", "H_E"))


def test_analyze_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(format_mtab(fixture("fig1_u"))))
    code, out, _ = run(capsys, "analyze", "-")
    assert code == 0
    doc = json.loads(out)
    assert (doc["H_L"], doc["H_R"], doc["H_J"]) == (3, 7, 7)


def test_output_flag_writes_a_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", "fixture:fig1_s", "-o", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["H_R"] == 3


def test_construct_then_parse_round_trip(capsys):
    code, out, _ = run(capsys, "construct", "nm:3,5")
    assert code == 0
    s = parse_mtab(out)
    direct = analyze(s)
    from greenheights import nm_family

    assert direct == analyze(nm_family(3, 5))


def test_construct_rees_recipe(capsys, tmp_path):
    table = format_mtab(fixture("fig1_u"))
    path = tmp_path / "u.mtab"
    path.write_text(table)
    code, out, _ = run(capsys, "construct", f"rees:{path},3")
    assert code == 0
    assert parse_mtab(out).order == 4


def test_enumerate_count_and_stream(capsys):
    code, out, _ = run(capsys, "enumerate", "--order", "2", "--count")
    assert code == 0 and out.strip() == "8"
    code, out, _ = run(capsys, "enumerate", "--order", "2", "--up-to-iso")
    assert code == 0
    from greenheights import parse_mtab_stream

    assert len(parse_mtab_stream(out)) == 5
    code, out, _ = run(capsys, "enumerate", "--order", "3", "--up-to-iso", "--fold-anti", "--count")
    assert code == 0 and out.strip() == "18"


def test_enumerate_limit(capsys):
    code, out, _ = run(capsys, "enumerate", "--order", "3", "--limit", "4", "--count")
    assert code == 0 and out.strip() == "4"


def test_verify_recipes_exit_zero(capsys, tmp_path):
    report = tmp_path / "report.json"
    csv_path = tmp_path / "rows.csv"
    triples = tmp_path / "triples.txt"
    code, out, _ = run(
        capsys,
        "verify",
        "fixture:fig2_u2",
        "sqfree:2",
        "--report",
        str(report),
        "--csv",
        str(csv_path),
        "--triples-log",
        str(triples),
    )
    assert code == 0
    assert "violations: 0" in out
    doc = json.loads(report.read_text())
    assert doc["schema"] == "green-heights/1"
    assert doc["summary"]["input_count"] == 2
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 25
    assert "3 3 4" in triples.read_text()


def test_verify_enumerate_order(capsys):
    code, out, _ = run(capsys, "verify", "--enumerate-order", "2")
    assert code == 0
    assert "inputs: 8" in out
    assert f"claim evaluations: {8 * 25}" in out


def test_verify_report_is_the_sweep_payload(capsys, tmp_path):
    from greenheights import EnumerationConfig, sweep
    from greenheights.verify import report_payload

    report = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--enumerate-order", "3", "--report", str(report))
    assert code == 0
    expected = json.dumps(report_payload(sweep(EnumerationConfig(order=3))), indent=2) + "\n"
    assert report.read_text(encoding="utf-8") == expected


def test_verify_without_inputs_is_usage_error(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert "nothing to verify" in err


def test_verify_exit_one_on_violation(capsys, monkeypatch):
    def always_fails(_):
        return False, ("forced failure",)

    monkeypatch.setitem(verify_module._EVALUATORS, "thm6.5", always_fails)
    code, out, _ = run(capsys, "verify", "fixture:fig1_s")
    assert code == 1
    assert "violations: 1" in out
    assert "thm6.5 on fixture:fig1_s" in out


@pytest.mark.parametrize("inject, claim_id", [fault[:2] for fault in INJECTED_FAULTS],
                         ids=[claim_id for _, claim_id, _ in INJECTED_FAULTS])
def test_a_fault_that_a_claim_states_is_a_violation_not_an_internal_error(
    capsys, monkeypatch, inject, claim_id
):
    inject(monkeypatch)
    code, out, err = run(capsys, "verify", "fixture:fig1_u")
    assert code == 1, err
    assert f"{claim_id} on fixture:fig1_u" in out


def test_internal_check_failure_exits_three(capsys, monkeypatch):
    def boom(_):
        raise InternalCheckError("induced for the exit-code test")

    monkeypatch.setattr(cli_module, "analyze", boom)
    code, _, err = run(capsys, "analyze", "fixture:fig1_s")
    assert code == 3
    assert "internal cross-check failure" in err


def test_unexpected_exception_exits_three_with_one_line(capsys, monkeypatch):
    def boom(_):
        raise RuntimeError("induced for the exit-code test")

    monkeypatch.setattr(cli_module, "analyze", boom)
    code, _, err = run(capsys, "analyze", "fixture:fig1_s")
    assert code == 3
    assert err == "internal error: RuntimeError: induced for the exit-code test\n"


def test_parse_errors_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.mtab"
    bad.write_text("2\n0 1\n0\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "row 1" in err

    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.mtab"))
    assert code == 2

    code, _, err = run(capsys, "construct", "nm:9,2")
    assert code == 2


def test_duplicate_names_and_false_hints_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.mtab"
    for last_line in ("names: a a", "identity: 0", "zero: 1"):
        bad.write_text(f"2\n0 0\n1 1\n{last_line}\n")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 2
        assert err.startswith("error: line 4: ")


def test_non_associative_input_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.mtab"
    bad.write_text("2\n1 0\n0 0\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "not associative" in err

    code, _, err = run(capsys, "verify", f"u-of:{bad}")
    assert code == 2
    assert "not associative" in err


def test_export_dot_single_relation_to_stdout(capsys):
    code, out, _ = run(capsys, "export-dot", "fixture:fig1_s", "--relation", "R")
    assert code == 0
    assert out.splitlines()[0] == 'digraph "green_R" {'
    code2, out2, _ = run(capsys, "export-dot", "fixture:fig1_s", "--relation", "R")
    assert out == out2  # stable across runs


def test_export_dot_all_relations_to_directory(capsys, tmp_path):
    out_dir = tmp_path / "dots"
    code, _, _ = run(capsys, "export-dot", "fixture:fig2_u2", "--out-dir", str(out_dir))
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "H.dot",
        "J.dot",
        "L.dot",
        "R.dot",
    ]


def test_export_dot_multiple_relations_need_out_dir(capsys, monkeypatch):
    def must_not_run(text):
        raise AssertionError("the input was loaded before the usage was checked")

    monkeypatch.setattr(cli_module, "load_input", must_not_run)
    code, _, err = run(
        capsys, "export-dot", "fixture:fig1_s", "--relation", "L", "--relation", "R"
    )
    assert code == 2
    assert "--out-dir" in err


def test_round_trip_construct_serialize_parse_analyze(capsys):
    for recipe in ("u-of:fig1_s", "sqfree:2", "asym:2", "op:fig1_s", "s1:fig1_s"):
        code, out, _ = run(capsys, "construct", recipe)
        assert code == 0
        round_tripped = analyze(parse_mtab(out))
        code, out2, _ = run(capsys, "analyze", recipe)
        direct = json.loads(out2)
        from dataclasses import asdict

        for key, value in asdict(round_tripped).items():
            assert direct[key] == value


def test_verify_names_the_input_it_cannot_load(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "badrow.mtab").write_text("2\n0 0\n0\n")  # the second row is short
    code, out, err = run(capsys, "verify", "fixture:fig1_s", "u-of:badrow.mtab")
    assert code == 2
    assert out == ""
    assert err == "error: u-of:badrow.mtab: line 3: row 1 has 1 entries, expected 2\n"
    with pytest.raises(ParseError) as info:
        sweep(["fixture:fig1_s", "u-of:badrow.mtab"])
    assert info.value.line == 3


def test_verify_and_sweep_give_the_same_record_for_an_mtab_path(capsys, tmp_path):
    path = tmp_path / "ok.mtab"
    path.write_text(format_mtab(fixture("fig1_u")))
    report = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", str(path), "--report", str(report))
    assert code == 0
    summary = sweep([str(path)])
    assert summary.records[0]["input"] == {"provenance": str(path), "order": 7}
    expected = json.dumps(report_payload(summary), indent=2) + "\n"
    assert report.read_text(encoding="utf-8") == expected


def test_verify_and_sweep_read_stdin(capsys, monkeypatch):
    text = format_mtab(fixture("fig1_u"))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    summary = sweep(["-"])
    assert summary.records[0]["input"] == {"provenance": "-", "order": 7}
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "verify", "-")
    assert code == 0
    assert "inputs: 1" in out and "violations: 0" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--order", "3", "--fold-anti"),
        ("verify", "--up-to-iso", "fixture:fig1_s"),
        ("verify", "--jobs", "-4", "fixture:fig1_s"),
        ("verify", "--jobs", "0", "--enumerate-order", "2"),
    ],
)
def test_flags_that_would_be_ignored_are_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, stdin, err",
    [
        (("verify", "rees:fig1_s,99"), "",
         "error: rees:fig1_s,99: ideal member 99 not in 0..2\n"),
        (("construct", "-"), "2\n0 1\n1 0\nnames: a b\nnames: c d\n",
         "error: line 5: a second names line\n"),
        (("analyze", "-"), "2\n0 1\n1 0\nidentity: 0\nidentity: 0\n",
         "error: line 5: a second identity line\n"),
        (("verify", "-"), "2\n0 0\n0 0\nzero: 0\nzero: 0\n",
         "error: -: line 5: a second zero line\n"),
    ],
    ids=["ideal-seed", "second-names", "second-identity", "second-zero"],
)
def test_bad_ideal_seeds_and_repeated_trailing_lines_exit_two(
    capsys, monkeypatch, argv, stdin, err
):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert run(capsys, *argv) == (2, "", err)


@pytest.mark.parametrize("flag", ["--report", "--csv", "--triples-log"])
def test_verify_checks_its_output_paths_before_the_sweep(
    capsys, tmp_path, monkeypatch, flag
):
    def must_not_run(config):
        raise AssertionError("the census ran before the output path was checked")

    monkeypatch.setattr(verify_module, "enumerate_semigroups", must_not_run)
    path = tmp_path / "missing" / "out"
    code, out, err = run(capsys, "verify", "--enumerate-order", "2", flag, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(path) in err
    assert not (tmp_path / "missing").exists()


def _drop_a_relabelling(monkeypatch):
    every = enumeration_module._relabellings(4)
    monkeypatch.setattr(enumeration_module, "_relabellings", lambda n: every[:-1])
    return "188 classes of order 4 have 3380 labeled copies, not 3492"


def _label_dependent_verdict(monkeypatch):
    monkeypatch.setitem(
        verify_module._EVALUATORS, "thm6.5",
        lambda c: (True, None) if c.s.table[0][0] == 0 else (False, ("relabelled",)),
    )
    return "evaluated on its own labels, this table differs from the record"


@pytest.mark.parametrize("fault", [_drop_a_relabelling, _label_dependent_verdict],
                         ids=["count", "stride"])
def test_a_wrong_labeled_census_exits_three(capsys, monkeypatch, fault):
    message = fault(monkeypatch)
    code, out, err = run(capsys, "verify", "--enumerate-order", "4")
    assert (code, out) == (3, "")
    assert err.startswith("internal cross-check failure: ") and message in err


def test_a_failed_verify_leaves_existing_outputs_unchanged(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.json").write_bytes(b"an earlier report\n")
    argv = ["verify", "fixture:fig1_s", "nonexist.mtab", "--report", "r.json", "--csv", "r.csv"]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "nonexist.mtab" in err
    assert (tmp_path / "r.json").read_bytes() == b"an earlier report\n"
    assert not (tmp_path / "r.csv").exists()


def test_warnings_print_as_one_line(capsys):
    code, out, err = run(capsys, "analyze", "asym:1")
    assert code == 0
    assert json.loads(out)["H_L"] == 1
    assert err == (
        "warning: asym_family(1) is degenerate (formulas give height 0); "
        "returning the trivial semigroup\n"
    )


@pytest.mark.parametrize(
    "argv, count", [((), "1915"), (("--fold-anti",), "1160")], ids=["iso", "fold-anti"]
)
def test_enumerate_counts_the_order_five_classes(capsys, argv, count):
    assert run(capsys, "enumerate", "--order", "5", "--up-to-iso", "--count", *argv) == (
        0, count + "\n", ""
    )


class _ClosedPipe(io.TextIOBase):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "argv",
    [("enumerate", "--order", "3"), ("analyze", "nonexistent.mtab")],
    ids=["output", "error-message"],
)
def test_a_closed_pipe_exits_two_in_process(monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    monkeypatch.setattr("sys.stderr", _ClosedPipe())
    assert main(list(argv)) == 2


_PIPE, _MERGED = subprocess.PIPE, subprocess.STDOUT


@pytest.mark.parametrize(
    "argv, lines_read, stderr",
    [
        (("enumerate", "--order", "4"), 1, _PIPE),
        (("enumerate", "--order", "4"), 1, _MERGED),
        (("enumerate", "--order", "2"), 0, _PIPE),
        (("enumerate", "--order", "2"), 0, _MERGED),
        (("analyze", "{missing}"), 0, _MERGED),
    ],
    ids=[
        "mid-stream-stdout",
        "mid-stream-stdout-and-stderr",
        "at-exit-stdout",
        "at-exit-stdout-and-stderr",
        "error-message",
    ],
)
def test_a_closed_pipe_exits_two_without_a_traceback(tmp_path, argv, lines_read, stderr):
    # buffered, as an installed script runs: a failed flush at shutdown
    # would add "Exception ignored" and exit 120
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    argv = [a.format(missing=tmp_path / "missing.mtab") for a in argv]
    command = [sys.executable, "-m", "greenheights.cli", *argv]
    with subprocess.Popen(command, stdout=_PIPE, stderr=stderr, env=env) as proc:
        for _ in range(lines_read):
            assert proc.stdout.readline() == b"4\n"
        proc.stdout.close()
        err = proc.stderr.read() if proc.stderr else b""
        assert proc.wait(timeout=60) == 2
    assert err == b""


def _expected_outputs(summary):
    """The report and CSV text of a summary, by the whole-summary forms."""
    rows = io.StringIO(newline="")
    csv.writer(rows).writerows(summary_csv_rows(summary))
    return json.dumps(report_payload(summary), indent=2) + "\n", rows.getvalue()


def _fail_with_chains(c):
    return False, (verify_module._chain(c.s, "L"), verify_module._chain(c.s, "R"))


def _fail_when_left_height_is_two(c):
    return (False, (verify_module._chain(c.s, "L"),)) if c.h["L"] == 2 else (True, None)


@pytest.mark.parametrize(
    "source, jobs, evaluator",
    [
        ("census", 1, None),
        ("census", 2, None),
        ("census4", 1, None),
        ("census4", 2, None),
        ("names", 1, _fail_with_chains),
        ("twice", 1, None),
        ("census", 1, _fail_when_left_height_is_two),
    ],
    ids=[
        "census-jobs1",
        "census-jobs2",
        "census4-jobs1",
        "census4-jobs2",
        "quotes-backslashes-non-ascii",
        "one-passing-input-twice-comma-quote-non-ascii",
        "violations",
    ],
)
def test_streamed_report_and_csv_equal_the_whole_summary_forms(
    capsys, tmp_path, monkeypatch, source, jobs, evaluator
):
    from greenheights import EnumerationConfig

    if evaluator is not None:
        monkeypatch.setitem(verify_module._EVALUATORS, "thm6.1", evaluator)
    if source.startswith("census"):
        order = 4 if source == "census4" else 3
        argv, inputs = ["--enumerate-order", str(order)], EnumerationConfig(order=order)
    elif source == "names":
        mtab = tmp_path / 'tab "é\\ł.mtab'
        mtab.write_text('3\n0 1 2\n2 2 2\n2 2 2\nnames: "e\\ ä\\"z ℤ"\n', encoding="utf-8")
        argv, inputs = [str(mtab)], [str(mtab)]
    else:
        # the body is first written under a plain provenance, then reused
        # twice under one that JSON escapes and CSV quotes
        plain, mtab = tmp_path / "tab.mtab", tmp_path / 'tab, "é".mtab'
        for path in (plain, mtab):
            path.write_text("3\n0 1 2\n2 2 2\n2 2 2\n", encoding="utf-8")
        argv = inputs = [str(plain), str(mtab), str(mtab)]
    report, rows = tmp_path / "r.json", tmp_path / "r.csv"
    code, _, _ = run(
        capsys, "verify", *argv, "--jobs", str(jobs), "--report", str(report), "--csv", str(rows)
    )
    summary = sweep(inputs)
    assert code == (1 if summary.violations else 0)
    if source == "twice":
        assert not summary.violations
    if evaluator is not None:
        assert summary.violations and any(
            c["witness"] for r in summary.records for c in r["claims"]
        )
    expected_report, expected_rows = _expected_outputs(summary)
    assert report.read_text(encoding="utf-8") == expected_report
    assert rows.read_bytes().decode("utf-8") == expected_rows


def _records_summary(records, kept=True):
    from greenheights.verify import SweepSummary

    return SweepSummary(len(records), {}, [], [], records if kept else [])


def _write_streamed(records, monkeypatch):
    """The report and CSV text of ``records`` by verify's streaming writers,
    and how many records the report writer and CSV rows the CSV writer
    encoded."""
    report_text, rows_text = io.StringIO(), io.StringIO(newline="")
    report, table = cli_module._StreamedReport(report_text), cli_module._StreamedCSV(rows_text)
    encoded = {"report": 0, "csv": 0}

    def counted(name, encode):
        def count(*args):
            encoded[name] += 1
            return encode(*args)

        return count

    report.encode = counted("report", report.encode)
    monkeypatch.setattr(cli_module, "_csv_line", counted("csv", cli_module._csv_line))
    for record in records:
        report.add(record)
        table.add(record)
    report.finish(_records_summary(records, kept=False))
    return (report_text.getvalue(), rows_text.getvalue()), encoded


def _hand_record(provenance, regular, holds, height):
    return {
        "input": {"provenance": provenance, "order": 2},
        "report": {"H_L": height, "regular": regular},
        "claims": [{"claim_id": "thm6.1", "applicable": True, "holds": holds, "witness": None}],
    }


@pytest.mark.parametrize(
    "first, second",
    [
        (_hand_record("a", True, True, 1), _hand_record("b", 1, 1, 1)),
        (_hand_record("a", 1, 1, 1), _hand_record("b", True, True, 1)),
        (_hand_record("a", True, True, 1), _hand_record("b", True, True, 1.0)),
        (_hand_record("a", True, True, 1.0), _hand_record("b", True, True, 1)),
    ],
    ids=["true-then-one", "one-then-true", "int-then-float", "float-then-int"],
)
def test_records_equal_under_eq_but_rendered_apart_are_written_apart(
    monkeypatch, first, second
):
    assert first["report"] == second["report"] and first["claims"] == second["claims"]
    records = [first, second, first, second]
    outputs, encoded = _write_streamed(records, monkeypatch)
    assert outputs == _expected_outputs(_records_summary(records))
    assert encoded == {"report": 2, "csv": 2}


def test_each_writer_encodes_each_shared_body_once_and_witness_records_in_full(monkeypatch):
    from greenheights import EnumerationConfig

    records = sweep(EnumerationConfig(order=3)).records
    bodies = {(id(r["report"]), id(r["claims"])) for r in records}
    assert len(bodies) == len({json.dumps([r["report"], r["claims"]]) for r in records})
    outputs, encoded = _write_streamed(records, monkeypatch)
    assert outputs == _expected_outputs(_records_summary(records))
    assert encoded == {"report": len(bodies), "csv": len(bodies) * len(CLAIM_IDS)}
    assert len(bodies) < len(records)

    monkeypatch.setitem(verify_module._EVALUATORS, "thm6.1", _fail_with_chains)
    records = sweep(EnumerationConfig(order=2)).records
    assert all(any(c["witness"] for c in r["claims"]) for r in records)
    outputs, encoded = _write_streamed(records, monkeypatch)
    assert outputs == _expected_outputs(_records_summary(records))
    assert encoded == {"report": len(records), "csv": len(records) * len(CLAIM_IDS)}


def test_a_closed_stdout_does_not_cost_the_finished_outputs(tmp_path, monkeypatch):
    from greenheights import EnumerationConfig

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    monkeypatch.setattr("sys.stderr", _ClosedPipe())
    argv = ["verify", "--enumerate-order", "3", "--report", "r.json", "--csv", "r.csv",
            "--triples-log", "t.txt"]
    assert main(argv) == 2
    summary = sweep(EnumerationConfig(order=3))
    expected_report, expected_rows = _expected_outputs(summary)
    assert (tmp_path / "r.json").read_text(encoding="utf-8") == expected_report
    assert (tmp_path / "r.csv").read_bytes().decode("utf-8") == expected_rows
    triples = "".join(" ".join(map(str, t)) + "\n" for t in summary.attained_triples)
    assert (tmp_path / "t.txt").read_text(encoding="utf-8") == triples


@pytest.mark.parametrize(
    "first, second",
    [("--report", "--csv"), ("--report", "--triples-log"), ("--csv", "--triples-log")],
)
def test_two_outputs_naming_one_file_are_rejected_before_the_sweep(
    capsys, tmp_path, monkeypatch, first, second
):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the sweep ran with two outputs on one file")

    monkeypatch.setattr(cli_module, "sweep", must_not_run)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    code, out, err = run(capsys, "verify", "fixture:fig1_s", first, "x", second, "d/../x")
    assert (code, out) == (2, "")
    assert err == f"error: {first} and {second} name the same file: d/../x\n"
    assert sorted(os.listdir(tmp_path)) == ["d"]


@pytest.mark.parametrize(
    "error, code", [(RuntimeError("induced"), 3), (KeyboardInterrupt(), None)],
    ids=["error", "interrupt"],
)
def test_a_sweep_stopped_midway_leaves_existing_outputs_unchanged(
    capsys, tmp_path, monkeypatch, error, code
):
    calls = []

    def fails_on_the_fifth_input(c):
        calls.append(c)
        if len(calls) == 5:
            raise error
        return True, None

    monkeypatch.setitem(verify_module._EVALUATORS, "thm6.5", fails_on_the_fifth_input)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.json").write_bytes(b"an earlier report\n")
    (tmp_path / "r.csv").write_bytes(b"earlier,rows\r\n")
    argv = ["verify", "--enumerate-order", "3", "--report", "r.json", "--csv", "r.csv",
            "--triples-log", "t.txt"]
    if code is None:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert run(capsys, *argv)[0] == code
    assert len(calls) == 5
    assert (tmp_path / "r.json").read_bytes() == b"an earlier report\n"
    assert (tmp_path / "r.csv").read_bytes() == b"earlier,rows\r\n"
    assert sorted(os.listdir(tmp_path)) == ["r.csv", "r.json"]


def test_outputs_get_the_permissions_a_plain_open_gives(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.csv").write_bytes(b"earlier\n")
    os.chmod(tmp_path / "r.csv", 0o604)
    umask = os.umask(0o022)
    try:
        code, _, _ = run(
            capsys, "verify", "fixture:fig1_s", "--report", "r.json", "--csv", "r.csv"
        )
    finally:
        os.umask(umask)
    assert code == 0
    assert (tmp_path / "r.json").stat().st_mode & 0o777 == 0o644  # new: 0o666 less the umask
    assert (tmp_path / "r.csv").stat().st_mode & 0o777 == 0o604  # existing: kept
    assert (tmp_path / "r.csv").read_bytes().startswith(b"provenance,")


def test_a_report_to_dev_stdout_is_printed_before_the_summary():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    command = [sys.executable, "-m", "greenheights.cli", "verify", "fixture:fig1_s",
               "--report", "/dev/stdout"]
    done = subprocess.run(command, stdout=subprocess.PIPE, env=env, timeout=60, check=True)
    report = json.dumps(report_payload(sweep(["fixture:fig1_s"])), indent=2) + "\n"
    assert done.stdout.decode("utf-8").startswith(report + "inputs: 1\n")


@pytest.mark.parametrize("option", ["--report", "--csv"])
def test_an_output_to_dev_stdout_redirected_to_a_file_keeps_the_summary(tmp_path, option):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    command = [sys.executable, "-m", "greenheights.cli", "verify", "fixture:fig1_s", option]
    alone = tmp_path / "alone"
    done = subprocess.run(command + [str(alone)], stdout=subprocess.PIPE, env=env,
                          timeout=60, check=True)
    out = tmp_path / "out.txt"
    with open(out, "wb") as stdout:
        subprocess.run(command + ["/dev/stdout"], stdout=stdout, env=env, timeout=60,
                       check=True)
    assert out.read_bytes() == alone.read_bytes() + done.stdout


@pytest.mark.parametrize("command", ["analyze", "construct"])
def test_a_bad_output_path_fails_before_the_input_is_loaded(
    capsys, tmp_path, monkeypatch, command
):
    def must_not_run(text):
        raise AssertionError("the input was loaded before the output path was checked")

    monkeypatch.setattr(cli_module, "load_input", must_not_run)
    path = tmp_path / "missing" / "out"
    code, out, err = run(capsys, command, "asym:3", "-o", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(path) in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "error, code", [(RuntimeError("induced"), 3), (KeyboardInterrupt(), None)],
    ids=["error", "interrupt"],
)
def test_a_failed_analyze_leaves_an_existing_output_unchanged(
    capsys, tmp_path, monkeypatch, error, code
):
    def fails(s):
        raise error

    monkeypatch.setattr(cli_module, "analyze", fails)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.json").write_bytes(b"an earlier analysis\n")
    argv = ["analyze", "asym:3", "-o", "a.json"]
    if code is None:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert run(capsys, *argv)[0] == code
    assert (tmp_path / "a.json").read_bytes() == b"an earlier analysis\n"
    assert os.listdir(tmp_path) == ["a.json"]


def test_analyze_can_replace_its_own_input(capsys, tmp_path):
    path = tmp_path / "t.mtab"
    path.write_text(format_mtab(fixture("fig1_u")))
    code, expected, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert run(capsys, "analyze", str(path), "-o", str(path)) == (0, "", "")
    assert path.read_text() == expected


@pytest.mark.parametrize("recipe", ["u-of:{}", "op:{}", "s1:{}", "rees:{},1"])
def test_a_recipe_source_reads_stdin(capsys, monkeypatch, recipe):
    code, expected, _ = run(capsys, "construct", recipe.format("fig1_s"))
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(format_mtab(fixture("fig1_s"))))
    assert run(capsys, "construct", recipe.format("-")) == (0, expected, "")


def test_a_missing_source_is_reported_as_a_missing_input(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "construct", "u-of:missing.mtab")
    assert (code, out) == (2, "")
    assert "missing.mtab" in err
    assert err == run(capsys, "construct", "missing.mtab")[2]


@pytest.mark.parametrize(
    "argv",
    [("analyze", ""), ("analyze", "u-of:"), ("analyze", "op:"), ("analyze", "s1:"),
     ("analyze", "prod:,fig1_s"), ("analyze", "prod:fig1_s,"), ("analyze", "rees:,0"),
     ("verify", ""), ("verify", "u-of:"), ("construct", "rees:")],
)
def test_an_empty_path_or_source_is_malformed_input(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # as a path, '' would name this directory
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Is a directory" not in err


@pytest.mark.parametrize(
    "argv",
    [("construct", "prod:-,-"), ("analyze", "prod:-,-"), ("verify", "-", "u-of:-"),
     ("verify", "rees:-,0", "s1:-")],
    ids=["construct", "analyze", "verify-input-and-recipe", "verify-two-recipes"],
)
def test_stdin_named_twice_fails_before_it_is_read(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    command = [sys.executable, "-m", "greenheights.cli", *argv]
    table = format_mtab(fixture("fig1_s")).encode("utf-8")
    done = subprocess.run(command, input=table, capture_output=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == b"error: stdin ('-') is named 2 times, but it can be read only once\n"

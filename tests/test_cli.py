import json

from greenheights import analyze, fixture, format_mtab, parse_mtab
from greenheights.cli import main
from greenheights.errors import InternalCheckError
import greenheights.cli as cli_module
import greenheights.verify as verify_module


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


def test_export_dot_multiple_relations_need_out_dir(capsys):
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

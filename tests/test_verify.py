import json
import multiprocessing

import pytest

from greenheights import (
    CLAIM_IDS,
    CLAIM_STATEMENTS,
    EnumerationConfig,
    Violation,
    analyze,
    build_semigroup,
    check_claims,
    fixture,
    parse_mtab,
    squarefree_words,
    sweep,
)
from greenheights.errors import InternalCheckError
from greenheights.verify import (
    SCHEMA,
    input_record,
    report_payload,
    summary_csv_rows,
)

import greenheights.verify as verify_module

from helpers import census


EXPECTED_CLAIM_IDS = (
    "lem2.1",
    "lem2.2",
    "lem3.4",
    "prop3.5.3",
    "prop4.1",
    "prop4.2",
    "prop4.3",
    "prop4.4",
    "prop5.2.1",
    "prop5.2.3",
    "star",
    "thm5.3.1",
    "thm5.3.2",
    "thm5.3.2-internal",
    "thm5.3.3",
    "lem5.5.2",
    "prop5.6",
    "thm6.1",
    "thm6.2",
    "thm6.5",
    "lem7.2",
    "prop7.1",
    "prop7.3",
    "prop7.5",
    "cor7.7",
)


def test_claim_registry_is_closed():
    assert CLAIM_IDS == EXPECTED_CLAIM_IDS
    assert set(CLAIM_STATEMENTS) == set(CLAIM_IDS)


def test_every_claim_is_reported_once_per_input():
    results = check_claims(fixture("fig1_s"))
    assert [r.claim_id for r in results] == list(CLAIM_IDS)


def test_analyze_fixture_reports():
    r1 = analyze(fixture("fig1_s"))
    assert (r1.H_L, r1.H_R, r1.H_J) == (2, 3, 3)
    r2 = analyze(fixture("fig1_u"))
    assert (r2.H_L, r2.H_R, r2.H_J, r2.H_H, r2.H_E) == (3, 7, 7, 3, 3)
    r3 = analyze(fixture("fig2_u2"))
    assert (r3.H_L, r3.H_R, r3.H_J, r3.H_H) == (3, 3, 4, 2)
    assert r3.left_stable and r3.right_stable and r3.group_bound
    assert not r3.regular and not r3.semisimple


def test_analyze_trivial_semigroup():
    report = analyze(build_semigroup([[0]]))
    assert (report.H_L, report.H_R, report.H_J, report.H_H, report.H_E) == (1,) * 5
    assert report.regular and report.inverse and report.completely_simple
    assert report.has_zero


def test_analyze_is_deterministic():
    s = fixture("fig2_u2")
    assert analyze(s) == analyze(s)


def test_claims_hold_on_the_figures_and_words():
    for s in (fixture("fig1_s"), fixture("fig1_u"), fixture("fig2_u2"),
              squarefree_words(2), squarefree_words(3)):
        for result in check_claims(s):
            assert result.holds, (s, result)
            assert result.witness is None


def test_u2_attains_the_two_sided_bound_with_equality():
    u2 = fixture("fig2_u2")
    report = analyze(u2)
    assert report.H_J == report.H_L + report.H_R - 2
    bound_claim = next(r for r in check_claims(u2) if r.claim_id == "thm6.5")
    assert bound_claim.applicable and bound_claim.holds


def test_inapplicable_claims_are_marked():
    g = build_semigroup([[0]])  # trivial: side heights 1
    results = {r.claim_id: r for r in check_claims(g)}
    assert not results["prop4.3"].applicable
    assert not results["thm6.5"].applicable
    assert not results["thm5.3.1"].applicable  # equality needs a nonzero element
    assert results["prop5.6"].applicable  # the extension law does hold here


def test_claims_applicability_domains():
    s = squarefree_words(2)  # not regular, not semisimple, has zero, H_L = 3
    results = {r.claim_id: r for r in check_claims(s)}
    assert not results["prop7.1"].applicable
    assert not results["prop7.3"].applicable
    assert not results["prop7.5"].applicable
    assert not results["cor7.7"].applicable
    assert results["thm5.3.1"].applicable
    assert not results["prop4.4"].applicable


def test_reanalysis_of_serialised_tables_is_identical():
    from greenheights import format_mtab

    for s in (fixture("fig2_u2"), squarefree_words(2)):
        again = parse_mtab(format_mtab(s))
        assert check_claims(again) == check_claims(s)
        assert analyze(again) == analyze(s)


def test_sweep_over_the_order_two_census():
    summary = sweep(EnumerationConfig(order=2))
    assert summary.inputs == 8
    assert summary.total_evaluations == 8 * len(CLAIM_IDS)
    assert summary.violations == []
    for claim_id, (applicable, held) in summary.claim_stats.items():
        assert held == applicable, claim_id


def test_sweep_over_recipes_records_attained_triples():
    summary = sweep(["asym:2", "nm:3,7", "sqfree:2"])
    assert summary.inputs == 3
    assert summary.violations == []
    assert (3, 3, 4) in summary.attained_triples
    assert (3, 7, 7) in summary.attained_triples
    assert (3, 3, 3) in summary.attained_triples


def test_sweep_parallel_matches_sequential():
    source = EnumerationConfig(order=3, up_to_isomorphism=True)
    sequential = sweep(source)
    parallel = sweep(EnumerationConfig(order=3, up_to_isomorphism=True), jobs=2)
    assert sequential.claim_stats == parallel.claim_stats
    assert sequential.records == parallel.records


def test_sweep_workers_accept_names_that_differ_only_in_whitespace():
    # mtab text maps whitespace in names to "_", so these two names would collide
    s = build_semigroup([[0, 0], [0, 0]], names=["a b", "a_b"])
    sequential = sweep([("spaced", s)], jobs=1)
    parallel = sweep([("spaced", s)], jobs=2)
    assert parallel.records == sequential.records
    assert parallel.claim_stats == sequential.claim_stats
    assert parallel.violations == sequential.violations == []


def test_sweep_propagates_construction_errors_with_provenance():
    with pytest.raises(Exception) as info:
        sweep(["nm:2,9"])
    assert "nm:2,9" in str(info.value)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers must inherit the patched evaluator",
)
@pytest.mark.parametrize(
    "error, message",
    [
        (RuntimeError("induced"), "fixture:fig1_s: induced"),
        (InternalCheckError("induced"), "induced"),
    ],
)
def test_sweep_errors_are_the_same_with_and_without_workers(monkeypatch, error, message):
    def boom(_):
        raise error

    monkeypatch.setitem(verify_module._EVALUATORS, "thm6.5", boom)
    for jobs in (1, 2):
        with pytest.raises(type(error)) as info:
            sweep(["fixture:fig1_s", "fixture:fig1_u"], jobs=jobs)
        assert type(info.value) is type(error)
        assert str(info.value) == message


def test_violation_reproducibility_round_trip():
    # a Violation carries an mtab payload that reproduces the same results
    s = fixture("fig2_u2")
    from greenheights import format_mtab

    violation = Violation("thm6.5", format_mtab(s), "unit-test")
    replay = parse_mtab(violation.semigroup)
    original = {r.claim_id: r for r in check_claims(s)}
    replayed = {r.claim_id: r for r in check_claims(replay)}
    assert replayed[violation.claim_id] == original[violation.claim_id]


def test_report_payload_schema_and_rows():
    summary = sweep(["fixture:fig1_s", "fixture:fig2_u2"])
    payload = report_payload(summary)
    assert payload["schema"] == SCHEMA
    assert payload["summary"]["input_count"] == 2
    assert payload["summary"]["violation_count"] == 0
    assert len(payload["inputs"]) == 2
    record = payload["inputs"][0]
    assert record["input"]["provenance"] == "fixture:fig1_s"
    assert record["input"]["order"] == 3
    assert set(record["report"]) >= {"H_L", "H_R", "H_J", "H_H", "H_E", "has_zero"}
    json.dumps(payload)  # JSON-serialisable end to end

    rows = list(summary_csv_rows(summary))
    assert rows[0] == ("provenance", "order", "claim_id", "applicable", "holds")
    assert len(rows) == 1 + 2 * len(CLAIM_IDS)


def test_input_record_shape():
    s = fixture("fig1_s")
    record = input_record("here", s, analyze(s), check_claims(s))
    assert record["input"] == {"provenance": "here", "order": 3}
    assert len(record["claims"]) == len(CLAIM_IDS)


def test_claims_hold_across_the_order_three_census():
    for s in census(3):
        for result in check_claims(s):
            assert not result.applicable or result.holds


def test_failed_inequality_claims_produce_chain_witnesses():
    # no real input can falsify these claims, so drive the failure branches
    # by faking the cached heights on a context
    from greenheights.verify import _Context, _EVALUATORS

    context = _Context(fixture("fig2_u2"))
    context.h = dict(context.h)
    context.h["J"] = 99
    for claim_id in ("thm6.2", "thm6.5", "prop5.2.3"):
        outcome = _EVALUATORS[claim_id](context)
        assert outcome is not None
        holds, witness = outcome
        assert not holds
        assert witness and all(isinstance(w, str) and w for w in witness)

    context = _Context(fixture("fig2_u2"))
    context.h = dict(context.h)
    context.h["H"] = 99
    holds, witness = _EVALUATORS["prop3.5.3"](context)
    assert not holds and witness

    context = _Context(fixture("fig2_u2"))
    context.h_e = 99
    holds, witness = _EVALUATORS["lem7.2"](context)
    assert not holds and witness


def test_witness_chain_rendering_uses_element_names():
    from greenheights.verify import _chain

    assert _chain(fixture("fig1_s"), "R") == "R: e > a > z"

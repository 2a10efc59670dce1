import concurrent.futures
import dataclasses
import json
import multiprocessing
import os
import pickle

import pytest

from greenheights import (
    CLAIM_IDS,
    CLAIM_STATEMENTS,
    ClaimResult,
    EnumerationConfig,
    Violation,
    analyze,
    build_semigroup,
    check_claims,
    fixture,
    is_completely_simple,
    is_group_bound,
    k_classes,
    minimal_ideal,
    parse_mtab,
    squarefree_words,
    sweep,
    u_of,
)
from greenheights.errors import (
    AssociativityError,
    InternalCheckError,
    ParseError,
    RangeError,
    SemigroupError,
)
from greenheights.recipes import build_from_string
from greenheights.structure import minimal_class_union
from greenheights.verify import (
    SCHEMA,
    _Context,
    input_record,
    report_payload,
    summary_csv_rows,
)

import greenheights.verify as verify_module

from helpers import (
    INJECTED_FAULTS,
    census,
    differential_inputs,
    naive_ideal_family,
    naive_lem34,
)


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


@pytest.mark.parametrize("relation", ["L", "R", "J", "H"])
def test_analyze_cross_checks_each_height_against_the_chain_oracle(monkeypatch, relation):
    oracle = verify_module.longest_chain_oracle

    def off_by_one_on_relation(s, rel):
        return oracle(s, rel) + (rel == relation)

    monkeypatch.setattr(verify_module, "longest_chain_oracle", off_by_one_on_relation)
    with pytest.raises(InternalCheckError, match=f"relation {relation}$"):
        analyze(fixture("fig2_u2"))


@pytest.mark.parametrize("rows", [[[0, 1], [1, 0]], [[0, 1, 2], [2, 2, 2], [2, 2, 2]]],
                         ids=["regular", "not-regular"])
def test_analyze_cross_checks_semisimplicity_against_regularity(monkeypatch, rows):
    s = build_semigroup(rows)
    report = analyze(s)
    assert report.regular == report.semisimple == report.completely_semisimple
    assert report.regular == (rows[0] == [0, 1])
    semisimple = verify_module.is_semisimple
    monkeypatch.setattr(verify_module, "is_semisimple", lambda s: not semisimple(s))
    with pytest.raises(InternalCheckError, match="regularity and semisimplicity disagree"):
        analyze(s)


def test_analyze_is_deterministic():
    s = fixture("fig2_u2")
    assert analyze(s) == analyze(s)


def test_claims_hold_on_the_figures_and_words():
    for s in (fixture("fig1_s"), fixture("fig1_u"), fixture("fig2_u2"),
              squarefree_words(2), squarefree_words(3)):
        for result in check_claims(s):
            assert result.holds, (s, result)
            assert result.witness is None


def test_lem552_names_the_first_differing_cell_in_row_major_order(monkeypatch):
    s = fixture("fig1_s")  # e, a, z with zero z, so the quotient keeps e, a, z in order
    u = u_of(s)
    real = verify_module.rees_quotient

    def tampered(parent, ideal):
        q = real(parent, ideal)
        if parent != u:
            return q
        rows = [list(row) for row in q.table]
        for a, b in ((1, 0), (0, 2)):  # the later row first, so row order decides
            rows[a][b] = (rows[a][b] + 1) % q.order
        return dataclasses.replace(q, table=tuple(map(tuple, rows)))

    monkeypatch.setattr(verify_module, "rees_quotient", tampered)
    result = next(r for r in check_claims(s) if r.claim_id == "lem5.5.2")
    assert result.applicable and not result.holds
    assert result.witness == ("quotient disagrees at (e,z)",)


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
    # by faking the heights of the report a context reads
    from greenheights.verify import _Context, _EVALUATORS

    u2 = fixture("fig2_u2")
    report = analyze(u2)
    context = _Context(u2, dataclasses.replace(report, H_J=99))
    for claim_id in ("thm6.2", "thm6.5", "prop5.2.3"):
        outcome = _EVALUATORS[claim_id](context)
        assert outcome is not None
        holds, witness = outcome
        assert not holds
        assert witness and all(isinstance(w, str) and w for w in witness)

    context = _Context(u2, dataclasses.replace(report, H_H=99))
    holds, witness = _EVALUATORS["prop3.5.3"](context)
    assert not holds and witness

    context = _Context(u2, dataclasses.replace(report, H_E=99))
    holds, witness = _EVALUATORS["lem7.2"](context)
    assert not holds and witness


# Each case forces one claim on the socle quotient, U(S) or the idempotents to
# fail, by one report height set to 99 (None: the R-height within the left
# socle is faked instead), and pins its whole outcome. On fig2_u2 the R-chains
# of S and of its socle quotient render alike, so fig1_u tells them apart.
FORCED_FAILURE_CASES = [
    ("fixture:fig2_u2", "thm5.3.1", "H_L",
     ("left socle {b,d,0}", "L: a > b > 0", "L: a > 0")),
    ("fixture:fig2_u2", "thm5.3.2", "H_R", ("R: a > c > 0", "R: a > c > 0")),
    ("fixture:fig2_u2", "thm5.3.2-internal", None, ("left socle {b,d,0}", "R: a > c > 0")),
    ("fixture:fig2_u2", "thm5.3.3", "H_J",
     ("J: a > b > d > 0", "R: a > c > 0", "J: a > c > 0")),
    ("fixture:fig2_u2", "prop5.6", "H_L",
     ("L: a > b > 0 > x_0", "R: a > c > 0 > x_1 > x_a > x_c > x_0")),
    ("fixture:fig2_u2", "lem7.2", "H_E", ("idempotents {a,0}",)),
    ("fixture:fig1_u", "thm5.3.1", "H_L",
     ("left socle {z,x_1,x_e,x_a,x_z}", "L: e > z > x_z", "L: e > 0")),
    ("fixture:fig1_u", "thm5.3.2", "H_R",
     ("R: e > a > z > x_1 > x_e > x_a > x_z", "R: e > a > 0")),
    ("fixture:fig1_u", "thm5.3.2-internal", None,
     ("left socle {z,x_1,x_e,x_a,x_z}", "R: e > a > z > x_1 > x_e > x_a > x_z")),
    ("fixture:fig1_u", "thm5.3.3", "H_J",
     ("J: e > a > z > x_1 > x_e > x_a > x_z", "R: e > a > 0", "J: e > a > 0")),
    ("fixture:fig1_u", "prop5.6", "H_L",
     ("L: e > z > x_z > x_x_z",
      "R: e > a > z > x_1 > x_e > x_a > x_z > x_1' > x_e' > x_a' > x_z'"
      " > x_x_1 > x_x_e > x_x_a > x_x_z")),
    ("fixture:fig1_u", "lem7.2", "H_E", ("idempotents {e,z,x_z}",)),
]


@pytest.mark.parametrize(
    "source, claim_id, field, witness",
    FORCED_FAILURE_CASES,
    ids=[f"{source.split(':')[1]}-{claim_id}" for source, claim_id, _, _ in FORCED_FAILURE_CASES],
)
def test_forced_failures_of_socle_extension_and_idempotent_claims_name_their_witness(
    monkeypatch, source, claim_id, field, witness
):
    s = build_from_string(source)
    report = analyze(s)
    if field is None:
        monkeypatch.setattr(verify_module, "height_within_ideal", lambda *args: 99)
    else:
        report = dataclasses.replace(report, **{field: 99})
    outcome = verify_module._EVALUATORS[claim_id](_Context(s, report))
    assert outcome == (False, witness)


# Each case forces one claim on the minimal ideal or the Rees quotients to fail
# and pins its whole outcome: a report height is set to the given value, or,
# where a relation is named instead, element 0 (a top element of both fixtures)
# joins the union of that relation's minimal classes. On fig2_u2 the chains of
# S and of its quotients render alike, so fig1_u tells them apart.
SCAN_FAILURE_CASES = [
    ("fixture:fig2_u2", "lem2.1", "R", ("minimal L-union {0}", "minimal R-union {a,0}")),
    ("fixture:fig2_u2", "lem2.2", "H", ("minimal H-union {a,0}", "minimal ideal {0}")),
    ("fixture:fig2_u2", "prop5.2.1", {"H_L": 1}, ("ideal {0}", "L: a > b > 0")),
    ("fixture:fig2_u2", "prop5.2.3", {"H_J": 99},
     ("minimal ideal {0}", "J: a > b > d > 0", "J: a > b > d > 0")),
    ("fixture:fig2_u2", "star", {"H_J": 99}, ("ideal {0}", "J: a > b > d > 0")),
    ("fixture:fig1_u", "lem2.1", "R", ("minimal L-union {x_z}", "minimal R-union {e,x_z}")),
    ("fixture:fig1_u", "lem2.2", "H", ("minimal H-union {e,x_z}", "minimal ideal {x_z}")),
    ("fixture:fig1_u", "prop5.2.1", {"H_L": 1}, ("ideal {x_z}", "L: e > z > 0")),
    ("fixture:fig1_u", "prop5.2.3", {"H_J": 99},
     ("minimal ideal {x_z}", "J: e > a > z > x_1 > x_e > x_a > x_z",
      "J: e > a > z > x_1 > x_e > x_a > 0")),
    ("fixture:fig1_u", "star", {"H_J": 99},
     ("ideal {x_z}", "J: e > a > z > x_1 > x_e > x_a > x_z")),
]


@pytest.mark.parametrize(
    "source, claim_id, force, witness",
    SCAN_FAILURE_CASES,
    ids=[f"{source.split(':')[1]}-{claim_id}" for source, claim_id, _, _ in SCAN_FAILURE_CASES],
)
def test_forced_failures_of_minimal_ideal_and_quotient_claims_name_their_witness(
    monkeypatch, source, claim_id, force, witness
):
    s = build_from_string(source)
    report = analyze(s)
    if isinstance(force, str):
        union = verify_module.minimal_class_union
        monkeypatch.setattr(
            verify_module,
            "minimal_class_union",
            lambda t, rel: union(t, rel) | {0} if rel == force else union(t, rel),
        )
    else:
        report = dataclasses.replace(report, **force)
    outcome = verify_module._EVALUATORS[claim_id](_Context(s, report))
    assert outcome == (False, witness)


@pytest.mark.parametrize("inject, claim_id, witness", INJECTED_FAULTS,
                         ids=[claim_id for _, claim_id, _ in INJECTED_FAULTS])
def test_a_fault_below_the_claims_is_reported_by_the_claim_that_states_it(
    monkeypatch, inject, claim_id, witness
):
    inject(monkeypatch)
    results = {r.claim_id: r for r in check_claims(fixture("fig1_u"))}
    assert results[claim_id] == ClaimResult(claim_id, True, False, witness)


def small_and_named_inputs():
    """Every table of order at most 4, then four named constructions."""
    named = [build_from_string(r) for r in ("sqfree:4", "asym:3", "nm:4,11", "fixture:fig1_u")]
    return [s for order in range(1, 5) for s in census(order)] + named


def test_analyze_flags_and_the_minimal_ideal_agree_with_the_public_predicates():
    # analyze and minimal_ideal leave these facts, true on every finite
    # semigroup, unchecked at run time, so the suite holds them instead
    for s in small_and_named_inputs():
        report = analyze(s)
        assert report.group_bound == is_group_bound(s), s
        assert report.completely_simple == is_completely_simple(s), s
        minimal = minimal_ideal(s).members
        assert minimal == minimal_class_union(s, "L") == minimal_class_union(s, "R"), s


def test_lem34_fails_exactly_where_the_power_walk_does():
    # no input falsifies lem3.4, so lower H_H to every value up to the true one
    failing = 0
    for s in small_and_named_inputs():
        report = analyze(s)
        for n in range(1, report.H_H + 1):
            context = _Context(s, dataclasses.replace(report, H_H=n))
            want = naive_lem34(s, n)
            assert verify_module._EVALUATORS["lem3.4"](context) == want, (s, n)
            failing += not want[0]
    assert failing > 1000


# Each case forces the heights (L, R, J, H, E) and some flags on a real
# report, reads it through a context, then expects None (the claim does not
# apply), True (it holds) or the relations whose longest chains make up the
# witness, in that order.
HEIGHTS_AND_FLAGS_CASES = {
    "prop3.5.3": [
        ((2, 3, 3, 2, 1), {}, True),
        ((2, 3, 3, 3, 1), {}, "LRJH"),
        ((2, 3, 2, 1, 1), {}, "LRJH"),
    ],
    "prop4.1": [
        ((1, 1, 1, 1, 1), {}, True),
        ((2, 2, 2, 1, 1), {}, True),
        ((1, 2, 2, 1, 1), {}, "LRJ"),
        ((2, 1, 2, 1, 1), {}, "LRJ"),
        ((1, 1, 1, 1, 1), {"left_stable": False}, "LRJ"),
        ((1, 1, 1, 1, 1), {"right_stable": False}, "LRJ"),
    ],
    "prop4.2": [
        ((1, 1, 1, 1, 1), {}, True),
        ((2, 3, 3, 2, 1), {}, True),
        ((1, 2, 2, 2, 1), {}, "LRJH"),
        ((2, 2, 2, 1, 1), {}, "LRJH"),
    ],
    "prop4.3": [
        ((3, 3, 9, 1, 1), {}, None),
        ((2, 3, 2, 1, 1), {}, True),
        ((3, 2, 3, 1, 1), {}, True),
        ((2, 3, 4, 1, 1), {}, "J"),
        ((3, 2, 1, 1, 1), {}, "J"),
    ],
    "prop4.4": [
        ((3, 3, 9, 1, 1), {}, None),
        ((2, 3, 3, 2, 1), {}, True),
        ((2, 2, 2, 2, 1), {}, True),
        ((2, 3, 3, 1, 1), {}, "HRJ"),
        ((2, 2, 3, 2, 1), {}, "HRJ"),
        ((2, 4, 4, 2, 1), {}, "HRJ"),
    ],
    "thm6.1": [
        ((2, 2, 1, 1, 1), {}, True),
        ((2, 3, 1, 1, 1), {}, True),
        ((3, 2, 1, 1, 1), {}, True),
        ((3, 7, 1, 1, 1), {}, True),
        ((2, 1, 1, 1, 1), {}, "LR"),
        ((2, 4, 1, 1, 1), {}, "LR"),
        ((4, 2, 1, 1, 1), {}, "LR"),
    ],
    "thm6.2": [
        ((2, 1, 2, 1, 1), {}, True),
        ((2, 1, 3, 1, 1), {}, True),
        ((2, 1, 1, 1, 1), {}, "LJ"),
        ((2, 1, 4, 1, 1), {}, "LJ"),
    ],
    "thm6.5": [
        ((1, 3, 9, 1, 1), {}, None),
        ((3, 1, 9, 1, 1), {}, None),
        ((2, 3, 3, 1, 1), {}, True),
        ((3, 3, 4, 1, 1), {}, True),
        ((2, 2, 2, 1, 1), {}, True),
        ((2, 3, 2, 1, 1), {}, "LRJ"),
        ((2, 3, 4, 1, 1), {}, "LRJ"),
        ((3, 3, 5, 1, 1), {}, "LRJ"),
        ((2, 2, 3, 1, 1), {}, "LRJ"),
    ],
    "prop7.1": [
        ((2, 3, 9, 1, 1), {"semisimple": False}, None),
        ((2, 3, 2, 1, 1), {"semisimple": True}, True),
        ((2, 3, 3, 1, 1), {"semisimple": True}, "J"),
    ],
    "prop7.3": [
        ((2, 3, 9, 1, 1), {"regular": False}, None),
        ((2, 2, 2, 2, 2), {"regular": True}, True),
        ((2, 2, 1, 2, 2), {"regular": True}, True),
        ((2, 2, 3, 2, 2), {"regular": True}, "LRJH"),
        ((2, 2, 2, 2, 1), {"regular": True}, "LRJH"),
    ],
    "prop7.5": [
        ((2, 3, 9, 1, 1), {"regular": False}, None),
        ((2, 3, 9, 1, 1), {"regular": True, "left_stable": False}, None),
        ((2, 3, 9, 1, 1), {"regular": True, "right_stable": False}, None),
        ((2, 2, 2, 2, 2), {"regular": True}, True),
        ((2, 2, 1, 2, 2), {"regular": True}, "LRJH"),
    ],
    "cor7.7": [
        ((2, 3, 9, 1, 1), {"regular": False}, None),
        ((2, 2, 2, 2, 2), {"regular": True}, True),
        ((2, 2, 1, 2, 2), {"regular": True, "left_stable": False}, True),
        ((2, 2, 1, 2, 2), {"regular": True}, "LRJH"),
        ((2, 2, 2, 2, 2), {"regular": True, "right_stable": False}, "LRJH"),
    ],
}


@pytest.mark.parametrize("claim_id", sorted(HEIGHTS_AND_FLAGS_CASES))
def test_claims_on_heights_and_flags_apply_hold_and_witness_as_stated(claim_id):
    from greenheights.verify import _chain, _EVALUATORS

    u2 = fixture("fig2_u2")
    report = analyze(u2)
    for (h_l, h_r, h_j, h_h, h_e), flags, expected in HEIGHTS_AND_FLAGS_CASES[claim_id]:
        forced = dataclasses.replace(
            report, H_L=h_l, H_R=h_r, H_J=h_j, H_H=h_h, H_E=h_e, **flags
        )
        context = _Context(u2, forced)
        if expected is None:
            want = None
        elif expected is True:
            want = (True, None)
        else:
            want = (False, tuple(_chain(u2, rel) for rel in expected))
        assert _EVALUATORS[claim_id](context) == want, (h_l, h_r, h_j, h_h, h_e, flags)


def test_witness_chain_rendering_uses_element_names():
    from greenheights.verify import _chain

    assert _chain(fixture("fig1_s"), "R") == "R: e > a > z"


def test_sweep_records_equal_analyze_and_check_claims_on_the_order_three_census():
    tables = census(3)
    summary = sweep([(f"t{i}", s) for i, s in enumerate(tables)])
    for s, record in zip(tables, summary.records):
        assert record["report"] == dataclasses.asdict(analyze(s))
        assert record["claims"] == [dataclasses.asdict(c) for c in check_claims(s)]


@pytest.mark.parametrize("check", ["is_left_stable", "is_right_stable"])
def test_analyze_refuses_a_semigroup_that_fails_stability(monkeypatch, capsys, check):
    from greenheights import cli

    monkeypatch.setattr(verify_module, check, lambda s: False)
    with pytest.raises(InternalCheckError, match="stability"):
        analyze(fixture("fig2_u2"))
    assert cli.main(["analyze", "fixture:fig2_u2"]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert [line.startswith("internal cross-check failure:") for line in lines] == [True]


def test_associativity_error_survives_pickling():
    error = AssociativityError((0, 1, 0))
    again = pickle.loads(pickle.dumps(error))
    assert type(again) is AssociativityError
    assert again.witness == (0, 1, 0)
    assert str(again) == str(error)


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_keeps_the_associativity_error_of_a_recipe_source(tmp_path, jobs):
    bad = tmp_path / "bad.mtab"
    bad.write_text("2\n0 0\n1 0\n")  # (1*0)*1 = 0 but 1*(0*1) = 1
    recipe = f"u-of:{bad}"
    with pytest.raises(AssociativityError) as info:
        sweep([recipe], jobs=jobs)
    assert info.value.witness == (1, 0, 1)
    assert str(info.value).startswith(f"{recipe}: not associative: ")
    again = pickle.loads(pickle.dumps(info.value))
    assert (type(again), again.witness, str(again)) == (
        AssociativityError, info.value.witness, str(info.value)
    )


def test_sweep_of_a_mixed_source_is_the_same_with_and_without_workers():
    s = fixture("fig1_s")
    source = [EnumerationConfig(order=2), "asym:2", ("pair", s)]
    sequential = sweep(source, jobs=1)
    parallel = sweep(source, jobs=2)
    provenances = [r["input"]["provenance"] for r in sequential.records]
    assert provenances == [f"enum:order=2:index={i}" for i in range(8)] + ["asym:2", "pair"]
    assert [r["input"]["provenance"] for r in parallel.records] == provenances
    assert parallel.records == sequential.records
    assert parallel.claim_stats == sequential.claim_stats
    assert sequential.records[-1] == input_record("pair", s, analyze(s), check_claims(s))


def test_parse_error_keeps_its_line_through_pickling():
    again = pickle.loads(pickle.dumps(ParseError("m", line=3)))
    assert again.line == 3
    assert str(again) == "line 3: m"


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_keeps_the_line_of_a_parse_error(tmp_path, monkeypatch, jobs):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "badrow.mtab").write_text("2\n0 0\n0\n")  # the second row is short
    recipe = "u-of:badrow.mtab"
    with pytest.raises(ParseError) as direct:
        build_from_string(recipe)
    assert direct.value.line == 3
    with pytest.raises(ParseError) as info:
        sweep([recipe], jobs=jobs)
    assert info.value.line == 3
    assert str(info.value) == f"{recipe}: {direct.value}"


def test_provenance_reaches_the_message_of_every_error_type():
    from greenheights.verify import _with_provenance

    class TwoArguments(Exception):
        def __init__(self, first, second):
            super().__init__(f"{first} {second}")

    # OSError formats its message from errno and strerror, not from args
    renamed = _with_provenance(FileNotFoundError(2, "No such file", "x.mtab"), "here")
    assert type(renamed) is FileNotFoundError
    assert str(renamed) == "here: [Errno 2] No such file: 'x.mtab'"
    # a type that cannot be rebuilt from its args falls back to SemigroupError
    renamed = _with_provenance(TwoArguments("a", "b"), "here")
    assert type(renamed) is SemigroupError
    assert str(renamed) == "here: a b"


def test_sweep_rejects_fewer_than_one_job():
    with pytest.raises(RangeError):
        sweep(["fixture:fig1_s"], jobs=0)


def test_each_context_builds_its_ideal_family_socle_and_extension_once(monkeypatch):
    s = fixture("fig1_u")  # has a zero, and few enough elements for principal ideals
    # verify builds one Ideal per principal ideal, that is per J-class
    calls = {"Ideal": 0, "left_socle": 0, "u_of": 0}

    def counted(name):
        real = getattr(verify_module, name)

        def wrapper(t, *args):
            if t is s:
                calls[name] += 1
            return real(t, *args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(verify_module, name, counted(name))
    check_claims(s)
    j_count = k_classes(s, "J").class_count
    assert calls == {"Ideal": j_count, "left_socle": 1, "u_of": 1}


def test_ideal_family_matches_the_per_element_closure_oracle():
    for s in differential_inputs():
        family = _Context(s, analyze(s)).ideal_family
        assert [ideal.members for ideal in family] == naive_ideal_family(s)


def test_sweep_loads_every_input_string_before_enumerating(monkeypatch, tmp_path):
    def refuse(config):
        raise AssertionError("enumerated before the inputs were loaded")

    monkeypatch.setattr(verify_module, "enumerate_semigroups", refuse)
    missing = str(tmp_path / "nonexist.mtab")
    with pytest.raises(FileNotFoundError) as info:
        sweep([EnumerationConfig(order=4), missing])
    assert str(info.value).startswith(f"{missing}: ")


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_hands_each_record_to_on_record_and_keeps_none(jobs):
    source = [EnumerationConfig(order=3), "asym:2", ("pair", fixture("fig1_s"))]
    kept = sweep(source, jobs=jobs)
    handed = []
    streamed = sweep(source, jobs=jobs, on_record=handed.append)
    assert streamed.records == []
    assert handed == kept.records and len(handed) == 115
    assert dataclasses.replace(streamed, records=kept.records) == kept


def _counted_census(monkeypatch, inputs, pulled):
    """Replace the census generator by ``inputs``, counting how many were taken."""

    def census_of(config):
        for s in inputs:
            pulled.append(s)
            yield s

    monkeypatch.setattr(verify_module, "enumerate_semigroups", census_of)


def test_sweep_with_workers_stays_within_its_window(monkeypatch):
    jobs, pulled, ahead = 2, [], []
    _counted_census(monkeypatch, [build_semigroup([[0]])] * 400, pulled)

    def on_record(record):
        # the inputs taken but not yet handed over: every chunk in flight, and
        # the rest of the chunk this record came from
        ahead.append(len(pulled) - len(ahead))

    summary = sweep(EnumerationConfig(order=1), jobs=jobs, on_record=on_record)
    assert summary.inputs == len(ahead) == len(pulled) == 400
    workers = min(jobs, verify_module._usable_cpus())
    window = verify_module.WINDOW_PER_JOB * workers * verify_module.CHUNK
    assert max(ahead) <= window
    assert ahead[0] == window  # the window fills before the first result is consumed


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records its size and runs each
    chunk when it is submitted, so no worker process is started."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.submitted = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        self.submitted += 1
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize(
    "jobs, affinity, cpu_count, workers",
    [
        (2, 3, None, 2),
        (5000, 3, None, 3),
        (5000, None, 4, 4),
        (5000, None, None, 1),
    ],
)
def test_the_pool_is_capped_at_the_usable_cpus(monkeypatch, jobs, affinity, cpu_count, workers):
    pools, submitted_before_first_record = [], []

    def pool_of(max_workers):
        pools.append(_InProcessPool(max_workers))
        return pools[-1]

    monkeypatch.setattr(verify_module, "ProcessPoolExecutor", pool_of)
    if affinity is None:  # a platform without sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)))
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    _counted_census(monkeypatch, [build_semigroup([[0]])] * 400, [])

    def on_record(record):
        if not submitted_before_first_record:
            submitted_before_first_record.append(pools[0].submitted)

    summary = sweep(EnumerationConfig(order=1), jobs=jobs, on_record=on_record)
    assert summary.inputs == 400
    assert [pool.max_workers for pool in pools] == [workers]  # jobs > 1 still takes the pool
    assert submitted_before_first_record == [verify_module.WINDOW_PER_JOB * workers]


def test_an_error_in_on_record_stops_the_workers(monkeypatch):
    pulled, handed = [], []
    _counted_census(monkeypatch, [build_semigroup([[0]])] * 400, pulled)

    def disk_full_at_the_third(record):
        handed.append(record)
        if len(handed) == 3:
            raise OSError("no space left")

    with pytest.raises(OSError, match="no space left"):
        sweep(EnumerationConfig(order=1), jobs=2, on_record=disk_full_at_the_third)
    assert len(handed) == 3 and len(pulled) < 400


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers must inherit the patched evaluator",
)
def test_an_error_in_a_worker_stops_the_sweep_and_names_the_input(monkeypatch):
    pulled = []
    trivial, other = build_semigroup([[0]]), build_semigroup([[0, 0], [0, 0]])
    _counted_census(monkeypatch, [trivial] * 20 + [other] + [trivial] * 379, pulled)

    def fails_on_order_two(c):
        if c.s.order == 2:
            raise RuntimeError("induced")
        return True, None

    monkeypatch.setitem(verify_module._EVALUATORS, "thm6.5", fails_on_order_two)
    with pytest.raises(RuntimeError) as info:
        sweep(EnumerationConfig(order=1), jobs=2, on_record=lambda record: None)
    assert str(info.value) == "enum:order=1:index=20: induced"
    assert len(pulled) < 400

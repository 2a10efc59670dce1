import enum
import itertools
import os
import pickle
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenheights import (
    AssociativityError,
    EmptyIdealError,
    FiniteSemigroup,
    Ideal,
    InvalidIdealError,
    ParseError,
    SemigroupError,
    adjoin_identity,
    build_semigroup,
    direct_product,
    fixture,
    format_mtab,
    ideal_closure,
    k_classes,
    k_height,
    minimal_ideal,
    opposite,
    parse_mtab,
    parse_mtab_stream,
    rees_quotient,
    u_of,
)
from greenheights.constructions import _restrict
from greenheights.core import (
    _first_associativity_failure,
    _is_associative,
    _magma_generators,
)
from greenheights.enumeration import associative_tables
from greenheights.green import below_masks
from greenheights.recipes import build_from_string

from helpers import (
    census,
    census_tables,
    cyclic_group,
    left_zero,
    right_zero,
    sampled_zero_semigroups,
)


def test_trivial_semigroup_has_identity_and_zero():
    s = build_semigroup([[0]])
    assert s.order == 1
    assert s.identity == 0
    assert s.zero == 0


def test_figure_one_table_detects_zero_but_no_identity():
    s = fixture("fig1_s")
    assert s.zero == 2
    assert s.identity is None  # a*e = z, so e is not an identity


def test_two_element_standard_tables():
    assert build_semigroup([[0, 1], [0, 1]]).order == 2  # right-zero
    assert build_semigroup([[0, 0], [1, 1]]).order == 2  # left-zero
    z2 = build_semigroup([[0, 1], [1, 0]])
    assert z2.identity == 0 and z2.zero is None


def test_associativity_error_carries_first_witness():
    # (0*0)*1 = 1*1 = 0 while 0*(0*1) = 0*0 = 1
    with pytest.raises(AssociativityError) as info:
        build_semigroup([[1, 0], [0, 0]])
    assert info.value.witness == (0, 0, 1)


def test_out_of_range_entry_raises_index_error():
    with pytest.raises(IndexError):
        build_semigroup([[0, 2], [0, 0]])


def test_ragged_table_rejected():
    with pytest.raises(ValueError):
        build_semigroup([[0, 0], [0]])


def test_wrong_hints_rejected():
    with pytest.raises(ValueError):
        build_semigroup([[0, 0], [1, 1]], identity=0)
    with pytest.raises(ValueError):
        build_semigroup([[0, 0], [1, 1]], zero=1)


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        build_semigroup([[0, 0], [1, 1]], names=["a", "a"])


@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
))
def test_build_accepts_exactly_the_associative_tables(table):
    n = len(table)
    associative = all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )
    try:
        build_semigroup(table)
        accepted = True
    except AssociativityError:
        accepted = False
    assert accepted == associative


def _assert_light_test_matches_the_scan(table):
    """Light's test and the triple scan agree, and a rejection names the scan's triple."""
    rows = [tuple(row) for row in table]
    witness = _first_associativity_failure(rows)
    assert _is_associative(rows, _magma_generators(rows)) == (witness is None)
    if witness is None:
        assert build_semigroup(table).table == tuple(rows)
    else:
        with pytest.raises(AssociativityError) as info:
            build_semigroup(table)
        assert info.value.witness == witness


def test_light_test_matches_the_scan_on_every_table_of_order_at_most_3():
    for n in (1, 2, 3):
        for flat in itertools.product(range(n), repeat=n * n):
            _assert_light_test_matches_the_scan(
                [flat[i * n:(i + 1) * n] for i in range(n)]
            )


@lru_cache(maxsize=None)
def _order_five_tables():
    # a stride through the start of the census, plus transformation semigroups
    spread = itertools.islice(associative_tables(5), 0, 10000, 20)
    closures = (s.table for s in sampled_zero_semigroups(60) if s.order == 5)
    return tuple(spread) + tuple(closures)


@settings(max_examples=300)
@given(st.data())
def test_light_test_matches_the_scan_on_perturbed_census_tables(data):
    order = data.draw(st.sampled_from((4, 5)))
    tables = census_tables(4) if order == 4 else _order_five_tables()
    table = [list(row) for row in data.draw(st.sampled_from(tables))]
    i, j = data.draw(st.integers(0, order - 1)), data.draw(st.integers(0, order - 1))
    table[i][j] = data.draw(st.integers(0, order - 1).filter(lambda v: v != table[i][j]))
    _assert_light_test_matches_the_scan(table)


def _magma_closure(rows, seed):
    reached = set(seed)
    while True:
        fresh = {rows[a][b] for a in reached for b in reached} - reached
        if not fresh:
            return reached
        reached |= fresh


def _greedy_generators(table):
    rows = [tuple(row) for row in table]
    generators = _magma_generators(rows)
    n = len(rows)
    assert _magma_closure(rows, generators) == set(range(n))
    for k, g in enumerate(generators):  # greedy: no generator is redundant so far
        assert g not in _magma_closure(rows, generators[:k])
    return generators


def test_greedy_generators_generate_the_census_and_constructions():
    tables = [s.table for s in census(3) + census(4)]
    tables += [fixture(name).table for name in ("fig1_s", "fig1_u", "fig2_u2")]
    tables += [cyclic_group(5).table, direct_product(cyclic_group(2), cyclic_group(3)).table]
    for table in tables:
        _greedy_generators(table)
    assert _greedy_generators(cyclic_group(5).table) == [0, 1]


@pytest.mark.parametrize(
    "table",
    [
        [[0] * 6 for _ in range(6)],  # null
        [[x] * 6 for x in range(6)],  # left zero
        [[max(x, y) for y in range(6)] for x in range(6)],  # chain semilattice
        [[min(x, y) for y in range(6)] for x in range(6)],
    ],
    ids=["null", "left-zero", "max-chain", "min-chain"],
)
def test_tables_whose_generating_set_is_everything(table):
    assert _greedy_generators(table) == list(range(6))


def _diagonal_idempotents(s):
    return tuple(e for e in range(s.order) if s.table[e][e] == e)


def test_idempotents_are_the_diagonal_fixed_points():
    inputs = [s for order in range(1, 5) for s in census(order)]
    inputs += [build_from_string(r) for r in ("sqfree:4", "asym:3", "fixture:fig1_u")]
    for s in inputs:
        assert s.idempotents == _diagonal_idempotents(s), s.table


@pytest.mark.parametrize(
    "table, want",
    [(((0, 1, 2), (1, 1, 2), (2, 2, 2)), (0, 1, 2)), (((1, 0), (0, 1)), (1,))],
    ids=["max-chain", "cyclic-2"],
)
def test_idempotents_of_a_direct_and_a_pickled_semigroup(table, want):
    s = FiniteSemigroup(table)
    again = pickle.loads(pickle.dumps(s))
    assert again == s
    assert s.idempotents == again.idempotents == _diagonal_idempotents(s) == want


def _slow_hash(s):
    """The dataclass hash over the compared fields, computed afresh."""
    return hash((s.table, s.names, s.identity, s.zero))


def _named_and_derived():
    out = []
    for recipe in ("sqfree:3", "asym:3", "fixture:fig1_u"):
        s = build_from_string(recipe)
        ideal = ideal_closure(s, [1])  # a proper ideal of each
        out += [
            s,
            rees_quotient(s, minimal_ideal(s)),
            rees_quotient(s, ideal),
            u_of(s),
            opposite(s),
            direct_product(s, left_zero(2)),
            adjoin_identity(s),
            _restrict(s, ideal.members),
        ]
    return out


def test_the_kept_hash_is_the_dataclass_hash_before_and_after_pickle():
    inputs = [s for order in range(1, 4) for s in census(order)] + _named_and_derived()
    for s in inputs:
        assert hash(s) == _slow_hash(s), s.table
        assert hash(s) == _slow_hash(s), s.table  # the kept value
        again = pickle.loads(pickle.dumps(s))
        assert again == s
        assert hash(again) == _slow_hash(again) == hash(s), s.table


def test_generators_take_no_part_in_equality_or_hashing():
    s = build_from_string("sqfree:3")
    every = FiniteSemigroup(s.table, s.names, s.identity, s.zero, tuple(range(s.order)))
    assert every.generators != s.generators
    assert every == s and hash(every) == hash(s)


def test_an_equal_quotient_hits_the_class_cache_entry_of_its_parent():
    s = build_from_string("sqfree:3")
    # the zero is last and named "0", so it collapses to itself
    assert rees_quotient(s, minimal_ideal(s)) is s
    equal = FiniteSemigroup(s.table, s.names, s.identity, s.zero, tuple(range(s.order)))
    assert equal == s and equal is not s
    want = k_classes(s, "J")
    before = k_classes.cache_info()
    assert k_classes(equal, "J") is want
    after = k_classes.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)


_PICKLE_ASYM3 = """
import pickle, sys
from greenheights.recipes import build_from_string
s = build_from_string("asym:3")
hash(s)
sys.stdout.buffer.write(pickle.dumps(s))
"""

_LOAD_ASYM3 = """
import pickle, sys
from greenheights import k_classes
from greenheights.recipes import build_from_string
loaded = pickle.loads(sys.stdin.buffer.read())
built = build_from_string("asym:3")
assert hash(loaded) == hash(built), "a stale hash came through the pickle"
k_classes(built, "L")
before = k_classes.cache_info()
k_classes(loaded, "L")
after = k_classes.cache_info()
assert (after.hits - before.hits, after.misses - before.misses) == (1, 0), (before, after)
"""


def test_a_semigroup_pickled_under_one_hash_seed_hashes_afresh_under_another():
    # str hashes differ between the two processes, so a hash that travelled
    # in the pickle would differ from the one asym:3 gets where it is loaded
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    dumped = subprocess.run(
        [sys.executable, "-c", _PICKLE_ASYM3], capture_output=True, timeout=60,
        env=dict(env, PYTHONHASHSEED="1"), check=True,
    ).stdout
    loaded = subprocess.run(
        [sys.executable, "-c", _LOAD_ASYM3], input=dumped, capture_output=True, timeout=60,
        env=dict(env, PYTHONHASHSEED="2"),
    )
    assert loaded.returncode == 0, loaded.stderr.decode()


class _CountedRow(tuple):
    """A table row that counts the times it is hashed."""

    def __hash__(self):
        self.hashes += 1
        return super().__hash__()


def test_each_row_is_hashed_once_for_every_lookup_of_the_table():
    rows = [(0, 0, 0, 0), (0, 1, 1, 1), (0, 1, 2, 2), (0, 1, 2, 3)]
    table = tuple(map(_CountedRow, rows))
    for row in table:
        row.hashes = 0
    s = FiniteSemigroup(table, zero=0, identity=3)
    hash(s)
    hash(s)
    k_classes(s, "L")
    k_classes(s, "R")
    assert [row.hashes for row in table] == [1] * len(rows)


class _Small(enum.IntEnum):
    ZERO = 0
    ONE = 1


@pytest.mark.parametrize(
    "table, message",
    [
        ([[0, True], [0, 0]], "table entry at row 0, column 1 is True, not in 0..1"),
        ([[0, 0], [0, 2]], "table entry at row 1, column 1 is 2, not in 0..1"),
        ([[0, 0], [-1, 0]], "table entry at row 1, column 0 is -1, not in 0..1"),
        ([[0, 1.0], [0, 0]], "table entry at row 0, column 1 is 1.0, not in 0..1"),
        ([[0, "1"], [0, 0]], "table entry at row 0, column 1 is '1', not in 0..1"),
    ],
)
def test_bad_entries_name_their_cell(table, message):
    with pytest.raises(IndexError) as info:
        build_semigroup(table)
    assert str(info.value) == message


def test_int_subclass_entries_in_range_are_accepted():
    s = build_semigroup([[_Small.ZERO, _Small.ZERO], [_Small.ONE, _Small.ONE]])
    assert s.table == ((0, 0), (1, 1))


def test_adjoin_identity_always_adds_a_fresh_element():
    s = cyclic_group(3)
    assert s.identity == 0
    s1 = adjoin_identity(s)
    assert s1.order == 4
    assert s1.identity == 3


def test_adjoin_identity_new_element_tops_every_preorder():
    for s in census(3)[::7]:
        s1 = adjoin_identity(s)
        top = s1.order - 1
        for relation in ("L", "R", "J", "H"):
            masks = below_masks(s1, relation)
            assert masks[top] == (1 << s1.order) - 1


def test_adjoin_identity_raises_r_height_of_left_zero():
    s = left_zero(2)
    assert k_height(s, "R") == 1
    assert k_height(adjoin_identity(s), "R") == 2


def test_iterated_identity_chain_raises_l_height_each_time():
    s = build_semigroup([[0]])
    for expected in (2, 3, 4):
        s = adjoin_identity(s)
        assert k_height(s, "L") == expected


def test_opposite_is_an_involution():
    for s in census(3)[::5]:
        assert opposite(opposite(s)).table == s.table


def test_opposite_of_left_zero_is_right_zero():
    assert opposite(left_zero(3)).table == right_zero(3).table


def test_direct_product_with_trivial_is_isomorphic_identity_map():
    t = build_semigroup([[0]])
    s = fixture("fig1_s")
    assert direct_product(t, s).table == s.table


def test_direct_product_projections_are_homomorphisms():
    s = left_zero(2)
    t = cyclic_group(3)
    p = direct_product(s, t)
    nt = t.order
    for a, b in itertools.product(range(p.order), repeat=2):
        ab = p.table[a][b]
        assert ab // nt == s.table[a // nt][b // nt]
        assert ab % nt == t.table[a % nt][b % nt]


def test_left_zero_times_right_zero_has_all_heights_one():
    p = direct_product(left_zero(2), right_zero(2))
    assert p.order == 4
    assert [k_height(p, k) for k in "LRJH"] == [1, 1, 1, 1]


def test_ideal_closure_of_zero_is_zero():
    s = fixture("fig1_s")
    assert ideal_closure(s, [s.zero]).members == {s.zero}


def test_ideal_closure_in_figure_one():
    s = fixture("fig1_s")
    assert ideal_closure(s, [1]).members == {1, 2}  # {a, z}


def test_ideal_closure_of_everything_is_everything():
    s = fixture("fig2_u2")
    assert ideal_closure(s, range(s.order)).members == set(range(s.order))


def test_ideal_validation_rejects_unclosed_sets():
    s = fixture("fig1_s")
    with pytest.raises(InvalidIdealError):
        Ideal(s, frozenset({1}))  # a*a = z escapes
    with pytest.raises(EmptyIdealError):
        Ideal(s, frozenset())


def _first_escape(s, members):
    """Oracle for the closure check: the member-by-member loop, which names
    the first product of a member that leaves the set, or None."""
    for i in members:
        for a in range(s.order):
            for p in (s.table[a][i], s.table[i][a]):
                if p not in members:
                    return (
                        f"not an ideal: product of {a} and {i} is {p}, "
                        "which is outside the member set"
                    )
    return None


def test_ideal_validation_names_the_loops_first_witness():
    for s in census(1) + census(2) + census(3):
        for k in range(1, s.order + 1):
            for subset in itertools.combinations(range(s.order), k):
                members = frozenset(subset)
                expected = _first_escape(s, members)
                if expected is None:
                    assert Ideal(s, members).members == members
                else:
                    with pytest.raises(InvalidIdealError) as info:
                        Ideal(s, members)
                    assert str(info.value) == expected


def test_ideal_closure_rejects_seeds_outside_the_table():
    s = fixture("fig1_s")
    for seed, bad in (([99], 99), ([-1], -1), ([0, 3], 3)):
        with pytest.raises(InvalidIdealError) as info:
            ideal_closure(s, seed)
        assert str(info.value) == f"ideal member {bad} not in 0..2"


def test_mtab_round_trip():
    for s in (fixture("fig1_s"), fixture("fig2_u2"), left_zero(3), cyclic_group(3)):
        again = parse_mtab(format_mtab(s))
        assert again.table == s.table
        assert again.names == s.names
        assert again.identity == s.identity
        assert again.zero == s.zero


def _assert_round_trip_keeps_the_table(s):
    again = parse_mtab(format_mtab(s))
    assert again.table == s.table
    assert again.identity == s.identity
    assert again.zero == s.zero
    assert len(set(again.names)) == s.order
    return again


def test_mtab_round_trip_of_names_that_differ_only_in_whitespace():
    s = build_semigroup([[0, 0], [0, 0]], names=["a b", "a_b"])
    assert _assert_round_trip_keeps_the_table(s).names == ("a_b", "a_b'")


@settings(max_examples=200)
@given(st.data())
def test_mtab_round_trip_of_arbitrary_names(data):
    s = data.draw(st.sampled_from(census(3)))
    names = data.draw(st.lists(st.text(), min_size=3, max_size=3, unique=True))
    named = build_semigroup(s.table, names)
    again = _assert_round_trip_keeps_the_table(named)
    if all(name.split() == [name] for name in names):
        assert again.names == named.names


def test_mtab_rejects_ragged_rows():
    with pytest.raises(ParseError) as info:
        parse_mtab("2\n0 1\n0\n")
    assert "row 1" in str(info.value)


def test_mtab_rejects_bad_metadata():
    with pytest.raises(ParseError):
        parse_mtab("1\n0\nnames: a b\n")
    with pytest.raises(ParseError):
        parse_mtab("1\n0\nzero: 4\n")
    with pytest.raises(ParseError):
        parse_mtab("1\n0\ncolour: red\n")


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("2\n0 0\n1 1\nnames: a a\n", 4, "element names must be pairwise distinct"),
        ("2\n0 0\n1 1\nidentity: 0\n", 4, "element 0 is not a two-sided identity"),
        ("2\n0 0\n1 1\nnames: a b\nzero: 1\n", 5, "element 1 is not a two-sided zero"),
        ("2\n0 1\n1 0\nnames: a b\nnames: c d\n", 5, "a second names line"),
        ("2\n0 1\n1 0\nidentity: 0\nzero: 1\nIdentity: 0\n", 6, "a second identity line"),
        ("2\n0 0\n1 1\nzero: 1\nzero: 1\n", 5, "a second zero line"),
    ],
    ids=["duplicate-names", "false-identity", "false-zero", "second-names",
         "second-identity", "second-zero"],
)
def test_mtab_rejects_names_and_hints_the_table_does_not_bear_out(text, line, message):
    # the left-zero table needs distinct names and has no identity and no zero;
    # a repeated trailing line is refused before the table is checked
    with pytest.raises(ParseError) as info:
        parse_mtab(text)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {message}"


def test_mtab_accepts_hints_the_table_bears_out():
    s = parse_mtab("2\n0 1\n1 1\nnames: e z\nidentity: 0\nzero: 1\n")
    assert (s.names, s.identity, s.zero) == (("e", "z"), 0, 1)


@st.composite
def mtab_like_texts(draw):
    """Mostly well-formed mtab text: small tables, names, hints, at most one flaw."""
    n = draw(st.integers(1, 3))
    row = st.lists(st.integers(0, n - 1).map(str), min_size=n, max_size=n)
    lines = [str(n)] + [" ".join(draw(row)) for _ in range(n)]
    if draw(st.booleans()):
        names = st.lists(st.sampled_from(["a", "b", "c", "a_b"]), min_size=n, max_size=n)
        lines.append("names: " + " ".join(draw(names)))
    for key in ("identity", "zero"):
        if draw(st.booleans()):
            lines.append(f"{key}: {draw(st.integers(0, n - 1))}")
    flaw = draw(st.sampled_from(["none", "none", "replace", "insert"]))
    if flaw != "none":
        at = draw(st.integers(0, len(lines) - 1))
        junk = draw(
            st.text(max_size=8) | st.sampled_from(["-1", "4", "1.0", "Zero: 0", "colour: 1"])
        )
        if flaw == "replace":
            lines[at] = junk
        else:
            lines.insert(at, junk)
    return "\n".join(lines)


@settings(max_examples=400)
@given(st.text() | mtab_like_texts())
def test_parse_mtab_yields_a_semigroup_or_a_semigroup_error(text):
    try:
        s = parse_mtab(text)
    except SemigroupError:
        return
    assert isinstance(s, FiniteSemigroup)


def test_mtab_stream_parses_blank_separated_tables():
    text = format_mtab(left_zero(2)) + "\n" + format_mtab(right_zero(2))
    tables = parse_mtab_stream(text)
    assert [t.order for t in tables] == [2, 2]


@settings(max_examples=25)
@given(st.sampled_from(census(3)))
def test_reassert_associativity_post_hoc(s):
    t = s.table
    n = s.order
    assert all(
        t[t[a][b]][c] == t[a][t[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )

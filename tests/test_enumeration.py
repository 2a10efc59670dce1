import itertools

import pytest

from greenheights import (
    EnumerationConfig,
    RangeError,
    build_semigroup,
    enumerate_semigroups,
    is_group_bound,
    is_stable,
    random_transformation_subsemigroup,
)
from greenheights.enumeration import (
    associative_tables,
    brute_force_tables,
    canonical_table,
    closure,
    compose,
)

from helpers import brute_force_canonical_table, census_tables, order_five_prefix


def test_backtracking_equals_the_filter_oracle_table_for_table():
    for order in (1, 2, 3):
        assert list(associative_tables(order)) == brute_force_tables(order)


def test_raw_census_counts():
    # computed by the filter oracle at orders <= 3 and frozen here
    assert len(census_tables(1)) == 1
    assert len(census_tables(2)) == 8
    assert len(census_tables(3)) == 113


def test_isomorphism_class_counts():
    def iso_count(order, fold):
        config = EnumerationConfig(
            order=order, up_to_isomorphism=True, include_anti_isomorphs=not fold
        )
        return sum(1 for _ in enumerate_semigroups(config))

    assert iso_count(1, False) == 1
    assert iso_count(2, False) == 5
    assert iso_count(3, False) == 24
    assert iso_count(4, False) == 188
    assert iso_count(2, True) == 4
    assert iso_count(3, True) == 18
    assert iso_count(4, True) == 126


@pytest.mark.parametrize("fold", [False, True])
def test_canonical_table_matches_the_brute_force_oracle(fold):
    tables = [t for order in (1, 2, 3, 4) for t in census_tables(order)]
    tables += order_five_prefix(10000)[::20]
    for table in tables:
        assert canonical_table(table, fold) == brute_force_canonical_table(table, fold)


def test_canonical_table_accepts_lists_and_returns_tuples():
    table = [[1, 1], [1, 1]]
    assert canonical_table(table) == ((0, 0), (0, 0))
    assert canonical_table([[0, 1], [0, 1]], fold_anti_isomorphs=True) == ((0, 0), (1, 1))


def test_iso_filter_agrees_with_filter_after_generate():
    # independent route: canonicalise every raw table and deduplicate
    for order in (2, 3):
        raw = brute_force_tables(order)
        expected = sorted({canonical_table(t) for t in raw})
        config = EnumerationConfig(order=order, up_to_isomorphism=True)
        got = [s.table for s in enumerate_semigroups(config)]
        assert got == expected


def test_representatives_are_canonical_and_sorted():
    config = EnumerationConfig(order=3, up_to_isomorphism=True)
    tables = [s.table for s in enumerate_semigroups(config)]
    assert tables == sorted(tables)
    assert all(t == canonical_table(t) for t in tables)


def test_limit_truncates_the_stream():
    config = EnumerationConfig(order=4, limit=10)
    assert sum(1 for _ in enumerate_semigroups(config)) == 10


def test_order_five_streams_with_a_limit():
    config = EnumerationConfig(order=5, limit=40)
    tables = [s.table for s in enumerate_semigroups(config)]
    assert len(tables) == 40
    assert tables == sorted(tables)


def test_config_rejects_large_orders():
    with pytest.raises(RangeError):
        EnumerationConfig(order=6)
    with pytest.raises(RangeError):
        EnumerationConfig(order=0)


def test_every_enumerated_semigroup_is_stable_and_group_bound():
    config = EnumerationConfig(order=3, up_to_isomorphism=True)
    for s in enumerate_semigroups(config):
        assert is_stable(s)
        assert is_group_bound(s)


def test_closure_is_idempotent():
    maps = [(1, 0, 2), (0, 0, 1)]
    once = closure(maps)
    assert closure(once) == once


def test_composition_convention_constants_give_right_zero():
    # maps act on the right: x * (f then g) = g[f[x]]
    c0, c1 = (0, 0), (1, 1)
    assert compose(c0, c1) == c1
    elems = closure([c0, c1])
    position = {f: i for i, f in enumerate(elems)}
    table = [[position[compose(f, g)] for g in elems] for f in elems]
    s = build_semigroup(table)
    assert all(s.table[a][b] == b for a in range(2) for b in range(2))


def test_random_subsemigroup_is_deterministic_in_the_seed():
    a = random_transformation_subsemigroup(3, 2, seed=11)
    b = random_transformation_subsemigroup(3, 2, seed=11)
    c = random_transformation_subsemigroup(3, 2, seed=12)
    assert a.table == b.table and a.names == b.names
    assert (a.table, a.names) != (c.table, c.names)


def test_random_subsemigroup_names_record_the_transformations():
    s = random_transformation_subsemigroup(2, 3, seed=5)
    degree = 2
    for name in s.names:
        assert len(name) == degree
        assert set(name) <= {"1", "2"}


def test_full_t2_arises_from_all_four_maps():
    elems = closure(list(itertools.product(range(2), repeat=2)))
    assert len(elems) == 4


def test_random_subsemigroup_parameters_validated():
    with pytest.raises(RangeError):
        random_transformation_subsemigroup(1, 1, seed=0)
    with pytest.raises(RangeError):
        random_transformation_subsemigroup(3, 0, seed=0)


def test_closure_outputs_pass_validation():
    for seed in range(30):
        s = random_transformation_subsemigroup(2 + seed % 3, 1 + seed % 2, seed)
        assert s.order >= 1  # build_semigroup validated associativity already

import itertools

import pytest

import greenheights.enumeration as enumeration_module

from greenheights import (
    EnumerationConfig,
    InternalCheckError,
    RangeError,
    build_semigroup,
    enumerate_semigroups,
    is_group_bound,
    is_stable,
    random_transformation_subsemigroup,
)
from greenheights.enumeration import (
    LABELED_COUNTS,
    associative_tables,
    canonical_table,
    closure,
    compose,
    copy_class,
    copy_table,
    labeled_orbits,
)

from helpers import (
    brute_force_canonical_table,
    brute_force_tables,
    canonical_census,
    census_tables,
    order_five_prefix,
)


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


def _classes(order, fold, limit=None):
    config = EnumerationConfig(
        order=order, up_to_isomorphism=True, include_anti_isomorphs=not fold, limit=limit
    )
    return [s.table for s in enumerate_semigroups(config)]


@pytest.mark.parametrize("fold", [False, True])
def test_pruned_search_equals_the_canonical_filter_oracle(fold):
    for order in (1, 2, 3, 4):
        assert _classes(order, fold) == list(canonical_census(order, fold))


@pytest.mark.parametrize("fold", [False, True])
def test_pruned_search_equals_the_oracle_on_the_first_order_five_classes(fold):
    expected = list(itertools.islice(canonical_census(5, fold), 300))
    assert _classes(5, fold, limit=300) == expected


@pytest.mark.parametrize("fold", [False, True])
def test_first_order_six_classes_are_canonical_and_increasing(fold):
    tables = _classes(6, fold, limit=200)
    assert len(tables) == 200
    assert all(a < b for a, b in zip(tables, tables[1:]))
    assert all(canonical_table(t, fold) == t for t in tables)


def test_a_non_canonical_table_from_the_search_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(enumeration_module, "canonical_table", lambda table, fold: ())
    with pytest.raises(InternalCheckError):
        _classes(3, False)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_labeled_orbits_equal_the_labeled_search_table_for_table(order):
    classes = _classes(order, False)
    keys, first = labeled_orbits(classes)
    assert [copy_table(key, order) for key in keys] == list(census_tables(order))
    assert len(keys) == LABELED_COUNTS[order]
    # each class first appears as its canonical table, in class order
    assert [copy_table(keys[i], order) for i in first] == classes
    assert [copy_class(keys[i], order) for i in first] == list(range(len(classes)))
    assert first == sorted(first)
    for key in keys:
        assert canonical_table(copy_table(key, order)) == classes[copy_class(key, order)]


def test_a_dropped_relabelling_fails_the_labeled_count(monkeypatch):
    classes = _classes(4, False)
    every = enumeration_module._relabellings(4)
    monkeypatch.setattr(enumeration_module, "_relabellings", lambda n: every[:-1])
    with pytest.raises(InternalCheckError, match="have 3380 labeled copies, not 3492"):
        labeled_orbits(classes)


def test_a_missing_class_fails_the_labeled_count():
    classes = _classes(3, False)
    with pytest.raises(InternalCheckError, match="not 113"):
        labeled_orbits(classes[:-1])


def test_classes_out_of_order_are_an_internal_error():
    classes = _classes(3, False)
    classes[1], classes[2] = classes[2], classes[1]
    with pytest.raises(InternalCheckError, match="class 2 of order 3 appears before class 1"):
        labeled_orbits(classes)


def test_a_class_that_is_not_canonical_is_an_internal_error():
    classes = _classes(3, False)
    # the reversal of the labels takes a class to a copy that is not canonical
    k = next(k for k, t in enumerate(classes)
             if tuple(tuple(2 - t[2 - i][2 - j] for j in range(3)) for i in range(3)) != t)
    t = classes[k]
    classes[k] = tuple(tuple(2 - t[2 - i][2 - j] for j in range(3)) for i in range(3))
    with pytest.raises(InternalCheckError, match=f"class {k} of order 3 first appears"):
        labeled_orbits(classes)


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


def test_config_takes_order_six_only_up_to_isomorphism():
    EnumerationConfig(order=6, up_to_isomorphism=True)
    EnumerationConfig(order=6, up_to_isomorphism=True, include_anti_isomorphs=False)
    for config in ({"order": 6}, {"order": 7, "up_to_isomorphism": True}):
        with pytest.raises(RangeError, match="order 6 only up to isomorphism"):
            EnumerationConfig(**config)


def test_config_rejects_folding_anti_isomorphs_without_isomorphism():
    with pytest.raises(RangeError):
        EnumerationConfig(order=3, include_anti_isomorphs=False)
    EnumerationConfig(order=3, up_to_isomorphism=True, include_anti_isomorphs=False)


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

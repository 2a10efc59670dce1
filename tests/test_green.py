import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenheights import (
    FiniteSemigroup,
    Ideal,
    build_semigroup,
    fixture,
    height_within_ideal,
    idempotent_height,
    ideal_closure,
    k_classes,
    k_height,
    longest_chain_elements,
    longest_chain_oracle,
    preorder,
    squarefree_words,
    to_dot,
    u_of,
)
from greenheights import green
from greenheights.constructions import rees_quotient
from greenheights.enumeration import random_transformation_subsemigroup
from greenheights.green import MASK_ROUTE_MAX_ORDER, below_masks
from greenheights.recipes import build_from_string
from greenheights.structure import left_socle, minimal_ideal

from helpers import (
    brute_force_chain,
    census,
    cyclic_group,
    differential_inputs,
    left_zero,
    naive_class_order,
    naive_d_partition,
    naive_height_within_ideal,
    naive_leq,
    naive_leq_matrix,
    order_five_and_six_samples,
    order_five_prefix,
)


def test_trivial_preorder_is_the_full_relation():
    s = build_semigroup([[0]])
    for relation in ("L", "R", "J", "H"):
        assert preorder(s, relation) == [[True]]


def test_figure_one_r_preorder_is_a_total_chain():
    s = fixture("fig1_s")  # e, a, z
    le = preorder(s, "R")
    # z < a < e
    assert le[2][1] and le[1][0] and le[2][0]
    assert not le[0][1] and not le[1][2] and not le[0][2]


def test_figure_one_l_preorder_has_incomparable_tops():
    s = fixture("fig1_s")
    le = preorder(s, "L")
    assert not le[0][1] and not le[1][0]  # e and a incomparable
    assert le[2][0] and le[2][1]


def test_left_zero_preorders():
    s = left_zero(3)
    le_l = preorder(s, "L")
    le_r = preorder(s, "R")
    assert all(le_l[a][b] for a in range(3) for b in range(3))
    assert all(le_r[a][b] == (a == b) for a in range(3) for b in range(3))


@settings(max_examples=40)
@given(st.sampled_from(census(3)))
def test_preorders_match_their_definitions(s):
    for relation in ("L", "R", "J", "H"):
        le = preorder(s, relation)
        for a in range(s.order):
            for b in range(s.order):
                assert le[a][b] == naive_leq(s, relation, a, b)


@settings(max_examples=100, deadline=None)
@given(st.deferred(lambda: st.sampled_from(order_five_and_six_samples())))
def test_below_masks_match_their_definitions_on_orders_five_and_six(s):
    for relation in ("L", "R", "J", "H"):
        masks = below_masks(s, relation)
        for a in range(s.order):
            for b in range(s.order):
                assert bool(masks[b] >> a & 1) == naive_leq(s, relation, a, b)


@settings(max_examples=40)
@given(st.sampled_from(census(3)))
def test_h_preorder_is_the_meet_of_l_and_r(s):
    le_l = preorder(s, "L")
    le_r = preorder(s, "R")
    le_h = preorder(s, "H")
    n = s.order
    assert all(
        le_h[a][b] == (le_l[a][b] and le_r[a][b])
        for a in range(n)
        for b in range(n)
    )


@settings(max_examples=40)
@given(st.sampled_from(census(3)))
def test_one_sided_preorders_refine_the_two_sided_one(s):
    le_j = preorder(s, "J")
    for relation in ("L", "R"):
        le = preorder(s, relation)
        for a in range(s.order):
            for b in range(s.order):
                assert not le[a][b] or le_j[a][b]


def test_no_preorder_for_d():
    with pytest.raises(ValueError):
        preorder(fixture("fig1_s"), "D")
    with pytest.raises(ValueError):
        k_height(fixture("fig1_s"), "D")


def test_k_classes_refuses_an_unknown_relation_on_either_route():
    # the Cayley-graph route's successor lists would read any relation but L
    # and R as J, so the refusal must not depend on the route
    tables = [build_from_string(recipe) for recipe in ("fixture:fig1_s", "asym:3")]
    assert tables[0].order <= MASK_ROUTE_MAX_ORDER < tables[1].order
    for s in tables:
        with pytest.raises(ValueError):
            k_classes(s, "X")


def test_figure_two_j_classes_and_hasse():
    u2 = fixture("fig2_u2")
    g = k_classes(u2, "J")
    assert g.class_count == 5
    assert g.classes == ((0,), (1,), (2,), (3,), (4,))
    # a covers b and c; b and c cover d; d covers 0
    assert g.dag == ((1, 2), (3,), (3,), (4,), ())


def test_any_group_has_one_class_for_every_relation():
    g = cyclic_group(4)
    for relation in ("L", "R", "J", "H", "D"):
        assert k_classes(g, relation).class_count == 1


def test_squarefree_h_classes_are_singletons_with_zero_at_the_bottom():
    s = squarefree_words(2)
    g = k_classes(s, "H")
    assert g.class_count == s.order
    le = preorder(s, "H")
    zero = s.zero
    for a in range(s.order):
        for b in range(s.order):
            if a != b:
                assert le[a][b] == (a == zero)


@settings(max_examples=40)
@given(st.sampled_from(census(3)))
def test_class_of_is_a_surjection_and_dag_matches_the_order(s):
    for relation in ("L", "R", "J", "H"):
        g = k_classes(s, relation)
        assert sorted(set(g.class_of)) == list(range(g.class_count))
        # reachability through the Hasse dag plus equality = class order
        reach = [set() for _ in range(g.class_count)]

        def walk(c, seen):
            for child in g.dag[c]:
                if child not in seen:
                    seen.add(child)
                    walk(child, seen)

        for c in range(g.class_count):
            walk(c, reach[c])
        le = preorder(s, relation)
        for i in range(g.class_count):
            for j in range(g.class_count):
                below = le[g.classes[j][0]][g.classes[i][0]]
                assert below == (i == j or j in reach[i])


@settings(max_examples=40)
@given(st.sampled_from(census(3)))
def test_h_partition_refines_l_and_r(s):
    gh = k_classes(s, "H")
    for relation in ("L", "R"):
        g = k_classes(s, relation)
        for members in gh.classes:
            assert len({g.class_of[m] for m in members}) == 1


@settings(max_examples=40)
@given(st.sampled_from(census(3)))
def test_d_partition_equals_j_partition_on_finite_inputs(s):
    assert k_classes(s, "D").classes == k_classes(s, "J").classes


@settings(max_examples=40)
@given(st.sampled_from(census(3)))
def test_l_is_a_right_congruence_and_r_a_left_congruence(s):
    gl = k_classes(s, "L")
    gr = k_classes(s, "R")
    n = s.order
    for a, b in itertools.product(range(n), repeat=2):
        if gl.class_of[a] == gl.class_of[b]:
            for c in range(n):
                assert gl.class_of[s.table[a][c]] == gl.class_of[s.table[b][c]]
        if gr.class_of[a] == gr.class_of[b]:
            for c in range(n):
                assert gr.class_of[s.table[c][a]] == gr.class_of[s.table[c][b]]


def test_figure_fixture_heights():
    assert [k_height(fixture("fig1_s"), k) for k in "LRJ"] == [2, 3, 3]
    assert [k_height(fixture("fig1_u"), k) for k in "LRJ"] == [3, 7, 7]
    assert [k_height(fixture("fig2_u2"), k) for k in "LRJH"] == [3, 3, 4, 2]


def test_completely_simple_examples_have_height_one():
    for s in (cyclic_group(5), left_zero(4)):
        assert all(k_height(s, k) == 1 for k in "LRJH")


def test_oracle_matches_condensation_on_the_order_three_census():
    for s in census(3):
        for relation in ("L", "R", "J", "H"):
            assert k_height(s, relation) == longest_chain_oracle(s, relation)


def test_oracle_on_figure_one_r_chain():
    s = fixture("fig1_s")
    assert longest_chain_oracle(s, "R") == 3
    chain = longest_chain_elements(s, "R")
    assert [s.name_of(i) for i in chain] == ["e", "a", "z"]


def test_height_within_whole_semigroup_is_the_height():
    s = fixture("fig1_u")
    whole = ideal_closure(s, range(s.order))
    for relation in ("L", "R", "J", "H"):
        assert height_within_ideal(s, whole, relation) == k_height(s, relation)


def test_height_within_zero_ideal_is_one():
    s = fixture("fig1_u")
    only_zero = ideal_closure(s, [s.zero])
    for relation in ("L", "R", "J", "H"):
        assert height_within_ideal(s, only_zero, relation) == 1


def test_height_within_the_socle_of_the_extension():
    u = fixture("fig1_u")
    socle = left_socle(u)
    assert sorted(socle.members) == [2, 3, 4, 5, 6]
    assert height_within_ideal(u, socle, "R") == 5
    # the (*) inequality instance: 7 <= 5 + 3 - 1
    assert k_height(u, "R") == 7


def test_order_four_preorders_match_their_definitions_on_a_slice():
    for s in census(4)[::17]:
        for relation in ("L", "R", "J", "H"):
            le = preorder(s, relation)
            for a in range(s.order):
                for b in range(s.order):
                    assert le[a][b] == naive_leq(s, relation, a, b)


def test_longest_chains_match_a_brute_force_oracle():
    # pins the witness chains, which break ties by the least index
    for s in census(3) + census(4)[::7]:
        for relation in ("L", "R", "J", "H"):
            assert longest_chain_elements(s, relation) == brute_force_chain(s, relation)


def _brute_height_within(le, members):
    """Longest strictly <=_K-decreasing element chain inside ``members``."""

    @lru_cache(maxsize=None)
    def down(a):
        lower = (down(b) for b in members if le[b][a] and not le[a][b])
        return 1 + max(lower, default=0)

    return max(down(a) for a in members)


def test_ideal_heights_match_an_element_level_oracle():
    # every principal ideal and the left socle, against chains from naive_leq
    for s in census(3) + census(4)[::9]:
        ideals = [ideal_closure(s, [a]) for a in range(s.order)]
        if s.zero is not None:
            ideals.append(left_socle(s))
        for relation in ("L", "R", "J", "H"):
            le = naive_leq_matrix(s, relation)
            for ideal in ideals:
                members = tuple(sorted(ideal.members))
                assert height_within_ideal(s, ideal, relation) == (
                    _brute_height_within(le, members)
                )


def test_idempotent_height_of_groups_and_chains():
    assert idempotent_height(cyclic_group(6)) == 1
    two_chain = build_semigroup([[0, 1], [1, 1]])  # semilattice {1, 0}
    assert idempotent_height(two_chain) == 2


def test_idempotent_height_matches_brute_force_chain_search():
    import itertools

    def brute(s):
        table = s.table
        idempotents = [e for e in range(s.order) if table[e][e] == e]

        def leq(f, e):
            return table[e][f] == f and table[f][e] == f

        best = 1
        for size in range(2, len(idempotents) + 1):
            for chain in itertools.permutations(idempotents, size):
                if all(
                    chain[i + 1] != chain[i] and leq(chain[i + 1], chain[i])
                    for i in range(size - 1)
                ):
                    best = max(best, size)
        return best

    for s in census(3)[::3]:
        assert idempotent_height(s) == brute(s)


def test_regular_order_four_semigroups_have_matching_idempotent_height():
    from greenheights.structure import is_regular

    seen = 0
    for s in census(3):
        if is_regular(s):
            he = idempotent_height(s)
            assert he == k_height(s, "L") == k_height(s, "R") == k_height(s, "H")
            seen += 1
    assert seen > 0


def test_dot_export_is_stable_and_sorted():
    s = fixture("fig2_u2")
    first = to_dot(s, "J")
    second = to_dot(s, "J")
    assert first == second
    assert first.splitlines()[0] == 'digraph "green_J" {'
    assert 'c0 [label="{a}"]' in first
    assert "c0 -> c1;" in first


def test_dot_export_refuses_d():
    with pytest.raises(ValueError):
        to_dot(fixture("fig1_s"), "D")


def test_longest_path_dps_handle_a_chain_of_order_1000():
    # x*y = max(x, y): a chain semilattice with 0 on top. Built directly,
    # since every element is a generator and validation would cost n^3.
    n = 1000
    s = FiniteSemigroup(tuple(tuple(max(x, y) for y in range(n)) for x in range(n)))
    assert longest_chain_elements(s, "L") == tuple(range(n))
    assert height_within_ideal(s, Ideal(s, frozenset(range(n))), "L") == n
    assert idempotent_height(s) == n


def test_class_order_depths_and_hasse_diagram_match_the_pairwise_oracle():
    named = [build_from_string(r) for r in ("sqfree:4", "asym:3", "nm:4,11")]
    inputs = [s for order in range(1, 5) for s in census(order)]
    for s in inputs + named + [u_of(s) for s in named]:
        for relation in ("L", "R", "J", "H"):
            g = k_classes(s, relation)
            assert (g.classes, g.below, g.dag, g.height) == naive_class_order(s, relation)


@lru_cache(maxsize=None)
def _route_inputs():
    """Tables on both sides of ``MASK_ROUTE_MAX_ORDER``: the census of orders
    1-4, every 97th of the first 20,000 order-5 tables, transformation
    semigroups of orders 10-60, and named constructions with U(S) and its
    left-socle quotient for each."""
    tables = [s for order in range(1, 5) for s in census(order)]
    tables += [build_semigroup(t) for t in order_five_prefix(20000)[::97]]
    closures = (random_transformation_subsemigroup(4, 1 + seed % 3, seed) for seed in range(400))
    tables += itertools.islice((s for s in closures if 10 <= s.order <= 60), 40)
    recipes = ("sqfree:3", "sqfree:4", "sqfree:5", "asym:2", "asym:3", "asym:4", "nm:5,20")
    for s in map(build_from_string, recipes):
        u = u_of(s)
        tables += [s, u, rees_quotient(u, left_socle(u))]
    return tuple(tables)


@lru_cache(maxsize=None)
def _oracle_structure(s, relation):
    classes, below, _, height = naive_class_order(s, relation)
    class_of = [0] * s.order
    for c, members in enumerate(classes):
        for a in members:
            class_of[a] = c
    return tuple(class_of), classes, below, height


def test_route_inputs_cover_both_sides_of_the_threshold():
    orders = {s.order for s in _route_inputs()}
    assert min(orders) <= MASK_ROUTE_MAX_ORDER < max(orders)
    assert sum(1 for n in orders if 10 <= n <= 60) >= 10


@pytest.mark.parametrize("route", ["by-order", "cayley-graph"])
def test_k_classes_match_the_mask_oracle_on_either_route(monkeypatch, route):
    if route == "cayley-graph":  # every table takes the Cayley-graph route
        monkeypatch.setattr(green, "MASK_ROUTE_MAX_ORDER", 0)
    k_classes.cache_clear()
    try:
        for s in _route_inputs():
            for relation in ("L", "R", "J", "H"):
                g = k_classes(s, relation)
                assert g.relation == relation
                assert (g.class_of, g.classes, g.below, g.height) == (
                    _oracle_structure(s, relation)
                )
    finally:
        k_classes.cache_clear()


def test_ideal_heights_match_the_per_call_longest_path_oracle():
    # the minimal ideal, the left socle and one principal ideal per J-class
    for s in differential_inputs():
        ideals = [minimal_ideal(s)]
        if s.zero is not None:
            ideals.append(left_socle(s))
        ideals.extend(ideal_closure(s, [members[0]]) for members in k_classes(s, "J").classes)
        for relation in ("L", "R", "J", "H"):
            for ideal in ideals:
                assert height_within_ideal(s, ideal, relation) == (
                    naive_height_within_ideal(s, ideal, relation)
                )


def test_d_classes_match_the_union_find_oracle():
    for s in differential_inputs():
        g = k_classes(s, "D")
        assert (g.class_of, g.classes) == naive_d_partition(s)


def test_d_classes_carry_no_order():
    g = k_classes(fixture("fig2_u2"), "D")
    assert g.below is None and g.dag is None and g.height is None


def _dot_from_oracle(s, relation):
    classes, _, dag, _ = naive_class_order(s, relation)
    lines = [f'digraph "green_{relation}" {{', "  rankdir=TB;"]
    for i, members in enumerate(classes):
        label = ",".join(s.name_of(m) for m in members)
        lines.append(f"  c{i} [label=" + '"{' + label + '}"];')
    lines += [f"  c{i} -> c{j};" for i, covered in enumerate(dag) for j in covered]
    return "\n".join(lines + ["}"]) + "\n"


@pytest.mark.parametrize("recipe", ["fixture:fig2_u2", "u-of:fig1_s"])
def test_dot_export_draws_the_oracle_hasse_diagram(recipe):
    s = build_from_string(recipe)
    for relation in ("L", "R", "J", "H"):
        assert to_dot(s, relation) == _dot_from_oracle(s, relation)


def test_dot_labels_escape_quotes_and_backslashes():
    s = build_semigroup([[0, 1, 2], [1, 1, 2], [2, 2, 2]], ["e", 'a"q', "b\\s"])
    lines = to_dot(s, "J").splitlines()
    assert '  c1 [label="{a\\"q}"];' in lines
    assert '  c2 [label="{b\\\\s}"];' in lines

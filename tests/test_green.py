import itertools

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
)
from greenheights.green import below_masks
from greenheights.structure import left_socle

from helpers import census, cyclic_group, left_zero, naive_leq, order_five_and_six_samples


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


def _element_chain_within(s, members, relation):
    le = preorder(s, relation)
    best = {}

    def down(a):
        if a not in best:
            tails = [
                down(b)
                for b in members
                if b != a and le[b][a] and not le[a][b]
            ]
            best[a] = 1 + max(tails, default=0)
        return best[a]

    return max(down(a) for a in members)


def test_ideal_heights_match_an_element_level_oracle():
    for s in census(3)[::2]:
        for seed in range(s.order):
            ideal = ideal_closure(s, [seed])
            for relation in ("L", "R", "J", "H"):
                assert height_within_ideal(s, ideal, relation) == (
                    _element_chain_within(s, sorted(ideal.members), relation)
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

import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from greenheights import (
    FiniteSemigroup,
    Ideal,
    InvalidIdealError,
    NoZeroError,
    ParseError,
    RangeError,
    UnknownFixtureError,
    analyze,
    asym_family,
    build_semigroup,
    direct_product,
    fixture,
    ideal_closure,
    k_classes,
    k_height,
    longest_chain_oracle,
    minimal_ideal,
    nm_family,
    opposite,
    rees_quotient,
    squarefree_words,
    u_of,
)

from greenheights.constructions import FIXTURE_NAMES, _restrict, collapse_to_zero, u_of_graphs
from greenheights.green import _cayley_successors
from greenheights.recipes import build_from_string

from helpers import (
    adjoin_zero,
    census,
    cyclic_group,
    extension_inputs,
    naive_nm_family,
    naive_squarefree_words,
    naive_u_of,
)


def test_rees_quotient_by_everything_is_trivial():
    s = fixture("fig1_u")
    q = rees_quotient(s, ideal_closure(s, range(s.order)))
    assert q.order == 1


def test_rees_quotient_order_and_zero():
    s = fixture("fig1_u")
    socle = ideal_closure(s, [3])  # x_1 generates the fresh tail
    q = rees_quotient(s, socle)
    assert q.order == s.order - len(socle.members) + 1
    assert q.zero == q.order - 1


def test_rees_quotient_rejects_foreign_ideals():
    s = fixture("fig1_s")
    other = fixture("fig2_u2")
    ideal = ideal_closure(other, [4])
    with pytest.raises(InvalidIdealError):
        rees_quotient(s, ideal)


def test_rees_quotient_canonical_map_is_a_homomorphism():
    s = fixture("fig1_u")
    for seed in range(s.order):
        ideal = ideal_closure(s, [seed])
        q = rees_quotient(s, ideal)
        survivors = [a for a in range(s.order) if a not in ideal.members]
        position = {a: i for i, a in enumerate(survivors)}
        zero = len(survivors)

        def push(a):
            return position.get(a, zero)

        for a in range(s.order):
            for b in range(s.order):
                assert q.table[push(a)][push(b)] == push(s.table[a][b])


def test_the_quotient_by_the_zero_is_its_definition_and_is_s_exactly_when_equal():
    named = [build_from_string(r) for r in
             ("sqfree:3", "asym:3", "nm:3,5", "fixture:fig1_s", "fixture:fig1_u")]
    named.append(build_semigroup([[0, 0, 0], [0, 1, 2], [0, 0, 0]], ["z", "e", "a"]))
    inputs = [s for order in range(1, 4) for s in census(order) if s.zero is not None] + named
    returned_s = 0
    for s in inputs:
        slow = collapse_to_zero(s, [a for a in range(s.order) if a != s.zero], s.generators)
        q = rees_quotient(s, Ideal(s, {s.zero}))
        assert (q.table, q.names, q.identity, q.zero) == (
            slow.table, slow.names, slow.identity, slow.zero), s.table
        assert (q is s) == (slow == s), s.table
        returned_s += q is s
    assert 0 < returned_s < len(inputs)


def test_quotient_by_completely_simple_minimal_ideal_preserves_heights():
    for s in census(3):
        q = rees_quotient(s, minimal_ideal(s))
        for relation in ("L", "R", "J"):
            assert k_height(s, relation) == k_height(q, relation)


def test_extension_requires_a_zero():
    for build in (u_of, u_of_graphs):
        with pytest.raises(NoZeroError):
            build(cyclic_group(3))


def test_row_built_extension_equals_the_cell_by_cell_oracle():
    named = [fixture(name) for name in FIXTURE_NAMES]
    named += [build_from_string(r) for r in ("sqfree:3", "asym:3", "nm:3,6")]
    inputs = [s for order in range(1, 5) for s in census(order)] + named
    with_zero = [s for s in inputs if s.zero is not None]
    assert len(with_zero) > len(named)
    for s in with_zero:
        assert u_of(s) == naive_u_of(s)


def _u_graph_mismatches(s, graphs):
    """The relations, of L and R, whose graph in ``graphs`` differs from the
    Cayley graph of ``u_of(s)``: as sets of out-neighbours, or in the order
    of ``u_of(s).generators`` that lem5.5.2 reads."""
    u = u_of(s)
    cells = {"L": lambda x, g: u.table[g][x], "R": lambda x, g: u.table[x][g]}
    return [
        rel for rel, succ in zip("LR", graphs)
        if list(map(set, succ)) != list(map(set, _cayley_successors(u, rel)))
        or succ != [tuple(cells[rel](x, g) for g in u.generators) for x in range(u.order)]
    ]


def test_extension_graphs_are_the_cayley_graphs_of_the_extension_table():
    inputs = extension_inputs()
    assert len(inputs) > 5
    for s in inputs:
        assert u_of(s).generators == s.generators + (s.order,)
        assert _u_graph_mismatches(s, u_of_graphs(s)) == [], s.table


def test_a_mutant_extension_rule_fails_the_graph_comparison():
    s = fixture("fig1_s")
    left, right = u_of_graphs(s)
    x_1 = s.order
    # x_t * x_1 = x_1 instead of x_z
    mutant = [row[:-1] + (x_1,) if x > x_1 else row for x, row in enumerate(right)]
    assert _u_graph_mismatches(s, (left, mutant)) == ["R"]


def test_restriction_to_all_of_s_is_s_itself():
    g = cyclic_group(3)
    assert _restrict(g, range(3)) is g
    s = fixture("fig1_u")
    part = _restrict(s, minimal_ideal(s).members)
    assert part is not s and part.table == ((0,),)


def test_extension_of_the_trivial_zero_semigroup_is_figure_one():
    s = build_semigroup([[0]])
    u = u_of(s)
    assert u.table == fixture("fig1_s").table


def test_extension_embeds_the_original_and_adds_a_null_ideal():
    s = fixture("fig1_s")
    u = u_of(s)
    n = s.order
    assert u.order == 2 * n + 1
    for a in range(n):
        for b in range(n):
            assert u.table[a][b] == s.table[a][b]
    fresh = list(range(n, 2 * n + 1))
    for x in fresh:
        for y in fresh:
            assert u.table[x][y] == u.zero
    assert Ideal(u, frozenset(fresh))  # the fresh part really is an ideal


def test_extension_height_laws_on_fixtures():
    s = fixture("fig1_s")
    u = u_of(s)
    assert k_height(u, "L") == k_height(s, "L") + 1 == 3
    assert k_height(u, "R") == 2 * k_height(s, "R") + 1 == 7


def test_iterated_extension_follows_the_doubling_law():
    s = fixture("fig1_s")
    uu = u_of(u_of(s))
    expected = 2 * (2 * k_height(s, "R") + 1) + 1
    assert k_height(uu, "R") == expected == longest_chain_oracle(uu, "R")


def test_nm_family_base_and_figure_case():
    assert nm_family(1, 1).order == 1
    s = nm_family(2, 3)
    assert s.table == fixture("fig1_s").table  # same table up to the stored names


def test_nm_family_full_sweep_small():
    for n in range(1, 5):
        for m in range(n, 2**n):
            s = nm_family(n, m)
            assert s.order == m
            assert k_height(s, "L") == n
            assert k_height(s, "R") == m
            assert k_height(s, "J") == m
            assert k_classes(s, "J").class_count == m  # J-trivial


def test_nm_family_equals_its_recursive_form_for_n_at_most_6():
    pairs = [(n, m) for n in range(1, 7) for m in range(n, 2**n)]
    assert len(pairs) == 105
    for n, m in pairs:
        got, want = nm_family(n, m), naive_nm_family(n, m)
        assert got.table == want.table and got.names == want.names, (n, m)
        assert (got.identity, got.zero) == (want.identity, want.zero), (n, m)
        assert got.generators == want.generators, (n, m)


def test_nm_family_recursion_does_not_grow_with_n():
    # the recursive form needed one frame per adjoined identity: 400 here
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); sys.setrecursionlimit(200)\n"
        "from greenheights import nm_family\n"
        "assert nm_family(400, 400).order == 400"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()


def test_nm_family_builds_a_number_of_tables_logarithmic_in_m(monkeypatch):
    # adjoining the 49 identities one at a time built 50 tables here
    built = []
    post_init = FiniteSemigroup.__post_init__

    def counted(self):
        built.append(self.order)
        post_init(self)

    monkeypatch.setattr(FiniteSemigroup, "__post_init__", counted)
    assert nm_family(50, 50).order == 50
    assert len(built) <= 2 * (50).bit_length() + 1, built


def test_nm_family_rejects_out_of_range_parameters():
    for n, m in ((0, 1), (2, 1), (2, 4), (3, 8)):
        with pytest.raises(RangeError):
            nm_family(n, m)


def test_asym_family_small_values():
    u2 = asym_family(2)
    assert u2.order == 5
    assert u2.table == fixture("fig2_u2").table
    u3 = asym_family(3)
    assert u3.order == 37
    assert [k_height(u3, k) for k in "LRJ"] == [8, 8, 12]


def test_asym_family_flags_the_degenerate_case():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = asym_family(1)
    assert s.order == 1
    assert any(issubclass(w.category, RuntimeWarning) for w in caught)
    with pytest.raises(RangeError):
        asym_family(0)


def test_squarefree_words_orders_and_heights():
    expected_orders = {1: 2, 2: 5, 3: 16, 4: 65}
    for k, order in expected_orders.items():
        s = squarefree_words(k)
        assert s.order == order
        assert [k_height(s, rel) for rel in "LRJ"] == [k + 1] * 3
        assert k_height(s, "H") == 2
    with pytest.raises(RangeError):
        squarefree_words(0)
    with pytest.raises(RangeError):
        squarefree_words(7)


def test_squarefree_word_names_and_collapse():
    s = squarefree_words(2)
    assert s.names == ("x", "y", "xy", "yx", "0")
    x, y, xy, yx, zero = range(5)
    assert s.table[x][y] == xy
    assert s.table[y][x] == yx
    assert s.table[x][x] == zero
    assert s.table[xy][yx] == zero


def test_squarefree_words_equal_the_letter_set_oracle():
    # the letter bitmasks decide each product as the old set test did
    for k in range(1, 6):
        rows, names = naive_squarefree_words(k)
        assert squarefree_words(k) == build_semigroup(rows, names)


def test_fixture_registry():
    assert fixture("fig1_s").order == 3
    assert fixture("fig1_u").order == 7
    assert fixture("fig2_u2").order == 5
    with pytest.raises(UnknownFixtureError):
        fixture("bicyclic_truncation_none")
    with pytest.raises(UnknownFixtureError):
        fixture("nope")


def test_fig2_u2_analysis_matches_the_displayed_posets():
    report = analyze(fixture("fig2_u2"))
    assert (report.H_L, report.H_R, report.H_J, report.H_H) == (3, 3, 4, 2)
    assert report.has_zero and not report.regular


def test_recipe_objects():
    assert build_from_string("nm:2,3").order == 3
    assert build_from_string("u-of:fig1_s").order == 7
    assert build_from_string("rees:fig1_u,3").order == 4
    with pytest.raises(ParseError):
        build_from_string("frobnicate:1")


def test_asymmetric_family_ingredients_at_n_two():
    # the order-9 product collapses onto the five-element table
    s = nm_family(2, 3)
    t = opposite(s)
    p = direct_product(s, t)
    assert p.order == 9
    members = frozenset(
        {s.zero * t.order + j for j in range(t.order)}
        | {i * t.order + t.zero for i in range(s.order)}
    )
    q = rees_quotient(p, Ideal(p, members))
    assert q.order == 5


def test_extension_laws_on_every_small_semigroup_with_zero():
    for order in (1, 2, 3):
        for s in census(order):
            if s.zero is None:
                continue
            u = u_of(s)
            assert k_height(u, "L") == k_height(s, "L") + 1
            assert k_height(u, "R") == 2 * k_height(s, "R") + 1


def test_adjoining_zero_then_quotienting_by_socle_bounds():
    # socle quotient inequalities on a few concrete cases
    from greenheights.structure import left_socle

    for base in census(3)[::6]:
        s = base if base.zero is not None else adjoin_zero(base)
        socle = left_socle(s)
        q = rees_quotient(s, socle)
        if s.order >= 2:
            assert k_height(s, "L") == k_height(q, "L") + 1
        assert k_height(s, "R") <= 2 * k_height(q, "R") + 1
        assert k_height(s, "J") <= k_height(q, "R") + k_height(q, "J") + 1


def test_socle_bounds_on_sampled_order_five_and_six_inputs():
    from helpers import sampled_zero_semigroups
    from greenheights.structure import left_socle

    for s in sampled_zero_semigroups(150):
        socle = left_socle(s)
        q = rees_quotient(s, socle)
        assert k_height(s, "L") == k_height(q, "L") + 1
        assert k_height(s, "R") <= 2 * k_height(q, "R") + 1
        assert k_height(s, "J") <= k_height(q, "R") + k_height(q, "J") + 1


def test_full_range_family_members_keep_a_left_identity():
    for n in range(1, 5):
        s = nm_family(n, 2**n - 1)
        assert any(
            all(s.table[e][a] == a for a in range(s.order))
            for e in range(s.order)
        )

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenheights import (
    FIXTURE_NAMES,
    NoZeroError,
    build_semigroup,
    fixture,
    group_bound_exponents,
    is_0_simple,
    is_completely_0_simple,
    is_completely_semisimple,
    is_completely_simple,
    is_group_bound,
    is_inverse,
    is_left_stable,
    is_regular,
    is_right_stable,
    is_semisimple,
    is_simple,
    is_stable,
    k_height,
    left_socle,
    minimal_ideal,
    opposite,
    principal_factors,
    right_socle,
    squarefree_words,
    u_of,
    zero_minimal_classes,
)
from greenheights.enumeration import closure, compose, transformation_name
from greenheights.green import GreenStructure, k_classes
from greenheights.recipes import build_from_string
import greenheights.structure as structure_module

from helpers import (
    adjoin_zero,
    census,
    cyclic_group,
    differential_inputs,
    left_zero,
    naive_leq_matrix,
    naive_principal_factor,
    naive_semisimplicity,
    naive_side_stable,
    semisimplicity_inputs,
)


def full_transformation_monoid(degree):
    import itertools

    elems = closure(list(itertools.product(range(degree), repeat=degree)))
    position = {f: i for i, f in enumerate(elems)}
    table = [[position[compose(f, g)] for g in elems] for f in elems]
    return build_semigroup(table, [transformation_name(f) for f in elems])


def test_every_small_semigroup_is_stable():
    for order in (1, 2, 3):
        for s in census(order):
            assert is_left_stable(s)
            assert is_right_stable(s)
            assert is_stable(s)


def test_named_semigroups_are_stable():
    assert is_stable(fixture("fig2_u2"))
    assert is_stable(left_zero(3))


def test_group_bound_with_exponents():
    g = cyclic_group(5)
    assert is_group_bound(g)
    assert group_bound_exponents(g) == (1, 1, 1, 1, 1)


def test_squarefree_exponents_stay_within_the_h_height():
    s = squarefree_words(2)
    exponents = group_bound_exponents(s)
    assert max(exponents) <= k_height(s, "H") == 2
    # every nonzero word squares to zero, so its second power sits in {0}
    assert all(e <= 2 for e in exponents)


@settings(max_examples=40)
@given(st.sampled_from(census(3)))
def test_group_bound_everywhere(s):
    assert is_group_bound(s)


def test_minimal_ideal_examples():
    assert minimal_ideal(fixture("fig1_s")).members == {2}  # {z}
    s = left_zero(4)
    assert minimal_ideal(s).members == set(range(4))
    with_zero = adjoin_zero(cyclic_group(3))
    assert minimal_ideal(with_zero).members == {3}


@settings(max_examples=40)
@given(st.sampled_from(census(3)))
def test_minimal_ideal_is_a_union_of_minimal_h_classes_and_completely_simple(s):
    from greenheights import k_classes

    minimal = minimal_ideal(s).members
    gh = k_classes(s, "H")
    union = set()
    for i, covered in enumerate(gh.dag):
        if not covered:
            union.update(gh.classes[i])
    assert union == minimal
    factor = next(pf for pf in principal_factors(s) if pf.j_class == minimal)
    assert k_height(factor.factor, "H") == 1


def test_simplicity_predicates():
    assert is_simple(cyclic_group(4))
    assert is_completely_simple(left_zero(3))
    assert not is_simple(fixture("fig2_u2"))
    g0 = adjoin_zero(cyclic_group(2))
    assert is_0_simple(g0)
    assert is_completely_0_simple(g0)


def test_zero_semigroup_is_not_0_simple():
    null2 = build_semigroup([[1, 1], [1, 1]])  # both products hit the zero
    assert null2.zero == 1
    assert not is_0_simple(null2)


def test_0_simple_requires_a_zero():
    with pytest.raises(NoZeroError):
        is_0_simple(cyclic_group(3))
    with pytest.raises(NoZeroError):
        left_socle(cyclic_group(3))


def test_left_socle_of_the_extension_is_the_fresh_part_plus_zero():
    s = fixture("fig1_s")
    u = u_of(s)
    n = s.order
    assert left_socle(u).members == set(range(n, 2 * n + 1)) | {s.zero}


def test_left_socle_of_a_null_semigroup_is_everything():
    k = 4
    rows = [[k - 1] * k for _ in range(k)]
    null = build_semigroup(rows)
    assert left_socle(null).members == set(range(k))


def test_squarefree_socle_contains_exactly_the_two_letter_words_and_zero():
    s = squarefree_words(2)
    socle = left_socle(s)
    assert sorted(s.name_of(i) for i in socle.members) == ["0", "xy", "yx"]


def test_right_socle_is_the_dual():
    # the right socle is read from the R-classes; the left socle of the
    # opposite table is the independent oracle
    named = [fixture(name) for name in FIXTURE_NAMES]
    named += [build_from_string(r) for r in ("sqfree:3", "asym:3", "nm:3,6")]
    named += [u_of(fixture("fig1_s")), u_of(fixture("fig2_u2"))]
    inputs = [s for order in range(1, 5) for s in census(order)] + named
    with_zero = [s for s in inputs if s.zero is not None]
    assert len(with_zero) > len(named)
    for s in with_zero:
        assert right_socle(s).members == left_socle(opposite(s)).members


def test_principal_factors_of_a_group():
    g = cyclic_group(3)
    factors = principal_factors(g)
    assert len(factors) == 1
    assert factors[0].kind == "simple"
    assert factors[0].factor.table == g.table


def test_principal_factors_of_squarefree_words():
    s = squarefree_words(2)
    factors = principal_factors(s)
    by_kind = sorted(pf.kind for pf in factors)
    # minimal ideal {0} is its own simple factor; all others are null
    assert by_kind == ["null", "null", "null", "null", "simple"]
    for pf in factors:
        if pf.kind == "null":
            z = pf.factor.zero
            assert all(v == z for row in pf.factor.table for v in row)


def test_principal_factors_match_the_cell_by_cell_oracle():
    from greenheights.recipes import build_from_string

    named = [
        build_from_string(r) for r in ("sqfree:3", "asym:3", "fixture:fig1_u", "fixture:fig2_u2")
    ]
    semigroups = [s for order in range(1, 5) for s in census(order)] + named
    assert len(semigroups) == 3614 + 4
    for s in semigroups:
        minimal = minimal_ideal(s).members
        for pf in principal_factors(s):
            if pf.j_class == minimal:
                assert pf.kind == "simple"
                continue
            expected, stays = naive_principal_factor(s, pf.j_class)
            assert pf.factor.table == expected.table
            assert pf.factor.names == expected.names
            assert pf.kind == ("zero_simple" if stays else "null")


def test_principal_factors_of_the_full_transformation_monoid_on_two_points():
    t2 = full_transformation_monoid(2)
    assert t2.order == 4
    factors = principal_factors(t2)
    kinds = {frozenset(t2.name_of(i) for i in pf.j_class): pf.kind for pf in factors}
    assert kinds == {
        frozenset({"11", "22"}): "simple",      # the constants
        frozenset({"12", "21"}): "zero_simple",  # the units
    }


def test_regular_and_inverse_examples():
    assert is_regular(cyclic_group(4))
    assert is_inverse(cyclic_group(4))
    assert not is_regular(squarefree_words(2))
    two_chain = build_semigroup([[0, 1], [1, 1]])
    assert is_inverse(two_chain)
    t2 = full_transformation_monoid(2)
    assert is_regular(t2)
    assert not is_inverse(t2)


def test_semisimplicity_examples():
    assert is_semisimple(cyclic_group(5))
    assert is_completely_semisimple(cyclic_group(5))
    assert not is_semisimple(squarefree_words(2))
    assert not is_completely_semisimple(squarefree_words(2))


def test_regular_agrees_with_completely_semisimple():
    # the flags read the idempotents of the J-classes; the oracle builds and
    # classifies every principal factor
    inputs = semisimplicity_inputs()
    assert len(inputs) > 3614 + 7
    seen = set()
    for s in inputs:
        semisimple, completely = naive_semisimplicity(s)
        assert is_semisimple(s) == semisimple
        assert is_completely_semisimple(s) == completely
        assert is_regular(s) == completely
        seen.add(semisimple)
    assert seen == {False, True}


@settings(max_examples=40)
@given(st.sampled_from(census(3)))
def test_semisimple_bounds_the_two_sided_height(s):
    if is_semisimple(s):
        assert k_height(s, "J") <= min(k_height(s, "L"), k_height(s, "R"))


@settings(max_examples=40)
@given(st.sampled_from(census(3)))
def test_side_height_two_forces_small_two_sided_height(s):
    hl, hr, hj, hh = (k_height(s, k) for k in "LRJH")
    if hl == 2 or hr == 2:
        assert hj in (2, 3)
    if hl == 2:
        assert hh == 2 and hr == hj


def _brute_zero_minimal_classes(s, relation):
    """The K-classes, as element sets, whose only strictly lower class is {0}."""
    le = naive_leq_matrix(s, relation)
    n = s.order
    class_of = [frozenset(b for b in range(n) if le[a][b] and le[b][a]) for a in range(n)]
    out = set()
    for a in range(n):
        lower = {class_of[b] for b in range(n) if le[b][a] and not le[a][b]}
        if lower == {class_of[s.zero]}:
            out.add(class_of[a])
    return out


def test_zero_minimal_classes_match_naive_leq():
    found = 0
    for s in census(3) + census(4)[::9]:
        if s.zero is None:
            continue
        for relation in ("L", "R", "J", "H"):
            g = k_classes(s, relation)
            got = {frozenset(g.classes[c]) for c in zero_minimal_classes(s, relation)}
            assert got == _brute_zero_minimal_classes(s, relation)
            found += len(got)
    assert found > 0


def test_stability_matches_the_element_pair_oracle():
    for s in differential_inputs():
        assert is_left_stable(s) == naive_side_stable(s, "L")
        assert is_right_stable(s) == naive_side_stable(s, "R")


@pytest.mark.parametrize("relation", ["L", "R"])
def test_a_class_strictly_below_another_in_its_j_class_is_unstable(monkeypatch, relation):
    # a made-up order, since every finite semigroup is stable: two K-classes,
    # the second strictly below the first, inside a single J-class
    s = left_zero(2)
    fake = {
        relation: GreenStructure(relation, (0, 1), ((0,), (1,)), (0b10, 0), (1, 2)),
        "J": GreenStructure("J", (0, 0), ((0, 1),), (0,), (1,)),
    }
    real = structure_module.k_classes
    monkeypatch.setattr(
        structure_module, "k_classes", lambda t, rel: fake.get(rel) or real(t, rel)
    )
    stable = {"L": is_left_stable(s), "R": is_right_stable(s)}
    assert stable == {"L": relation != "L", "R": relation != "R"}

"""Tables that the package derives from a semigroup it already has (Rees
quotients, U(S), principal factors, duals, products, an adjoined identity)
are built without validating them again. These tests hold each such table
to a fully validated build of the same table, and keep full validation at
every entry point for tables from outside."""

import pickle
from functools import lru_cache

import pytest

from greenheights import (
    AssociativityError,
    adjoin_identity,
    build_semigroup,
    direct_product,
    fixture,
    format_mtab,
    group_bound_exponents,
    ideal_closure,
    minimal_ideal,
    opposite,
    parse_mtab,
    principal_factors,
    rees_quotient,
    u_of,
)
from greenheights import enumeration
from greenheights.constructions import _product_mod_zero_pairs, nm_family
from greenheights.core import FiniteSemigroup, Ideal, _derived_semigroup, unique_names
from greenheights.enumeration import EnumerationConfig, enumerate_semigroups
from greenheights.recipes import build_from_string
from greenheights.structure import left_socle

from helpers import census, naive_group_bound_exponents, naive_principal_factor

NAMED = ("sqfree:3", "sqfree:4", "sqfree:5", "asym:2", "asym:3", "asym:4", "nm:5,20")


@lru_cache(maxsize=None)
def differential_inputs():
    """(semigroup, whether it is a base input): the census of orders 1-4 and
    the named constructions, each followed, when it has a zero, by U(S) and
    U(S) modulo its left socle."""
    out = []
    for s in [s for order in range(1, 5) for s in census(order)] + [
        build_from_string(r) for r in NAMED
    ]:
        out.append((s, True))
        if s.zero is not None:
            u = u_of(s)
            out += [(u, False), (rees_quotient(u, left_socle(u)), False)]
    return tuple(out)


def _generates(s):
    """Whether ``s.generators`` reaches every element by right multiplication.
    On an associative table that closure is the magma closure."""
    gens = s.generators
    reached = set(gens)
    frontier = list(gens)
    while frontier:
        x = frontier.pop()
        for p in map(s.table[x].__getitem__, gens):
            if p not in reached:
                reached.add(p)
                frontier.append(p)
    return len(reached) == s.order


def _cells(n, cell):
    return [[cell(a, b) for b in range(n)] for a in range(n)]


def _derivations(s, extend):
    """(label, derived table, the same table validated by build_semigroup),
    with U(S) only when ``extend`` is set. The validated table is built cell
    by cell, except U(S)'s: test_constructions holds u_of to the cell-by-cell
    ``naive_u_of``, so here it is validated from its own rows."""
    n = s.order
    minimal = minimal_ideal(s)
    ideals = {minimal.members: minimal}
    if s.zero is not None:
        socle = left_socle(s)
        ideals[socle.members] = socle
    if n <= 4:
        ideals.update((i.members, i) for i in map(ideal_closure, [s] * n, ([a] for a in range(n))))
    for members, ideal in ideals.items():
        oracle, _ = naive_principal_factor(s, [a for a in range(n) if a not in members])
        yield f"rees {sorted(members)}", rees_quotient(s, ideal), oracle
    minimal = minimal.members
    for pf in principal_factors(s):
        if pf.j_class == minimal:
            elems = sorted(minimal)
            sub = build_semigroup(
                [[elems.index(s.table[a][b]) for b in elems] for a in elems],
                None if s.names is None else [s.names[e] for e in elems],
            )
            yield "minimal ideal", pf.factor, sub
        else:
            oracle, _ = naive_principal_factor(s, pf.j_class)
            yield f"factor {sorted(pf.j_class)}", pf.factor, oracle
    yield "opposite", opposite(s), build_semigroup(_cells(n, lambda a, b: s.table[b][a]), s.names)
    with_one = _cells(n + 1, lambda a, b: b if a == n else a if b == n else s.table[a][b])
    names = None if s.names is None else unique_names(list(s.names) + ["1"])
    yield "adjoin_identity", adjoin_identity(s), build_semigroup(with_one, names)
    if s.zero is not None and extend:
        u = u_of(s)
        yield "u_of", u, build_semigroup(u.table, u.names)
    if n <= 3:
        t = fixture("fig1_s")
        m = t.order
        pairs = _cells(n * m, lambda a, b: s.table[a // m][b // m] * m + t.table[a % m][b % m])
        names = unique_names(
            f"({s.name_of(i)},{t.name_of(j)})" for i in range(n) for j in range(m)
        )
        yield "product", direct_product(s, t), build_semigroup(pairs, names)


def test_derived_tables_equal_their_validated_builds_and_keep_a_generating_set():
    checked = 0
    for s, base in differential_inputs():
        assert _generates(s)
        for label, derived, oracle in _derivations(s, extend=base):
            # FiniteSemigroup equality covers table, names, identity and zero
            assert derived == oracle, (s, label)
            assert _generates(derived), (s, label)
            checked += 1
    assert checked > 30000


def test_every_semigroup_carries_a_generating_set():
    # x*y = max(x, y) on 0..n-1 needs every element as a generator
    chain = tuple(tuple(max(x, y) for y in range(1000)) for x in range(1000))
    direct = [FiniteSemigroup(fixture("fig2_u2").table), FiniteSemigroup(chain)]
    assert direct[1].generators == tuple(range(1000))
    built = [s for s, _ in differential_inputs()[:50]] + [build_from_string("asym:3")]
    for s in direct + built:
        copy = pickle.loads(pickle.dumps(s))
        assert copy == s and copy.generators == s.generators
        derived = _derived_semigroup(s.table, s.names)
        assert derived.table == s.table
        for t in (s, copy, derived):
            assert isinstance(t.generators, tuple) and _generates(t)


def test_the_asym_quotient_equals_the_quotient_of_the_full_product():
    for n in range(2, 6):
        left = nm_family(n, 2**n - 1)
        right = opposite(left)
        product = direct_product(left, right)
        nt = right.order
        members = {left.zero * nt + j for j in range(nt)} | {
            i * nt + right.zero for i in range(left.order)
        }
        expected = rees_quotient(product, Ideal(product, frozenset(members)))
        got = _product_mod_zero_pairs(left, right)
        assert got == expected
        assert got.names == expected.names
        assert _generates(got)


def test_group_bound_exponents_stop_at_the_first_power_in_a_subgroup():
    for s, _ in differential_inputs():
        assert group_bound_exponents(s) == naive_group_bound_exponents(s)


NON_ASSOCIATIVE = [[1, 1], [0, 0]]
WITNESS = (0, 0, 0)  # (0*0)*0 = 1*0 = 0, but 0*(0*0) = 0*1 = 1

def test_build_semigroup_and_parse_mtab_still_validate():
    for build in (
        lambda: build_semigroup(NON_ASSOCIATIVE),
        lambda: parse_mtab("2\n1 1\n0 0\n"),
    ):
        with pytest.raises(AssociativityError) as caught:
            build()
        assert caught.value.witness == WITNESS


def test_the_enumerator_still_validates(monkeypatch):
    def bad_tables(order, relabellings=()):
        yield tuple(map(tuple, NON_ASSOCIATIVE))

    monkeypatch.setattr(enumeration, "associative_tables", bad_tables)
    with pytest.raises(AssociativityError) as caught:
        list(enumerate_semigroups(EnumerationConfig(order=2)))
    assert caught.value.witness == WITNESS


@pytest.mark.parametrize("recipe", ["u-of:{}", "rees:{},0", "op:{}", "prod:{},fig1_s",
                                    "prod:fig1_s,{}", "s1:{}"])
def test_recipe_sources_are_validated_before_any_derivation(tmp_path, recipe):
    path = tmp_path / "bad.mtab"
    path.write_text("2\n1 1\n0 0\n", encoding="utf-8")
    with pytest.raises(AssociativityError) as caught:
        build_from_string(recipe.format(path))
    assert caught.value.witness == WITNESS


def test_recipe_results_match_a_validated_round_trip(tmp_path):
    source = tmp_path / "a3.mtab"
    source.write_text(format_mtab(build_from_string("asym:3")), encoding="utf-8")
    for recipe in (f"u-of:{source}", f"op:{source}", f"s1:{source}", f"rees:{source},0"):
        derived = build_from_string(recipe)
        again = parse_mtab(format_mtab(derived))
        assert derived == again
        assert _generates(derived)

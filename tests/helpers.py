"""Shared test utilities: cached censuses, a naive preorder, small builders."""

import itertools
import random
from functools import lru_cache

from greenheights import build_semigroup
from greenheights.enumeration import (
    associative_tables,
    closure,
    compose,
    random_transformation_subsemigroup,
)


@lru_cache(maxsize=None)
def census_tables(order):
    return tuple(associative_tables(order))


@lru_cache(maxsize=None)
def census(order):
    return tuple(build_semigroup(t) for t in census_tables(order))


@lru_cache(maxsize=None)
def order_five_prefix(count):
    """The first ``count`` order-5 tables of the (lexicographic) census."""
    return tuple(itertools.islice(associative_tables(5), count))


def brute_force_canonical_table(table, fold_anti_isomorphs=False):
    """Oracle for canonical_table: build every relabelling, keep the least.

    Relabelling by ``perm`` sends cell (i, j) with value v to cell
    (perm[i], perm[j]) with value perm[v]; with ``fold_anti_isomorphs`` the
    relabellings of the transpose compete as well.
    """
    n = len(table)
    starts = [tuple(tuple(row) for row in table)]
    if fold_anti_isomorphs:
        starts.append(tuple(tuple(row) for row in zip(*table)))
    best = None
    for start in starts:
        for perm in itertools.permutations(range(n)):
            out = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    out[perm[i]][perm[j]] = perm[start[i][j]]
            candidate = tuple(tuple(row) for row in out)
            if best is None or candidate < best:
                best = candidate
    return best


def adjoin_zero(s):
    """Extend a table by one fresh absorbing element."""
    n = s.order
    rows = [list(row) + [n] for row in s.table]
    rows.append([n] * (n + 1))
    return build_semigroup(rows)


def left_zero(k):
    return build_semigroup([[a] * k for a in range(k)])


def right_zero(k):
    return build_semigroup([list(range(k)) for _ in range(k)])


def cyclic_group(k):
    return build_semigroup([[(a + b) % k for b in range(k)] for a in range(k)])


@lru_cache(maxsize=None)
def sampled_zero_semigroups(count):
    """Deterministic order-5/6 semigroups with zero, from seeded closures.

    Transformation closures of degree <= 3 stay small (at most 27 elements);
    a missing zero is adjoined, and only resulting orders 5 and 6 are kept.
    """
    out = []
    seed = 0
    while len(out) < count and seed < 100000:
        degree = 2 + seed % 2
        rng = random.Random(seed)
        generators = [
            tuple(rng.randrange(degree) for _ in range(degree))
            for _ in range(1 + seed % 3)
        ]
        elements = closure(generators)
        if len(elements) in (4, 5, 6):
            position = {f: i for i, f in enumerate(elements)}
            table = [
                [position[compose(f, g)] for g in elements] for f in elements
            ]
            s = build_semigroup(table)
            if s.zero is None:
                s = adjoin_zero(s)
            if s.order in (5, 6):
                out.append(s)
        seed += 1
    return tuple(out)


@lru_cache(maxsize=None)
def order_five_and_six_samples():
    """Order-5/6 semigroups with and without zero.

    Every 50th of the first 10,000 order-5 census tables, the seeded
    transformation closures of degree 3 that have order 5 or 6, and the
    zero-extended closures of ``sampled_zero_semigroups``.
    """
    stride = tuple(build_semigroup(t) for t in order_five_prefix(10000)[::50])
    closures = tuple(
        s
        for s in (
            random_transformation_subsemigroup(3, 1 + seed % 3, seed) for seed in range(300)
        )
        if s.order in (5, 6)
    )
    return stride + closures + sampled_zero_semigroups(500)


def naive_leq(s, relation, a, b):
    """Definitional dominance check: quantify over the monoid extension."""
    table = s.table
    with_one = list(range(s.order)) + [None]

    def lmul(x, y):
        return y if x is None else table[x][y]

    def rmul(y, x):
        return y if x is None else table[y][x]

    if relation == "L":
        return any(lmul(x, b) == a for x in with_one)
    if relation == "R":
        return any(rmul(b, x) == a for x in with_one)
    if relation == "J":
        return any(rmul(lmul(x, b), y) == a for x in with_one for y in with_one)
    if relation == "H":
        return naive_leq(s, "L", a, b) and naive_leq(s, "R", a, b)
    raise ValueError(relation)

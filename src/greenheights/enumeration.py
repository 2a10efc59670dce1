"""Exhaustive generation of small semigroups and random transformation
subsemigroups, feeding the verification harness.

The backtracking generator fills the table row-major and, after every cell
assignment, rechecks exactly those associativity triples whose remaining
cells just became determined, so each violated triple is caught as soon as it
is decidable. A filter-after-generate oracle provides an independent route
for validating the generator at small orders.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .core import FiniteSemigroup, build_semigroup
from .errors import RangeError


@dataclass(frozen=True)
class EnumerationConfig:
    """Parameters for the exhaustive generator.

    ``up_to_isomorphism`` keeps exactly one table per isomorphism class (the
    lexicographically least relabelling); ``include_anti_isomorphs``, on by
    default, keeps anti-isomorphic classes distinct, since the left/right
    asymmetry is the point of the analysis.
    """

    order: int
    up_to_isomorphism: bool = False
    include_anti_isomorphs: bool = True
    limit: int | None = None

    def __post_init__(self):
        if not 1 <= self.order <= 5:
            raise RangeError(f"exhaustive enumeration supports orders 1..5, got {self.order}")
        if self.limit is not None and self.limit < 0:
            raise RangeError("limit must be nonnegative")


def _consistent_after(table, n, a, b):
    """Check all associativity triples whose last undetermined cell was (a, b).

    The new cell can play four roles in a triple (x, y, z): the inner-left
    cell (x, y), the inner-right cell (y, z), the outer-left cell (xy, z), or
    the outer-right cell (x, yz). Unset cells are -1.
    """
    c = table[a][b]
    row_a = table[a]
    row_b = table[b]
    row_c = table[c]
    for x in range(n):
        # triple (x, a, b): new cell is inner-right
        xa = table[x][a]
        if xa >= 0:
            left = table[xa][b]
            right = table[x][c]
            if left >= 0 and right >= 0 and left != right:
                return False
        # triple (a, b, x): new cell is inner-left
        bx = row_b[x]
        if bx >= 0:
            left = row_c[x]
            right = row_a[bx]
            if left >= 0 and right >= 0 and left != right:
                return False
    for u in range(n):
        row_u = table[u]
        for v in range(n):
            value = row_u[v]
            if value == a:
                # triple (u, v, b): new cell is the outer-left (uv, b)
                vb = table[v][b]
                if vb >= 0:
                    right = row_u[vb]
                    if right >= 0 and right != c:
                        return False
            if value == b:
                # triple (a, u, v): new cell is the outer-right (a, uv)
                au = row_a[u]
                if au >= 0:
                    left = table[au][v]
                    if left >= 0 and left != c:
                        return False
    return True


def associative_tables(order: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All associative tables of the given order, in lexicographic order."""
    n = order
    table = [[-1] * n for _ in range(n)]
    cells = [(i, j) for i in range(n) for j in range(n)]

    def fill(k):
        if k == len(cells):
            yield tuple(tuple(row) for row in table)
            return
        i, j = cells[k]
        for value in range(n):
            table[i][j] = value
            if _consistent_after(table, n, i, j):
                yield from fill(k + 1)
        table[i][j] = -1

    yield from fill(0)


def brute_force_tables(order: int) -> list[tuple[tuple[int, ...], ...]]:
    """Filter-after-generate oracle: all n^(n*n) tables, kept if associative.

    Practical only for order <= 3; used to validate the backtracking
    generator. The associativity check here is the literal triple loop,
    independent of the incremental pruning above.
    """
    n = order
    out = []
    indices = range(n)
    for flat in itertools.product(indices, repeat=n * n):
        table = tuple(flat[i * n:(i + 1) * n] for i in range(n))
        if all(
            table[table[a][b]][c] == table[a][table[b][c]]
            for a in indices
            for b in indices
            for c in indices
        ):
            out.append(table)
    return out


@lru_cache(maxsize=1)
def _relabellings(n):
    """Every permutation of range(n), identity first, with its inverse.

    The inverse is stored per cell: ``source[i*n + j] = inv[i]*n + inv[j]`` is
    the position in the row-major source table that lands in cell (i, j).
    Only the last order is kept, since a census canonicalises one order at a
    time and the n! pairs grow quickly with n.
    """
    out = []
    for perm in itertools.permutations(range(n)):
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        source = tuple(inv[i] * n + inv[j] for i in range(n) for j in range(n))
        out.append((perm, source))
    return tuple(out)


def canonical_table(table, fold_anti_isomorphs: bool = False):
    """Lexicographically least relabelling, optionally also over the transpose.

    The relabelling of ``start`` by ``perm``, whose inverse is ``inv``, has
    cell (i, j) equal to ``perm[start[inv[i]][inv[j]]]``. All n! relabellings of the table (and of
    its transpose when ``fold_anti_isomorphs``) are compared against the
    least one so far, starting from the table itself, cell by cell in
    row-major order; each comparison stops at the first differing cell, and a
    candidate is built only when it is strictly smaller. So the cost is n!
    comparisons per start, each usually decided within a few cells, instead
    of n! tables of n*n cells.
    """
    n = len(table)
    best = tuple(v for row in table for v in row)
    starts = [best]
    if fold_anti_isomorphs:
        starts.append(tuple(v for column in zip(*table) for v in column))
    relabellings = _relabellings(n)
    for start in starts:
        for perm, source in relabellings:
            for k, least in zip(source, best):
                cell = perm[start[k]]
                if cell != least:
                    break
            else:
                continue
            if cell < least:
                best = tuple([perm[start[k]] for k in source])
    return tuple(best[i * n:(i + 1) * n] for i in range(n))


def enumerate_semigroups(config: EnumerationConfig) -> Iterator[FiniteSemigroup]:
    """Stream the census for one order, validated, deterministically ordered."""
    emitted = 0
    for table in associative_tables(config.order):
        if config.limit is not None and emitted >= config.limit:
            return
        if config.up_to_isomorphism:
            canonical = canonical_table(
                table, fold_anti_isomorphs=not config.include_anti_isomorphs
            )
            if table != canonical:
                continue
        yield build_semigroup(table)
        emitted += 1


# --- transformation subsemigroups ----------------------------------------
#
# Transformations of {1..degree} act on the right: x * (f then g) applies f
# first, so compose(f, g)[x] = g[f[x]]. Under this convention the constant
# maps multiply as a right-zero semigroup.

def compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(g[v] for v in f)


def transformation_name(f: tuple[int, ...]) -> str:
    return "".join(str(v + 1) for v in f)


def closure(generators) -> list[tuple[int, ...]]:
    """Close a set of transformations under composition; idempotent."""
    elements = set(generators)
    frontier = list(elements)
    while frontier:
        fresh = []
        for g in frontier:
            for f in list(elements):
                for product in (compose(f, g), compose(g, f)):
                    if product not in elements:
                        elements.add(product)
                        fresh.append(product)
        frontier = fresh
    return sorted(elements)


def random_transformation_subsemigroup(
    degree: int, generator_count: int, seed: int
) -> FiniteSemigroup:
    """Closure of seeded random transformations of {1..degree}.

    Deterministic in the seed; element names record the image tuples,
    1-based, e.g. '211' for the map 1->2, 2->1, 3->1.
    """
    if not 2 <= degree <= 5:
        raise RangeError(f"degree must be 2..5, got {degree}")
    if generator_count < 1:
        raise RangeError("need at least one generator")
    rng = random.Random(seed)
    generators = [
        tuple(rng.randrange(degree) for _ in range(degree))
        for _ in range(generator_count)
    ]
    elements = closure(generators)
    position = {f: i for i, f in enumerate(elements)}
    rows = [
        [position[compose(f, g)] for g in elements]
        for f in elements
    ]
    names = [transformation_name(f) for f in elements]
    return build_semigroup(rows, names)

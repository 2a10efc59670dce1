"""Exhaustive generation of small semigroups, which feeds the verification
harness, and random transformation subsemigroups, which feed the tests.

The backtracking generator fills the table row-major and, after every cell
assignment, rechecks exactly those associativity triples whose remaining
cells just became determined, so each violated triple is caught as soon as it
is decidable. The tests check it table for table against a filter-after-generate
oracle at small orders.

Up to isomorphism the search is orderly (Read, "Every one a winner", 1978;
McKay, "Isomorph-free exhaustive generation", 1998): it prunes every partial
table that some relabelling already makes lexicographically smaller, so it
yields exactly the tables that are their own ``canonical_table``, in the same
order, and reaches order 6. ``canonical_table`` confirms each table it emits.

The labeled census of an order is also the union of its classes' orbits:
:func:`labeled_orbits` applies every relabelling to each canonical table and
sorts the copies row-major, which is the labeled search's own order, so a
sweep can evaluate each class once and replay its record for every copy. The
copies are counted against the known labeled totals (OEIS A023814).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Iterator

from .core import FiniteSemigroup, build_semigroup
from .errors import InternalCheckError, RangeError


@dataclass(frozen=True)
class EnumerationConfig:
    """Parameters for the exhaustive generator.

    ``up_to_isomorphism`` keeps exactly one table per isomorphism class (the
    lexicographically least relabelling); ``include_anti_isomorphs``, on by
    default, keeps anti-isomorphic classes distinct, since the left/right
    asymmetry is the point of the analysis. Orders 1..5 are supported, and
    order 6 up to isomorphism only: its labeled census has about 1.7e7 tables.
    """

    order: int
    up_to_isomorphism: bool = False
    include_anti_isomorphs: bool = True
    limit: int | None = None

    def __post_init__(self):
        if not (1 <= self.order <= 5 or (self.order == 6 and self.up_to_isomorphism)):
            raise RangeError(
                "exhaustive enumeration supports orders 1..5, and order 6 only up to "
                f"isomorphism (--up-to-iso); got order {self.order}"
            )
        if self.limit is not None and self.limit < 0:
            raise RangeError("limit must be nonnegative")
        if not (self.include_anti_isomorphs or self.up_to_isomorphism):
            raise RangeError("folding anti-isomorphs needs enumeration up to isomorphism")


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


def associative_tables(
    order: int, relabellings=()
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All associative tables of the given order, in lexicographic order.

    ``relabellings`` holds (perm, source) pairs as built by ``_relabellings``:
    each stands for the table π(T) whose cell p is ``perm[T[source[p]]]``,
    counting cells row-major. A table is kept only if no π(T) is
    lexicographically smaller than T. Each π is compared with T as far as the
    cells set so far allow, resuming where it stopped: a smaller π(T) prunes
    the branch, a greater one drops π for the whole subtree, and an undecided
    one waits for the next cell.
    """
    n = order
    size = n * n
    table = [[-1] * n for _ in range(n)]
    flat = [-1] * size
    cells = [(i, j) for i in range(n) for j in range(n)]
    # ready[p] is the later of cells p and source[p], after which π(T) and T
    # compare at p; no cell reaches the sentinel, so a π that equals T on
    # every cell (an automorphism) stays undecided and prunes nothing
    alive = tuple(
        (perm, source, tuple(max(p, s) for p, s in enumerate(source)) + (size,), 0)
        for perm, source in relabellings
    )

    def fill(k, alive):
        if k == size:
            yield tuple(tuple(row) for row in table)
            return
        i, j = cells[k]
        row = table[i]
        for value in range(n):
            row[j] = value
            if not _consistent_after(table, n, i, j):
                continue
            if not alive:
                yield from fill(k + 1, alive)
                continue
            flat[k] = value
            undecided = []
            for perm, source, ready, p in alive:
                while ready[p] <= k:
                    image = perm[flat[source[p]]]
                    if image != flat[p]:
                        break
                    p += 1
                else:  # equal on every cell it can read so far
                    undecided.append((perm, source, ready, p))
                    continue
                if image < flat[p]:  # π(T) < T for every completion
                    break
            else:
                yield from fill(k + 1, undecided)
        row[j] = -1

    yield from fill(0, alive)


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


# The number of labeled semigroups of orders 1..5 (OEIS A023814).
LABELED_COUNTS = {1: 1, 2: 8, 3: 113, 4: 3492, 5: 183732}


def labeled_orbits(classes) -> tuple[list[bytes], list[int]]:
    """The labeled census of one order, built from its isomorphism classes.

    ``classes`` holds the canonical tables of one order, in the order the
    search up to isomorphism emits them. Every relabelling from
    ``_relabellings`` is applied to each class, and each copy is kept as a
    key: its cells row-major, one byte each, then its class's index in two
    bytes. So keys sort as the tables do, which is ``associative_tables(n,
    [])``'s order, and the copies an automorphism repeats collapse. Returns
    the sorted keys and, per class, the index of its first copy.

    Raises InternalCheckError unless there are as many copies as the known
    labeled total, and unless each class first appears as its own canonical
    table, after the classes before it: a class's canonical table is the
    least copy in its orbit, so both hold for a correct class list.
    """
    n = len(classes[0]) if classes else 0
    classes = [bytes(v for row in table for v in row) for table in classes]
    size = n * n
    suffixes = [c.to_bytes(2, "big") for c in range(len(classes))]
    keys = set()
    for perm, source in _relabellings(n):
        renamed = bytes(perm) + bytes(range(n, 256))
        # the cells are renamed, then moved; the two suffix bytes stay last
        copy = itemgetter(*source, size, size + 1)
        keys.update([
            bytes(copy(cells.translate(renamed) + suffix))
            for cells, suffix in zip(classes, suffixes)
        ])
    keys = sorted(keys)
    if len(keys) != LABELED_COUNTS.get(n):
        raise InternalCheckError(
            f"{len(classes)} classes of order {n} have {len(keys)} labeled copies, "
            f"not {LABELED_COUNTS.get(n)}"
        )
    first = []
    for i, key in enumerate(keys):
        c = int.from_bytes(key[size:], "big")
        if c == len(first):
            if key[:size] != classes[c]:
                raise InternalCheckError(
                    f"class {c} of order {n} first appears as a copy that is not its "
                    f"canonical table, at index {i}"
                )
            first.append(i)
        elif c > len(first):
            raise InternalCheckError(
                f"class {c} of order {n} appears before class {len(first)}, at index {i}"
            )
    return keys, first


def copy_table(key: bytes, n: int) -> tuple[tuple[int, ...], ...]:
    """The table of one key of :func:`labeled_orbits`."""
    return tuple(tuple(key[i * n:(i + 1) * n]) for i in range(n))


def copy_class(key: bytes, n: int) -> int:
    """The class index of one key of :func:`labeled_orbits`."""
    return int.from_bytes(key[n * n:], "big")


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
    """Stream the census for one order, validated, deterministically ordered.

    Up to isomorphism, the search prunes every partial table that a
    relabelling already makes smaller, and ``canonical_table`` confirms each
    table it emits.
    """
    n = config.order
    fold = not config.include_anti_isomorphs
    relabellings = []
    if config.up_to_isomorphism:
        relabellings += _relabellings(n)[1:]  # the identity leaves every table as it is
        if fold:
            # cell s of the transpose is cell (s % n) * n + s // n of the table
            relabellings += [
                (perm, tuple((s % n) * n + s // n for s in source))
                for perm, source in _relabellings(n)
            ]
    emitted = 0
    for table in associative_tables(n, relabellings):
        if config.limit is not None and emitted >= config.limit:
            return
        if config.up_to_isomorphism and canonical_table(table, fold) != table:
            raise InternalCheckError(f"the pruned search emitted a non-canonical table {table}")
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

"""Shared test utilities: cached censuses, a naive preorder, small builders."""

import dataclasses
import itertools
import random
from functools import lru_cache

from greenheights import Ideal, adjoin_identity, build_semigroup, rees_quotient, u_of
from greenheights.constructions import WORD_LETTERS
from greenheights.core import ideal_closure, unique_names
from greenheights.errors import InternalCheckError, NoZeroError
from greenheights.green import _longest_paths, below_masks, iter_bits, k_classes, k_height
from greenheights.recipes import build_from_string
from greenheights.structure import (
    is_completely_0_simple,
    left_socle,
    minimal_ideal,
    principal_factors,
)
from greenheights.verify import PRINCIPAL_IDEAL_LIMIT
from greenheights.enumeration import (
    associative_tables,
    canonical_table,
    closure,
    compose,
    random_transformation_subsemigroup,
)
import greenheights.structure as structure_module
import greenheights.verify as verify_module


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


def canonical_census(order, fold_anti_isomorphs=False):
    """Oracle for the pruned search up to isomorphism: the labeled census,
    in order, kept where a table is its own ``canonical_table``."""
    return (
        t for t in associative_tables(order)
        if canonical_table(t, fold_anti_isomorphs) == t
    )


def brute_force_tables(order):
    """Filter-after-generate oracle: all n^(n*n) tables, kept if associative.

    Practical only for order <= 3; validates the backtracking generator
    ``associative_tables``. The associativity check here is the literal
    triple loop, independent of the generator's incremental pruning.
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


def naive_principal_factor(s, members):
    """Oracle for a non-minimal principal factor: the J-class with a fresh
    zero adjoined and escaping products sent to it, built cell by cell.

    Returns the factor and whether some product stays inside the class.
    """
    elems = sorted(members)
    position = {e: i for i, e in enumerate(elems)}
    zero_index = len(elems)
    rows = []
    stays = False
    for a in elems:
        row = []
        for b in elems:
            p = s.table[a][b]
            if p in position:
                row.append(position[p])
                stays = True
            else:
                row.append(zero_index)
        row.append(zero_index)
        rows.append(row)
    rows.append([zero_index] * (zero_index + 1))
    names = None
    if s.names is not None:
        names = unique_names([s.names[e] for e in elems] + ["0"])
    return build_semigroup(rows, names), stays


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


def brute_force_chain(s, relation):
    """Oracle for longest_chain_elements, from ``naive_leq`` alone.

    Among chains of equal length, the one that starts at the least index
    wins, both for the top element and for each tail below it.
    """
    n = s.order

    def strictly_below(b, a):
        return naive_leq(s, relation, b, a) and not naive_leq(s, relation, a, b)

    @lru_cache(maxsize=None)
    def longest_from(a):
        tail = ()
        for b in range(n):
            if strictly_below(b, a) and len(longest_from(b)) > len(tail):
                tail = longest_from(b)
        return (a,) + tail

    best = ()
    for a in range(n):
        if len(longest_from(a)) > len(best):
            best = longest_from(a)
    return best


def naive_class_order(s, relation):
    """Oracle for k_classes on an ordered relation, kept from its first form.

    Compares every pair of class representatives, transposes the strict
    order, reduces it to the Hasse diagram and pulls each height from the
    classes below. Returns (classes, below, dag, height), indexed like
    ``k_classes``: classes in order of their least members, bit j of
    ``below[i]`` set when class j lies strictly below class i.
    """
    masks = below_masks(s, relation)
    by_mask = {}
    for a, m in enumerate(masks):
        by_mask.setdefault(m, []).append(a)
    classes = tuple(tuple(members) for members in by_mask.values())
    count = len(classes)
    reps = [members[0] for members in classes]

    lt = [0] * count
    for i in range(count):
        mi = masks[reps[i]]
        for j in range(count):
            if i != j and (mi >> reps[j]) & 1:
                lt[i] |= 1 << j
    gt = [0] * count
    for i in range(count):
        for j in iter_bits(lt[i]):
            gt[j] |= 1 << i

    dag = []
    for i in range(count):
        covered = [j for j in iter_bits(lt[i]) if not (lt[i] & gt[j])]
        dag.append(tuple(covered))

    height = [0] * count
    order_by_height = sorted(range(count), key=lambda c: lt[c].bit_count())
    for c in order_by_height:
        lower = [height[q] for q in iter_bits(lt[c])]
        height[c] = 1 + max(lower, default=0)
    return classes, tuple(lt), tuple(dag), tuple(height)


def naive_height_within_ideal(s, ideal, relation):
    """Oracle for height_within_ideal, kept from its first form: the longest
    path through the classes inside the ideal, found afresh per call."""
    structure = k_classes(s, relation)
    below = structure.below
    inside = [c for c, cls in enumerate(structure.classes) if cls[0] in ideal.members]
    # a class strictly below another has a strictly smaller below-set
    nodes = sorted(inside, key=lambda c: below[c].bit_count())
    length, _ = _longest_paths(nodes, lambda c: iter_bits(below[c]))
    return max(length.values())


def naive_leq_matrix(s, relation):
    """``naive_leq`` for every pair: entry [a][b] says a <=_K b."""
    return [[naive_leq(s, relation, a, b) for b in range(s.order)] for a in range(s.order)]


@lru_cache(maxsize=None)
def differential_inputs():
    """Inputs for the differential tests against the mask-based oracles: the
    census of orders 1-4, ``order_five_and_six_samples()``, three named
    constructions and the null ideal extension of each that has a zero."""
    named = tuple(build_from_string(r) for r in ("sqfree:4", "asym:3", "nm:4,11"))
    extensions = tuple(u_of(s) for s in named if s.zero is not None)
    inputs = tuple(s for order in range(1, 5) for s in census(order))
    return inputs + order_five_and_six_samples() + named + extensions


def naive_d_partition(s):
    """Oracle for the D-classes, kept from the first form of k_classes: the
    join of the L- and R-partitions by union-find. Returns (class_of, classes)
    with classes in order of their least members."""
    n = s.order
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for relation in ("L", "R"):
        by_mask = {}
        for a, m in enumerate(below_masks(s, relation)):
            by_mask.setdefault(m, []).append(a)
        for members in by_mask.values():
            for other in members[1:]:
                rx, ry = find(members[0]), find(other)
                if rx != ry:
                    parent[max(rx, ry)] = min(rx, ry)

    roots = {}
    class_of = []
    classes = []
    for a in range(n):
        c = roots.setdefault(find(a), len(classes))
        if c == len(classes):
            classes.append([])
        class_of.append(c)
        classes[c].append(a)
    return tuple(class_of), tuple(tuple(c) for c in classes)


def naive_side_stable(s, relation):
    """Oracle for stability, kept from its first form: no pair a != b with
    a <=_K b and a J b but not b <=_K a, read off the element masks."""
    side = below_masks(s, relation)
    two_sided = below_masks(s, "J")
    n = s.order
    for a in range(n):
        for b in range(n):
            if a != b and (side[b] >> a) & 1 and two_sided[a] == two_sided[b]:
                if not (side[a] >> b) & 1:
                    return False
    return True


def naive_ideal_family(s):
    """Oracle for the claim harness's ideal family, kept from its first form:
    the minimal ideal, the left socle when there is a zero and, up to
    PRINCIPAL_IDEAL_LIMIT elements, the ideal closure of every element.
    Returns the member sets, ordered by size and then by sorted members."""
    family = {minimal_ideal(s).members}
    if s.zero is not None:
        family.add(left_socle(s).members)
    if s.order <= PRINCIPAL_IDEAL_LIMIT:
        family.update(ideal_closure(s, [a]).members for a in range(s.order))
    return sorted(family, key=lambda m: (len(m), sorted(m)))


def naive_u_of(s):
    """Oracle for the null ideal extension, kept from the first form of
    u_of, which set each cell of U(S) through the index of x_t."""
    if s.zero is None:
        raise NoZeroError("the null ideal extension needs a zero element")
    z = s.zero
    n = s.order
    total = 2 * n + 1

    def x(t: int) -> int:
        return n + 1 + t

    rows = [[0] * total for _ in range(total)]
    for a in range(n):
        row = rows[a]
        for b in range(n):
            row[b] = s.table[a][b]
        row[n] = n
        for t in range(n):
            row[x(t)] = x(t)
    row = rows[n]
    for b in range(n):
        row[b] = x(b)
    row[n] = x(z)
    for t in range(n):
        row[x(t)] = x(z)
    for t in range(n):
        row = rows[x(t)]
        for b in range(n):
            row[b] = x(s.table[t][b])
        row[n] = x(z)
        for u in range(n):
            row[x(u)] = x(z)
    base = s.element_names()
    names = unique_names(list(base) + ["x_1"] + [f"x_{b}" for b in base])
    out = build_semigroup(rows, names)
    if out.zero != x(z):
        raise InternalCheckError("the extension did not put its zero at x_z")
    return out


def naive_nm_family(n, m):
    """Oracle for ``nm_family``, kept from its first form, which recursed
    once per adjoined identity; practical for small n only."""
    if n == 1:
        return build_semigroup([[0]], ["e"])
    if m <= 2 ** (n - 1):
        return adjoin_identity(naive_nm_family(n - 1, m - 1))
    extended = u_of(naive_nm_family(n - 1, 2 ** (n - 1) - 1))
    size = extended.order
    right = k_classes(extended, "R")
    tail = frozenset(a for a in range(size) if right.height[right.class_of[a]] <= size + 1 - m)
    return rees_quotient(extended, Ideal(extended, tail))


def naive_group_bound_exponents(s):
    """Oracle for ``group_bound_exponents``, kept from its first form: all 2n
    powers of each element a, then the least k with a^k H a^(2k)."""
    h_of = k_classes(s, "H").class_of
    table = s.table
    n = s.order
    out = []
    for a in range(n):
        powers = [a]
        for _ in range(2 * n):
            powers.append(table[powers[-1]][a])
        found = None
        for k in range(1, n + 1):
            if h_of[powers[k - 1]] == h_of[powers[2 * k - 1]]:
                found = k
                break
        if found is None:
            raise InternalCheckError(
                f"element {a} has no power inside a subgroup within {n} steps"
            )
        out.append(found)
    return tuple(out)


def naive_lem34(s, n):
    """Oracle for the ``lem3.4`` evaluator with H_H = n, kept from its first
    form: a power walk to a^n and a^(2n) for each element a in turn."""
    table = s.table
    h_of = k_classes(s, "H").class_of
    for a in range(s.order):
        p = a
        for _ in range(n - 1):
            p = table[p][a]
        q = p
        for _ in range(n):
            q = table[q][a]
        if h_of[p] != h_of[q]:
            name = s.name_of(a)
            return False, (f"{name}^{n} and {name}^{2 * n} are not H-related",)
    return True, None


def naive_squarefree_words(k):
    """Oracle for ``squarefree_words``, kept from its first form: a product
    is a word when the concatenation repeats no letter, tested by
    ``len(set(w1 + w2))``. Returns (rows, names)."""
    words = []
    for length in range(1, k + 1):
        words.extend(itertools.permutations(range(k), length))
    words.sort(key=lambda w: (len(w), w))
    index = {w: i for i, w in enumerate(words)}
    zero = len(words)
    rows = [[zero] * (zero + 1) for _ in range(zero + 1)]
    for w1 in words:
        row = rows[index[w1]]
        for w2 in words:
            joined = w1 + w2
            if len(set(joined)) == len(joined):
                row[index[w2]] = index[joined]
    names = ["".join(WORD_LETTERS[i] for i in w) for w in words] + ["0"]
    return rows, names


@lru_cache(maxsize=None)
def semisimplicity_inputs():
    """Inputs for the differential test of the semisimplicity flags: the
    census of orders 1-4, ``sqfree:3..5``, ``asym:2..4`` and ``nm:5,20``,
    each followed by U(S) when it has a zero."""
    named = ("sqfree:3", "sqfree:4", "sqfree:5", "asym:2", "asym:3", "asym:4", "nm:5,20")
    out = []
    for s in [s for order in range(1, 5) for s in census(order)] + [
        build_from_string(r) for r in named
    ]:
        out.append(s)
        if s.zero is not None:
            out.append(u_of(s))
    return tuple(out)


def naive_semisimplicity(s):
    """Oracle for ``is_semisimple`` and ``is_completely_semisimple``, from
    their definitions on the principal factors: no factor is null, and every
    ``zero_simple`` factor is completely 0-simple as well. Returns the two
    flags in that order."""
    factors = principal_factors(s)
    semisimple = all(pf.kind != "null" for pf in factors)
    completely = semisimple and all(
        is_completely_0_simple(pf.factor) for pf in factors if pf.kind == "zero_simple"
    )
    return semisimple, completely


# Faults injected below the claims, each breaking the one fact that a claim
# states: lem2.1 and lem3.4 must report them, with no cross-check ahead of them.


def every_r_class_minimal(monkeypatch):
    """Make ``structure.k_classes`` put no R-class below another."""
    original = structure_module.k_classes

    def faulty(s, relation):
        got = original(s, relation)
        if relation != "R":
            return got
        return dataclasses.replace(got, below=(0,) * got.class_count)

    monkeypatch.setattr(structure_module, "k_classes", faulty)


def first_exponent_above_h_height(monkeypatch):
    """Make ``group_bound_exponents``, in ``structure`` and as ``verify``
    binds it, give element 0 the exponent H_H + 1."""
    original = structure_module.group_bound_exponents

    def faulty(s):
        return (k_height(s, "H") + 1,) + original(s)[1:]

    monkeypatch.setattr(structure_module, "group_bound_exponents", faulty)
    monkeypatch.setattr(verify_module, "group_bound_exponents", faulty)


# (fault, claim id, witness) on fixture:fig1_u: fig1_u has H_H = 3, element 0
# is e, and its minimal L-class is {x_z}
INJECTED_FAULTS = [
    (every_r_class_minimal, "lem2.1",
     ("minimal L-union {x_z}", "minimal R-union {e,a,z,x_1,x_e,x_a,x_z}")),
    (first_exponent_above_h_height, "lem3.4", ("e^3 and e^6 are not H-related",)),
]

"""Green's preorders, the posets of K-classes, and the height computations.

For K in {L, R, J}, a <=_K b holds exactly when a is reachable from b in the
left (x -> gx), right (x -> xg) or two-sided Cayley graph over any generating
set G (Froidure & Pin, "Algorithms for computing finite semigroups", 1997).
:func:`k_classes` takes G from ``FiniteSemigroup.generators`` (the set of
Light's test, the one a derived table inherits from its parent, or a greedy
one) and finds the K-classes as the graph's strongly connected components, with
each class's strict-below set and height pulled up from the classes below
it as the components complete: O(n |G|) edges instead of n^2 products. H is
the meet of L and R, so its classes come from the L- and R-classes' element
down-sets, intersected element by element. The component pass takes bare
successor lists, so it also serves graphs built without a table, such as
U(S)'s (:func:`~greenheights.constructions.u_of_graphs`).

Dominance bitmasks (:func:`below_masks`: bit a of ``below[b]`` says
a <=_K b) remain for the element-level work: :func:`preorder`, the witness
chains of :func:`longest_chain_elements` and the independent cross-check
:func:`longest_chain_oracle`. They also give the classes of tables of order
up to ``MASK_ROUTE_MAX_ORDER``, where grouping elements by mask is cheaper
than the graph search. D is read off the L- and R-classes as L o R. Other
modules read the classes and their order from :func:`k_classes` only; the
Hasse diagram is derived only for export.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import FiniteSemigroup, Ideal
from .errors import InvalidIdealError

ORDERED_RELATIONS = ("L", "R", "J", "H")
RELATIONS = ORDERED_RELATIONS + ("D",)

# k_classes groups tables up to this order by dominance mask, larger ones by
# Cayley graph. For L, R, J and H together the two routes measured even near
# orders 24-31, and the graph faster from 32 on (transformation semigroups and
# nm-family tables, CPython 3.11 on a 2-vCPU VM).
MASK_ROUTE_MAX_ORDER = 32


def iter_bits(mask: int):
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=1024)
def below_masks(s: FiniteSemigroup, relation: str) -> tuple[int, ...]:
    """Per-element dominance bitmasks: bit a of below[b] says a <=_K b."""
    table = s.table
    n = s.order
    if relation == "L":
        masks = []
        for b in range(n):
            m = 1 << b
            for x in range(n):
                m |= 1 << table[x][b]
            masks.append(m)
        return tuple(masks)
    if relation == "R":
        masks = []
        for b in range(n):
            m = 1 << b
            for v in table[b]:
                m |= 1 << v
            masks.append(m)
        return tuple(masks)
    if relation == "H":
        left = below_masks(s, "L")
        right = below_masks(s, "R")
        return tuple(a & b for a, b in zip(left, right))
    if relation == "J":
        left = below_masks(s, "L")
        right = below_masks(s, "R")
        masks = []
        for b in range(n):
            m = 0
            for x in iter_bits(right[b]):
                m |= left[x]
            masks.append(m)
        return tuple(masks)
    raise ValueError(f"no preorder is associated with relation {relation!r}")


def preorder(s: FiniteSemigroup, relation: str) -> list[list[bool]]:
    """The n x n boolean matrix of the preorder: entry [a][b] means a <=_K b."""
    masks = below_masks(s, relation)
    n = s.order
    return [[bool((masks[b] >> a) & 1) for b in range(n)] for a in range(n)]


@dataclass(frozen=True)
class GreenStructure:
    """One Green's relation on one semigroup: classes, their order and heights.

    Bit j of ``below[i]`` says class j lies strictly below class i.
    ``height[i]`` counts the classes in the longest chain from class i down
    to a minimal class, inclusive, so the K-height is max(height). For D,
    which carries no order, ``below`` and ``height`` are None and only the
    partition is populated.
    """

    relation: str
    class_of: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    below: tuple[int, ...] | None
    height: tuple[int, ...] | None

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def dag(self) -> tuple[tuple[int, ...], ...] | None:
        """The Hasse reduction, derived from ``below`` on each access: dag[i]
        lists the classes covered by class i (one step further from the top)."""
        if self.below is None:
            return None
        covered = []
        for lt in self.below:
            reach = 0  # the classes below some class below i
            for j in iter_bits(lt):
                reach |= self.below[j]
            covered.append(tuple(iter_bits(lt & ~reach)))
        return tuple(covered)


def _group_by_mask(masks):
    """Partition element indices by mask value; classes ordered by least member."""
    seen: dict[int, int] = {}
    class_of = []
    classes: list[list[int]] = []
    for a, m in enumerate(masks):
        c = seen.get(m)
        if c is None:
            c = len(classes)
            seen[m] = c
            classes.append([])
        class_of.append(c)
        classes[c].append(a)
    return class_of, classes


def _d_partition(s: FiniteSemigroup):
    """D = L o R (Green's lemma): each L-class of a D-class meets every R-class
    of that D-class and no other, so the R-classes it meets name its D-class."""
    left = k_classes(s, "L")
    right = k_classes(s, "R").class_of
    meets = [0] * left.class_count
    for a, c in enumerate(left.class_of):
        meets[c] |= 1 << right[a]
    return _group_by_mask([meets[c] for c in left.class_of])


def _select_bits(mask: int, positions, width: int) -> int:
    """The int whose bit k is bit ``positions[k]`` of ``mask`` (< 2**width)."""
    bits = format(mask, f"0{width}b")[::-1]
    return int("".join(map(bits.__getitem__, reversed(positions))), 2)


def _order_from_masks(masks):
    """Classes, strict order and heights of a preorder given by dominance masks."""
    class_of, classes = _group_by_mask(masks)
    count = len(classes)
    reps = [members[0] for members in classes]
    if count == len(masks):  # one element per class, and class c holds element c
        lower = masks
    else:
        lower = [_select_bits(masks[r], reps, len(masks)) for r in reps]
    below = [0] * count
    height = [0] * count
    levels = []  # bit c of levels[h] says class c has height h + 1
    # a class strictly below another has a strictly smaller mask, so each class
    # is reached after all classes below it have their heights
    for c in sorted(range(count), key=lambda c: masks[reps[c]].bit_count()):
        lt = lower[c] & ~(1 << c)
        below[c] = lt
        h = len(levels)
        while h and not levels[h - 1] & lt:
            h -= 1
        if h == len(levels):
            levels.append(0)
        levels[h] |= 1 << c
        height[c] = h + 1
    return class_of, classes, below, height


def _cayley_successors(s: FiniteSemigroup, relation: str):
    """The distinct out-neighbours of each element in the right (x -> xg), left
    (x -> gx) or two-sided Cayley graph over a generating set G of ``s``."""
    table = s.table
    generators = s.generators
    if relation == "R":
        return [tuple({row[g] for g in generators}) for row in table]
    columns = [table[g] for g in generators]
    if relation == "L":
        return [tuple({col[x] for col in columns}) for x in range(s.order)]
    return [
        tuple({*(row[g] for g in generators), *(col[x] for col in columns)})
        for x, row in enumerate(table)
    ]


def _components(succ):
    """Strongly connected components by Tarjan's algorithm, without recursion.

    Returns ``comp_of`` and the member lists in completion order, in which
    each component comes after every component it reaches.
    """
    n = len(succ)
    index = [0] * n  # 1 + discovery number; 0 while unvisited
    low = [0] * n
    comp_of = [-1] * n
    stack = []
    components = []
    counter = 0
    for root in range(n):
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if not index[w]:
                    counter += 1
                    index[w] = low[w] = counter
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp_of[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:  # every edge of v is explored
                work.pop()
                if low[v] == index[v]:
                    c = len(components)
                    members = []
                    while True:
                        w = stack.pop()
                        comp_of[w] = c
                        members.append(w)
                        if w == v:
                            break
                    components.append(members)
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
    return comp_of, components


def _order_from_successors(succ):
    """Classes, strict order and heights of the reachability preorder of a
    graph given by its successor lists: ``succ[x]`` lists the ends of x's
    edges, in any order and with repeats allowed.

    On a Cayley graph of L, R or J, a <=_K b exactly when a is reachable
    from b, so the K-classes are the strongly connected components, ordered
    by reachability. Returns ``class_of``, ``classes``, ``below`` and
    ``height`` as :class:`GreenStructure` has them, as lists.
    """
    comp_of, components = _components(succ)
    rank = [-1] * len(components)
    count = 0
    for c in comp_of:  # number the classes by least member
        if rank[c] < 0:
            rank[c] = count
            count += 1
    class_of = [rank[c] for c in comp_of]
    classes = [None] * count
    below = [0] * count
    height = [1] * count
    # completion order reaches each class after every class below it
    for c, members in enumerate(components):
        i = rank[c]
        members.sort()
        classes[i] = members
        lower = {class_of[y] for x in members for y in succ[x]}
        lower.discard(i)
        lt = 0
        for j in lower:
            lt |= below[j] | (1 << j)
            if height[i] <= height[j]:
                height[i] = height[j] + 1
        below[i] = lt
    return class_of, classes, below, height


def _element_down_sets(structure: GreenStructure):
    """Per element a, the mask of the elements in a's class or below it."""
    below = structure.below
    if structure.class_count == len(structure.class_of):  # class a is {a}
        return [lt | (1 << a) for a, lt in enumerate(below)]
    down = [0] * structure.class_count
    for a, c in enumerate(structure.class_of):
        down[c] |= 1 << a
    # a class strictly below another has a smaller height, so it is done first
    for c in sorted(range(structure.class_count), key=structure.height.__getitem__):
        rest = below[c]
        while rest:  # a class's down-set covers every class below it
            j = rest.bit_length() - 1
            down[c] |= down[j]
            rest &= ~(below[j] | (1 << j))
    return [down[c] for c in structure.class_of]


@lru_cache(maxsize=1024)
def k_classes(s: FiniteSemigroup, relation: str) -> GreenStructure:
    """Classes of one Green's relation, with their strict order and heights.

    ``relation`` is one of L, R, J, H, D. Class indices are assigned by the
    smallest contained element, making every field deterministic. Tables of
    order above ``MASK_ROUTE_MAX_ORDER`` take the Cayley-graph route.
    """
    if relation == "D":
        class_of, classes = _d_partition(s)
        return GreenStructure(
            "D",
            tuple(class_of),
            tuple(tuple(c) for c in classes),
            None,
            None,
        )
    if s.order <= MASK_ROUTE_MAX_ORDER or relation not in ORDERED_RELATIONS:
        # below_masks raises ValueError for any other relation
        order = _order_from_masks(below_masks(s, relation))
    elif relation == "H":  # a <=_H b when a <=_L b and a <=_R b
        left = _element_down_sets(k_classes(s, "L"))
        right = _element_down_sets(k_classes(s, "R"))
        order = _order_from_masks([a & b for a, b in zip(left, right)])
    else:
        order = _order_from_successors(_cayley_successors(s, relation))
    class_of, classes, below, height = order
    return GreenStructure(
        relation,
        tuple(class_of),
        tuple(tuple(c) for c in classes),
        tuple(below),
        tuple(height),
    )


def k_height(s: FiniteSemigroup, relation: str) -> int:
    """Number of classes in the longest chain of K-classes (at least 1)."""
    if relation not in ORDERED_RELATIONS:
        raise ValueError(f"heights are defined for {ORDERED_RELATIONS}, not {relation!r}")
    return max(k_classes(s, relation).height)


def _strictly_below(masks, a):
    out = []
    mask = masks[a]
    for b in iter_bits(mask):
        if b != a and not (masks[b] >> a) & 1:
            out.append(b)
    return out


def longest_chain_oracle(s: FiniteSemigroup, relation: str) -> int:
    """Longest strictly decreasing element sequence, found directly.

    Works element by element from the preorder alone, with no class
    condensation, as an independent cross-check of :func:`k_height`.
    """
    return len(longest_chain_elements(s, relation))


def _longest_paths(nodes, below):
    """Longest descending paths through a finite strict order.

    ``nodes`` lists each node after the nodes below it; ``below(v)`` lists the
    nodes strictly below v in increasing order. ``length[v]`` counts the nodes
    of a longest path from v down, which continues at ``step[v]``: the least
    node among the longest tails, or None at a minimal node.
    """
    length: dict = {}
    step: dict = {}
    for v in nodes:
        nxt = max(below(v), key=length.__getitem__, default=None)
        step[v] = nxt
        length[v] = 1 + (0 if nxt is None else length[nxt])
    return length, step


def longest_chain_elements(s: FiniteSemigroup, relation: str) -> tuple[int, ...]:
    """One longest strictly <=_K-decreasing element chain (deterministic)."""
    if relation not in ORDERED_RELATIONS:
        raise ValueError(f"chains are defined for {ORDERED_RELATIONS}, not {relation!r}")
    masks = below_masks(s, relation)
    # an element strictly below a has a strictly smaller below-set
    nodes = sorted(range(s.order), key=lambda a: masks[a].bit_count())
    length, step = _longest_paths(nodes, lambda a: _strictly_below(masks, a))
    a = max(range(s.order), key=length.__getitem__)
    chain = []
    while a is not None:
        chain.append(a)
        a = step[a]
    return tuple(chain)


def height_within_ideal(s: FiniteSemigroup, ideal: Ideal, relation: str) -> int:
    """Height of the subposet of K-classes of ``s`` contained in ``ideal``.

    The classes are classes of ``s`` itself, not of the ideal viewed as a
    semigroup in its own right.
    """
    if relation not in ORDERED_RELATIONS:
        raise ValueError(f"heights are defined for {ORDERED_RELATIONS}, not {relation!r}")
    if ideal.parent != s:
        raise InvalidIdealError("ideal belongs to a different semigroup")
    structure = k_classes(s, relation)
    # an ideal is a nonempty union of K-classes and a down-set, so a class lies
    # inside it when its least member does, and then so does every chain below
    return max(h for h, cls in zip(structure.height, structure.classes) if cls[0] in ideal.members)


def idempotent_height(s: FiniteSemigroup) -> int:
    """Height of the idempotent poset, where e >= f means ef = fe = f."""
    table = s.table
    idempotents = s.idempotents
    if not idempotents:
        raise ValueError("finite semigroup without idempotents: invalid input")

    below = {
        e: [f for f in idempotents if f != e and table[e][f] == f and table[f][e] == f]
        for e in idempotents
    }
    # f < e in the natural order makes below[f] a proper subset of below[e]
    nodes = sorted(idempotents, key=lambda e: len(below[e]))
    length, _ = _longest_paths(nodes, below.__getitem__)
    return max(length.values())


@dataclass(frozen=True)
class HeightReport:
    """The five heights of one semigroup together with its structural flags."""

    H_L: int
    H_R: int
    H_J: int
    H_H: int
    H_E: int
    left_stable: bool
    right_stable: bool
    group_bound: bool
    regular: bool
    inverse: bool
    semisimple: bool
    completely_semisimple: bool
    completely_simple: bool
    has_zero: bool


def to_dot(s: FiniteSemigroup, relation: str) -> str:
    """Render the Hasse diagram of the K-class poset as a Graphviz digraph.

    Output ordering is fixed (nodes and edges sorted by class index) so that
    repeated runs diff cleanly.
    """
    structure = k_classes(s, relation)
    if structure.below is None:
        raise ValueError(f"relation {relation!r} has no associated order to export")
    lines = [f'digraph "green_{relation}" {{', "  rankdir=TB;"]
    for i, members in enumerate(structure.classes):
        label = "{" + ",".join(s.name_of(m) for m in members) + "}"
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  c{i} [label="{label}"];')
    for i, covered in enumerate(structure.dag):
        for j in covered:
            lines.append(f"  c{i} -> c{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Green's preorders, the posets of K-classes, and the height computations.

Dominance is computed per element as the principal (left/right/two-sided)
ideal, stored as one bitmask per element: ``below[b]`` has bit ``a`` set
exactly when a <=_K b. Two elements are K-equivalent precisely when their
dominance masks coincide, so classes fall out of a single grouping pass.
The strict class order is read off the representatives' masks once, as one
strictly-below bitmask per class, and each class's height is pulled up from
the classes below it in the same pass; the Hasse diagram is derived only for export.
D is read off the L- and R-classes as L o R. The masks stay inside this
module: other modules read the classes and their order from :func:`k_classes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import FiniteSemigroup, Ideal
from .errors import InvalidIdealError

ORDERED_RELATIONS = ("L", "R", "J", "H")
RELATIONS = ORDERED_RELATIONS + ("D",)


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


@lru_cache(maxsize=1024)
def k_classes(s: FiniteSemigroup, relation: str) -> GreenStructure:
    """Classes of one Green's relation, with their strict order and heights.

    ``relation`` is one of L, R, J, H, D. Class indices are assigned by the
    smallest contained element, making every field deterministic.
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
    masks = below_masks(s, relation)
    class_of, classes = _group_by_mask(masks)
    reps = [members[0] for members in classes]
    rep_bits = sum(1 << r for r in reps)
    below = [0] * len(classes)
    height = [1] * len(classes)
    # a class strictly below another has a strictly smaller mask, so each class
    # is reached after all classes below it have their heights
    for c in sorted(range(len(classes)), key=lambda c: masks[reps[c]].bit_count()):
        for r in iter_bits(masks[reps[c]] & rep_bits):
            j = class_of[r]
            if j != c:
                below[c] |= 1 << j
                if height[c] <= height[j]:
                    height[c] = height[j] + 1

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
    idempotents = [e for e in range(s.order) if table[e][e] == e]
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

"""Structural predicates and decompositions built on the Green machinery.

Every Green fact here (stability, H-relatedness, minimal and 0-minimal
classes, principal factors) is read from the class structures of
:func:`~greenheights.green.k_classes`, never from element dominance masks.

Several functions double as self-tests: facts that hold for every finite
semigroup (stability, the minimal-ideal descriptions, Green's idempotent
criterion for regularity) are recomputed from the definitions, and a
disagreement raises InternalCheckError because it can only mean a bug here,
never a property of the validated input.

Regularity and (complete) semisimplicity are one fact on a finite semigroup,
read from the J-classes' idempotents; :func:`principal_factors` is a public
decomposition that the analysis does not build.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .constructions import _restrict, collapse_to_zero
from .core import FiniteSemigroup, Ideal
from .errors import InternalCheckError, NoZeroError
from .green import k_classes, k_height


def _require_zero(s: FiniteSemigroup) -> int:
    if s.zero is None:
        raise NoZeroError("this operation needs a semigroup with a zero element")
    return s.zero


def _side_stable(s: FiniteSemigroup, relation: str) -> bool:
    """Whether a <=_K b together with a J b always forces a K b, for K = relation:
    no K-class lies strictly below another K-class of the same J-class."""
    side = k_classes(s, relation)
    two_sided = k_classes(s, "J")
    j_of = [two_sided.class_of[members[0]] for members in side.classes]
    inside = [0] * two_sided.class_count  # per J-class, the K-classes it contains
    for c, j in enumerate(j_of):
        inside[j] |= 1 << c
    return not any(lt & inside[j] for lt, j in zip(side.below, j_of))


def is_left_stable(s: FiniteSemigroup) -> bool:
    """Whether a <=_L b together with a J b always forces a L b."""
    return _side_stable(s, "L")


def is_right_stable(s: FiniteSemigroup) -> bool:
    """Whether a <=_R b together with a J b always forces a R b."""
    return _side_stable(s, "R")


def is_stable(s: FiniteSemigroup) -> bool:
    return is_left_stable(s) and is_right_stable(s)


def group_bound_exponents(s: FiniteSemigroup) -> tuple[int, ...]:
    """For each element a, the least k with a^k H a^(2k).

    Such a k exists with k <= order because the power sequence enters its
    cycle, a subgroup, within order steps.
    """
    h_of = k_classes(s, "H").class_of
    table = s.table
    n = s.order
    out = []
    for a in range(n):
        power, double = a, table[a][a]  # a^k and a^(2k), from k = 1
        for k in range(1, n + 1):
            if h_of[power] == h_of[double]:
                out.append(k)
                break
            power = table[power][a]
            double = table[table[double][a]][a]
        else:
            raise InternalCheckError(
                f"element {a} has no power inside a subgroup within {n} steps"
            )
    return tuple(out)


def is_group_bound(s: FiniteSemigroup) -> bool:
    """True for every finite semigroup; also checks the exponent bound H_H."""
    exponents = group_bound_exponents(s)
    bound = k_height(s, "H")
    if any(k > bound for k in exponents):
        raise InternalCheckError("a power-to-subgroup exponent exceeded the H-height")
    return True


def minimal_class_union(s: FiniteSemigroup, relation: str) -> set[int]:
    """The union of the minimal K-classes, K = relation."""
    structure = k_classes(s, relation)
    out: set[int] = set()
    for i, lt in enumerate(structure.below):
        if not lt:
            out.update(structure.classes[i])
    return out


def minimal_ideal(s: FiniteSemigroup) -> Ideal:
    """The unique minimum J-class, which every finite semigroup has.

    Cross-checks that it equals the union of the minimal L-classes and the
    union of the minimal R-classes.
    """
    structure = k_classes(s, "J")
    sinks = [i for i, lt in enumerate(structure.below) if not lt]
    if len(sinks) != 1:
        raise InternalCheckError(f"expected one minimal J-class, found {len(sinks)}")
    members = frozenset(structure.classes[sinks[0]])
    for relation in ("L", "R"):
        if minimal_class_union(s, relation) != members:
            raise InternalCheckError(
                f"minimal {relation}-classes do not cover the minimal ideal"
            )
    return Ideal(s, members)


def is_simple(s: FiniteSemigroup) -> bool:
    return k_height(s, "J") == 1


def is_completely_simple(s: FiniteSemigroup) -> bool:
    return k_height(s, "H") == 1


def is_0_simple(s: FiniteSemigroup) -> bool:
    """Exactly two J-classes, {0} and the rest, with S*S not {0}."""
    zero = _require_zero(s)
    if s.order < 2:
        return False
    if k_classes(s, "J").class_count != 2:
        return False
    return any(v != zero for row in s.table for v in row)


def zero_minimal_classes(s: FiniteSemigroup, relation: str) -> list[int]:
    """Indices of the K-classes whose only strictly lower class is {0}."""
    zero = _require_zero(s)
    structure = k_classes(s, relation)
    only_zero = 1 << structure.class_of[zero]
    return [c for c, lt in enumerate(structure.below) if lt == only_zero]


def is_completely_0_simple(s: FiniteSemigroup) -> bool:
    return (
        is_0_simple(s)
        and bool(zero_minimal_classes(s, "L"))
        and bool(zero_minimal_classes(s, "R"))
    )


def _socle(s: FiniteSemigroup, relation: str) -> Ideal:
    """Union of {0} and all 0-minimal K-classes, K = relation, as an Ideal."""
    zero = _require_zero(s)
    structure = k_classes(s, relation)
    members = {zero}
    for c in zero_minimal_classes(s, relation):
        members.update(structure.classes[c])
    return Ideal(s, frozenset(members))


def left_socle(s: FiniteSemigroup) -> Ideal:
    """Union of {0} and all 0-minimal L-classes; validated as a two-sided ideal."""
    return _socle(s, "L")


def right_socle(s: FiniteSemigroup) -> Ideal:
    """Union of {0} and all 0-minimal R-classes; validated as a two-sided ideal."""
    return _socle(s, "R")


@dataclass(frozen=True)
class PrincipalFactor:
    """The factor attached to one J-class: the class itself for the minimal
    ideal, otherwise the class with a zero adjoined and escaping products sent
    to that zero."""

    j_class: frozenset[int]
    factor: FiniteSemigroup
    kind: str  # "simple" | "zero_simple" | "null"


@lru_cache(maxsize=512)
def principal_factors(s: FiniteSemigroup) -> tuple[PrincipalFactor, ...]:
    """One factor per J-class, classified as simple, zero_simple or null."""
    structure = k_classes(s, "J")
    minimal = minimal_ideal(s).members
    out = []
    for members in structure.classes:
        j_set = frozenset(members)
        if j_set == minimal:
            factor = _restrict(s, members)
            if k_height(factor, "H") != 1:
                raise InternalCheckError("the minimal ideal is not completely simple")
            out.append(PrincipalFactor(j_set, factor, "simple"))
            continue
        factor = collapse_to_zero(s, sorted(members))
        if all(p == factor.order - 1 for row in factor.table for p in row):
            kind = "null"
        else:
            if not is_0_simple(factor):
                raise InternalCheckError("a non-null principal factor is not 0-simple")
            kind = "zero_simple"
        out.append(PrincipalFactor(j_set, factor, kind))
    return tuple(out)


def _inverses_of(s: FiniteSemigroup, a: int) -> list[int]:
    table = s.table
    return [
        b
        for b in range(s.order)
        if table[table[a][b]][a] == a and table[table[b][a]][b] == b
    ]


def _inverse_criteria(s: FiniteSemigroup, accept, name: str) -> bool:
    """Whether ``accept`` holds for the number of inverses of every element;
    cross-checked against the number of idempotents in every L- and R-class."""
    definitional = all(accept(len(_inverses_of(s, a))) for a in range(s.order))
    by_idempotents = True
    for relation in ("L", "R"):
        structure = k_classes(s, relation)
        counts = [0] * structure.class_count
        for e in s.idempotents:
            counts[structure.class_of[e]] += 1
        if not all(map(accept, counts)):
            by_idempotents = False
            break
    if definitional != by_idempotents:
        raise InternalCheckError(f"{name} checks disagree")
    return definitional


def is_regular(s: FiniteSemigroup) -> bool:
    """Every element has an inverse; cross-checked against the idempotent
    criterion (every L-class and every R-class contains an idempotent)."""
    return _inverse_criteria(s, bool, "regularity")


def is_inverse(s: FiniteSemigroup) -> bool:
    """Every element has exactly one inverse; cross-checked against the
    one-idempotent-per-class criterion."""
    return _inverse_criteria(s, lambda count: count == 1, "inverse-semigroup")


def is_semisimple(s: FiniteSemigroup) -> bool:
    """No null principal factor: every J-class holds an idempotent, since a
    principal factor is null exactly when its J-class holds none."""
    structure = k_classes(s, "J")
    held = {structure.class_of[e] for e in s.idempotents}
    return len(held) == structure.class_count


def is_completely_semisimple(s: FiniteSemigroup) -> bool:
    """Every principal factor completely simple or completely 0-simple.

    On a finite semigroup every non-null principal factor is completely
    (0-)simple (Clifford & Preston 1961, §2.5-2.7), so this is semisimplicity,
    and regularity too: every J-class holds an idempotent.
    """
    return is_semisimple(s)

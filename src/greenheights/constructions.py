"""Every finite construction used by the analysis: Rees quotients, the null
ideal extension U(S) and its Cayley graphs, the two extremal families,
square-free word semigroups, and the named fixture tables."""

from __future__ import annotations

import itertools
import warnings

from .core import (
    FiniteSemigroup,
    Ideal,
    _adjoin_identities,
    _derived_semigroup,
    _fresh_name,
    _picker,
    build_semigroup,
    opposite,
    unique_names,
)
from .errors import (
    InternalCheckError,
    InvalidIdealError,
    NoZeroError,
    RangeError,
    UnknownFixtureError,
)
from .green import k_classes, k_height

WORD_LETTERS = "xyzuvw"


def _kept_rows(s: FiniteSemigroup, keep, outside, tail=()):
    """The rows of the elements of ``keep``, in its order, each cut to the
    columns of ``keep`` and renumbered by position in it, a product outside
    ``keep`` becoming ``outside``, and followed by ``tail``. Returns the rows
    and the position of each element of ``s`` (``outside`` if not kept)."""
    position = [outside] * s.order
    for i, a in enumerate(keep):
        position[a] = i
    pick = _picker(keep)
    get = position.__getitem__
    return [tuple(map(get, pick(s.table[a]))) + tail for a in keep], position


def collapse_to_zero(s: FiniteSemigroup, keep, generated_by=None) -> FiniteSemigroup:
    """The elements of ``keep`` (ascending) with every product outside them
    sent to a fresh zero, which gets the last index.

    ``keep`` must make the result a Rees quotient, which is associative
    because ``s`` is: the complement of an ideal, or a J-class (the quotient
    of its principal ideal by the ideal strictly below it). The result is
    not validated again. Its generating set is the images of
    ``generated_by``, elements of ``s`` whose images generate it, or a
    greedy one when that is None.
    """
    zero_index = len(keep)
    tail = (zero_index,)
    rows, position = _kept_rows(s, keep, zero_index, tail)
    rows.append(tail * (zero_index + 1))
    names = None
    if s.names is not None:
        names = tuple(unique_names([s.names[a] for a in keep] + ["0"]))
    generators = None
    if generated_by is not None:
        generators = tuple(sorted({position[g] for g in generated_by}))
    return _derived_semigroup(tuple(rows), names, generators, tail)


def _restrict(s: FiniteSemigroup, elements) -> FiniteSemigroup:
    """Subsemigroup on a multiplicatively closed element set, associative
    because ``s`` is, so not validated again. On all of S it is ``s`` itself."""
    keep = sorted(elements)
    if keep == list(range(s.order)):
        return s
    rows, _ = _kept_rows(s, keep, -1)
    for a, row in zip(keep, rows):
        if -1 in row:
            b = keep[row.index(-1)]
            raise InternalCheckError(f"set is not closed: {a}*{b} = {s.table[a][b]} escapes")
    names = None
    if s.names is not None:
        names = tuple(s.names[a] for a in keep)
    return _derived_semigroup(tuple(rows), names)


def rees_quotient(s: FiniteSemigroup, ideal: Ideal) -> FiniteSemigroup:
    """Collapse an ideal to a single fresh zero.

    Surviving elements keep their relative order; the fresh zero gets the last
    index. Quotienting by the whole semigroup gives the trivial semigroup.
    Where the quotient would equal ``s``, ``s`` itself is returned: that is
    S/{0} when the zero is already last and unnamed or named as the fresh
    zero would be ("0", primed past the other names).
    """
    if not isinstance(ideal, Ideal) or ideal.parent != s:
        raise InvalidIdealError("expected an ideal of the semigroup being quotiented")
    if ideal.members == {s.order - 1}:
        if s.names is None or s.names[-1] == _fresh_name("0", s.names[:-1]):
            return s
    keep = [a for a in range(s.order) if a not in ideal.members]
    # S -> S/I is onto, so the images of S's generators generate S/I
    return collapse_to_zero(s, keep, s.generators)


def u_of(s: FiniteSemigroup) -> FiniteSemigroup:
    """The null ideal extension of a semigroup with zero z.

    Adds one fresh element x_t per t in S with an identity adjoined, with
    a*x_t = x_t, x_t*a = x_(ta) and x_t*x_u = x_z. The fresh elements follow
    the originals, x_1 first and then x_t in element order; the result has
    order 2|S|+1 and zero x_z.
    """
    if s.zero is None:
        raise NoZeroError("the null ideal extension needs a zero element")
    n = s.order
    x_z = n + 1 + s.zero
    fresh = tuple(range(n + 1, 2 * n + 1))
    tail = (x_z,) * (n + 1)
    rows = [row + (n,) + fresh for row in s.table]
    rows.append(fresh + tail)
    shift = (n + 1).__add__
    rows.extend(tuple(map(shift, row)) + tail for row in s.table)
    base = s.element_names()
    names = tuple(unique_names(list(base) + ["x_1"] + [f"x_{b}" for b in base]))
    # S and x_1 generate U(S), since x_t = x_1 t
    out = _derived_semigroup(tuple(rows), names, s.generators + (n,), (x_z,))
    if out.zero != x_z:
        raise InternalCheckError("the extension did not put its zero at x_z")
    return out


def u_of_graphs(s: FiniteSemigroup):
    """The left and right Cayley graphs of U(S) over its generating set
    G_U = ``s.generators + (x_1,)``, from S's generator rows and columns
    alone, without U(S)'s table.

    Indices are those of :func:`u_of`, and so is the rule: a*x_t = x_t,
    x_t*a = x_(ta) and x_t*x_u = x_z. Returns ``(left, right)``, where
    ``left[x][k]`` is G_U[k]*x and ``right[x][k]`` is x*G_U[k]: n|G_U| cells
    where the table has (2n + 1)^2.
    """
    if s.zero is None:
        raise NoZeroError("the null ideal extension needs a zero element")
    n = s.order
    x_1, x_z = n, n + 1 + s.zero
    generators = s.generators
    pick = _picker(generators)
    shift = (n + 1).__add__
    right = [pick(row) + (x_1,) for row in s.table]
    right.append(tuple(map(shift, generators)) + (x_z,))
    right.extend(tuple(map(shift, pick(row))) + (x_z,) for row in s.table)
    columns = list(zip(*map(s.table.__getitem__, generators)))
    fixed = len(generators)
    left = [column + (shift(a),) for a, column in enumerate(columns)]
    left.append((x_1,) * fixed + (x_z,))
    left.extend((shift(t),) * fixed + (x_z,) for t in range(n))
    return left, right


def nm_family(n: int, m: int) -> FiniteSemigroup:
    """A J-trivial semigroup of order m with side heights (n, m).

    Valid for 1 <= n <= m <= 2**n - 1. Built recursively: the trivial
    semigroup at the base; an adjoined identity while m <= 2**(n-1); otherwise
    the null ideal extension of the previous full-range member, cut back by
    the tail of its (total) R-order. The identities are adjoined last, in
    one table, so only the extension recurses, about log2(m) + 1 levels deep.
    """
    if n < 1 or m < n or m > 2**n - 1:
        raise RangeError(f"need 1 <= n <= m <= 2^n - 1, got n={n}, m={m}")
    adjoined = 0
    while n > 1 and m <= 2 ** (n - 1):
        n, m, adjoined = n - 1, m - 1, adjoined + 1
    if n == 1:
        result = build_semigroup([[0]], ["e"])
    else:
        previous = nm_family(n - 1, 2 ** (n - 1) - 1)
        extended = u_of(previous)
        size = extended.order  # 2**n - 1
        right = k_classes(extended, "R")
        if sorted(right.height) != list(range(1, size + 1)):
            raise InternalCheckError("expected a total R-order on the extension")
        tail = frozenset(a for a in range(size) if right.height[right.class_of[a]] <= size + 1 - m)
        result = rees_quotient(extended, Ideal(extended, tail))
        if result.order != m:
            raise InternalCheckError(f"expected order {m}, built {result.order}")
    return _adjoin_identities(result, adjoined) if adjoined else result


def asym_family(n: int) -> FiniteSemigroup:
    """The family with equal side heights 2^n + n - 3 and two-sided height
    2^(n+1) - 4.

    The formulas are degenerate at n=1 (they would give height 0), so that
    case is flagged with a warning and returns the trivial semigroup.
    """
    if n < 1:
        raise RangeError(f"need n >= 1, got {n}")
    if n == 1:
        warnings.warn(
            "asym_family(1) is degenerate (formulas give height 0); "
            "returning the trivial semigroup",
            RuntimeWarning,
            stacklevel=2,
        )
        return build_semigroup([[0]], ["e"])
    left_part = nm_family(n, 2**n - 1)
    order = left_part.order
    has_left_identity = any(
        all(left_part.table[e][a] == a for a in range(order)) for e in range(order)
    )
    if not has_left_identity:
        raise InternalCheckError("the recursive construction lost its left identity")
    result = _product_mod_zero_pairs(left_part, opposite(left_part))
    side = 2**n + n - 3
    two_sided = 2 ** (n + 1) - 4
    measured = (k_height(result, "L"), k_height(result, "R"), k_height(result, "J"))
    if measured != (side, side, two_sided):
        raise InternalCheckError(
            f"expected heights {(side, side, two_sided)}, measured {measured}"
        )
    return result


def _product_mod_zero_pairs(s: FiniteSemigroup, t: FiniteSemigroup) -> FiniteSemigroup:
    """The Rees quotient of S x T by its ideal (z_S x T) u (S x z_T), built
    from the two factor tables without forming S x T.

    It equals ``rees_quotient(direct_product(s, t), ideal)``, names included:
    the pairs of nonzero elements in product index order, then a fresh zero.
    """
    if s.zero is None or t.zero is None:
        raise NoZeroError("both factors need a zero element")
    left = [i for i in range(s.order) if i != s.zero]
    right = [j for j in range(t.order) if j != t.zero]
    m = len(right)
    zero_index = len(left) * m
    tail = (zero_index,)
    # (i, j)(k, l) = (ik, jl) is cell jl of the block of ik, whose cell m,
    # like every cell of the block of z_S, is the zero
    block_of = [tail * (m + 1)] * s.order
    for p, i in enumerate(left):
        block_of[i] = tuple(range(p * m, p * m + m)) + tail
    right_pos = [m] * t.order
    for q, j in enumerate(right):
        right_pos[j] = q
    left_pick, right_pick = _picker(left), _picker(right)
    cells_of = [_picker([right_pos[v] for v in right_pick(t.table[j])]) for j in right]
    rows = []
    for i in left:
        row_blocks = list(map(block_of.__getitem__, left_pick(s.table[i])))
        for cells in cells_of:
            rows.append(tuple(itertools.chain.from_iterable(map(cells, row_blocks))) + tail)
    rows.append(tail * (zero_index + 1))
    names = None
    if s.names is not None or t.names is not None:
        nt = t.order
        pair_names = unique_names(
            f"({s.name_of(i)},{t.name_of(j)})" for i in range(s.order) for j in range(nt)
        )
        names = tuple(unique_names([pair_names[i * nt + j] for i in left for j in right] + ["0"]))
    return _derived_semigroup(tuple(rows), names, None, tail)


def squarefree_words(k: int) -> FiniteSemigroup:
    """Words with pairwise distinct letters over a k-letter alphabet, plus 0.

    The product is concatenation, collapsing to 0 as soon as a letter repeats.
    Words are indexed by (length, lexicographic) order with 0 last.
    """
    if not 1 <= k <= 6:
        raise RangeError(f"need 1 <= k <= 6, got {k}")
    words: list[tuple[int, ...]] = []
    for length in range(1, k + 1):
        words.extend(itertools.permutations(range(k), length))
    words.sort(key=lambda w: (len(w), w))
    index = {w: i for i, w in enumerate(words)}
    letters = [sum(1 << c for c in w) for w in words]  # one bit per letter used
    zero = len(words)
    total = zero + 1
    rows = [[zero] * total for _ in range(total)]
    for row, w1, m1 in zip(rows, words, letters):
        for j, (w2, m2) in enumerate(zip(words, letters)):
            if not m1 & m2:
                row[j] = index[w1 + w2]
    names = ["".join(WORD_LETTERS[i] for i in w) for w in words] + ["0"]
    return build_semigroup(rows, names)


# Named fixture tables. "bicyclic_truncation_none" records that the one
# infinite example in this area has no finite stand-in: requesting it is an
# error by design.
FIXTURE_NAMES = ("fig1_s", "fig1_u", "fig2_u2")


def fixture(name: str) -> FiniteSemigroup:
    """Return one of the named reference tables."""
    if name == "fig1_s":
        return build_semigroup(
            [[0, 1, 2], [2, 2, 2], [2, 2, 2]],
            ["e", "a", "z"],
        )
    if name == "fig1_u":
        return u_of(fixture("fig1_s"))
    if name == "fig2_u2":
        return build_semigroup(
            [
                [0, 4, 2, 4, 4],
                [1, 4, 3, 4, 4],
                [4, 4, 4, 4, 4],
                [4, 4, 4, 4, 4],
                [4, 4, 4, 4, 4],
            ],
            ["a", "b", "c", "d", "0"],
        )
    if name == "bicyclic_truncation_none":
        raise UnknownFixtureError(
            "bicyclic_truncation_none: the bicyclic monoid is infinite and has "
            "no finite truncation, so no table is provided"
        )
    raise UnknownFixtureError(f"unknown fixture {name!r}")

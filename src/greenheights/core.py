"""Finite semigroups as validated multiplication tables, plus the basic builders."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter, ne

from .errors import (
    AssociativityError,
    EmptyIdealError,
    InvalidIdealError,
    ParseError,
)


def _first_associativity_failure(rows):
    """Return the lexicographically first triple (a,b,c) violating (ab)c = a(bc), or None."""
    n = len(rows)
    for a in range(n):
        ra = rows[a]
        for b in range(n):
            rb = rows[b]
            left = rows[ra[b]]
            right = [ra[x] for x in rb]
            if list(left) != right:
                for c in range(n):
                    if left[c] != right[c]:
                        return (a, b, c)
    return None


def _magma_generators(rows):
    """A generating set of the table viewed as a magma, chosen greedily in index order.

    No associativity is assumed: the closure takes the products of any two
    reached elements, in both orders, so every element is a bracketed product
    of generators. Each index that the closure of the earlier generators misses
    becomes the next generator.
    """
    n = len(rows)
    reached = set()
    found = []  # reached elements; all products among found[:done] are reached
    done = 0
    generators = []
    for g in range(n):
        if g in reached:
            continue
        generators.append(g)
        reached.add(g)
        found.append(g)
        while done < len(found):
            a = found[done]
            done += 1
            settled = found[:done]
            fresh = {
                *map(rows[a].__getitem__, settled),
                *map(itemgetter(a), map(rows.__getitem__, settled)),
            }
            fresh -= reached
            if fresh:
                reached |= fresh
                if len(reached) == n:
                    return generators
                found.extend(fresh)
    return generators


def _is_associative(rows):
    """Light's test: check (xg)y = x(gy) only for g in a generating set.

    For any magma the elements g satisfying the law for all x, y are closed
    under the product, so the law holds everywhere once it holds on
    generators (Clifford & Preston, The Algebraic Theory of Semigroups I,
    1961, section 1.2). Costs O(|G| n^2) table lookups instead of O(n^3).
    """
    if len(rows) == 1:
        return True  # [[0]]; a one-index itemgetter would return bare entries
    for g in _magma_generators(rows):
        # over x, the rows y -> (xg)y and y -> x(gy), compared one at a time
        xg_rows = map(rows.__getitem__, map(itemgetter(g), rows))
        if any(map(ne, xg_rows, map(itemgetter(*rows[g]), rows))):
            return False
    return True


def _detect_identity(rows):
    ident = tuple(range(len(rows)))
    for e, row in enumerate(rows):
        if row == ident and tuple(map(itemgetter(e), rows)) == ident:
            return e
    return None


def _detect_zero(rows):
    n = len(rows)
    for z, row in enumerate(rows):
        if row.count(z) == n and list(map(itemgetter(z), rows)).count(z) == n:
            return z
    return None


def _fresh_name(base, taken):
    while base in taken:
        base += "'"
    return base


def unique_names(candidates):
    """Disambiguate a name list by appending primes to duplicates."""
    taken = set()
    out = []
    for c in candidates:
        name = _fresh_name(str(c), taken)
        taken.add(name)
        out.append(name)
    return out


@dataclass(frozen=True)
class FiniteSemigroup:
    """An immutable multiplication table over elements 0..n-1.

    Instances are produced by :func:`build_semigroup`, which validates
    associativity and detects the identity and zero elements.
    """

    table: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] | None = None
    identity: int | None = None
    zero: int | None = None

    @property
    def order(self) -> int:
        return len(self.table)

    def product(self, a: int, b: int) -> int:
        return self.table[a][b]

    def name_of(self, i: int) -> str:
        return self.names[i] if self.names is not None else f"s{i}"

    def element_names(self) -> tuple[str, ...]:
        if self.names is not None:
            return self.names
        return tuple(f"s{i}" for i in range(self.order))

    def __repr__(self) -> str:
        return (
            f"FiniteSemigroup(order={self.order}, "
            f"identity={self.identity}, zero={self.zero})"
        )


_INT_ONLY = frozenset({int})


def build_semigroup(table, names=None, identity=None, zero=None) -> FiniteSemigroup:
    """Validate a multiplication table and return the semigroup it defines.

    ``identity`` and ``zero`` are optional hints; both are always detected by a
    full scan, and a hint that does not match what the table says is an error.

    Associativity is checked by Light's test over a greedy generating set G,
    at a cost of O(|G| n^2) table lookups. The O(n^3) cost remains only when
    the table needs all n elements as generators, or on rejection, where a
    full scan finds the witness.

    Raises AssociativityError (with the lexicographically first witness
    triple) on a non-associative table and IndexError on out-of-range entries.
    """
    rows = [tuple(row) for row in table]
    n = len(rows)
    if n == 0:
        raise ValueError("a semigroup needs at least one element")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"ragged table: row {i} has {len(row)} entries, expected {n}")
        if set(map(type, row)) == _INT_ONLY and min(row) >= 0 and max(row) < n:
            continue
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise IndexError(
                    f"table entry at row {i}, column {j} is {v!r}, not in 0..{n - 1}"
                )
    if not _is_associative(rows):
        raise AssociativityError(_first_associativity_failure(rows))
    if names is not None:
        names = tuple(str(x) for x in names)
        if len(names) != n:
            raise ValueError(f"got {len(names)} names for {n} elements")
        if len(set(names)) != n:
            raise ValueError("element names must be pairwise distinct")
    detected_identity = _detect_identity(rows)
    detected_zero = _detect_zero(rows)
    if identity is not None and identity != detected_identity:
        raise ValueError(f"element {identity} is not a two-sided identity")
    if zero is not None and zero != detected_zero:
        raise ValueError(f"element {zero} is not a two-sided zero")
    return FiniteSemigroup(tuple(rows), names, detected_identity, detected_zero)


def adjoin_identity(s: FiniteSemigroup) -> FiniteSemigroup:
    """Adjoin a fresh two-sided identity, growing the order by exactly one.

    A fresh element is added even when ``s`` already is a monoid.
    """
    n = s.order
    rows = [list(row) + [a] for a, row in enumerate(s.table)]
    rows.append(list(range(n + 1)))
    names = None
    if s.names is not None:
        names = unique_names(list(s.names) + ["1"])
    return build_semigroup(rows, names)


def opposite(s: FiniteSemigroup) -> FiniteSemigroup:
    """The anti-isomorphic dual: table'[a][b] = table[b][a]."""
    n = s.order
    rows = [[s.table[b][a] for b in range(n)] for a in range(n)]
    return build_semigroup(rows, s.names)


def direct_product(s: FiniteSemigroup, t: FiniteSemigroup) -> FiniteSemigroup:
    """Componentwise product; the pair (i, j) gets index i*|T| + j."""
    ns, nt = s.order, t.order
    rows = []
    for i in range(ns):
        si = s.table[i]
        for j in range(nt):
            tj = t.table[j]
            rows.append([si[k] * nt + tj[m] for k in range(ns) for m in range(nt)])
    names = None
    if s.names is not None or t.names is not None:
        names = unique_names(
            f"({s.name_of(i)},{t.name_of(j)})" for i in range(ns) for j in range(nt)
        )
    return build_semigroup(rows, names)


@dataclass(frozen=True)
class Ideal:
    """A nonempty subset closed under two-sided multiplication by the parent.

    Closure is verified at construction time; an unclosed member set raises
    InvalidIdealError naming a witness product.
    """

    parent: FiniteSemigroup
    members: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        if not self.members:
            raise EmptyIdealError("an ideal must be nonempty")
        n = self.parent.order
        table = self.parent.table
        for i in self.members:
            if not isinstance(i, int) or not 0 <= i < n:
                raise InvalidIdealError(f"ideal member {i!r} not in 0..{n - 1}")
        for i in self.members:
            for a in range(n):
                for p in (table[a][i], table[i][a]):
                    if p not in self.members:
                        raise InvalidIdealError(
                            f"not an ideal: product of {a} and {i} is {p}, "
                            "which is outside the member set"
                        )

    def __contains__(self, element: int) -> bool:
        return element in self.members


def ideal_closure(s: FiniteSemigroup, seed) -> Ideal:
    """Smallest two-sided ideal of ``s`` containing the nonempty ``seed``."""
    members = set(seed)
    if not members:
        raise EmptyIdealError("ideal seed must be nonempty")
    table = s.table
    n = s.order
    frontier = list(members)
    while frontier:
        x = frontier.pop()
        for a in range(n):
            for p in (table[a][x], table[x][a]):
                if p not in members:
                    members.add(p)
                    frontier.append(p)
    return Ideal(s, frozenset(members))


# --- mtab v1 text format -------------------------------------------------
#
# line 1: n
# lines 2..n+1: n space-separated 0-based indices each
# optional trailing lines: "names: a b c", "identity: i", "zero: j"

def parse_mtab(text: str) -> FiniteSemigroup:
    """Parse one table in mtab v1 format.

    Malformed text, ragged rows, duplicate names and identity or zero hints
    that the table does not bear out raise ParseError naming the line; a
    non-associative table raises AssociativityError.
    """
    lines = text.splitlines()
    entries = [(i + 1, line.strip()) for i, line in enumerate(lines) if line.strip()]
    if not entries:
        raise ParseError("empty input, expected an mtab v1 table")
    lineno, head = entries[0]
    try:
        n = int(head)
    except ValueError:
        raise ParseError(f"expected the order, got {head!r}", line=lineno) from None
    if n < 1:
        raise ParseError(f"order must be positive, got {n}", line=lineno)
    if len(entries) < 1 + n:
        raise ParseError(f"expected {n} table rows, found {len(entries) - 1}")
    rows = []
    for k in range(n):
        lineno, line = entries[1 + k]
        parts = line.split()
        if len(parts) != n:
            raise ParseError(
                f"row {k} has {len(parts)} entries, expected {n}", line=lineno
            )
        row = []
        for j, p in enumerate(parts):
            try:
                v = int(p)
            except ValueError:
                raise ParseError(
                    f"row {k}, column {j}: {p!r} is not an integer", line=lineno
                ) from None
            if not 0 <= v < n:
                raise ParseError(
                    f"row {k}, column {j}: entry {v} not in 0..{n - 1}", line=lineno
                )
            row.append(v)
        rows.append(row)
    names = None
    hints = {}  # "identity"/"zero" -> (index, line number)
    for lineno, line in entries[1 + n:]:
        key, _, rest = line.partition(":")
        key = key.strip().lower()
        rest = rest.strip()
        if key == "names":
            names = rest.split()
            if len(names) != n:
                raise ParseError(
                    f"names line has {len(names)} entries, expected {n}", line=lineno
                )
            if len(set(names)) != n:
                raise ParseError("element names must be pairwise distinct", line=lineno)
        elif key in ("identity", "zero"):
            try:
                v = int(rest)
            except ValueError:
                raise ParseError(f"{key} must be an index, got {rest!r}", line=lineno) from None
            if not 0 <= v < n:
                raise ParseError(f"{key} index {v} not in 0..{n - 1}", line=lineno)
            hints[key] = (v, lineno)
        else:
            raise ParseError(f"unrecognised trailing line {line!r}", line=lineno)
    s = build_semigroup(rows, names)
    for key, detected in (("identity", s.identity), ("zero", s.zero)):
        if key in hints and hints[key][0] != detected:
            v, lineno = hints[key]
            raise ParseError(f"element {v} is not a two-sided {key}", line=lineno)
    return s


def parse_mtab_stream(text: str) -> list[FiniteSemigroup]:
    """Parse a blank-line-separated stream of mtab v1 tables."""
    blocks = []
    current: list[str] = []
    for line in text.splitlines():
        if line.strip():
            current.append(line)
        elif current:
            blocks.append("\n".join(current))
            current = []
    if current:
        blocks.append("\n".join(current))
    return [parse_mtab(block) for block in blocks]


def format_mtab(s: FiniteSemigroup) -> str:
    """Serialise to mtab v1. Whitespace inside names is replaced by '_'."""
    out = [str(s.order)]
    out.extend(" ".join(str(v) for v in row) for row in s.table)
    if s.names is not None:
        out.append("names: " + " ".join("_".join(name.split()) for name in s.names))
    if s.identity is not None:
        out.append(f"identity: {s.identity}")
    if s.zero is not None:
        out.append(f"zero: {s.zero}")
    return "\n".join(out) + "\n"

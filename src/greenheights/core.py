"""Finite semigroups as validated multiplication tables, plus the basic builders."""

from __future__ import annotations

from dataclasses import dataclass, field
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


def _is_associative(rows, generators):
    """Light's test: check (xg)y = x(gy) only for g in ``generators``, a
    generating set of the table viewed as a magma.

    For any magma the elements g satisfying the law for all x, y are closed
    under the product, so the law holds everywhere once it holds on
    generators (Clifford & Preston, The Algebraic Theory of Semigroups I,
    1961, section 1.2). Costs O(|G| n^2) table lookups instead of O(n^3).
    """
    if len(rows) == 1:
        return True  # [[0]]; a one-index itemgetter would return bare entries
    for g in generators:
        # over x, the rows y -> (xg)y and y -> x(gy), compared one at a time
        xg_rows = map(rows.__getitem__, map(itemgetter(g), rows))
        if any(map(ne, xg_rows, map(itemgetter(*rows[g]), rows))):
            return False
    return True


def _picker(indices):
    """Like ``itemgetter(*indices)``, but returns a tuple for any number of
    indices: a one-index itemgetter returns a bare entry, and none takes no index."""
    indices = tuple(indices)
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda row: tuple(map(row.__getitem__, indices))


def _detect_identity(rows):
    ident = tuple(range(len(rows)))
    for e, row in enumerate(rows):
        if row == ident and tuple(map(itemgetter(e), rows)) == ident:
            return e
    return None


def _detect_zero(rows, candidates=None):
    """The zero of the table, looked for among ``candidates`` (every index by
    default). A semigroup has at most one zero, so a construction that knows
    the only index that can be its zero names just that one: an O(n) check."""
    n = len(rows)
    for z in range(n) if candidates is None else candidates:
        if rows[z].count(z) == n and list(map(itemgetter(z), rows)).count(z) == n:
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
    associativity and detects the identity and zero elements, or derived from
    such an instance by a construction that preserves associativity (Rees
    quotients, U(S), subsemigroups, duals, products, an adjoined identity).

    ``generators`` generates the table: the greedy set of Light's test on a
    validated table, or on a derived one the set that follows from its
    parent's (the images of the parent's generators under a quotient map,
    say). Where none is passed, a greedy set of its own is searched for on
    construction. It takes no part in equality or hashing, nor does
    ``idempotents``, the one definition of an idempotent (ee = e), filled in
    on construction too.

    The hash, that of the tuple (table, names, identity, zero), is computed
    on first use and kept on the instance. A tuple does not keep its own
    hash, and the class caches look the same table up many times, so each
    lookup would hash all n^2 cells again. The kept hash is not pickled:
    ``str`` names hash differently in another process (``PYTHONHASHSEED``),
    such as a ``--jobs`` worker that receives the semigroup.
    """

    table: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] | None = None
    identity: int | None = None
    zero: int | None = None
    generators: tuple[int, ...] = field(default=None, compare=False)
    idempotents: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self):
        if self.generators is None:
            object.__setattr__(self, "generators", tuple(_magma_generators(self.table)))
        idempotents = tuple(e for e, row in enumerate(self.table) if row[e] == e)
        object.__setattr__(self, "idempotents", idempotents)

    def __hash__(self):
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = self.__dict__["_hash"] = hash((self.table, self.names, self.identity, self.zero))
            return h

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

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

    This is the entry point for every table from outside the package: a
    user's rows, a parsed mtab text, the enumerator's output. The package's
    own constructions derive their tables from a semigroup built here and
    skip this validation (see :func:`_derived_semigroup`).

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
    generators = tuple(_magma_generators(rows))
    if not _is_associative(rows, generators):
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
    return FiniteSemigroup(tuple(rows), names, detected_identity, detected_zero, generators)


def _derived_semigroup(rows, names=None, generators=None, zero_candidates=None):
    """The semigroup on ``rows``, a table that a construction derived from
    semigroups already built: a Rees quotient, U(S), a subsemigroup, a dual,
    a product or an adjoined identity. Each of these is associative because
    its parent is, so nothing is validated again: no range scan and no
    Light's test.

    ``rows`` is a tuple of int tuples and ``names`` a tuple of distinct
    strings or None. ``generators`` is a tuple that generates the table, the
    one that follows from the parent's, or None for a greedy search.
    ``zero_candidates`` are the only indices that can be the zero (None:
    every index). The identity is always found by a full scan, since a
    quotient can have one that its parent lacks.
    """
    zero = _detect_zero(rows, zero_candidates)
    return FiniteSemigroup(rows, names, _detect_identity(rows), zero, generators)


def _zero_candidates(s: FiniteSemigroup) -> tuple[int, ...]:
    return () if s.zero is None else (s.zero,)


def adjoin_identity(s: FiniteSemigroup) -> FiniteSemigroup:
    """Adjoin a fresh two-sided identity, growing the order by exactly one.

    A fresh element is added even when ``s`` already is a monoid.
    """
    return _adjoin_identities(s, 1)


def _adjoin_identities(s: FiniteSemigroup, k: int) -> FiniteSemigroup:
    """``adjoin_identity`` applied k times, as one table: the fresh elements
    e_0, ..., e_(k-1) get indices n, ..., n + k - 1, and e_i e_j = e_min(i,j)."""
    n = s.order
    fresh = tuple(range(n, n + k))
    rows = [row + (a,) * k for a, row in enumerate(s.table)]
    rows += [tuple(range(n)) + fresh[:i] + (n + i,) * (k - i) for i in range(k)]
    names = None
    if s.names is not None:
        names = tuple(unique_names(list(s.names) + ["1"] * k))
    # the zero of S stays a zero; a fresh identity is never one
    return _derived_semigroup(
        tuple(rows), names, s.generators + fresh, _zero_candidates(s)
    )


def opposite(s: FiniteSemigroup) -> FiniteSemigroup:
    """The anti-isomorphic dual: table'[a][b] = table[b][a]."""
    return _derived_semigroup(
        tuple(zip(*s.table)), s.names, s.generators, _zero_candidates(s)
    )


def direct_product(s: FiniteSemigroup, t: FiniteSemigroup) -> FiniteSemigroup:
    """Componentwise product; the pair (i, j) gets index i*|T| + j."""
    ns, nt = s.order, t.order
    rows = []
    for si in s.table:
        scaled = [v * nt for v in si]
        for tj in t.table:
            rows.append(tuple([a + b for a in scaled for b in tj]))
    names = None
    if s.names is not None or t.names is not None:
        names = tuple(unique_names(
            f"({s.name_of(i)},{t.name_of(j)})" for i in range(ns) for j in range(nt)
        ))
    # (z_S, z_T) is the only pair that can be a zero
    zero = () if s.zero is None or t.zero is None else (s.zero * nt + t.zero,)
    return _derived_semigroup(tuple(rows), names, None, zero)


def _check_members(members, n):
    for i in members:
        if not isinstance(i, int) or not 0 <= i < n:
            raise InvalidIdealError(f"ideal member {i!r} not in 0..{n - 1}")


def _is_two_sided_closed(members, table):
    """Whether every product of a member with an element lies in ``members``."""
    if not all(map(members.issuperset, map(table.__getitem__, members))):
        return False  # some i*a falls outside
    return all(map(members.issuperset, map(_picker(members), table)))


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
        _check_members(self.members, n)
        if _is_two_sided_closed(self.members, table):
            return
        for i in self.members:  # name the first product outside, in this order
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
    _check_members(members, n)
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

    Malformed text, ragged rows, duplicate names, a repeated names, identity
    or zero line and identity or zero hints that the table does not bear out
    raise ParseError naming the line; a non-associative table raises
    AssociativityError.
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
    seen = set()
    for lineno, line in entries[1 + n:]:
        key, _, rest = line.partition(":")
        key = key.strip().lower()
        rest = rest.strip()
        if key in seen:
            raise ParseError(f"a second {key} line", line=lineno)
        seen.add(key)
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
    """Serialise to mtab v1, which has no quoting for names.

    Runs of whitespace in names become '_' (leading and trailing ones are
    dropped), an empty name becomes '_', and names that then coincide are
    made distinct by :func:`unique_names`, so the output always parses back.
    """
    out = [str(s.order)]
    out.extend(" ".join(str(v) for v in row) for row in s.table)
    if s.names is not None:
        names = unique_names("_".join(name.split()) or "_" for name in s.names)
        out.append("names: " + " ".join(names))
    if s.identity is not None:
        out.append(f"identity: {s.identity}")
    if s.zero is not None:
        out.append(f"zero: {s.zero}")
    return "\n".join(out) + "\n"

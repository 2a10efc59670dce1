"""One-line recipe strings for building semigroups, shared by the command
line and the sweep harness.

Grammar (one recipe per string):
    nm:<n>,<m>            the J-trivial family member with side heights (n, m)
    asym:<n>              the equal-side-heights family member
    sqfree:<k>            square-free words over k letters
    u-of:<source>         null ideal extension of a source with zero
    rees:<source>,<e+e+..> Rees quotient by the ideal closure of the listed
                          elements (0-based indices joined by '+')
    fixture:<name>        a named reference table
    op:<source>           opposite (anti-isomorphic dual)
    prod:<source>,<source> direct product
    s1:<source>           adjoin a fresh identity

A <source> is a fixture name, or a path to an mtab v1 file or '-' (stdin),
read as load_input reads one. It is never a recipe: prod and rees split at
the first comma. Stdin can be read once, so naming it twice is an error.
"""

from __future__ import annotations

import sys
from pathlib import Path

from .core import (
    FiniteSemigroup,
    adjoin_identity,
    direct_product,
    ideal_closure,
    opposite,
    parse_mtab,
)
from .constructions import (
    FIXTURE_NAMES,
    asym_family,
    fixture,
    nm_family,
    rees_quotient,
    squarefree_words,
    u_of,
)
from .errors import ParseError

RECIPE_KINDS = ("nm", "asym", "sqfree", "u-of", "rees", "fixture", "op", "prod", "s1")


def looks_like_recipe(text: str) -> bool:
    kind, sep, _ = text.partition(":")
    return bool(sep) and kind in RECIPE_KINDS


def _ints(text: str, count: int, recipe: str) -> list[int]:
    parts = text.split(",")
    if len(parts) != count:
        raise ParseError(f"recipe {recipe!r}: expected {count} integer parameters")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ParseError(f"recipe {recipe!r}: parameters must be integers") from None


def _sources(recipe: str) -> list[str]:
    """The sources that ``recipe`` names, in order: for ``prod`` the text on
    either side of its first comma, for ``rees`` the text before it, for
    ``u-of``, ``op`` and ``s1`` all of it. An empty one raises ParseError,
    since as a path it would name the working directory."""
    kind, _, rest = recipe.partition(":")
    if kind in ("u-of", "op", "s1"):
        sources = [rest]
    elif kind == "prod":
        sources = rest.split(",", 1)
    elif kind == "rees":
        sources = [rest.partition(",")[0]]
    else:
        return []
    if "" in sources:
        raise ParseError(f"recipe {recipe!r}: a source is empty")
    return sources


def _stdin_reads(text: str) -> int:
    """How many times loading the input string ``text`` reads stdin."""
    if not looks_like_recipe(text):
        return int(text == "-")
    return _sources(text).count("-")


def reject_repeated_stdin(texts) -> None:
    """Raise ParseError, before anything is read, when the input strings name
    stdin ('-') more than once: each read after the first would find it empty."""
    count = sum(map(_stdin_reads, texts))
    if count > 1:
        raise ParseError(f"stdin ('-') is named {count} times, but it can be read only once")


def _read_mtab(path: str) -> FiniteSemigroup:
    """The table in the mtab file ``path``, or on stdin when ``path`` is '-'."""
    if path == "-":
        return parse_mtab(sys.stdin.read())
    if not path:
        raise ParseError("an empty path names no mtab file")
    return parse_mtab(Path(path).read_text(encoding="utf-8"))


def load_input(text: str) -> FiniteSemigroup:
    """Resolve an input string: '-' for stdin, a recipe string, or an mtab path."""
    if looks_like_recipe(text):
        return build_from_string(text)
    return _read_mtab(text)


def build_from_string(text: str) -> FiniteSemigroup:
    """Build the semigroup a recipe string describes."""

    def resolve(source: str) -> FiniteSemigroup:
        return fixture(source) if source in FIXTURE_NAMES else _read_mtab(source)

    kind, sep, rest = text.partition(":")
    if not sep or kind not in RECIPE_KINDS:
        raise ParseError(f"not a recognised recipe: {text!r}")
    reject_repeated_stdin([text])
    if kind == "nm":
        n, m = _ints(rest, 2, text)
        return nm_family(n, m)
    if kind == "asym":
        (n,) = _ints(rest, 1, text)
        return asym_family(n)
    if kind == "sqfree":
        (k,) = _ints(rest, 1, text)
        return squarefree_words(k)
    if kind == "fixture":
        return fixture(rest)
    sources = _sources(text)
    if kind == "u-of":
        return u_of(resolve(sources[0]))
    if kind == "op":
        return opposite(resolve(sources[0]))
    if kind == "s1":
        return adjoin_identity(resolve(sources[0]))
    if kind == "prod":
        if len(sources) != 2:
            raise ParseError(f"recipe {text!r}: expected two sources")
        return direct_product(*map(resolve, sources))
    # rees
    _, sep2, elems = rest.partition(",")
    if not sep2 or not elems:
        raise ParseError(f"recipe {text!r}: expected 'rees:<source>,<e+e+..>'")
    base = resolve(sources[0])
    try:
        seed = [int(p) for p in elems.split("+")]
    except ValueError:
        raise ParseError(f"recipe {text!r}: ideal elements must be integers") from None
    return rees_quotient(base, ideal_closure(base, seed))

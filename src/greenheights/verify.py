"""The claim harness: evaluate every applicable structural law on any finite
semigroup, report pass/fail with element-chain witnesses, and sweep whole
input batches.

Claims are evaluated independently, never short-circuited, so a single engine
bug shows up as many correlated failures instead of hiding behind the first.
Each fact has one check. A fact that a claim states is checked by that claim
alone, so no cross-check pre-empts its witness. Facts that no claim states
and that cannot fail on a validated finite input (stability, the two
regularity criteria, the chain oracle) make :func:`analyze` raise
InternalCheckError, not a violation, as they can only mean a bug here.

Every claim but lem5.5.2 is a :func:`_claim` entry: a test checked on each of
the claim's cases until one fails. lem5.5.2 keeps an evaluator of its own, as
its two stages (the socle of U(S), then a differing cell) share no case type.

The two claims on the null ideal extension U(S), lem5.5.2 and prop5.6, read
U(S)'s Cayley graphs over G_U = G_S u {x_1} (:func:`u_of_graphs`), built
from S's generator rows and columns: n|G_U| cells where U(S)'s table has
(2n + 1)^2. That table is built only on a failure, to name the witness.
"""

from __future__ import annotations

import copy
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing, contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, groupby, islice

from .constructions import _restrict, rees_quotient, u_of, u_of_graphs
from .core import FiniteSemigroup, Ideal, build_semigroup, format_mtab
from .enumeration import (
    EnumerationConfig,
    copy_class,
    copy_table,
    enumerate_semigroups,
    labeled_orbits,
)
from .errors import InternalCheckError, RangeError, SemigroupError
from .green import (
    ORDERED_RELATIONS,
    HeightReport,
    _order_from_successors,
    height_within_ideal,
    idempotent_height,
    iter_bits,
    k_classes,
    k_height,
    longest_chain_elements,
    longest_chain_oracle,
)
from .structure import (
    group_bound_exponents,
    is_inverse,
    is_left_stable,
    is_regular,
    is_right_stable,
    is_semisimple,
    left_socle,
    minimal_class_union,
    minimal_ideal,
)

SCHEMA = "green-heights/1"

# How many elements a semigroup may have before the per-element chain oracle
# and the principal-ideal family are considered too expensive.
ORACLE_LIMIT = 8
PRINCIPAL_IDEAL_LIMIT = 12


@dataclass(frozen=True)
class ClaimResult:
    """Outcome of one claim on one semigroup.

    ``holds`` is meaningful only when ``applicable``; a witness (chains of
    element names) is attached exactly when an applicable claim fails.
    """

    claim_id: str
    applicable: bool
    holds: bool
    witness: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Violation:
    """A falsified claim, carrying enough provenance to reproduce it."""

    claim_id: str
    semigroup: str  # mtab v1 serialisation
    provenance: str


def _chain(s: FiniteSemigroup, relation: str) -> str:
    names = [s.name_of(a) for a in longest_chain_elements(s, relation)]
    return f"{relation}: " + " > ".join(names)


def _chains(t: FiniteSemigroup, relations: str) -> tuple[str, ...]:
    return tuple(_chain(t, rel) for rel in relations)


def _set_names(s: FiniteSemigroup, elements) -> str:
    return "{" + ",".join(s.name_of(a) for a in sorted(elements)) + "}"


@dataclass(frozen=True)
class _ExtensionGraphs:
    """What lem5.5.2 and prop5.6 read of U(S), from its Cayley graphs over
    G_U (:func:`u_of_graphs`): its L- and R-heights, its left socle (x_z and
    the 0-minimal L-classes), and the right graph, ``right[x][k]`` being
    x*G_U[k]."""

    h_left: int
    h_right: int
    socle: frozenset[int]
    right: list[tuple[int, ...]]


def _extension_graphs(s: FiniteSemigroup) -> _ExtensionGraphs:
    """U(S)'s graph facts, from one component pass over each graph.

    The socle is checked to be an ideal over G_U on both sides, which
    suffices because G_U generates U(S). Should that fail, the ideal is
    checked again on U(S)'s table, which raises the error
    ``left_socle(u_of(s))`` would, naming the first product outside.
    """
    left, right = u_of_graphs(s)
    zero = s.order + 1 + s.zero
    class_of, classes, below, height = _order_from_successors(left)
    only_zero = 1 << class_of[zero]
    socle = {zero}
    for members, lt in zip(classes, below):
        if lt == only_zero:
            socle.update(members)
    if not all(socle.issuperset(left[x]) and socle.issuperset(right[x]) for x in socle):
        Ideal(u_of(s), socle)
    h_right = max(_order_from_successors(right)[3])
    return _ExtensionGraphs(max(height), h_right, frozenset(socle), right)


class _Context:
    """Shared per-semigroup data for the claim evaluators: the :func:`analyze`
    report as is, its heights by relation, U(S)'s graph facts, and ideals
    and tables built on first use. U(S)'s table, ``extension``, is built
    only for a witness."""

    def __init__(self, s: FiniteSemigroup, report: HeightReport):
        self.s = s
        self.report = report
        self.h = {"L": report.H_L, "R": report.H_R, "J": report.H_J, "H": report.H_H}
        self._quotients: dict[frozenset, FiniteSemigroup] = {}

    def quotient(self, ideal: Ideal) -> FiniteSemigroup:
        got = self._quotients.get(ideal.members)
        if got is None:
            got = rees_quotient(self.s, ideal)
            self._quotients[ideal.members] = got
        return got

    @cached_property
    def minimal(self) -> Ideal:
        return minimal_ideal(self.s)

    @cached_property
    def socle(self) -> Ideal:
        return left_socle(self.s)

    @cached_property
    def socle_quotient(self) -> FiniteSemigroup:
        return self.quotient(self.socle)

    @cached_property
    def extension_graphs(self) -> _ExtensionGraphs:
        return _extension_graphs(self.s)

    @cached_property
    def extension(self) -> FiniteSemigroup:
        return u_of(self.s)

    @cached_property
    def ideal_family(self) -> list[Ideal]:
        family = {self.minimal.members: self.minimal}
        if self.s.zero is not None:
            family.setdefault(self.socle.members, self.socle)
        if self.s.order <= PRINCIPAL_IDEAL_LIMIT:
            # one principal ideal per J-class: the class and every class below it
            j = k_classes(self.s, "J")
            for c, lt in enumerate(j.below):
                members = frozenset(a for d in iter_bits(lt | 1 << c) for a in j.classes[d])
                family.setdefault(members, Ideal(self.s, members))
        return [
            family[key]
            for key in sorted(family, key=lambda m: (len(m), sorted(m)))
        ]


def _eval_lem552(c: _Context):
    if not _has_zero(c):
        return None
    s = c.s
    n = s.order
    socle = c.extension_graphs.socle
    expected = frozenset(range(n, 2 * n + 1)) | {s.zero}
    if socle != expected:
        u = c.extension
        return False, (
            f"socle of extension {_set_names(u, socle)}",
            f"expected {_set_names(u, expected)}",
        )
    want = c.quotient(c.minimal).table
    # S/{0} and U/soc keep the nonzero elements in order and put the zero last
    nonzero = [a for a in range(n) if a != s.zero]
    position = [n - 1] * (2 * n + 1)
    for i, a in enumerate(nonzero):
        position[a] = i
    # both tables are associative and the images of G_S generate U/soc (x_1
    # lies in the socle), so equal right Cayley graphs over G_S mean equal
    # tables; unequal graphs with equal tables mean the graph is wrong
    right = c.extension_graphs.right
    columns = [position[g] for g in s.generators]
    if all(
        [position[y] for y in right[a][:-1]] == [want[i][g] for g in columns]
        for i, a in enumerate(nonzero)
    ):
        return True, None
    u = c.extension
    got = rees_quotient(u, Ideal(u, socle)).table
    if got == want:
        raise InternalCheckError("lem5.5.2: U(S)'s right Cayley graph disagrees with its table")
    mapping = nonzero + [s.zero]
    a, b = next((a, b) for a, row in enumerate(got) for b, x in enumerate(row) if x != want[a][b])
    return False, (f"quotient disagrees at ({s.name_of(mapping[a])},{s.name_of(mapping[b])})",)


def _once(c: _Context):
    return ((),)


def _per_ideal(ideals, relations):
    """The cases (I, S/I, K) of a claim on Rees quotients: each ideal I that
    ``ideals`` takes from the context, then each relation K, ideal-major."""

    def cases(c: _Context):
        for ideal in ideals(c):
            q = c.quotient(ideal)
            for rel in relations:
                yield ideal, q, rel

    return cases


def _claim(holds, witness, applies=None, cases=_once):
    """The evaluator of a claim: None where ``applies`` is false, else whether
    ``holds`` is true on every case that ``cases`` yields, with what
    ``witness`` returns on the first case that fails. ``holds`` and ``witness``
    take the context and the case's items; ``applies`` and ``cases`` take the
    context. The one empty case of ``_once`` makes a single comparison."""

    def evaluate(c: _Context):
        if applies is not None and not applies(c):
            return None
        for case in cases(c):
            if not holds(c, *case):
                return False, witness(c, *case)
        return True, None

    return evaluate


def _has_zero(c: _Context) -> bool:
    return c.s.zero is not None


def _union_name(c: _Context, relation: str) -> str:
    return f"minimal {relation}-union {_set_names(c.s, minimal_class_union(c.s, relation))}"


def _socle_name(c: _Context) -> str:
    return f"left socle {_set_names(c.s, c.socle.members)}"


def _five_equal(c: _Context) -> bool:
    return c.h["L"] == c.h["R"] == c.h["H"] == c.report.H_E == c.h["J"]


def _stable(c: _Context) -> bool:
    return c.report.left_stable and c.report.right_stable


# claim id -> (one-line statement, evaluator), in registry order
_REGISTRY = {
    "lem2.1": ("the minimal two-sided class equals the union of the minimal "
               "left classes and the union of the minimal right classes",
               _claim(lambda c: minimal_class_union(c.s, "L")
                      == minimal_class_union(c.s, "R") == c.minimal.members,
                      lambda c: (_union_name(c, "L"), _union_name(c, "R")))),
    "lem2.2": ("the minimal ideal is completely simple and is the union of the "
               "minimal H-classes",
               _claim(lambda c: c.minimal.members == minimal_class_union(c.s, "H")
                      and k_height(_restrict(c.s, c.minimal.members), "H") == 1,
                      lambda c: (_union_name(c, "H"),
                                 f"minimal ideal {_set_names(c.s, c.minimal.members)}"))),
    # a^k H a^(2k) holds exactly from the index of a on, the least such k
    "lem3.4": ("with n = H_H, every element satisfies a^n H a^(2n)",
               _claim(lambda c, a, k: k <= c.h["H"],
                      lambda c, a, k: (f"{c.s.name_of(a)}^{c.h['H']} and "
                                       f"{c.s.name_of(a)}^{2 * c.h['H']} are not H-related",),
                      cases=lambda c: enumerate(group_bound_exponents(c.s)))),
    "prop3.5.3": ("H_H <= min(H_L, H_R) and max(H_L, H_R) <= H_J",
                  _claim(lambda c: c.h["H"] <= min(c.h["L"], c.h["R"])
                         and max(c.h["L"], c.h["R"]) <= c.h["J"],
                         lambda c: _chains(c.s, "LRJH"))),
    "prop4.1": ("H_L = 1 iff H_J = 1 with left stability, and dually for H_R",
                _claim(lambda c: ((c.h["L"] == 1) == (c.h["J"] == 1 and c.report.left_stable))
                       and ((c.h["R"] == 1) == (c.h["J"] == 1 and c.report.right_stable)),
                       lambda c: _chains(c.s, "LRJ"))),
    "prop4.2": ("H_L = 1, H_R = 1, H_H = 1 and H_J = 1 are all equivalent",
                _claim(lambda c: len({c.h[rel] == 1 for rel in "LRJH"}) == 1,
                       lambda c: _chains(c.s, "LRJH"))),
    "prop4.3": ("a side height of 2 forces H_J into {2, 3}",
                _claim(lambda c: c.h["J"] in (2, 3), lambda c: _chains(c.s, "J"),
                       applies=lambda c: 2 in (c.h["L"], c.h["R"]))),
    "prop4.4": ("H_L = 2 forces H_H = 2 and H_R = H_J in {2, 3}",
                _claim(lambda c: c.h["H"] == 2 and c.h["R"] == c.h["J"]
                       and c.h["J"] in (2, 3),
                       lambda c: _chains(c.s, "HRJ"), applies=lambda c: c.h["L"] == 2)),
    "prop5.2.1": ("no height grows when an ideal is collapsed to a zero",
                  _claim(lambda c, ideal, q, rel: c.h[rel] >= k_height(q, rel),
                         lambda c, ideal, q, rel: (f"ideal {_set_names(c.s, ideal.members)}",
                                                   _chain(q, rel)),
                         cases=_per_ideal(lambda c: c.ideal_family, "LRJ"))),
    "prop5.2.3": ("collapsing the (completely simple) minimal ideal preserves "
                  "H_L, H_R and H_J",
                  _claim(lambda c, ideal, q, rel: c.h[rel] == k_height(q, rel),
                         lambda c, ideal, q, rel: (
                             f"minimal ideal {_set_names(c.s, ideal.members)}",
                             _chain(c.s, rel), _chain(q, rel)),
                         cases=_per_ideal(lambda c: [c.minimal], "LRJ"))),
    "star": ("H_K <= H_K-within-I + H_K(quotient) - 1 for every ideal I",
             _claim(lambda c, ideal, q, rel: c.h[rel]
                    <= height_within_ideal(c.s, ideal, rel) + k_height(q, rel) - 1,
                    lambda c, ideal, q, rel: (f"ideal {_set_names(c.s, ideal.members)}",
                                              _chain(c.s, rel)),
                    cases=_per_ideal(lambda c: c.ideal_family, ORDERED_RELATIONS))),
    "thm5.3.1": ("collapsing the left socle lowers H_L by exactly one",
                 _claim(lambda c: c.h["L"] == k_height(c.socle_quotient, "L") + 1,
                        lambda c: (_socle_name(c), *_chains(c.s, "L"),
                                   *_chains(c.socle_quotient, "L")),
                        applies=lambda c: _has_zero(c) and c.s.order >= 2)),
    "thm5.3.2": ("H_R <= 2*H_R(quotient by left socle) + 1",
                 _claim(lambda c: c.h["R"] <= 2 * k_height(c.socle_quotient, "R") + 1,
                        lambda c: _chains(c.s, "R") + _chains(c.socle_quotient, "R"),
                        applies=_has_zero)),
    "thm5.3.2-internal": ("the R-height within the left socle is at most "
                          "H_R(quotient) + 2",
                          _claim(lambda c: height_within_ideal(c.s, c.socle, "R")
                                 <= k_height(c.socle_quotient, "R") + 2,
                                 lambda c: (_socle_name(c), *_chains(c.s, "R")),
                                 applies=_has_zero)),
    "thm5.3.3": ("H_J <= H_R(quotient) + H_J(quotient) + 1 for the left socle",
                 _claim(lambda c: c.h["J"] <= k_height(c.socle_quotient, "R")
                        + k_height(c.socle_quotient, "J") + 1,
                        lambda c: _chains(c.s, "J") + _chains(c.socle_quotient, "RJ"),
                        applies=_has_zero)),
    "lem5.5.2": ("the left socle of the null ideal extension is the fresh "
                 "part plus the old zero, and the quotient is the original",
                 _eval_lem552),
    "prop5.6": ("the null ideal extension sends H_L to H_L + 1 and H_R to "
                "2*H_R + 1",
                _claim(lambda c: c.extension_graphs.h_left == c.h["L"] + 1
                       and c.extension_graphs.h_right == 2 * c.h["R"] + 1,
                       lambda c: _chains(c.extension, "LR"), applies=_has_zero)),
    "thm6.1": ("ceil(log2(H_L + 1)) <= H_R <= 2^H_L - 1",
               _claim(lambda c: c.h["L"].bit_length() <= c.h["R"] <= 2 ** c.h["L"] - 1,
                      lambda c: _chains(c.s, "LR"))),
    "thm6.2": ("H_L <= H_J <= 2^H_L - 1",
               _claim(lambda c: c.h["L"] <= c.h["J"] <= 2 ** c.h["L"] - 1,
                      lambda c: _chains(c.s, "LJ"))),
    "thm6.5": ("with both side heights >= 2, max(H_L, H_R) <= H_J <= "
               "min(2^min - 1, H_L + H_R - 2)",
               _claim(lambda c: max(c.h["L"], c.h["R"]) <= c.h["J"]
                      <= min(2 ** min(c.h["L"], c.h["R"]) - 1, c.h["L"] + c.h["R"] - 2),
                      lambda c: _chains(c.s, "LRJ"),
                      applies=lambda c: min(c.h["L"], c.h["R"]) >= 2)),
    "lem7.2": ("H_E <= min(H_L, H_R, H_H)",
               _claim(lambda c: c.report.H_E <= min(c.h["L"], c.h["R"], c.h["H"]),
                      lambda c: (f"idempotents {_set_names(c.s, c.s.idempotents)}",))),
    "prop7.1": ("semisimple: H_J <= min(H_L, H_R)",
                _claim(lambda c: c.h["J"] <= min(c.h["L"], c.h["R"]),
                       lambda c: _chains(c.s, "J"), applies=lambda c: c.report.semisimple)),
    "prop7.3": ("regular: H_L = H_R = H_H = H_E >= H_J",
                _claim(lambda c: c.h["L"] == c.h["R"] == c.h["H"] == c.report.H_E >= c.h["J"],
                       lambda c: _chains(c.s, "LRJH"), applies=lambda c: c.report.regular)),
    "prop7.5": ("regular and stable: all five heights coincide",
                _claim(_five_equal, lambda c: _chains(c.s, "LRJH"),
                       applies=lambda c: c.report.regular and _stable(c))),
    "cor7.7": ("regular: the five heights coincide exactly when stable",
               _claim(lambda c: _five_equal(c) == _stable(c),
                      lambda c: _chains(c.s, "LRJH"), applies=lambda c: c.report.regular)),
}

CLAIM_STATEMENTS = {claim_id: statement for claim_id, (statement, _) in _REGISTRY.items()}
CLAIM_IDS = tuple(_REGISTRY)
# a dict of its own, because tests and perfbench/tracer.py replace its entries
_EVALUATORS = {claim_id: evaluate for claim_id, (_, evaluate) in _REGISTRY.items()}


def analyze(s: FiniteSemigroup) -> HeightReport:
    """All five heights plus the structural flags for one semigroup.

    On small inputs the condensation heights are cross-checked against the
    direct chain oracle. On every input both stabilities must hold and
    regularity must agree with semisimplicity. A failure is an internal
    error, never a report. ``group_bound`` holds for every finite semigroup;
    the bound H_H on its exponents is claim lem3.4, checked by the harness.
    """
    heights = {rel: k_height(s, rel) for rel in ORDERED_RELATIONS}
    if s.order <= ORACLE_LIMIT:
        for rel, height in heights.items():
            if height != longest_chain_oracle(s, rel):
                raise InternalCheckError(
                    f"height and chain oracle disagree on relation {rel}"
                )
    # one fact on a finite semigroup, read from the inverses and the J-classes
    regular = is_regular(s)
    if is_semisimple(s) != regular:
        raise InternalCheckError("regularity and semisimplicity disagree")
    left_stable, right_stable = is_left_stable(s), is_right_stable(s)
    if not (left_stable and right_stable):
        raise InternalCheckError("a validated finite semigroup failed the stability identity")
    return HeightReport(
        H_L=heights["L"],
        H_R=heights["R"],
        H_J=heights["J"],
        H_H=heights["H"],
        H_E=idempotent_height(s),
        left_stable=left_stable,
        right_stable=right_stable,
        group_bound=True,
        regular=regular,
        inverse=is_inverse(s),
        semisimple=regular,
        completely_semisimple=regular,
        completely_simple=heights["H"] == 1,
        has_zero=s.zero is not None,
    )


def _run_claims(context: _Context) -> list[ClaimResult]:
    results = []
    for claim_id in CLAIM_IDS:
        # looked up per call: tests and perfbench/tracer.py replace entries
        outcome = _EVALUATORS[claim_id](context)
        if outcome is None:
            results.append(ClaimResult(claim_id, False, True, None))
        else:
            holds, witness = outcome
            results.append(ClaimResult(claim_id, True, holds, witness))
    return results


def check_claims(s: FiniteSemigroup) -> list[ClaimResult]:
    """Evaluate the whole claim registry on one semigroup, in registry order.

    Runs :func:`analyze` first; its report supplies the heights and flags.
    """
    return _run_claims(_Context(s, analyze(s)))


def input_record(provenance: str, s: FiniteSemigroup, report, claims) -> dict:
    # shallow copies suffice: every field is an int, a bool, a str or a tuple of str
    return {
        "input": {"provenance": provenance, "order": s.order},
        "report": dict(vars(report)),
        "claims": [dict(vars(c)) for c in claims],
    }


@dataclass
class SweepSummary:
    """Aggregated outcome of one sweep; aggregation is order-independent."""

    inputs: int
    claim_stats: dict[str, tuple[int, int]]  # claim_id -> (applicable, held)
    violations: list[Violation]
    attained_triples: list[tuple[int, int, int]]
    records: list[dict]  # in input order; empty when sweep was given on_record

    @property
    def total_evaluations(self) -> int:
        return self.inputs * len(CLAIM_IDS)


def _evaluate(pair):
    """Record, violations and (H_L, H_R, H_J) of one (provenance, semigroup) pair."""
    provenance, s = pair
    with _provenance_attached(provenance):
        report = analyze(s)
        claims = _run_claims(_Context(s, report))
        violations = [
            Violation(c.claim_id, format_mtab(s), provenance)
            for c in claims
            if c.applicable and not c.holds
        ]
        record = input_record(provenance, s, report, claims)
    return record, violations, (report.H_L, report.H_R, report.H_J)


def _with_provenance(exc: Exception, provenance: str) -> Exception:
    """A copy of ``exc`` whose message starts with the provenance; attributes
    such as ``ParseError.line`` and ``AssociativityError.witness`` are kept."""
    message = f"{provenance}: {exc}"
    try:
        renamed = copy.copy(exc)
        renamed.args = (message,)
        if str(renamed) != message:  # OSError formats from errno and strerror
            renamed = type(exc)(message)
    except Exception:  # a type that cannot be rebuilt from its args
        return SemigroupError(message)
    return renamed


@contextmanager
def _provenance_attached(provenance: str):
    """Re-raise errors naming the input; InternalCheckError passes through as is."""
    try:
        yield
    except InternalCheckError:
        raise
    except Exception as exc:
        raise _with_provenance(exc, provenance) from exc


def _loaded(text: str):
    """The (provenance, semigroup) pair of one input string."""
    from . import recipes  # deferred: recipes sits above verify in the CLI

    with _provenance_attached(text):
        return text, recipes.load_input(text)


def _is_labeled(item) -> bool:
    """Whether ``item`` is a whole labeled census. A census with a limit
    streams from the labeled search, which reaches its first tables sooner
    than the class search and the orbits would."""
    return (
        isinstance(item, EnumerationConfig)
        and not item.up_to_isomorphism
        and item.limit is None
    )


def _as_inputs(source):
    """(provenance, semigroup) pairs from a config or a list of configs,
    input strings (recipes, mtab paths or '-') and pairs, in the given order;
    a whole labeled census config is passed on as it is, for
    :func:`_labeled_outcomes`.

    Every input string is loaded before any config is enumerated, so a bad
    path or recipe fails before a census is generated, and stdin named twice
    fails before anything is loaded."""
    from . import recipes  # deferred: recipes sits above verify in the CLI

    items = [source] if isinstance(source, EnumerationConfig) else list(source)
    recipes.reject_repeated_stdin(item for item in items if isinstance(item, str))
    items = [_loaded(item) if isinstance(item, str) else item for item in items]
    for item in items:
        if _is_labeled(item):
            yield item
        elif isinstance(item, EnumerationConfig):
            for i, s in enumerate(enumerate_semigroups(item)):
                yield f"enum:order={item.order}:index={i}", s
        else:
            provenance, s = item
            yield provenance, s


# With workers, inputs travel in chunks of CHUNK, and at most WINDOW_PER_JOB
# chunks per worker are submitted and not yet consumed: enough to keep the
# workers busy while this process aggregates, and no more held in memory.
CHUNK = 16
WINDOW_PER_JOB = 4


def _evaluate_chunk(pairs):
    return [_evaluate(pair) for pair in pairs]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


def _outcomes(inputs, jobs: int):
    """The outcome of each input, in input order, from this process or from
    a pool of at most ``jobs`` workers, one per usable CPU, that is never
    more than ``WINDOW_PER_JOB`` chunks per worker ahead."""
    if jobs == 1:
        yield from map(_evaluate, inputs)
        return
    # with the fork start method a pool starts all its workers at the first
    # submit, so workers beyond the usable CPUs cost processes and gain nothing
    workers = min(jobs, _usable_cpus())
    chunks = iter(lambda: list(islice(inputs, CHUNK)), [])
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        try:
            for chunk in chunks:
                pending.append(pool.submit(_evaluate_chunk, chunk))
                if len(pending) == WINDOW_PER_JOB * workers:
                    yield from pending.popleft().result()
            while pending:
                yield from pending.popleft().result()
        except BaseException:  # an error, an interrupt or a consumer that stopped
            for future in pending:
                future.cancel()
            raise


# Every STRIDE-th copy of a labeled census is evaluated on its own labels as
# well, and must give its class's replayed outcome.
STRIDE = 64


def _replayed(provenance: str, order: int, state):
    """The outcome of a copy of a class that holds every claim: a new
    ``"input"`` around the body of the class's interned ``(record, triple)``."""
    record, triple = state
    return {**record, "input": {"provenance": provenance, "order": order}}, [], triple


def _labeled_outcomes(config: EnumerationConfig, jobs: int, intern):
    """The outcome of each table of a labeled census, in census order, from
    one evaluation per isomorphism class.

    Green's relations are preserved by isomorphism, so the heights, the flags
    and every verdict are the same on each copy of a class; only a failed
    claim's witness and its violation's table name elements. Each class is
    evaluated once, by :func:`_outcomes`, under the provenance of its first
    copy, its canonical table, and ``intern`` makes its record share the body
    of equal classes; every other copy gets that body under its own
    provenance. Two kinds of copy are evaluated on their own labels: each
    copy of a class that fails a claim, so that its witnesses and violations
    name its own elements, and every STRIDE-th copy, whose outcome must equal
    the replay or InternalCheckError names it. :func:`labeled_orbits` checks
    the count of copies against the known labeled total.
    """
    n = config.order
    classes = list(enumerate_semigroups(EnumerationConfig(order=n, up_to_isomorphism=True)))
    keys, first = labeled_orbits([s.table for s in classes])
    provenance = f"enum:order={n}:index={{}}".format
    evaluated = [(provenance(i), s) for i, s in zip(first, classes)]
    del classes

    def own_labels(indices):
        for i in indices:
            yield provenance(i), build_semigroup(copy_table(keys[i], n))

    strided = range(0, len(keys), STRIDE)
    # per class: its interned (record, triple), or None where a claim fails
    states: list = []
    with closing(_outcomes(chain(evaluated, own_labels(strided)), jobs)) as outcomes:
        for outcome in islice(outcomes, len(evaluated)):
            record, violations, triple = intern(outcome)
            states.append(None if violations else (record, triple))
        del evaluated
        for outcome, i in zip(outcomes, strided):
            state = states[copy_class(keys[i], n)]
            if state is not None and outcome != _replayed(provenance(i), n, state):
                raise InternalCheckError(
                    f"{provenance(i)}: evaluated on its own labels, this table differs "
                    "from the record of its isomorphism class"
                )
    failing = own_labels(i for i, key in enumerate(keys) if states[copy_class(key, n)] is None)
    with closing(_outcomes(failing, jobs)) as own:
        for i, key in enumerate(keys):
            state = states[copy_class(key, n)]
            yield next(own) if state is None else _replayed(provenance(i), n, state)


def _interning():
    """A function that gives an outcome's record the ``report`` and ``claims``
    of the first record it was given that renders alike, and returns the
    outcome; a record with a failed claim or a witness keeps its own. Without
    a witness every value is a str, an int, a bool or None, so the key, the
    body's repr, holds each value's type too: ``True == 1`` and ``1 == 1.0``
    render apart, and so do their reprs."""
    bodies: dict = {}

    def intern(outcome):
        record, violations, _ = outcome
        body = record["report"], record["claims"]
        if not violations and all(claim["witness"] is None for claim in body[1]):
            record["report"], record["claims"] = bodies.setdefault(repr(body), body)
        return outcome

    return intern


def _sweep_outcomes(source, jobs: int):
    """The outcome of each input of ``source``, in input order, interned
    (:func:`_interning`): each run of pairs through one :func:`_outcomes`,
    and each labeled census through :func:`_labeled_outcomes`."""
    intern = _interning()
    for labeled, items in groupby(_as_inputs(source), key=_is_labeled):
        if labeled:
            for config in items:
                yield from _labeled_outcomes(config, jobs, intern)
        else:
            with closing(_outcomes(items, jobs)) as outcomes:
                yield from map(intern, outcomes)


def sweep(source, jobs: int = 1, on_record=None) -> SweepSummary:
    """Run analyze + check_claims over a batch of inputs.

    ``source`` is an EnumerationConfig or a list whose items are
    EnumerationConfigs, input strings (recipes, mtab paths or '-' for stdin) or
    (provenance, semigroup) pairs. Every input string is loaded before any
    config is enumerated; the inputs themselves are generated, evaluated and
    aggregated one at a time, in this process (``jobs=1``) or in a pool of
    ``jobs`` worker processes, capped at the CPUs this process may use.
    Errors propagate with the offending provenance attached.

    A whole labeled census (a config without ``up_to_isomorphism`` or
    ``limit``) is built from its isomorphism classes and evaluated once per
    class, and each labeled copy gets its class's record under its own
    provenance (:func:`_labeled_outcomes`). The records are those of
    evaluating every copy.

    Each input's record is kept in ``SweepSummary.records``, or, with
    ``on_record``, handed to it in input order and not kept, so that memory
    does not grow with the number of inputs. Records of equal outcome, with
    no failed claim and no witness, share one ``report`` dict and one
    ``claims`` list, the first such record's (:func:`_interning`), whatever
    inputs they came from; do not mutate them. One entry per distinct body is
    kept for the length of the call.
    """
    if jobs < 1:
        raise RangeError(f"jobs must be at least 1, got {jobs}")
    records: list[dict] = []
    keep = records.append if on_record is None else on_record
    inputs = 0
    stats = {claim_id: [0, 0] for claim_id in CLAIM_IDS}
    violations: list[Violation] = []
    triples = set()
    with closing(_sweep_outcomes(source, jobs)) as outcomes:
        for record, viols, triple in outcomes:
            inputs += 1
            keep(record)
            violations.extend(viols)
            triples.add(triple)
            for claim in record["claims"]:
                if claim["applicable"]:
                    stats[claim["claim_id"]][0] += 1
                    if claim["holds"]:
                        stats[claim["claim_id"]][1] += 1
    violations.sort(key=lambda v: (v.provenance, v.claim_id))
    return SweepSummary(
        inputs=inputs,
        claim_stats={k: (a, h) for k, (a, h) in stats.items()},
        violations=violations,
        attained_triples=sorted(triples),
        records=records,
    )


def report_payload(summary: SweepSummary) -> dict:
    """The JSON document for a sweep: schema stamp, per-input records, totals."""
    return {
        "schema": SCHEMA,
        "inputs": summary.records,
        "summary": {
            "input_count": summary.inputs,
            "claims": {
                claim_id: {"applicable": a, "held": h}
                for claim_id, (a, h) in summary.claim_stats.items()
            },
            "violation_count": len(summary.violations),
        },
        "violations": [dict(vars(v)) for v in summary.violations],
    }


CSV_HEADER = ("provenance", "order", "claim_id", "applicable", "holds")


def record_csv_rows(record: dict):
    """The summary CSV's rows for one input record, one per claim."""
    provenance = record["input"]["provenance"]
    order = record["input"]["order"]
    for claim in record["claims"]:
        yield (
            provenance,
            order,
            claim["claim_id"],
            claim["applicable"],
            claim["holds"],
        )


def summary_csv_rows(summary: SweepSummary):
    """One row per (input, claim) for the summary CSV, after its header."""
    yield CSV_HEADER
    for record in summary.records:
        yield from record_csv_rows(record)

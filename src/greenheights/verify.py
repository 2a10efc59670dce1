"""The claim harness: evaluate every applicable structural law on any finite
semigroup, report pass/fail with element-chain witnesses, and sweep whole
input batches.

Claims are evaluated independently, never short-circuited, so a single engine
bug shows up as many correlated failures instead of hiding behind the first.
Facts whose failure is impossible for a validated finite input (stability,
agreement between the two regularity criteria) raise InternalCheckError
instead of producing a violation, because they can only mean a bug here.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from .constructions import rees_quotient, u_of
from .core import FiniteSemigroup, Ideal, format_mtab, ideal_closure
from .enumeration import EnumerationConfig, enumerate_semigroups
from .errors import InternalCheckError, SemigroupError
from .green import (
    ORDERED_RELATIONS,
    HeightReport,
    below_masks,
    height_within_ideal,
    idempotent_height,
    k_classes,
    k_height,
    longest_chain_elements,
    longest_chain_oracle,
)
from .structure import (
    is_completely_semisimple,
    is_group_bound,
    is_inverse,
    is_left_stable,
    is_regular,
    is_right_stable,
    left_socle,
    minimal_ideal,
    principal_factors,
)

SCHEMA = "green-heights/1"

# How many elements a semigroup may have before the per-element chain oracle
# and the per-element principal-ideal family are considered too expensive.
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


CLAIM_STATEMENTS = {
    "lem2.1": "the minimal two-sided class equals the union of the minimal "
              "left classes and the union of the minimal right classes",
    "lem2.2": "the minimal ideal is completely simple and is the union of the "
              "minimal H-classes",
    "lem3.4": "with n = H_H, every element satisfies a^n H a^(2n)",
    "prop3.5.3": "H_H <= min(H_L, H_R) and max(H_L, H_R) <= H_J",
    "prop4.1": "H_L = 1 iff H_J = 1 with left stability, and dually for H_R",
    "prop4.2": "H_L = 1, H_R = 1, H_H = 1 and H_J = 1 are all equivalent",
    "prop4.3": "a side height of 2 forces H_J into {2, 3}",
    "prop4.4": "H_L = 2 forces H_H = 2 and H_R = H_J in {2, 3}",
    "prop5.2.1": "no height grows when an ideal is collapsed to a zero",
    "prop5.2.3": "collapsing the (completely simple) minimal ideal preserves "
                 "H_L, H_R and H_J",
    "star": "H_K <= H_K-within-I + H_K(quotient) - 1 for every ideal I",
    "thm5.3.1": "collapsing the left socle lowers H_L by exactly one",
    "thm5.3.2": "H_R <= 2*H_R(quotient by left socle) + 1",
    "thm5.3.2-internal": "the R-height within the left socle is at most "
                         "H_R(quotient) + 2",
    "thm5.3.3": "H_J <= H_R(quotient) + H_J(quotient) + 1 for the left socle",
    "lem5.5.2": "the left socle of the null ideal extension is the fresh "
                "part plus the old zero, and the quotient is the original",
    "prop5.6": "the null ideal extension sends H_L to H_L + 1 and H_R to "
               "2*H_R + 1",
    "thm6.1": "ceil(log2(H_L + 1)) <= H_R <= 2^H_L - 1",
    "thm6.2": "H_L <= H_J <= 2^H_L - 1",
    "thm6.5": "with both side heights >= 2, max(H_L, H_R) <= H_J <= "
              "min(2^min - 1, H_L + H_R - 2)",
    "lem7.2": "H_E <= min(H_L, H_R, H_H)",
    "prop7.1": "semisimple: H_J <= min(H_L, H_R)",
    "prop7.3": "regular: H_L = H_R = H_H = H_E >= H_J",
    "prop7.5": "regular and stable: all five heights coincide",
    "cor7.7": "regular: the five heights coincide exactly when stable",
}

CLAIM_IDS = tuple(CLAIM_STATEMENTS)


def _chain(s: FiniteSemigroup, relation: str) -> str:
    names = [s.name_of(a) for a in longest_chain_elements(s, relation)]
    return f"{relation}: " + " > ".join(names)


def _set_names(s: FiniteSemigroup, elements) -> str:
    return "{" + ",".join(s.name_of(a) for a in sorted(elements)) + "}"


class _Context:
    """Shared per-semigroup data for the claim evaluators."""

    def __init__(self, s: FiniteSemigroup):
        self.s = s
        self.left_stable = is_left_stable(s)
        self.right_stable = is_right_stable(s)
        if not (self.left_stable and self.right_stable):
            raise InternalCheckError(
                "a validated finite semigroup failed the stability identity"
            )
        self.h = {rel: k_height(s, rel) for rel in ORDERED_RELATIONS}
        self.h_e = idempotent_height(s)
        self.factors = principal_factors(s)
        self.semisimple = all(pf.kind != "null" for pf in self.factors)
        self.regular = is_regular(s)
        self.minimal = minimal_ideal(s)
        self._quotients: dict[frozenset, FiniteSemigroup] = {}
        self._extension: FiniteSemigroup | None = None
        self._socle: Ideal | None = None

    def quotient(self, ideal: Ideal) -> FiniteSemigroup:
        got = self._quotients.get(ideal.members)
        if got is None:
            got = rees_quotient(self.s, ideal)
            self._quotients[ideal.members] = got
        return got

    def socle(self) -> Ideal:
        if self._socle is None:
            self._socle = left_socle(self.s)
        return self._socle

    def extension(self) -> FiniteSemigroup:
        if self._extension is None:
            self._extension = u_of(self.s)
        return self._extension

    def ideal_family(self) -> list[Ideal]:
        family = {self.minimal.members: self.minimal}
        if self.s.zero is not None:
            soc = self.socle()
            family.setdefault(soc.members, soc)
        if self.s.order <= PRINCIPAL_IDEAL_LIMIT:
            for a in range(self.s.order):
                ide = ideal_closure(self.s, [a])
                family.setdefault(ide.members, ide)
        return [
            family[key]
            for key in sorted(family, key=lambda m: (len(m), sorted(m)))
        ]


def _eval_lem21(c: _Context):
    gj = k_classes(c.s, "J")
    sinks = [i for i, covered in enumerate(gj.dag) if not covered]
    union_l = set()
    union_r = set()
    for relation, union in (("L", union_l), ("R", union_r)):
        g = k_classes(c.s, relation)
        for i, covered in enumerate(g.dag):
            if not covered:
                union.update(g.classes[i])
    ok = (
        len(sinks) == 1
        and union_l == union_r == set(gj.classes[sinks[0]])
    )
    if ok:
        return True, None
    return False, (
        f"minimal L-union {_set_names(c.s, union_l)}",
        f"minimal R-union {_set_names(c.s, union_r)}",
    )


def _eval_lem22(c: _Context):
    minimal = set(c.minimal.members)
    gh = k_classes(c.s, "H")
    union_h = set()
    for i, covered in enumerate(gh.dag):
        if not covered:
            union_h.update(gh.classes[i])
    simple_factor = next(
        pf for pf in c.factors if set(pf.j_class) == minimal
    )
    ok = union_h == minimal and k_height(simple_factor.factor, "H") == 1
    if ok:
        return True, None
    return False, (
        f"minimal H-union {_set_names(c.s, union_h)}",
        f"minimal ideal {_set_names(c.s, minimal)}",
    )


def _eval_lem34(c: _Context):
    n = c.h["H"]
    table = c.s.table
    masks = below_masks(c.s, "H")
    for a in range(c.s.order):
        p = a
        for _ in range(n - 1):
            p = table[p][a]
        q = p
        for _ in range(n):
            q = table[q][a]
        if masks[p] != masks[q]:
            name = c.s.name_of(a)
            return False, (f"{name}^{n} and {name}^{2 * n} are not H-related",)
    return True, None


def _eval_prop353(c: _Context):
    ok = (
        c.h["H"] <= min(c.h["L"], c.h["R"])
        and max(c.h["L"], c.h["R"]) <= c.h["J"]
    )
    if ok:
        return True, None
    return False, tuple(_chain(c.s, rel) for rel in ORDERED_RELATIONS)


def _eval_prop41(c: _Context):
    ok = ((c.h["L"] == 1) == (c.h["J"] == 1 and c.left_stable)) and (
        (c.h["R"] == 1) == (c.h["J"] == 1 and c.right_stable)
    )
    if ok:
        return True, None
    return False, (_chain(c.s, "L"), _chain(c.s, "R"), _chain(c.s, "J"))


def _eval_prop42(c: _Context):
    flags = [c.h[rel] == 1 for rel in ORDERED_RELATIONS]
    if all(flags) or not any(flags):
        return True, None
    return False, tuple(_chain(c.s, rel) for rel in ORDERED_RELATIONS)


def _eval_prop43(c: _Context):
    if c.h["L"] != 2 and c.h["R"] != 2:
        return None
    if c.h["J"] in (2, 3):
        return True, None
    return False, (_chain(c.s, "J"),)


def _eval_prop44(c: _Context):
    if c.h["L"] != 2:
        return None
    ok = c.h["H"] == 2 and c.h["R"] == c.h["J"] and c.h["J"] in (2, 3)
    if ok:
        return True, None
    return False, (_chain(c.s, "H"), _chain(c.s, "R"), _chain(c.s, "J"))


def _eval_prop521(c: _Context):
    for ideal in c.ideal_family():
        q = c.quotient(ideal)
        for rel in ("L", "R", "J"):
            if c.h[rel] < k_height(q, rel):
                return False, (
                    f"ideal {_set_names(c.s, ideal.members)}",
                    _chain(q, rel),
                )
    return True, None


def _eval_prop523(c: _Context):
    q = c.quotient(c.minimal)
    for rel in ("L", "R", "J"):
        if c.h[rel] != k_height(q, rel):
            return False, (
                f"minimal ideal {_set_names(c.s, c.minimal.members)}",
                _chain(c.s, rel),
                _chain(q, rel),
            )
    return True, None


def _eval_star(c: _Context):
    for ideal in c.ideal_family():
        q = c.quotient(ideal)
        for rel in ORDERED_RELATIONS:
            inside = height_within_ideal(c.s, ideal, rel)
            if c.h[rel] > inside + k_height(q, rel) - 1:
                return False, (
                    f"ideal {_set_names(c.s, ideal.members)}",
                    _chain(c.s, rel),
                )
    return True, None


def _eval_thm531(c: _Context):
    if c.s.zero is None or c.s.order < 2:
        return None
    q = c.quotient(c.socle())
    if c.h["L"] == k_height(q, "L") + 1:
        return True, None
    return False, (
        f"left socle {_set_names(c.s, c.socle().members)}",
        _chain(c.s, "L"),
        _chain(q, "L"),
    )


def _eval_thm532(c: _Context):
    if c.s.zero is None:
        return None
    q = c.quotient(c.socle())
    if c.h["R"] <= 2 * k_height(q, "R") + 1:
        return True, None
    return False, (_chain(c.s, "R"), _chain(q, "R"))


def _eval_thm532_internal(c: _Context):
    if c.s.zero is None:
        return None
    soc = c.socle()
    q = c.quotient(soc)
    if height_within_ideal(c.s, soc, "R") <= k_height(q, "R") + 2:
        return True, None
    return False, (
        f"left socle {_set_names(c.s, soc.members)}",
        _chain(c.s, "R"),
    )


def _eval_thm533(c: _Context):
    if c.s.zero is None:
        return None
    q = c.quotient(c.socle())
    if c.h["J"] <= k_height(q, "R") + k_height(q, "J") + 1:
        return True, None
    return False, (_chain(c.s, "J"), _chain(q, "R"), _chain(q, "J"))


def _eval_lem552(c: _Context):
    if c.s.zero is None:
        return None
    s = c.s
    n = s.order
    u = c.extension()
    expected = frozenset(range(n, 2 * n + 1)) | {s.zero}
    soc = left_socle(u)
    if soc.members != expected:
        return False, (
            f"socle of extension {_set_names(u, soc.members)}",
            f"expected {_set_names(u, expected)}",
        )
    q = rees_quotient(u, soc)
    mapping = [a for a in range(n) if a != s.zero] + [s.zero]
    for a in range(q.order):
        for b in range(q.order):
            if mapping[q.table[a][b]] != s.table[mapping[a]][mapping[b]]:
                return False, (
                    f"quotient disagrees at ({s.name_of(mapping[a])},"
                    f"{s.name_of(mapping[b])})",
                )
    return True, None


def _eval_prop56(c: _Context):
    if c.s.zero is None:
        return None
    u = c.extension()
    ok = (
        k_height(u, "L") == c.h["L"] + 1
        and k_height(u, "R") == 2 * c.h["R"] + 1
    )
    if ok:
        return True, None
    return False, (_chain(u, "L"), _chain(u, "R"))


def _eval_thm61(c: _Context):
    n = c.h["L"]
    if n.bit_length() <= c.h["R"] <= 2**n - 1:
        return True, None
    return False, (_chain(c.s, "L"), _chain(c.s, "R"))


def _eval_thm62(c: _Context):
    n = c.h["L"]
    if n <= c.h["J"] <= 2**n - 1:
        return True, None
    return False, (_chain(c.s, "L"), _chain(c.s, "J"))


def _eval_thm65(c: _Context):
    if c.h["L"] < 2 or c.h["R"] < 2:
        return None
    smallest = min(c.h["L"], c.h["R"])
    upper = min(2**smallest - 1, c.h["L"] + c.h["R"] - 2)
    if max(c.h["L"], c.h["R"]) <= c.h["J"] <= upper:
        return True, None
    return False, (_chain(c.s, "L"), _chain(c.s, "R"), _chain(c.s, "J"))


def _eval_lem72(c: _Context):
    if c.h_e <= min(c.h["L"], c.h["R"], c.h["H"]):
        return True, None
    idempotents = [e for e in range(c.s.order) if c.s.table[e][e] == e]
    return False, (f"idempotents {_set_names(c.s, idempotents)}",)


def _eval_prop71(c: _Context):
    if not c.semisimple:
        return None
    if c.h["J"] <= min(c.h["L"], c.h["R"]):
        return True, None
    return False, (_chain(c.s, "J"),)


def _eval_prop73(c: _Context):
    if not c.regular:
        return None
    ok = c.h["L"] == c.h["R"] == c.h["H"] == c.h_e and c.h_e >= c.h["J"]
    if ok:
        return True, None
    return False, tuple(_chain(c.s, rel) for rel in ORDERED_RELATIONS)


def _eval_prop75(c: _Context):
    if not (c.regular and c.left_stable and c.right_stable):
        return None
    if c.h["L"] == c.h["R"] == c.h["H"] == c.h_e == c.h["J"]:
        return True, None
    return False, tuple(_chain(c.s, rel) for rel in ORDERED_RELATIONS)


def _eval_cor77(c: _Context):
    if not c.regular:
        return None
    equal = c.h["L"] == c.h["R"] == c.h["H"] == c.h_e == c.h["J"]
    stable = c.left_stable and c.right_stable
    if equal == stable:
        return True, None
    return False, tuple(_chain(c.s, rel) for rel in ORDERED_RELATIONS)


_EVALUATORS = {
    "lem2.1": _eval_lem21,
    "lem2.2": _eval_lem22,
    "lem3.4": _eval_lem34,
    "prop3.5.3": _eval_prop353,
    "prop4.1": _eval_prop41,
    "prop4.2": _eval_prop42,
    "prop4.3": _eval_prop43,
    "prop4.4": _eval_prop44,
    "prop5.2.1": _eval_prop521,
    "prop5.2.3": _eval_prop523,
    "star": _eval_star,
    "thm5.3.1": _eval_thm531,
    "thm5.3.2": _eval_thm532,
    "thm5.3.2-internal": _eval_thm532_internal,
    "thm5.3.3": _eval_thm533,
    "lem5.5.2": _eval_lem552,
    "prop5.6": _eval_prop56,
    "thm6.1": _eval_thm61,
    "thm6.2": _eval_thm62,
    "thm6.5": _eval_thm65,
    "lem7.2": _eval_lem72,
    "prop7.1": _eval_prop71,
    "prop7.3": _eval_prop73,
    "prop7.5": _eval_prop75,
    "cor7.7": _eval_cor77,
}

assert tuple(_EVALUATORS) == CLAIM_IDS


def analyze(s: FiniteSemigroup) -> HeightReport:
    """All five heights plus the structural flags for one semigroup.

    On small inputs the condensation heights are cross-checked against the
    direct chain oracle; a mismatch is an internal error, never a report.
    """
    if s.order <= ORACLE_LIMIT:
        for rel in ORDERED_RELATIONS:
            if k_height(s, rel) != longest_chain_oracle(s, rel):
                raise InternalCheckError(
                    f"height and chain oracle disagree on relation {rel}"
                )
    factors = principal_factors(s)
    return HeightReport(
        H_L=k_height(s, "L"),
        H_R=k_height(s, "R"),
        H_J=k_height(s, "J"),
        H_H=k_height(s, "H"),
        H_E=idempotent_height(s),
        left_stable=is_left_stable(s),
        right_stable=is_right_stable(s),
        group_bound=is_group_bound(s),
        regular=is_regular(s),
        inverse=is_inverse(s),
        semisimple=all(pf.kind != "null" for pf in factors),
        completely_semisimple=is_completely_semisimple(s),
        completely_simple=k_height(s, "H") == 1,
        has_zero=s.zero is not None,
    )


def check_claims(s: FiniteSemigroup) -> list[ClaimResult]:
    """Evaluate the whole claim registry on one semigroup, in registry order."""
    context = _Context(s)
    results = []
    for claim_id in CLAIM_IDS:
        outcome = _EVALUATORS[claim_id](context)
        if outcome is None:
            results.append(ClaimResult(claim_id, False, True, None))
        else:
            holds, witness = outcome
            results.append(ClaimResult(claim_id, True, holds, witness))
    return results


def input_record(provenance: str, s: FiniteSemigroup, report, claims) -> dict:
    return {
        "input": {"provenance": provenance, "order": s.order},
        "report": asdict(report),
        "claims": [asdict(c) for c in claims],
    }


@dataclass
class SweepSummary:
    """Aggregated outcome of one sweep; aggregation is order-independent."""

    inputs: int
    claim_stats: dict[str, tuple[int, int]]  # claim_id -> (applicable, held)
    violations: list[Violation]
    attained_triples: list[tuple[int, int, int]]
    records: list[dict]

    @property
    def total_evaluations(self) -> int:
        return self.inputs * len(CLAIM_IDS)


def _evaluate_input(provenance: str, s: FiniteSemigroup):
    report = analyze(s)
    claims = check_claims(s)
    violations = [
        Violation(c.claim_id, format_mtab(s), provenance)
        for c in claims
        if c.applicable and not c.holds
    ]
    record = input_record(provenance, s, report, claims)
    return record, violations, (report.H_L, report.H_R, report.H_J)


def _worker(payload):
    provenance, s = payload
    with _provenance_attached(provenance):
        return _evaluate_input(provenance, s)


def _with_provenance(exc: Exception, provenance: str) -> Exception:
    try:
        return type(exc)(f"{provenance}: {exc}")
    except Exception:
        return SemigroupError(f"{provenance}: {exc}")


@contextmanager
def _provenance_attached(provenance: str):
    """Re-raise errors naming the input; InternalCheckError passes through as is."""
    try:
        yield
    except InternalCheckError:
        raise
    except Exception as exc:
        raise _with_provenance(exc, provenance) from exc


def _as_inputs(source):
    if isinstance(source, EnumerationConfig):
        for i, s in enumerate(enumerate_semigroups(source)):
            yield f"enum:order={source.order}:index={i}", s
        return
    from . import recipes  # deferred: recipes sits above verify in the CLI

    for item in source:
        if isinstance(item, str):
            with _provenance_attached(item):
                s = recipes.build_from_string(item)
            yield item, s
        else:
            provenance, s = item
            yield provenance, s


def sweep(source, jobs: int = 1) -> SweepSummary:
    """Run analyze + check_claims over a batch of inputs.

    ``source`` is an EnumerationConfig, a list of recipe strings, or a list of
    (provenance, semigroup) pairs. Construction errors propagate with the
    offending provenance attached.
    """
    pairs = []
    for provenance, s in _as_inputs(source):
        pairs.append((provenance, s))

    outcomes = []
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_worker, pairs, chunksize=16))
    else:
        for provenance, s in pairs:
            with _provenance_attached(provenance):
                outcomes.append(_evaluate_input(provenance, s))

    stats = {claim_id: [0, 0] for claim_id in CLAIM_IDS}
    violations: list[Violation] = []
    triples = set()
    records = []
    for record, viols, triple in outcomes:
        records.append(record)
        violations.extend(viols)
        triples.add(triple)
        for claim in record["claims"]:
            if claim["applicable"]:
                stats[claim["claim_id"]][0] += 1
                if claim["holds"]:
                    stats[claim["claim_id"]][1] += 1
    violations.sort(key=lambda v: (v.provenance, v.claim_id))
    return SweepSummary(
        inputs=len(records),
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
        "violations": [asdict(v) for v in summary.violations],
    }


def summary_csv_rows(summary: SweepSummary):
    """One row per (input, claim) for the summary CSV."""
    yield ("provenance", "order", "claim_id", "applicable", "holds")
    for record in summary.records:
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

"""Span tracing of one pass, done from outside the package.

`Tracer.install()` replaces the traced public functions of every loaded
`greenheights` module at each name that binds them (the modules use
`from .x import y`, so each importing module holds its own reference), wraps
the claim evaluators in `verify._EVALUATORS` one by one, and wraps
`Ideal.__post_init__`, which is where an `Ideal` checks its closure.
Cached functions are wrapped outside their `lru_cache`, so a span covers the
hashing of the whole table as well as the lookup.

Spans are kept in flat arrays (name, start, end, parent, input) and written
out once the run ends; every span belongs to the process that installed the
tracer. Forked pool workers restore the untraced functions, so with
`--jobs 2` the spans cover the parent process only.
"""

from __future__ import annotations

import gzip
import importlib
import os
import sys
import time
from array import array

TRACED = {
    "core": ("build_semigroup", "parse_mtab", "format_mtab", "ideal_closure",
             "opposite", "direct_product", "adjoin_identity"),
    "constructions": ("rees_quotient", "u_of", "nm_family", "asym_family",
                      "squarefree_words", "fixture"),
    "green": ("below_masks", "k_classes", "k_height", "longest_chain_oracle",
              "longest_chain_elements", "height_within_ideal", "idempotent_height"),
    "structure": ("is_left_stable", "is_right_stable", "is_stable",
                  "group_bound_exponents", "is_group_bound", "minimal_ideal",
                  "is_simple", "is_completely_simple", "is_0_simple",
                  "zero_minimal_classes", "is_completely_0_simple", "left_socle",
                  "right_socle", "principal_factors", "is_regular", "is_inverse",
                  "is_semisimple", "is_completely_semisimple"),
    "enumeration": ("associative_tables", "enumerate_semigroups", "canonical_table"),
    "verify": ("analyze", "check_claims", "input_record", "sweep"),
    "recipes": ("build_from_string",),
}
GENERATORS = {"enumeration.associative_tables", "enumeration.enumerate_semigroups"}
CACHED = ("green.below_masks", "green.k_classes", "structure.principal_factors")

DERIVE = ("core.opposite", "core.direct_product", "core.adjoin_identity")
FAMILIES = ("constructions.nm_family", "constructions.asym_family",
            "constructions.squarefree_words", "constructions.fixture")
STABILITY = ("structure.is_left_stable", "structure.is_right_stable", "structure.is_stable")
OTHER_STRUCTURE = tuple(
    f"structure.{f}" for f in TRACED["structure"]
    if f"structure.{f}" not in STABILITY + ("structure.principal_factors", "structure.is_regular")
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.input = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.input_id = -1  # which input of the workload the spans belong to
        self.yields: dict[str, int] = {}
        self.sum_n3 = 0
        self.pid = os.getpid()
        self._patched: list[tuple[object, str, object]] = []
        self._caches: dict[str, tuple[object, int, int]] = {}  # fn, hits, misses

    # -- recording -------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1])
        self.input.append(self.input_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        return i

    def wrap(self, fn, name: str, before=None):
        nid = self._nid(name)
        clock = time.perf_counter
        open_span = self._open
        stack = self.stack
        start, end = self.start, self.end

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            i = open_span(nid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, name: str, before=None):
        """Time each next() of a generator as its own span."""
        nid = self._nid(name)
        clock = time.perf_counter
        open_span = self._open
        stack = self.stack
        start, end = self.start, self.end
        yields = self.yields
        yields[name] = 0

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                if before is not None:
                    before(args, kwargs)
                i = open_span(nid)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    end[i] = clock()
                    start[i] = t0
                    stack.pop()
                yields[name] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- input boundaries ------------------------------------------------

    def _next_input(self, args, kwargs):
        self.input_id += 1

    def _sweep_starts(self, args, kwargs):
        self.input_id = -1

    def _analyze_called(self, args, kwargs):
        # an input of a sweep begins with its analyze call
        top = self.stack[-1]
        if top >= 0 and self.span_name[top] == self.name_id["verify.sweep"]:
            self.input_id += 1

    def _count_n3(self, args, kwargs):
        table = args[0] if args else kwargs["table"]
        self.sum_n3 += len(table) ** 3

    # -- installation ----------------------------------------------------

    def install(self):
        import greenheights.core as core
        import greenheights.verify as verify

        self._nid("verify.sweep")
        hooks = {
            "core.build_semigroup": self._count_n3,
            "enumeration.enumerate_semigroups": self._next_input,
            "recipes.build_from_string": self._next_input,
            "verify.sweep": self._sweep_starts,
            "verify.analyze": self._analyze_called,
        }
        replacement = {}
        for module_name, functions in TRACED.items():
            module = importlib.import_module(f"greenheights.{module_name}")
            for fn_name in functions:
                original = getattr(module, fn_name)
                name = f"{module_name}.{fn_name}"
                wrapper = self.wrap_generator if name in GENERATORS else self.wrap
                replacement[id(original)] = wrapper(original, name, hooks.get(name))
                if name in CACHED:
                    info = original.cache_info()
                    self._caches[name] = (original, info.hits, info.misses)
        for module_name, module in list(sys.modules.items()):
            if module_name != "greenheights" and not module_name.startswith("greenheights."):
                continue
            for attr, value in list(vars(module).items()):
                traced = replacement.get(id(value))
                if traced is not None:
                    self._patch(module, attr, traced)

        for claim_id, evaluator in list(verify._EVALUATORS.items()):
            traced = self.wrap(evaluator, f"verify.claim.{claim_id}")
            self._patch_item(verify._EVALUATORS, claim_id, traced)
        self._patch(core.Ideal, "__post_init__",
                    self.wrap(core.Ideal.__post_init__, "core.Ideal"))
        os.register_at_fork(after_in_child=self.uninstall)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_item(self, mapping, key, value):
        self._patched.append((mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, total and self seconds; plus the counters."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += duration[i]
        spans = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            entry = spans[self.names[self.span_name[i]]]
            entry[0] += 1
            entry[1] += duration[i]
            entry[2] += duration[i] - covered[i]
        caches = {}
        for name, (cached, hits, misses) in self._caches.items():
            info = cached.cache_info()
            caches[name] = [info.hits - hits, info.misses - misses]
        return {
            "spans": {k: {"calls": c, "total_s": t, "self_s": s} for k, (c, t, s) in spans.items()},
            "yields": dict(self.yields),
            "sum_n3": self.sum_n3,
            "caches": caches,
            "span_count": n,
            "pid": self.pid,
        }

    def write_spans(self, path):
        """One line per span: name, start, end, parent, input, pid (TSV, gzip)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\tinput\tpid\n")
            names, pid = self.names, self.pid
            for i in range(len(self.start)):
                out.write(
                    f"{names[self.span_name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.input[i]}\t{pid}\n"
                )


# -- per-layer metrics ---------------------------------------------------

def _per_layer_names():
    out = []

    def add(name, unit, better):
        out.append({"name": name, "unit": unit, "better": better})

    def calls_self(name):
        add(f"{name}.calls", "count", "lower")
        add(f"{name}.self_s", "s", "lower")

    calls_self("core.build_semigroup")
    add("core.build_semigroup.sum_n3", "count", "lower")
    add("core.build_semigroup.calls_per_input", "1/input", "lower")
    for f in ("parse_mtab", "format_mtab", "ideal_closure", "Ideal"):
        calls_self(f"core.{f}")
    add("core.derive.self_s", "s", "lower")
    for f in ("rees_quotient", "u_of"):
        calls_self(f"constructions.{f}")
    add("constructions.families.self_s", "s", "lower")
    for f in ("below_masks", "k_classes"):
        calls_self(f"green.{f}")
        add(f"green.{f}.hit_ratio", "ratio", "higher")
    for f in ("k_height", "longest_chain_elements", "height_within_ideal", "idempotent_height"):
        calls_self(f"green.{f}")
    calls_self("structure.principal_factors")
    add("structure.principal_factors.hit_ratio", "ratio", "higher")
    calls_self("structure.is_regular")
    add("structure.is_regular.calls_per_input", "1/input", "lower")
    add("structure.stability.self_s", "s", "lower")
    add("structure.stability.calls_per_input", "1/input", "lower")
    add("structure.other.self_s", "s", "lower")
    add("enumeration.associative_tables.tables", "count", "lower")
    add("enumeration.associative_tables.self_s", "s", "lower")
    calls_self("enumeration.canonical_table")
    add("enumeration.iso_keep_ratio", "ratio", "higher")
    for f in ("analyze", "check_claims", "input_record"):
        calls_self(f"verify.{f}")
    for claim_id in CLAIM_IDS:
        add(f"verify.claim.{claim_id}.self_s", "s", "lower")
    add("verify.sweep.self_s", "s", "lower")
    add("verify.pool.worker_cpu_s", "s", "lower")
    add("verify.pool.worker_peak_rss_mb", "MiB", "lower")
    calls_self("recipes.build_from_string")
    add("cli.main.self_s", "s", "lower")
    for f in ("report_bytes", "csv_bytes", "stdout_bytes"):
        add(f"cli.{f}", "B", "lower")
    add("trace.overhead_s", "s", "lower")
    return out


# The registry order of verify.CLAIM_IDS, fixed here so that the metric list
# does not depend on importing the package.
CLAIM_IDS = (
    "lem2.1", "lem2.2", "lem3.4", "prop3.5.3", "prop4.1", "prop4.2", "prop4.3",
    "prop4.4", "prop5.2.1", "prop5.2.3", "star", "thm5.3.1", "thm5.3.2",
    "thm5.3.2-internal", "thm5.3.3", "lem5.5.2", "prop5.6", "thm6.1", "thm6.2",
    "thm6.5", "lem7.2", "prop7.1", "prop7.3", "prop7.5", "cor7.7",
)

PER_LAYER = _per_layer_names()


def layer_metrics(trace: dict, items: int, pass_result: dict, sizes: dict,
                  untraced_wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass, keyed as in PER_LAYER."""
    spans = trace["spans"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(spans.get(name, {}).get("self_s", 0.0) for name in names)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for metric in PER_LAYER:
        name = metric["name"]
        base, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = calls(base)
        elif field == "self_s":
            values[name] = self_s(base)
    values["core.build_semigroup.sum_n3"] = trace["sum_n3"]
    values["core.build_semigroup.calls_per_input"] = ratio(calls("core.build_semigroup"), items)
    values["core.derive.self_s"] = self_s(*DERIVE)
    values["constructions.families.self_s"] = self_s(*FAMILIES)
    for name, (hits, misses) in trace["caches"].items():
        values[f"{name}.hit_ratio"] = ratio(hits, hits + misses)
    values["structure.is_regular.calls_per_input"] = ratio(calls("structure.is_regular"), items)
    values["structure.stability.self_s"] = self_s(*STABILITY)
    values["structure.stability.calls_per_input"] = ratio(
        sum(calls(name) for name in STABILITY), items)
    values["structure.other.self_s"] = self_s(*OTHER_STRUCTURE)
    raw = trace["yields"].get("enumeration.associative_tables", 0)
    values["enumeration.associative_tables.tables"] = raw
    values["enumeration.iso_keep_ratio"] = ratio(
        trace["yields"].get("enumeration.enumerate_semigroups", 0), raw)
    values["verify.pool.worker_cpu_s"] = pass_result["worker_cpu_s"]
    values["verify.pool.worker_peak_rss_mb"] = pass_result["worker_peak_rss_mb"]
    for key in ("report", "csv", "stdout"):
        values[f"cli.{key}_bytes"] = sizes.get(key, 0)
    values["trace.overhead_s"] = pass_result["wall_s"] - untraced_wall_s
    # a metric whose function never ran on this workload reads 0
    return {m["name"]: values.get(m["name"], 0) for m in PER_LAYER}

"""Spans and counters around the library's public functions.

Tracer.install() replaces each function in LAYERS at every module
attribute that names it (the names cdhg.census, cdhg.cli, cdhg.perms and
their neighbours look up at call time), plus FiniteGroup.from_table and
Permutation.then; restore() puts the originals back.  Spans are kept in
memory as (layer, start, end, parent, instance) and written out by the
worker after the pass.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

from workloads import SN_REGULAR_SUBGROUPS

# function name -> layer; a layer's metric is "<layer>_s", its self time
LAYERS = {
    "run_census": "census.self",
    "build_analysis_report": "cli.report_self",
    "aut_hypergraph": "perms.aut",
    "find_regular_subgroups": "perms.regular_search",
    "regular_to_cayley": "perms.recovery",
    "normalizer": "perms.normalizer",
    "verify_theorem2": "perms.theorem2",
    "group_automorphisms": "groups.automorphisms",
    "inner_automorphisms": "groups.automorphisms",
    "load_group": "groups.load",
    "single_cayley_closure": "hypersets.closure",
    "cayley_closure": "hypersets.closure",
    "is_cayley_closed": "hypersets.closure",
    "cayley_equivalence_classes": "hypersets.classes",
    "non_cayley_equivalent_representatives": "hypersets.classes",
    "aut_g_x": "hypersets.aut_g_x",
    "inn_g_x": "hypersets.aut_g_x",
    "load_hyperset": "hypersets.load",
    "cd_construct": "hypergraphs.cd_construct",
    "ch_construct": "hypergraphs.invariants",
    "underlying": "hypergraphs.invariants",
    "is_connected": "hypergraphs.invariants",
    "is_undirected": "hypergraphs.invariants",
    "uniformity": "hypergraphs.invariants",
    "dump_dihypergraph": "hypergraphs.dump_load",
    "load_dihypergraph": "hypergraphs.dump_load",
}
VALIDATE_LAYER = "groups.validate"
ROOT_LAYER = "bench.self"
SELF_LAYERS = sorted({*LAYERS.values(), VALIDATE_LAYER, ROOT_LAYER})
MODULES = ("groups", "hypersets", "hypergraphs", "perms", "census", "cli")


class Tracer:
    def __init__(self, cdhg):
        self.cdhg = cdhg
        self.spans: list = []
        self.stack: list[int] = []
        self.instance = ""
        self.compositions = 0
        self.validate_calls = 0
        self.aut_searches = 0
        self.aut_order_sum = 0
        self.arc_sets: set = set()
        self.normalizer_scanned = 0
        self.normalizer_kept = 0
        self.regular_found = 0
        self.sn_searches = 0
        self.problems: list[tuple[str, str]] = []
        self._saved: list = []

    def _wrap(self, layer, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.instance)
            if after is not None:
                after(*args, result=result, **kwargs)
            return result

        return wrapper

    def _patch(self, owner, name, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        cdhg = self.cdhg
        hooks = {
            "aut_hypergraph": self._after_aut,
            "find_regular_subgroups": self._after_regular,
            "normalizer": self._after_normalizer,
            "cd_construct": self._after_cd_construct,
        }
        wrappers = {}
        for module in (cdhg, *(getattr(cdhg, m) for m in MODULES)):
            for name, layer in LAYERS.items():
                fn = module.__dict__.get(name)
                if fn is None:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(layer, fn, hooks.get(name))
                self._patch(module, name, wrappers[id(fn)])

        group_cls = cdhg.groups.FiniteGroup
        from_table = group_cls.from_table

        def count_validate(*args, result):
            self.validate_calls += 1

        self._patch(group_cls, "from_table",
                    staticmethod(self._wrap(VALIDATE_LAYER, from_table, count_validate)))

        perm_cls = cdhg.perms.Permutation
        then = perm_cls.then

        def counted_then(p, other):
            self.compositions += 1
            return then(p, other)

        self._patch(perm_cls, "then", counted_then)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def run(self, instance: str, fn, *args):
        """Call fn under a root span that carries the instance id."""
        self.instance = instance
        return self._wrap(ROOT_LAYER, fn)(*args)

    # counters and independent checks, read where the work happens

    def _after_aut(self, h, *args, result, **kwargs):
        self.aut_searches += 1
        self.aut_order_sum += result.order
        self.arc_sets.add((h.vertex_count, h.arcs))
        if all(len(e) == 1 for _, e in h.arcs) and result.order != math.factorial(h.vertex_count):
            self.problems.append((self.instance, f"Aut of X = {{{{0}}}} is not S{h.vertex_count}"))

    def _after_regular(self, p, n, *args, result, **kwargs):
        self.regular_found += len(result)
        if n in SN_REGULAR_SUBGROUPS and p.order == math.factorial(n):
            self.sn_searches += 1
            if len(result) != SN_REGULAR_SUBGROUPS[n]:
                self.problems.append((
                    self.instance,
                    f"S{n} has {len(result)} regular subgroups, expected {SN_REGULAR_SUBGROUPS[n]}",
                ))

    def _after_normalizer(self, big, small, *args, result, **kwargs):
        self.normalizer_scanned += big.order
        self.normalizer_kept += result.order

    def _after_cd_construct(self, g, x, *args, result, **kwargs):
        if len(result.arcs) != g.order * len(x.members):
            self.problems.append((self.instance, "cd_construct arcs != |G||X|"))

    def metrics(self, wall: float) -> dict[str, float]:
        """Per-layer self times and counters of one traced pass."""
        covered = defaultdict(float)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s = dict.fromkeys(SELF_LAYERS, 0.0)
        for index, (layer, start, end, _, _) in enumerate(self.spans):
            self_s[layer] += end - start - covered[index]
        # time of the pass outside every root span is the benchmark's own
        roots = sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)
        self_s[ROOT_LAYER] += wall - roots
        out = {f"{layer}_s": value for layer, value in self_s.items()}
        out.update({
            "perms.compositions": self.compositions,
            "perms.aut_order_sum": self.aut_order_sum,
            "perms.aut_distinct_share": len(self.arc_sets) / self.aut_searches if self.aut_searches else 0.0,
            "perms.normalizer_scanned": self.normalizer_scanned,
            "perms.normalizer_kept_share": (
                self.normalizer_kept / self.normalizer_scanned if self.normalizer_scanned else 0.0
            ),
            "perms.regular_found": self.regular_found,
            "perms.sn_searches": self.sn_searches,
            "groups.validate_calls": self.validate_calls,
            "trace.spans": len(self.spans),
        })
        return out

"""Inputs, per-instance runs and output checks of the three workloads.

Nothing here imports cdhg: the worker times that import as set-up and
hands the package in, and every library call goes through a module
attribute looked up at call time, so the tracer's wrappers see it.

The independent checks below share no code with the library: group
tables, translate closures and the expected counts are computed here
from first principles.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

GOLDENS = Path(__file__).resolve().parent / "goldens"

WORKLOADS = ("census", "analyze", "build")

# The census bounds.  run_census(8, 3) is one 25 s call, too long to
# repeat within a run; at order 7 a call takes about 0.4 s and runs the
# same checks, searches and recoveries.
CENSUS_BOUNDS = (7, 3)

# Seed subsets kept per build group, two of each size.  Group i builds
# one subset of size BUILD_SIZES[i % 3], and the seed picks which of the
# two, so every seed builds the same mix of sizes.
BUILD_POOL_SIZES = (2, 2, 3, 3, 4, 4)
BUILD_SIZES = (2, 3, 4)
# aut_g_x runs on build groups up to this order; above it the library
# refuses the group-automorphism search (AUT_GROUP_ORDER_CUTOFF when the
# goldens were recorded), and the workload avoids refusals.
AUT_G_X_MAX_ORDER = 40

# Census tallies of run_census(7, 3) at the seed commit.
CENSUS_PINNED_LINES = (
    "instances: 61",
    "nontrivial_regular_round_trips: 497",
    "result: PASS",
)
# |Aut(G)| of every group of order n, up to isomorphism.
GROUP_AUT_ORDERS = {
    1: (1,), 2: (1,), 3: (2,), 4: (2, 6), 5: (4,), 6: (2, 6), 7: (6,),
    8: (4, 8, 168, 8, 24),  # Z8, Z2xZ4, Z2^3, D4, Q8
}
# Regular subgroups of S_n: those isomorphic to G are the conjugates of
# G's regular action, whose normalizer (the holomorph) has order
# n·|Aut(G)|, so there are n!/(n·|Aut(G)|) = (n-1)!/|Aut(G)| of them.
SN_REGULAR_SUBGROUPS = {
    n: sum(math.factorial(n - 1) // a for a in auts) for n, auts in GROUP_AUT_ORDERS.items()
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- group tables, built without the library ------------------------------

def build_groups() -> list[tuple[str, list[list[int]]]]:
    """Cyclic, dihedral and two-factor cyclic products of order 10..64."""
    groups = []
    for n in range(10, 65):
        groups.append((f"Z{n}", [[(i + j) % n for j in range(n)] for i in range(n)]))
    for n in range(5, 33):
        # index f*n + r is rotation r followed by f flips
        def mul(i: int, j: int, n: int = n) -> int:
            (f1, r1), (f2, r2) = divmod(i, n), divmod(j, n)
            return (f1 ^ f2) * n + ((r1 - r2) if f1 else (r1 + r2)) % n
        groups.append((f"D{n}", [[mul(i, j) for j in range(2 * n)] for i in range(2 * n)]))
    for a in range(2, 33):
        for b in range(a, 33):
            if 10 <= a * b <= 64:
                table = [
                    [((i // b + j // b) % a) * b + (i % b + j % b) % b for j in range(a * b)]
                    for i in range(a * b)
                ]
                groups.append((f"Z{a}xZ{b}", table))
    return groups


def group_text(name: str, table: list[list[int]]) -> str:
    rows = "\n".join(" ".join(map(str, row)) for row in table)
    return f"group {name}\norder {len(table)}\ntable\n{rows}\n"


def closure_size(table: list[list[int]], subset: tuple[int, ...]) -> int:
    """|X| for the single closure of subset: its distinct translates s^-1."""
    inverse = {a: row.index(0) for a, row in enumerate(table)}
    return len({tuple(sorted(table[a][inverse[s]] for a in subset)) for s in subset})


def build_pool(name: str, order: int) -> list[tuple[int, ...]]:
    """The fixed seed subsets of one build group, each containing 0."""
    rng = random.Random(f"pool:{name}")
    pool: list[tuple[int, ...]] = []
    for size in BUILD_POOL_SIZES:
        while True:
            subset = (0, *sorted(rng.sample(range(1, order), size - 1)))
            if subset not in pool:
                pool.append(subset)
                break
    return pool


def build_key(name: str, subset: tuple[int, ...]) -> str:
    return f"{name} {','.join(map(str, subset))}"


# --- instances -------------------------------------------------------------

def instances(workload: str, seed: int) -> list[tuple[str, dict]]:
    """(instance id, payload) pairs of one pass.  The census and analyze
    inputs are fixed, in corpus order; the seed picks the build subsets,
    and the same seed gives the same list."""
    if workload == "census":
        return [("census({},{})".format(*CENSUS_BOUNDS), {})]
    if workload == "analyze":
        return [(case["id"], case) for case in json.loads((GOLDENS / "analyze.json").read_text())]
    if workload == "build":
        rng = random.Random(seed)
        items = []
        for i, (name, table) in enumerate(build_groups()):
            size = BUILD_SIZES[i % len(BUILD_SIZES)]
            subset = rng.choice([s for s in build_pool(name, len(table)) if len(s) == size])
            items.append((build_key(name, subset), {
                "group": group_text(name, table),
                "order": len(table),
                "subset": subset,
                "members": closure_size(table, subset),
            }))
        return items
    raise ValueError(f"unknown workload {workload!r}")


# --- one instance through the public API -----------------------------------

def run_instance(cdhg, workload: str, case: dict):
    if workload == "census":
        return cdhg.census.run_census(*CENSUS_BOUNDS).render()
    g = cdhg.groups.load_group(case["group"])
    if workload == "analyze":
        x = cdhg.hypersets.load_hyperset(case["hyperset"], g)
        return cdhg.cli.build_analysis_report(g, x).render()
    x = cdhg.hypersets.single_cayley_closure(g, case["subset"])
    h = cdhg.hypergraphs.cd_construct(g, x)
    dump = cdhg.hypergraphs.dump_dihypergraph(h)
    if cdhg.hypergraphs.load_dihypergraph(dump) != h:
        raise ValueError("the dump round trip changed the dihypergraph")
    report = cdhg.cli.build_analysis_report(g, x, with_aut=False).render()
    report += f"classes: {len(cdhg.hypersets.cayley_equivalence_classes(g, x))}\n"
    if g.order <= AUT_G_X_MAX_ORDER:
        report += f"aut_g_x: {len(cdhg.hypersets.aut_g_x(g, x))}\n"
    return [dump, report]


# --- checks ------------------------------------------------------------------

def _fields(report: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in report.splitlines())


class Checker:
    """Compares outputs with the goldens recorded at the seed commit and
    runs the independent checks; check() returns a list of problems."""

    def __init__(self, workload: str):
        self.workload = workload
        if workload == "census":
            self.golden = (GOLDENS / "census.txt").read_text()
        elif workload == "analyze":
            self.golden = {
                case["id"]: case["report"]
                for case in json.loads((GOLDENS / "analyze.json").read_text())
            }
        else:
            self.golden = json.loads((GOLDENS / "build.json").read_text())

    def check(self, iid: str, case: dict, output) -> list[str]:
        if self.workload == "census":
            return self._census(output)
        if self.workload == "analyze":
            return self._analyze(iid, case, output)
        return self._build(iid, case, output)

    def _census(self, text: str) -> list[str]:
        problems = [f"missing line {line!r}" for line in CENSUS_PINNED_LINES
                    if line not in text.splitlines()]
        if text != self.golden:
            problems.append("census report differs from the golden")
        return problems

    def _analyze(self, iid: str, case: dict, report: str) -> list[str]:
        problems = [] if report == self.golden[iid] else ["report differs from the golden"]
        f = _fields(report)
        order = len(case["group"].splitlines()) - 3
        members = case["hyperset"].splitlines()
        if f["arcs"] != str(order * len(members)):
            problems.append(f"arcs {f['arcs']} != |G||X| = {order * len(members)}")
        if members == ["0"] and f["aut_h"] != str(math.factorial(order)):
            problems.append(f"aut_h {f['aut_h']} != {order}! for X = {{{{0}}}}")
        if f["normalizer"] != str(order * int(f["aut_g_x"])):
            problems.append(f"normalizer {f['normalizer']} != |G| aut_g_x")
        return problems

    def _build(self, iid: str, case: dict, output: list[str]) -> list[str]:
        dump, report = output
        problems = []
        if [digest(dump), digest(report)] != self.golden.get(iid):
            problems.append("dump or report differs from the golden")
        arcs = case["order"] * case["members"]
        counted = sum(line.startswith("arc ") for line in dump.splitlines())
        if counted != arcs or _fields(report)["arcs"] != str(arcs):
            problems.append(f"arc count is not |G||X| = {arcs}")
        return problems

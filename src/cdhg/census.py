"""Exhaustive desk-scale verification sweep.

Builds a corpus of small groups, generates every closed hyperset reachable
from a single identity-containing subset within the size bound, and runs
the whole battery of structural checks on each instance.  The report is
deterministic text; any failure is reproduced verbatim.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

from .groups import (
    FiniteGroup,
    direct_product,
    element_order,
    group_automorphisms,
    inner_automorphisms,
    is_subgroup,
    make_cyclic,
    make_dihedral,
    subgroup_generated,
    subgroup_index,
)
from .hypersets import (
    CayleyHyperset,
    cayley_closure,
    cayley_equivalence_classes,
    inn_g_x,
    non_cayley_equivalent_representatives,
    single_cayley_closure,
)
from .hypergraphs import cd_construct, ch_construct, is_connected, is_undirected, underlying
from .perms import cayley_presentations, regular_to_cayley, right_regular, verify_theorem2

__all__ = [
    "CENSUS_MAX_ORDER_CAP",
    "CENSUS_MAX_MEMBER_CAP",
    "CheckTally",
    "CensusResult",
    "census_corpus",
    "census_hypersets",
    "run_census",
]

# Hard caps on the requested bounds; the defaults sit well inside them.
CENSUS_MAX_ORDER_CAP = 10
CENSUS_MAX_MEMBER_CAP = 4

CHECK_NAMES = (
    "arc_count",
    "closure_idempotent",
    "connected_iff_generating",
    "undirected_iff_closed",
    "subgroup_members",
    "underlying_equals_translate_family",
    "representative_choice_invariance",
    "right_regular_in_aut",
    "aut_preserves_arcs",
    "cayley_round_trip",
    "regular_subgroups",
    "normalizer_factorization",
    "aut_intersection",
)


class CheckTally:
    __slots__ = ("name", "passed", "failed", "skipped", "skip_reasons", "failures")

    def __init__(self, name: str, passed: int = 0, failed: int = 0, skipped: int = 0):
        self.name = name
        self.passed = passed
        self.failed = failed
        self.skipped = skipped
        self.skip_reasons: list[str] = []
        self.failures: list[str] = []

    def add(self, instance: str, good: bool | None, detail: str) -> None:
        """Tally one row: good None is a skip whose reason is detail."""
        if good is None:
            self.skipped += 1
            if detail not in self.skip_reasons:
                self.skip_reasons.append(detail)
        elif good:
            self.passed += 1
        else:
            self.failed += 1
            self.failures.append(f"{self.name}: {instance}: {detail}")

    def line(self) -> str:
        """The census report line; distinct skip reasons in first-seen order."""
        text = f"check {self.name}: {self.passed} pass, {self.failed} fail"
        if self.skipped:
            text += f", {self.skipped} skipped: {'; '.join(self.skip_reasons)}"
        return text


class CensusResult(SimpleNamespace):
    """The bounds max_order and max_member_size; group_count and
    instance_count; tallies, one CheckTally per name in CHECK_NAMES;
    nontrivial_regular_round_trips; and foreign_presentations: one
    (instance, profiles) entry, in census order, per surveyed instance
    that is also Cayley over a group of another element-order profile,
    each profile written like '1-2-4-4'.  Instances whose automorphism
    group is refused are not surveyed."""

    @property
    def all_pass(self) -> bool:
        return all(t.failed == 0 for t in self.tallies.values())

    def render(self) -> str:
        lines = [
            f"census: max_order={self.max_order} max_member_size={self.max_member_size}",
            f"groups: {self.group_count}",
            f"instances: {self.instance_count}",
        ]
        lines.extend(self.tallies[name].line() for name in CHECK_NAMES)
        lines.append(
            f"nontrivial_regular_round_trips: {self.nontrivial_regular_round_trips}"
        )
        for name in CHECK_NAMES:
            for failure in self.tallies[name].failures:
                lines.append(f"FAIL {failure}")
        lines.append(f"result: {'PASS' if self.all_pass else 'FAIL'}")
        return "\n".join(lines) + "\n"


def census_corpus(max_order: int) -> list[FiniteGroup]:
    """Cyclic and dihedral groups plus cyclic direct products, every one of
    order at most max_order, in a fixed order.  This is not every group of
    those orders: Q8 is missing at order 8.  Four isomorphism classes
    appear twice under different labels, on purpose, so that the checks
    also see relabelled tables: D1 and Z2, D2 and Z2xZ2, Z2xZ3 and Z6,
    and Z2xZ5 and Z10."""
    groups = [make_cyclic(n) for n in range(1, max_order + 1)]
    groups.extend(make_dihedral(n) for n in range(1, max_order // 2 + 1))
    for a in range(2, max_order + 1):
        for b in range(a, max_order + 1):
            if a * b <= max_order:
                groups.append(direct_product(make_cyclic(a), make_cyclic(b)))
    if 8 <= max_order:
        groups.append(
            direct_product(direct_product(make_cyclic(2), make_cyclic(2)), make_cyclic(2))
        )
    return groups


def census_hypersets(g: FiniteGroup, max_member_size: int) -> list[CayleyHyperset]:
    """Closures of every identity-containing subset within the size bound,
    deduplicated, sorted."""
    found = set()
    rest = list(range(1, g.order))
    for size in range(1, max_member_size + 1):
        for extra in itertools.combinations(rest, size - 1):
            found.add(single_cayley_closure(g, (0, *extra)))
    return sorted(found, key=lambda x: x.members)


def _order_profile(g: FiniteGroup) -> tuple[int, ...]:
    """Sorted element orders: equal for isomorphic groups."""
    return tuple(sorted(element_order(g, a) for a in g.elements()))


def _rows(g, x, h, g_r, auts_g, inns_g, found):
    """One (check, good, detail) row per check that applies to the
    instance (g, x), with h = CD(g, x), g_r = R(g) and found =
    cayley_presentations(h); good is None for a skip whose reason is
    detail."""
    arcs, expected_arcs = len(h.arcs), g.order * len(x.members)
    yield "arc_count", arcs == expected_arcs, f"|D|={arcs} vs |G||X|={expected_arcs}"

    closed_once = cayley_closure(g, x)
    closed = closed_once == x
    idempotent = cayley_closure(g, closed_once) == closed_once
    yield "closure_idempotent", idempotent, "closing twice differs from closing once"

    generated = len(subgroup_generated(g, {s for m in x.members for s in m}))
    connected = is_connected(h)
    detail = f"connected={connected} generated_order={generated}"
    yield "connected_iff_generating", connected == (generated == g.order), detail

    undirected = is_undirected(h)
    yield "undirected_iff_closed", undirected == closed, f"undirected={undirected} closed={closed}"

    if all(is_subgroup(g, m) for m in x.members):
        expected = sum(subgroup_index(g, m) for m in x.members)
        detail = f"|E|={len(h.edges)} expected={expected}"
        # sound for any X: a family of subgroups is closed, as m*s^-1 = m
        # for s in a subgroup m, so closed holds wherever this row applies
        yield "subgroup_members", closed and len(h.edges) == expected, detail

    classes = cayley_equivalence_classes(g, x)
    reps_low = non_cayley_equivalent_representatives(g, x)
    translate_family = ch_construct(g, reps_low)
    good = underlying(h) == translate_family and (
        underlying(cd_construct(g, cayley_closure(g, reps_low))) == translate_family
    )
    detail = "translate family disagrees with the underlying hypergraph"
    yield "underlying_equals_translate_family", good, detail

    reps_high = CayleyHyperset(group_order=g.order, members=tuple(sorted(c[-1] for c in classes)))
    if reps_high != reps_low:
        good = ch_construct(g, reps_high) == translate_family
        detail = "translate family depends on the representative choice"
        yield "representative_choice_invariance", good, detail

    try:
        rec = regular_to_cayley(h, g_r)
        good = rec.group == g and rec.hyperset == x
        detail = "recovered pair differs from the source"
    except ValueError as exc:
        good, detail = False, str(exc)
    yield "cayley_round_trip", good, detail

    aut_h, bad = found.aut, found.broken
    if aut_h is None:
        # every check from right_regular_in_aut on needs Aut(h) but the
        # round trip, which reads the translations alone
        for name in CHECK_NAMES[CHECK_NAMES.index("right_regular_in_aut") :]:
            if name != "cayley_round_trip":
                yield name, None, "aut order over cap"
        return
    # the translations are a group, so they lie in Aut(h) exactly when
    # their generators do
    good = all(t in aut_h for t in g_r.generators)
    yield "right_regular_in_aut", good, "a right translation is not an automorphism"
    yield "aut_preserves_arcs", bad is None, f"permutation {bad and bad.images} breaks an arc"
    if not good:
        # the Theorem 2 report needs G_R inside Aut(h), and so does every
        # row from here on: each fails for the same reason
        for name in CHECK_NAMES[CHECK_NAMES.index("regular_subgroups") :]:
            yield name, False, "a right translation is not an automorphism"
        return

    # G_R is the one member of its class exactly when it is normal in
    # Aut(h); it is then listed as itself, and its round trip is the
    # cayley_round_trip row's
    report = verify_theorem2(g, x, aut=aut_h)
    exempt = g_r.transversals[0] if report.normalizer_order == aut_h.order else None
    good = found.entry_for(g_r) is not None and all(
        rec is not None for t0, _, rec in found.listed if t0 != exempt
    )
    yield "regular_subgroups", good, "right translations missing or a recovered instance disagrees"

    detail = " ".join(f"{key}={getattr(report, name)}" for name, key in report.checks)
    yield "normalizer_factorization", report.all_pass, f"sub-checks: {detail}"

    outer = {a for a in auts_g if a in aut_h} == set(report.aut_g_x)
    inner = {a for a in inns_g if a in aut_h} == set(inn_g_x(g, x))
    yield "aut_intersection", outer and inner, f"outer={outer} inner={inner}"


def run_census(max_order: int = 8, max_member_size: int = 3) -> CensusResult:
    if not (1 <= max_order <= CENSUS_MAX_ORDER_CAP):
        raise ValueError(
            f"max_order must be between 1 and {CENSUS_MAX_ORDER_CAP}, got {max_order}"
        )
    if not (1 <= max_member_size <= CENSUS_MAX_MEMBER_CAP):
        raise ValueError(
            f"max_member_size must be between 1 and {CENSUS_MAX_MEMBER_CAP}, got {max_member_size}"
        )
    tallies = {name: CheckTally(name) for name in CHECK_NAMES}
    groups = census_corpus(max_order)
    instance_count = 0
    nontrivial_round_trips = 0
    foreign_presentations = []
    # Aut(h), its arc check and its regular subgroups depend on the arcs
    # alone, and groups of one order can give the same arcs: each arc set
    # is searched and checked once, with the weight and order profile of
    # each listed regular subgroup whose round trip holds
    by_arcs: dict[frozenset, tuple] = {}

    for g in groups:
        source_profile = _order_profile(g)
        auts_g = group_automorphisms(g)
        inns_g = inner_automorphisms(g)
        g_r = right_regular(g)
        for x in census_hypersets(g, max_member_size):
            instance_count += 1
            tag = f"{g.name} X={list(x.members)}"
            h = cd_construct(g, x)
            if h.arcs not in by_arcs:
                found = cayley_presentations(h)
                by_arcs[h.arcs] = found, [
                    (len(orbit), _order_profile(rec.group))
                    for _, orbit, rec in found.listed
                    if rec is not None
                ]
            found, passing = by_arcs[h.arcs]
            good = {}
            for name, ok, detail in _rows(g, x, h, g_r, auts_g, inns_g, found):
                tallies[name].add(tag, ok, detail)
                good[name] = ok

            # every regular subgroup but G_R whose round trip holds, counted
            # by the weights of those listed (none when Aut(h) is refused);
            # G_R is among them when it lies in Aut(h) and its own round
            # trip holds, as conjugates' round trips hold together
            nontrivial_round_trips += sum(w for w, _ in passing)
            if good.get("right_regular_in_aut") and good["cayley_round_trip"]:
                nontrivial_round_trips -= 1
            foreign = sorted({p for _, p in passing} - {source_profile})
            if foreign:
                foreign_presentations.append((tag, tuple("-".join(map(str, p)) for p in foreign)))

    return CensusResult(
        max_order=max_order,
        max_member_size=max_member_size,
        group_count=len(groups),
        instance_count=instance_count,
        tallies=tallies,
        nontrivial_regular_round_trips=nontrivial_round_trips,
        foreign_presentations=tuple(foreign_presentations),
    )

"""Acceptance gate: ten criteria, one test and one printed verdict each.

Criteria 4 through 9 share the default census sweep (groups of order <= 8,
seed subsets of size <= 3) via the session fixture in conftest.
"""

import itertools
import time

import oracles
from cdhg import (
    PermGroup,
    are_cayley_equivalent,
    cayley_closure,
    cd_construct,
    census_corpus,
    normalizer,
    right_regular,
    single_cayley_closure,
    uniformity,
    is_connected,
    is_undirected,
    validate_hyperset,
    verify_theorem2,
)
from conftest import ACCEPTANCE_LINES, FANO_EDGES


def report(num, label, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}"
    if detail:
        line += f" [{detail}]"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def tally_clean(census, name):
    t = census.tallies[name]
    return t.failed == 0 and t.skipped == 0 and t.passed > 0


def test_criterion_01_fano_construction(fano_group, fano_x):
    start = time.monotonic()
    h = cd_construct(fano_group, fano_x)
    ok = (
        h.edges == frozenset(FANO_EDGES)
        and len(h.arcs) == 21
        and uniformity(h) == 3
        and is_connected(h)
        and is_undirected(h)
    )
    elapsed = time.monotonic() - start
    report(
        1,
        "7-point construction matches the published edge list",
        ok and elapsed < 1.0,
        f"21 arcs, 7 edges, uniform 3, connected, undirected, {elapsed:.3f}s < 1s",
    )


def test_criterion_02_single_closure(fano_group, fano_x):
    got = single_cayley_closure(fano_group, {0, 1, 3})
    report(
        2,
        "single closure of {0,1,3} reproduces the full hyperset",
        got == fano_x,
        f"members {got.members}",
    )


def test_criterion_03_normalizer_factorization(fano_group, fano_x, fano_cd):
    start = time.monotonic()
    brute = oracles.brute_hypergraph_automorphisms(7, fano_cd.arcs)
    aut = PermGroup._from_elements(7, brute)
    norm = normalizer(aut, right_regular(fano_group))
    stabilizer = [p for p in norm.perms if p(0) == 0]
    rep = verify_theorem2(fano_group, fano_x, aut=aut)
    elapsed = time.monotonic() - start
    ok = (
        aut.order == 168
        and norm.order == 21
        and rep.g_r_normal
        and len(stabilizer) == 3
        and rep.product_factorization
        and rep.all_pass
        and elapsed < 10.0
    )
    report(
        3,
        "normalizer of the translations factors as a size-21 semidirect product",
        ok,
        f"|Aut|={aut.order} from 5040 candidates, |N|={norm.order}, "
        f"stabilizer {len(stabilizer)}, {elapsed:.2f}s < 10s",
    )


def test_criterion_04_connectivity_equivalence(full_census):
    census, elapsed = full_census
    t = census.tallies["connected_iff_generating"]
    ok = tally_clean(census, "connected_iff_generating") and elapsed < 300.0
    report(
        4,
        "connectivity matches subgroup generation on every census instance",
        ok,
        f"{t.passed}/{census.instance_count} instances, census {elapsed:.1f}s < 300s",
    )


def test_criterion_05_undirected_equivalence(full_census):
    census, _ = full_census
    t = census.tallies["undirected_iff_closed"]
    report(
        5,
        "arc symmetry matches translate closure on every census instance",
        tally_clean(census, "undirected_iff_closed"),
        f"{t.passed}/{census.instance_count} instances",
    )


def test_criterion_06_subgroup_edge_count(full_census):
    census, _ = full_census
    t = census.tallies["subgroup_members"]
    report(
        6,
        "all-subgroup instances have edge count = sum of member indices",
        t.failed == 0 and t.passed > 0,
        f"{t.passed} all-subgroup instances",
    )


def test_criterion_07_recovery_round_trip(full_census):
    census, _ = full_census
    trips = census.tallies["cayley_round_trip"]
    regs = census.tallies["regular_subgroups"]
    ok = (
        tally_clean(census, "cayley_round_trip")
        and tally_clean(census, "regular_subgroups")
        and census.nontrivial_regular_round_trips >= 1
    )
    report(
        7,
        "every instance recovers itself from a regular subgroup",
        ok,
        f"{trips.passed} translation round trips, "
        f"{census.nontrivial_regular_round_trips} through other regular subgroups",
    )


def test_criterion_08_translate_family_well_defined(full_census):
    census, _ = full_census
    reps = census.tallies["representative_choice_invariance"]
    match = census.tallies["underlying_equals_translate_family"]
    ok = (
        reps.failed == 0
        and reps.passed > 0
        and tally_clean(census, "underlying_equals_translate_family")
    )
    report(
        8,
        "translate families agree across representative choices",
        ok,
        f"{reps.passed} multi-choice instances, {match.passed} underlying matches",
    )


def test_criterion_09_automorphism_intersection(full_census):
    census, _ = full_census
    t = census.tallies["aut_intersection"]
    report(
        9,
        "group automorphisms inside the arc automorphisms are the preservers",
        tally_clean(census, "aut_intersection"),
        f"{t.passed}/{census.instance_count} instances, outer and inner forms",
    )


def test_criterion_10_closure_properties_exhaustive():
    groups = census_corpus(6)
    failures = []
    subsets_checked = 0
    for g in groups:
        subsets = [
            (0, *extra)
            for size in range(g.order)
            for extra in itertools.combinations(range(1, g.order), size)
        ]
        subsets_checked += len(subsets)
        for m in subsets:
            x = validate_hyperset(g, [m])
            closed = cayley_closure(g, x)
            if not set(x.members) <= set(closed.members):
                failures.append(f"{g.name} {m}: not contained in closure")
            if cayley_closure(g, closed) != closed:
                failures.append(f"{g.name} {m}: closure not idempotent")
            if single_cayley_closure(g, m) != closed:
                failures.append(f"{g.name} {m}: single closure disagrees")
        eq = {
            (a, b): are_cayley_equivalent(g, a, b)
            for a in subsets
            for b in subsets
        }
        for a in subsets:
            if not eq[a, a]:
                failures.append(f"{g.name} {a}: not reflexive")
        for a in subsets:
            for b in subsets:
                if eq[a, b] != eq[b, a]:
                    failures.append(f"{g.name} {a} {b}: not symmetric")
                if not eq[a, b]:
                    continue
                for c in subsets:
                    if eq[b, c] and not eq[a, c]:
                        failures.append(f"{g.name} {a} {b} {c}: not transitive")
    report(
        10,
        "closure laws and equivalence axioms hold exhaustively to order 6",
        not failures,
        failures[0] if failures else f"{subsets_checked} subsets over {len(groups)} groups",
    )

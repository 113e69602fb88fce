"""Census corpus, instance generation, and the sweep itself at small bounds."""

import hashlib

import pytest

import oracles
import cdhg.hypergraphs
import cdhg.perms
from cdhg import (
    CutoffExceeded,
    PermGroup,
    Permutation,
    aut_hypergraph,
    cayley_presentations,
    cd_construct,
    census_corpus,
    census_hypersets,
    is_cayley_closed,
    make_cyclic,
    run_census,
    validate_hyperset,
)
from cdhg.census import CENSUS_MAX_MEMBER_CAP, CENSUS_MAX_ORDER_CAP, CheckTally
from cdhg.cli import main
from conftest import FANO_MEMBERS, built_once, edge_reads, refused_at_least


def test_corpus_at_default_bound():
    names = [g.name for g in census_corpus(8)]
    assert names == [
        "Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8",
        "D1", "D2", "D3", "D4",
        "Z2xZ2", "Z2xZ3", "Z2xZ4", "Z2xZ2xZ2",
    ]
    assert all(g.order <= 8 for g in census_corpus(8))


def test_corpus_small_bound():
    assert len(census_corpus(5)) == 8
    assert [g.name for g in census_corpus(1)] == ["Z1"]


def test_hypersets_are_closed_and_deduplicated():
    for g in census_corpus(6):
        sets = census_hypersets(g, 3)
        assert len(sets) == len(set(sets))
        assert sets == sorted(sets, key=lambda x: x.members)
        for x in sets:
            assert is_cayley_closed(g, x)
            assert all(m[0] == 0 for m in x.members)


def test_hypersets_include_the_fano_instance():
    z7 = make_cyclic(7)
    assert validate_hyperset(z7, FANO_MEMBERS) in census_hypersets(z7, 3)


def test_run_census_small_bounds():
    result = run_census(max_order=5, max_member_size=2)
    assert result.all_pass
    assert result.group_count == 8
    assert result.instance_count == 21
    assert result.nontrivial_regular_round_trips == 22
    for tally in result.tallies.values():
        assert tally.failed == 0
        assert tally.skipped == 0
    assert len(result.foreign_presentations) == 11
    # Z4's loops give Aut = S4, which also holds the Klein group's translations
    assert result.foreign_presentations[0] == ("Z4 X=[(0,)]", ("1-2-2-2",))


def test_run_census_render_golden():
    text = run_census(max_order=5, max_member_size=2).render()
    assert text == (
        "census: max_order=5 max_member_size=2\n"
        "groups: 8\n"
        "instances: 21\n"
        "check arc_count: 21 pass, 0 fail\n"
        "check closure_idempotent: 21 pass, 0 fail\n"
        "check connected_iff_generating: 21 pass, 0 fail\n"
        "check undirected_iff_closed: 21 pass, 0 fail\n"
        "check subgroup_members: 17 pass, 0 fail\n"
        "check underlying_equals_translate_family: 21 pass, 0 fail\n"
        "check representative_choice_invariance: 4 pass, 0 fail\n"
        "check right_regular_in_aut: 21 pass, 0 fail\n"
        "check aut_preserves_arcs: 21 pass, 0 fail\n"
        "check cayley_round_trip: 21 pass, 0 fail\n"
        "check regular_subgroups: 21 pass, 0 fail\n"
        "check normalizer_factorization: 21 pass, 0 fail\n"
        "check aut_intersection: 21 pass, 0 fail\n"
        "nontrivial_regular_round_trips: 22\n"
        "result: PASS\n"
    )


def test_run_census_foreign_presentations_order_7():
    assert len(run_census(max_order=7, max_member_size=3).foreign_presentations) == 35


def test_run_census_searches_each_arc_set_once(monkeypatch):
    import cdhg.perms

    calls = {"aut_hypergraph": 0, "_regular_search": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(cdhg.perms, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cdhg.perms, name, counted)
    result = run_census(max_order=7, max_member_size=3)
    # 61 instances over 44 distinct arc sets: one search of each per arc set
    assert result.instance_count == 61
    assert calls == {"aut_hypergraph": 44, "_regular_search": 44}
    text = result.render()
    assert "nontrivial_regular_round_trips: 497\n" in text
    assert text.endswith("result: PASS\n")


def test_run_census_reads_aut_g_x_once_per_instance(monkeypatch):
    import cdhg.census
    import cdhg.perms

    calls = []
    original = cdhg.perms.aut_g_x

    def counted(g, x):
        calls.append((g.name, x.members))
        return original(g, x)

    # the census reads Aut(G, X) from the Theorem 2 report; should it call
    # aut_g_x itself again, the wrapper set on it here counts that too
    monkeypatch.setattr(cdhg.census, "aut_g_x", counted, raising=False)
    monkeypatch.setattr(cdhg.perms, "aut_g_x", counted)
    result = run_census(max_order=7, max_member_size=3)
    assert result.instance_count == 61
    assert len(calls) == 61
    assert result.render().endswith("result: PASS\n")


def test_run_census_recovers_each_listed_regular_subgroup_once(monkeypatch):
    # the 61 translations' round trips, and one recovery for each of the
    # 101 subgroups the search lists up to conjugacy by the maps fixing 0
    # and 1 on the 44 distinct arc sets, not one for each of the 340
    # regular subgroups; the census makes the first, cayley_presentations
    # the rest
    import cdhg.census
    import cdhg.perms

    calls = []
    recover = cdhg.perms.regular_to_cayley

    def counted(h, r):
        calls.append(h.arcs)
        return recover(h, r)

    monkeypatch.setattr(cdhg.census, "regular_to_cayley", counted)
    monkeypatch.setattr(cdhg.perms, "regular_to_cayley", counted)
    assert run_census(max_order=7, max_member_size=3).render().endswith("result: PASS\n")
    assert (len(calls), len(set(calls))) == (162, 44)


def test_run_census_tallies_a_failed_recovery(monkeypatch):
    # both the translations' round trip and every other regular
    # subgroup's are tallied as failures instead of raising
    import cdhg.census
    import cdhg.perms

    def refuse(h, r):
        raise ValueError("refused")

    monkeypatch.setattr(cdhg.census, "regular_to_cayley", refuse)
    monkeypatch.setattr(cdhg.perms, "regular_to_cayley", refuse)
    result = run_census(max_order=4, max_member_size=2)
    tallies = result.tallies
    assert tallies["cayley_round_trip"].failed == result.instance_count
    assert tallies["cayley_round_trip"].failures[0] == "cayley_round_trip: Z1 X=[(0,)]: refused"
    assert tallies["regular_subgroups"].failed > 0
    assert result.nontrivial_regular_round_trips == 0
    # a failed recovery adds no order profile
    assert result.foreign_presentations == ()
    assert result.render().endswith("result: FAIL\n")


REFUSED_RECOVERY_TAGS = (
    "Z1 X=[(0,)]", "Z2 X=[(0,)]", "Z2 X=[(0, 1)]", "Z3 X=[(0,)]",
    "Z3 X=[(0, 1), (0, 2)]", "Z4 X=[(0,)]", "Z4 X=[(0, 1), (0, 3)]", "Z4 X=[(0, 2)]",
    "D1 X=[(0,)]", "D1 X=[(0, 1)]", "D2 X=[(0,)]", "D2 X=[(0, 1)]", "D2 X=[(0, 2)]",
    "D2 X=[(0, 3)]", "Z2xZ2 X=[(0,)]", "Z2xZ2 X=[(0, 1)]", "Z2xZ2 X=[(0, 2)]",
    "Z2xZ2 X=[(0, 3)]",
)
# the instances of order 4 have a regular subgroup besides their translations
REFUSED_RECOVERY_RENDER = (
    "census: max_order=4 max_member_size=2\n"
    "groups: 7\n"
    "instances: 18\n"
    "check arc_count: 18 pass, 0 fail\n"
    "check closure_idempotent: 18 pass, 0 fail\n"
    "check connected_iff_generating: 18 pass, 0 fail\n"
    "check undirected_iff_closed: 18 pass, 0 fail\n"
    "check subgroup_members: 16 pass, 0 fail\n"
    "check underlying_equals_translate_family: 18 pass, 0 fail\n"
    "check representative_choice_invariance: 2 pass, 0 fail\n"
    "check right_regular_in_aut: 18 pass, 0 fail\n"
    "check aut_preserves_arcs: 18 pass, 0 fail\n"
    "check cayley_round_trip: 0 pass, 18 fail\n"
    "check regular_subgroups: 7 pass, 11 fail\n"
    "check normalizer_factorization: 18 pass, 0 fail\n"
    "check aut_intersection: 18 pass, 0 fail\n"
    "nontrivial_regular_round_trips: 0\n"
    + "".join(f"FAIL cayley_round_trip: {tag}: refused\n" for tag in REFUSED_RECOVERY_TAGS)
    + "".join(
        f"FAIL regular_subgroups: {tag}: "
        "right translations missing or a recovered instance disagrees\n"
        for tag in REFUSED_RECOVERY_TAGS
        if tag.startswith(("Z4", "D2", "Z2xZ2"))
    )
    + "result: FAIL\n"
)


def test_run_census_renders_failures_by_check_then_instance(monkeypatch, capsys):
    # the FAIL block lists the checks in CHECK_NAMES order, each one's
    # instances in census order, and the command line exits 1 on it
    import cdhg.census
    import cdhg.perms
    from cdhg.cli import main

    def refuse(h, r):
        raise ValueError("refused")

    monkeypatch.setattr(cdhg.census, "regular_to_cayley", refuse)
    monkeypatch.setattr(cdhg.perms, "regular_to_cayley", refuse)
    assert run_census(max_order=4, max_member_size=2).render() == REFUSED_RECOVERY_RENDER
    assert main(["census", "--max-order", "4", "--max-member-size", "2"]) == 1
    assert capsys.readouterr().out == REFUSED_RECOVERY_RENDER


def test_run_census_tallies_a_generator_that_breaks_an_arc(monkeypatch):
    # aut_preserves_arcs reads the generators of Aut(h)'s chain alone; a
    # swap of 0 and 1 slipped in among them fails every instance whose
    # arcs it moves, by the oracle's count
    import cdhg.perms

    aut_hypergraph = cdhg.perms.aut_hypergraph

    def with_swap(h):
        aut = aut_hypergraph(h)
        if h.vertex_count < 2:
            return aut
        swap = Permutation((1, 0, *range(2, h.vertex_count)))
        return PermGroup(h.vertex_count, aut.transversals, (*aut.generators, swap))

    monkeypatch.setattr(cdhg.perms, "aut_hypergraph", with_swap)
    result = run_census(max_order=4, max_member_size=2)
    moved = [
        f"aut_preserves_arcs: {g.name} X={list(x.members)}: permutation "
        f"{(1, 0, *range(2, g.order))} breaks an arc"
        for g in census_corpus(4)
        if g.order >= 2
        for x in census_hypersets(g, 2)
        if not oracles.preserves_arcs([(1, 0, *range(2, g.order))], cd_construct(g, x).arcs)
    ]
    assert moved
    assert result.tallies["aut_preserves_arcs"].failures == moved
    assert result.render().endswith("result: FAIL\n")


def test_run_census_tallies_an_inner_side_that_disagrees(monkeypatch):
    # aut_intersection compares the inner automorphisms lying in Aut(h)
    # with inn_g_x; with inn_g_x empty, the identity, an inner
    # automorphism in every Aut(h), fails every instance on the inner
    # side alone
    import cdhg.census

    monkeypatch.setattr(cdhg.census, "inn_g_x", lambda g, x: ())
    result = run_census(max_order=4, max_member_size=2)
    assert result.tallies["aut_intersection"].failures == [
        f"aut_intersection: {g.name} X={list(x.members)}: outer=True inner=False"
        for g in census_corpus(4)
        for x in census_hypersets(g, 2)
    ]
    assert result.render().endswith("result: FAIL\n")


def test_full_census_foreign_presentations(full_census):
    census, _ = full_census
    foreign = dict(census.foreign_presentations)
    assert len(census.foreign_presentations) == len(foreign) == 89
    # Aut of the loops over Z8 is S8, which holds a regular copy of each
    # group of order 8: Z2xZ2xZ2, D4, Z2xZ4 and Q8 besides Z8
    assert foreign["Z8 X=[(0,)]"] == (
        "1-2-2-2-2-2-2-2",
        "1-2-2-2-2-2-4-4",
        "1-2-2-2-4-4-4-4",
        "1-2-4-4-4-4-4-4",
    )


def census_hash(census):
    """The first 16 hex digits of the sha256 of the rendered census and
    its foreign presentations, the digest that says a run moved nothing."""
    text = census.render() + repr(census.foreign_presentations)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_full_census_hash(full_census):
    census, _ = full_census
    assert census_hash(census) == "13104b6edc126a3b"


def test_census_hash_at_order_ten():
    assert census_hash(run_census(max_order=10, max_member_size=3)) == "3ee3695061425a99"


def test_census_hash_at_order_ten_with_one_member():
    assert census_hash(run_census(max_order=10, max_member_size=1)) == "b6d3db9775aa50bd"


def test_rows_on_a_directed_hyperset():
    # Z5 X = {(0,1)} is not closed, so CD(Z5, X) is directed; closing it
    # twice still equals closing it once, and every row passes
    from cdhg.census import _rows
    from cdhg.groups import group_automorphisms, inner_automorphisms
    from cdhg.perms import right_regular

    g = make_cyclic(5)
    x = validate_hyperset(g, [[0, 1]])
    assert not is_cayley_closed(g, x)
    h = cd_construct(g, x)
    rows = {
        name: good
        for name, good, _ in _rows(
            g, x, h, right_regular(g), group_automorphisms(g), inner_automorphisms(g),
            cayley_presentations(h),
        )
    }
    assert rows["closure_idempotent"] is True
    assert rows["undirected_iff_closed"] is True
    assert all(good is True for good in rows.values()), rows


def test_rows_build_the_instance_edges_once(monkeypatch):
    # the rows read h.edges through each invariant, subgroup_members and
    # the underlying check, and every read of h's, or of any other
    # dihypergraph's, returns the set its first read built
    from cdhg.census import _rows
    from cdhg.groups import group_automorphisms, inner_automorphisms
    from cdhg.perms import right_regular

    g = make_cyclic(4)
    x = validate_hyperset(g, [[0, 2]])
    h = cd_construct(g, x)
    found = cayley_presentations(h)
    reads = edge_reads(monkeypatch)
    rows = list(_rows(g, x, h, right_regular(g), group_automorphisms(g), inner_automorphisms(g), found))
    assert "subgroup_members" in {name for name, _, _ in rows}
    assert all(good for _, good, _ in rows)
    assert sum(d is h for d, _ in reads) > 1
    assert built_once(reads)


def test_run_census_refuses_aut_over_order_cap():
    # X = {{0}} over the five groups of order 9 and 10 gives Aut = S9 or
    # S10, refused by its order before it is enumerated
    result = run_census(max_order=10, max_member_size=1)
    assert result.instance_count == 21
    tallies = result.tallies
    assert tallies["cayley_round_trip"].line() == "check cayley_round_trip: 21 pass, 0 fail"
    for name in (
        "right_regular_in_aut",
        "aut_preserves_arcs",
        "regular_subgroups",
        "normalizer_factorization",
        "aut_intersection",
    ):
        assert tallies[name].line() == (
            f"check {name}: 16 pass, 0 fail, 5 skipped: aut order over cap"
        )
    assert result.render().endswith("result: PASS\n")


def test_census_refuses_aut_by_its_order_alone(monkeypatch):
    # the census's one skip label for a refused Aut, "aut order over cap",
    # is true when the completion search's own caps refuse no census arc
    # set: on every distinct one the census bounds allow, each refusal is
    # by the chain's order, and a tenth of the cap on the images tried
    # refuses none (the worst search tries 1,143)
    seen = {}
    for g in census_corpus(CENSUS_MAX_ORDER_CAP):
        for x in census_hypersets(g, CENSUS_MAX_MEMBER_CAP):
            h = cd_construct(g, x)
            seen.setdefault(h.arcs, h)
    assert len(seen) == 294

    def refusals():
        refused = []
        for h in seen.values():
            try:
                aut_hypergraph(h)
            except CutoffExceeded as exc:
                refused.append(refused_at_least(exc))
        return refused

    refused = refusals()
    assert len(refused) == 2 and all(order > 50000 for order in refused)
    monkeypatch.setattr(cdhg.hypergraphs, "AUT_ORDER_CAP", 5000)
    assert refusals() == refused


def test_census_tallies_a_translation_missing_from_aut(monkeypatch, capsys):
    # with Aut(h) wrongly found trivial, G_R is not inside it: the rows
    # that need the Theorem 2 report fail for that reason, and the census
    # renders its FAIL lines and exits 1, rather than stopping in the
    # normalizer, which needs G_R inside Aut(h)
    def trivial(h):
        n = h.vertex_count
        return PermGroup(n, ((tuple(range(n)),),) * n, ())

    monkeypatch.setattr(cdhg.perms, "aut_hypergraph", trivial)
    text = run_census(3, 2).render()
    missing = "a right translation is not an automorphism"
    assert f"FAIL right_regular_in_aut: Z2 X=[(0, 1)]: {missing}" in text
    for name in ("regular_subgroups", "normalizer_factorization", "aut_intersection"):
        # Z1's one translation is the identity, in every Aut(h)
        assert f"check {name}: 1 pass, 6 fail" in text
        assert f"FAIL {name}: Z3 X=[(0,)]: {missing}" in text
    assert text.endswith("result: FAIL\n")
    assert main(["census", "--max-order", "3", "--max-member-size", "2"]) == 1
    assert capsys.readouterr().out == text


def test_check_tally_renders_each_skip_reason_once():
    tally = CheckTally("regular_subgroups")
    for reason in ("aut over cutoff", "aut order over regular-search cap", "aut over cutoff"):
        tally.add("Z9 X=[(0,)]", None, reason)
    assert tally.skipped == 3
    assert tally.line() == (
        "check regular_subgroups: 0 pass, 0 fail, 3 skipped: "
        "aut over cutoff; aut order over regular-search cap"
    )
    single = CheckTally("aut_intersection")
    single.add("Z9 X=[(0,)]", None, "aut over cutoff")
    single.add("Z9 X=[(0,)]", None, "aut over cutoff")
    assert single.line() == "check aut_intersection: 0 pass, 0 fail, 2 skipped: aut over cutoff"
    assert CheckTally("arc_count", passed=4).line() == "check arc_count: 4 pass, 0 fail"


def test_run_census_trivial_bound():
    result = run_census(max_order=1, max_member_size=1)
    assert result.all_pass
    assert result.group_count == 1
    assert result.instance_count == 1


@pytest.mark.parametrize("kwargs", [
    {"max_order": 0},
    {"max_order": 11},
    {"max_member_size": 0},
    {"max_member_size": 5},
])
def test_run_census_rejects_bad_bounds(kwargs):
    with pytest.raises(ValueError):
        run_census(**kwargs)

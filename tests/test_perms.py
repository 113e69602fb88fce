"""Vertex permutations: regular representations, automorphism search,
regular subgroups, recovery, normalizers, and the factorization report."""

import gc
import hashlib
import math
import time
from collections import Counter
from functools import lru_cache
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from sympy.combinatorics import (
    Permutation as SympyPermutation,
    PermutationGroup as SympyPermutationGroup,
)

import cdhg.census
import cdhg.cli
import cdhg.hypergraphs
import oracles
from cdhg import (
    CayleyPresentations,
    CutoffExceeded,
    Dihypergraph,
    PermGroup,
    Permutation,
    aut_hypergraph,
    build_analysis_report,
    cayley_presentations,
    cd_construct,
    census_corpus,
    census_hypersets,
    direct_product,
    find_regular_subgroups,
    hypergraph_isomorphic,
    is_regular,
    load_dihypergraph,
    make_cyclic,
    make_dihedral,
    normalizer,
    regular_to_cayley,
    right_regular,
    run_census,
    single_cayley_closure,
    validate_hyperset,
    verify_theorem2,
)
from cdhg import perms
from cdhg.perms import _inverse
from conftest import dihypergraph_texts, refused_at_least

CORPUS8 = census_corpus(8)
DATA = Path(__file__).resolve().parent.parent / "data"


def closure(n, *gens):
    """The permutation group generated by image tuples, closed by the oracle."""
    return PermGroup._from_elements(n, oracles._perm_closure(gens, n))


def symmetric(n):
    """The full symmetric group on n points, from a transposition and an
    n-cycle when n > 1."""
    if n == 1:
        return closure(1)
    return closure(n, (1, 0, *range(2, n)), (*range(1, n), 0))


@lru_cache(maxsize=None)
def regular_in_symmetric(n):
    """Every regular subgroup of S_n, for n >= 1."""
    return find_regular_subgroups(symmetric(n), n)


def test_composition_is_left_to_right():
    a = Permutation((1, 2, 0))
    b = Permutation((0, 2, 1))
    c = a.then(b)
    assert all(c(v) == b(a(v)) for v in range(3))
    assert c.images == (2, 1, 0)


def test_inverse_and_identity():
    a = Permutation((2, 0, 3, 1))
    undo = Permutation(_inverse(a.images))
    assert a.then(undo).images == tuple(range(4))
    assert undo.then(a) == Permutation(tuple(range(4)))
    assert a.images != tuple(range(4))


def test_right_regular_cyclic():
    p = right_regular(make_cyclic(7))
    assert p.order == 7
    shifts = {tuple((v + h) % 7 for v in range(7)) for h in range(7)}
    assert {q.images for q in p.perms} == shifts


def test_right_regular_trivial():
    p = right_regular(make_cyclic(1))
    assert p.perms == frozenset({Permutation((0,))})


def test_right_regular_dihedral_fixed_points():
    p = right_regular(make_dihedral(3))
    assert p.order == 6
    with_fixed = [q for q in p.perms if any(q(v) == v for v in range(6))]
    assert with_fixed == [Permutation(tuple(range(6)))]


def test_is_regular():
    assert is_regular(right_regular(make_cyclic(7)), 7)
    assert not is_regular(closure(3, (1, 0, 2), (1, 2, 0)), 3)
    klein = closure(4, (1, 0, 3, 2), (2, 3, 0, 1))
    assert is_regular(klein, 4)
    # order 4 but intransitive: T_0 holds only the identity and (0 1)
    assert not is_regular(closure(4, (1, 0, 2, 3), (0, 1, 3, 2)), 4)


@pytest.mark.parametrize("g", CORPUS8, ids=lambda g: g.name)
def test_right_regular_is_regular(g):
    assert is_regular(right_regular(g), g.order)


def test_aut_fano(fano_cd):
    aut = aut_hypergraph(fano_cd)
    assert aut.order == 168
    assert {p.images for p in aut.perms} == set(
        oracles.brute_hypergraph_automorphisms(7, fano_cd.arcs)
    )


def test_aut_edgeless_is_symmetric():
    from cdhg import Dihypergraph

    h = Dihypergraph(vertex_count=4, arcs=frozenset())
    assert aut_hypergraph(h).order == 24


def test_aut_disconnected_pairs():
    z4 = make_cyclic(4)
    h = cd_construct(z4, validate_hyperset(z4, [[0, 2]]))
    aut = aut_hypergraph(h)
    assert aut.order == 8
    assert {p.images for p in aut.perms} == set(
        oracles.brute_hypergraph_automorphisms(4, h.arcs)
    )
    rotations = {q.images for q in right_regular(z4).perms}
    assert rotations <= {p.images for p in aut.perms}


def test_aut_refuses_over_cutoff():
    # 13 vertices and no arcs give S13, refused by the chain's order
    h = Dihypergraph(vertex_count=13, arcs=frozenset())
    with pytest.raises(CutoffExceeded) as refused:
        aut_hypergraph(h)
    assert 50000 < refused_at_least(refused.value) <= math.factorial(13)


def test_aut_refuses_large_order_before_enumerating(monkeypatch):
    # the loops X = {{0}} give Aut = S_n, whose order the stabiliser chain
    # knows before a single product is made
    import cdhg.groups

    def no_products(*args):
        raise AssertionError("Aut was enumerated")

    monkeypatch.setattr(cdhg.groups, "_products", no_products)
    for n, order in ((9, 362880), (12, 479001600)):
        zn = make_cyclic(n)
        h = cd_construct(zn, validate_hyperset(zn, [[0]]))
        with pytest.raises(CutoffExceeded) as refused:
            aut_hypergraph(h)
        assert 50000 < refused_at_least(refused.value) <= order


def test_isomorphism_past_twelve_vertices():
    # two directed 13-cycles, one stepping by 1 and one by 2
    z13 = make_cyclic(13)
    a = cd_construct(z13, validate_hyperset(z13, [[0, 1]]))
    b = cd_construct(z13, validate_hyperset(z13, [[0, 2]]))
    q = hypergraph_isomorphic(a, b)
    assert q is not None and oracles.carries_arcs(q, a.arcs, b.arcs)


def cyclic_cd(n, members):
    zn = make_cyclic(n)
    return cd_construct(zn, validate_hyperset(zn, members))


@pytest.mark.parametrize(
    "n, members, order",
    [
        (21, [[0, 1]], 21),
        *((n, [[0, 1], [0, n - 1]], 2 * n) for n in range(13, 25)),
        (13, [[0, 5], [0, 8]], 26),
        (64, [[0, 1, 3]], 64),
    ],
)
def test_aut_past_twelve_vertices(n, members, order):
    # directed and undirected cycles, and a 64-vertex 3-uniform one: the
    # found maps preserve the arcs, and sympy's Schreier-Sims closes them
    # to the chain's order
    h = cyclic_cd(n, members)
    aut = aut_hypergraph(h)
    assert aut.order == order
    gens = [p.images for p in aut.generators]
    assert oracles.preserves_arcs(gens, h.arcs)
    group = SympyPermutationGroup([SympyPermutation(list(p)) for p in gens])
    assert group.order() == order


@pytest.mark.parametrize("n, members, order", [(21, [[0, 1]], 21), (13, [[0, 5], [0, 8]], 26)])
def test_aut_past_twelve_vertices_agrees_with_vf2(n, members, order):
    h = cyclic_cd(n, members)
    assert aut_hypergraph(h).order == order == oracles.vf2_automorphism_count(n, h.arcs)


# a fixed shuffle of 0..19, on which the search for a map onto the
# 20-cycle below places its far vertices blindly, as its Aut search does
SHUFFLE_20 = (10, 18, 16, 14, 0, 17, 11, 2, 3, 9, 5, 7, 4, 19, 6, 15, 8, 1, 13, 12)


def test_search_cap_refuses_the_20_cycle_stepping_by_3():
    # CD(Z20, {{0,3},{0,17}}) is a 20-cycle whose vertex order jumps round
    # it; the pair codes see adjacency alone, so both searches pass the
    # cap on the images tried, and are refused well within a second
    h = cyclic_cd(20, [[0, 3], [0, 17]])
    copy = Dihypergraph(
        vertex_count=20,
        arcs=frozenset((SHUFFLE_20[v], tuple(sorted(SHUFFLE_20[u] for u in e))) for v, e in h.arcs),
    )
    for search in (lambda: aut_hypergraph(h), lambda: hypergraph_isomorphic(h, copy)):
        start = time.perf_counter()
        with pytest.raises(CutoffExceeded, match=r"^search over cap 50000: more than 50000 images tried$"):
            search()
        assert time.perf_counter() - start < 1


def test_pair_cap_refuses_224_vertices_before_the_codes(monkeypatch):
    # 223^2 vertex pairs are within the cap, 224^2 are not, and the
    # refusal comes before any pair code is made
    assert aut_hypergraph(cyclic_cd(223, [[0, 1]])).order == 223
    calls = []
    monkeypatch.setattr(cdhg.hypergraphs, "_pair_codes", calls.append)
    h = cyclic_cd(224, [[0, 1]])
    copy = cyclic_cd(224, [[0, 223]])
    for search in (lambda: aut_hypergraph(h), lambda: hypergraph_isomorphic(h, copy)):
        start = time.perf_counter()
        with pytest.raises(CutoffExceeded, match=r"^over cap 50000: 224 vertices give 50176 vertex pairs$"):
            search()
        assert time.perf_counter() - start < 1
    assert calls == []


@settings(max_examples=150, deadline=None)
@given(drawn=dihypergraph_texts())
def test_aut_matches_brute_force_on_random_dihypergraphs(drawn):
    # arcs may leave their vertex outside the edge, be absent, or break
    # transitivity; the input is read back through the parser
    n, arcs, text = drawn
    aut = aut_hypergraph(load_dihypergraph(text))
    assert {p.images for p in aut.perms} == set(oracles.brute_hypergraph_automorphisms(n, arcs))


def test_aut_matches_brute_force_on_census_arc_sets():
    # every distinct arc set among the instances of run_census(6, 3)
    seen = {}
    for g in census_corpus(6):
        for x in census_hypersets(g, 3):
            h = cd_construct(g, x)
            seen.setdefault(h.arcs, h)
    assert len(seen) == 35
    for h in seen.values():
        assert {p.images for p in aut_hypergraph(h).perms} == set(
            oracles.brute_hypergraph_automorphisms(h.vertex_count, h.arcs)
        )


@pytest.mark.parametrize("g", [g for g in CORPUS8 if g.order == 8], ids=lambda g: g.name)
def test_aut_of_loops_on_order_8_is_symmetric(g):
    aut = aut_hypergraph(cd_construct(g, validate_hyperset(g, [[0]])))
    assert aut.order == 40320
    assert right_regular(g).perms <= aut.perms


def test_aut_rejects_a_wrong_stabiliser_chain(monkeypatch):
    # a search that answers every prefix with one transposition gives
    # transversals whose products repeat
    import cdhg.perms
    from cdhg import Dihypergraph

    monkeypatch.setattr(
        cdhg.perms, "_completion_search", lambda a, b: (lambda prefix: (1, 0, 2), [range(3)] * 3)
    )
    with pytest.raises(RuntimeError, match="distinct products"):
        aut_hypergraph(Dihypergraph(vertex_count=3, arcs=frozenset()))


def test_aut_rejects_a_chain_that_repeats_an_image(monkeypatch):
    # the search's maps fix 0 as the prefix asks, but send 1 to 2 for
    # both w = 2 and w = 3, so T_1 repeats an image of 1
    import cdhg.perms
    from cdhg import Dihypergraph

    monkeypatch.setattr(
        cdhg.perms,
        "_completion_search",
        lambda a, b: (lambda prefix: (0, 2, 1, 3) if len(prefix) == 2 else None, [range(4)] * 4),
    )
    with pytest.raises(RuntimeError, match="distinct products"):
        aut_hypergraph(Dihypergraph(vertex_count=4, arcs=frozenset()))


def test_aut_rejects_a_chain_map_that_moves_a_fixed_point(monkeypatch):
    # the map found for 1 -> 2 sends 1 to 2 but moves the fixed point 0,
    # so the products of its orbit's transversal would repeat
    import cdhg.perms
    from cdhg import Dihypergraph

    monkeypatch.setattr(
        cdhg.perms,
        "_completion_search",
        lambda a, b: (lambda prefix: (1, 2, 0) if len(prefix) == 2 else None, [range(3)] * 3),
    )
    with pytest.raises(RuntimeError, match="distinct products"):
        aut_hypergraph(Dihypergraph(vertex_count=3, arcs=frozenset()))


def test_stabiliser_chain_lists_the_identity_first():
    # S4 over the base 3, 1, 2, whose points are not the least of their
    # orbits; first answers with the least permutation that fits
    from cdhg.groups import _stabiliser_chain

    base = (3, 1, 2)

    def first(k, w):
        return next(
            (p for p in permutations(range(4))
             if p[base[k]] == w and all(p[b] == b for b in base[:k])),
            None,
        )

    transversals, found = _stabiliser_chain(4, base, first, [range(4)] * 3)
    assert [len(reps) for reps in transversals] == [4, 3, 2]
    for k, reps in enumerate(transversals):
        assert reps[0] == (0, 1, 2, 3)
        assert all(r[b] == b for r in reps for b in base[:k])
        assert len({r[base[k]] for r in reps}) == len(reps)
    assert closure(4, *found).order == 24


@pytest.mark.parametrize("n", range(4, 9))
def test_aut_of_loops_searches_once_per_level(monkeypatch, n):
    # Aut of the Z_n loops is S_n; at each level k < n-1 the first map
    # found, together with those of the levels above, carries k to every
    # point above it, so one prefix search per level is made, not one per
    # image (n(n-1)/2 in all)
    import cdhg.perms

    prefixes = []
    search = cdhg.perms._completion_search

    def counted(a, b):
        first, feasible = search(a, b)

        def counted_first(prefix):
            prefixes.append(prefix)
            return first(prefix)

        return counted_first, feasible

    monkeypatch.setattr(cdhg.perms, "_completion_search", counted)
    zn = make_cyclic(n)
    aut = aut_hypergraph(cd_construct(zn, validate_hyperset(zn, [[0]])))
    assert len(prefixes) == n - 1
    assert aut.order == math.factorial(n)


def test_aut_of_the_8_cycle_searches_only_feasible_points(monkeypatch):
    # Aut(CD(Z8, {{0, 1}, {0, 7}})) is D8.  Built from the last level
    # down: past level 1 the codes against 0 and 1 leave k alone, level 1
    # finds 1 -> 7, the other neighbour of 0, and level 0 finds 0 -> 1.
    # So the chain asks 2 prefixes, where every point as a candidate asked 22
    import cdhg.perms

    prefixes = []
    search = cdhg.perms._completion_search

    def counted(a, b):
        first, feasible = search(a, b)
        return (lambda prefix: prefixes.append(prefix) or first(prefix)), feasible

    monkeypatch.setattr(cdhg.perms, "_completion_search", counted)
    z8 = make_cyclic(8)
    aut = aut_hypergraph(cd_construct(z8, validate_hyperset(z8, [[0, 1], [0, 7]])))
    assert prefixes == [(0, 7), (1,)]
    assert aut.order == 16


def test_aut_chain_over_feasible_points_is_the_chain_over_every_point():
    # asking only the points the pair codes leave feasible must give the
    # transversals and generators every point gives, on each distinct
    # census arc set to order 10, refusals included
    from cdhg.groups import _stabiliser_chain
    from cdhg.hypergraphs import _completion_search

    seen = set()
    for g in census_corpus(10):
        for x in census_hypersets(g, 3):
            h = cd_construct(g, x)
            if h.arcs in seen:
                continue
            seen.add(h.arcs)
            n = h.vertex_count
            search, _ = _completion_search(h, h)
            try:
                chain = _stabiliser_chain(n, range(n), lambda k, w: search((*range(k), w)), [range(n)] * n)
            except CutoffExceeded:
                with pytest.raises(CutoffExceeded):
                    aut_hypergraph(h)
                continue
            aut = aut_hypergraph(h)
            assert (aut.transversals, tuple(p.images for p in aut.generators)) == chain
    assert len(seen) == 152


def test_searches_leave_no_garbage():
    # each search's recursive helper reaches itself only through its own
    # cell, emptied when the search returns or is refused, so no call
    # leaves a cycle for the collector.  The refusal is caught by a plain
    # except, since an ExceptionInfo would keep its frames alive
    from cdhg import aut_g_x, group_automorphisms

    z6, z7 = make_cyclic(6), make_cyclic(7)
    fano = validate_hyperset(z7, [[0, 1, 3], [0, 4, 5], [0, 2, 6]])
    h = cd_construct(z7, fano)
    copy = Dihypergraph(vertex_count=h.vertex_count, arcs=frozenset(set(h.arcs)))
    # the 6-cycle and two triangles: equal pair-code keys, no isomorphism
    hexagon = cd_construct(z6, validate_hyperset(z6, [[0, 1], [0, 5]]))
    triangles = cd_construct(z6, validate_hyperset(z6, [[0, 2], [0, 4]]))
    z2_5 = make_cyclic(2)
    for _ in range(4):
        z2_5 = direct_product(z2_5, make_cyclic(2))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        aut = aut_hypergraph(h)
        assert hypergraph_isomorphic(h, copy) is not None
        assert hypergraph_isomorphic(hexagon, triangles) is None
        assert len(find_regular_subgroups(aut, 7)) == 8
        assert len(cayley_presentations(h).listed) == 2
        assert normalizer(aut, right_regular(z7)).order == 21
        assert verify_theorem2(z7, fano).aut_g_x_order == 3
        assert len(group_automorphisms(z7)) == 6
        assert len(aut_g_x(z7, fano)) == 3
        try:
            group_automorphisms(z2_5)
        except CutoffExceeded:
            pass
        else:
            raise AssertionError("Aut(Z2^5) was not refused")
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_chains_of_census_order_10_stay_pinned():
    # the digests of every chain the census to order 10 builds: Aut(h)'s
    # transversals and generators per distinct arc set under the order
    # cap, and the normalizer of G_R in it per instance.  They pin the
    # search's order, so a faster search must list the same maps
    auts, norms = hashlib.sha256(), hashlib.sha256()
    by_arcs = {}
    for g in census_corpus(10):
        g_r = right_regular(g)
        for x in census_hypersets(g, 3):
            h = cd_construct(g, x)
            if h.arcs not in by_arcs:
                try:
                    aut = aut_hypergraph(h)
                except CutoffExceeded:
                    aut = None
                else:
                    auts.update(repr((aut.transversals, [p.images for p in aut.generators])).encode())
                by_arcs[h.arcs] = aut
            if by_arcs[h.arcs] is not None:
                norms.update(repr(normalizer(by_arcs[h.arcs], g_r).transversals).encode())
    assert (len(by_arcs), sum(a is not None for a in by_arcs.values())) == (152, 150)
    assert auts.hexdigest()[:16] == "1acdd0aade0d0074"
    assert norms.hexdigest()[:16] == "238fc200a6ee64f2"


@pytest.mark.parametrize(
    "name, members",
    [("Z5", [[0, 1]]), ("Z6", [[0, 1, 3]]), ("D4", [[0, 4], [0, 1]]), ("Z2xZ4", [[0, 1, 2]])],
)
def test_completion_search_of_a_copy_answers_as_of_itself(name, members):
    # the search of h against itself may take the identity on a prefix as
    # tested; against an equal copy it tests every level, and both must
    # give the same first completion of every chain prefix (0..k-1, w)
    from cdhg.hypergraphs import _completion_search

    g = next(g for g in CORPUS8 if g.name == name)
    h = cd_construct(g, validate_hyperset(g, members))
    copy = Dihypergraph(vertex_count=h.vertex_count, arcs=frozenset(set(h.arcs)))
    assert copy == h and copy is not h
    (itself, _), (other, none) = _completion_search(h, h), _completion_search(h, copy)
    assert none is None
    n = h.vertex_count
    answers = [itself((*range(k), w)) for k in range(n) for w in range(n)]
    assert answers == [other((*range(k), w)) for k in range(n) for w in range(n)]
    assert any(answers) and None in answers


def test_completion_search_of_itself_tests_a_moved_prefix():
    # Aut(CD(Z5, {{0, 1}})) is the five rotations, none of which swaps 0
    # and 1: a prefix that is not the identity is tested, not taken
    from cdhg.hypergraphs import _completion_search

    z5 = make_cyclic(5)
    h = cd_construct(z5, validate_hyperset(z5, [[0, 1]]))
    search, _ = _completion_search(h, h)
    assert search((1, 0)) is None
    assert search((1,)) == (1, 2, 3, 4, 0)
    assert search((0, 2)) is None
    # 0 has an arc and 1 none, so the prefix fails at 0; a search that
    # took (1, 0) as placed would test 2 alone, which has no arc and no
    # code against 0 or 1 to tell it, and would answer (1, 0, 2)
    h = Dihypergraph(vertex_count=3, arcs=frozenset({(0, (0, 1))}))
    search, _ = _completion_search(h, h)
    assert search((1, 0, 2)) is None
    assert search((0, 1, 2)) == (0, 1, 2)


def test_aut_checks_size_2_arcs_that_miss_their_vertex():
    # found by search: (0, {2, 3}) misses its vertex, so the pair codes do
    # not decide the size-2 arcs.  They agree under (1, 0, 3, 2), which
    # carries (0, {0, 1}) to (1, {0, 1}), no arc
    h = Dihypergraph(4, frozenset([(0, (0, 1)), (0, (2, 3)), (1, (0, 2)), (1, (1, 3))]))
    assert aut_hypergraph(h).order == 1


def test_aut_generators_give_the_chain_order_by_sympy():
    # sympy's own Schreier-Sims, which shares no code with the library,
    # closes the searched maps: the group they generate has the chain's
    # order and holds every map of every transversal.  The inputs are
    # every distinct census arc set of order 7 or 8, the loops X = {{0}}
    # among them, and two closures each over Z9 and D5 under the order cap
    seen = {}
    for g in census_corpus(8):
        if g.order >= 7:
            for x in census_hypersets(g, 3):
                h = cd_construct(g, x)
                seen.setdefault(h.arcs, h)
    assert len(seen) == 43
    for g, members in ((make_cyclic(9), ([0, 3], [0, 1, 5])), (make_dihedral(5), ([0, 5], [0, 1, 5]))):
        for m in members:
            h = cd_construct(g, single_cayley_closure(g, m))
            seen.setdefault(h.arcs, h)
    assert len(seen) == 47
    orders = set()
    for h in seen.values():
        aut = aut_hypergraph(h)
        group = SympyPermutationGroup([SympyPermutation(list(p.images)) for p in aut.generators])
        assert group.order() == aut.order
        assert all(group.contains(SympyPermutation(list(r))) for reps in aut.transversals for r in reps)
        orders.add(aut.order)
    assert {5040, 40320, 1296, 3840} <= orders


@pytest.mark.parametrize(
    "name, member, order",
    [
        ("Z11", {0, 3, 5, 8}, 22),
        ("Z12", {0, 5, 10}, 24),
        ("Z12", {0, 3, 7}, 12),
        ("Z12", {0, 4, 5, 8}, 5184),
        ("D6", {0, 4, 7, 10}, 48),
        ("Z3xZ4", {0, 7, 8}, 24),
        ("Z3xZ4", {0, 1, 4, 9}, 24),
    ],
)
def test_aut_of_slow_order_11_and_12_closures(name, member, order):
    # single closures on which the completion search once took 3-21 s;
    # sympy's Schreier-Sims closes the searched maps to the chain's order
    g = next(g for g in census_corpus(12) if g.name == name)
    aut = aut_hypergraph(cd_construct(g, single_cayley_closure(g, member)))
    assert aut.order == order
    group = SympyPermutationGroup([SympyPermutation(list(p.images)) for p in aut.generators])
    assert group.order() == order
    assert all(group.contains(SympyPermutation(list(r))) for reps in aut.transversals for r in reps)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_chain_of_elements_matches_the_closure(data):
    # the chain read off a group's elements has the closure's order and
    # listing, sifts exactly the closure's permutations, and is in the
    # form _stabiliser_chain gives: the identity first, then maps fixing
    # 0..k-1 in increasing image of k
    n = data.draw(st.integers(1, 6))
    gens = data.draw(st.lists(st.permutations(range(n)).map(tuple), min_size=1, max_size=3))
    elements = oracles._perm_closure(gens, n)
    group = PermGroup._from_elements(n, elements)
    assert group.order == len(elements)
    assert {p.images for p in group.perms} == elements
    assert {p for p in permutations(range(n)) if Permutation(p) in group} == elements
    assert oracles._perm_closure([p.images for p in group.generators], n) == elements
    for k, reps in enumerate(group.transversals):
        assert reps[0] == tuple(range(n))
        assert all(r[:k] == tuple(range(k)) for r in reps)
        images = [r[k] for r in reps[1:]]
        assert images == sorted(set(images)) and k not in images


def check_chain_against_brute_force(h, smalls=()):
    """Membership, order and normalizers of the chain-backed Aut(h)
    agree with the brute-force oracle, and none of them lists Aut(h).

    The normalizer is taken of the given subgroups and of every regular
    subgroup of Aut(h), each with its T_0 past the identity as its
    generators."""
    n = h.vertex_count
    aut = aut_hypergraph(h)
    brute = set(oracles.brute_hypergraph_automorphisms(n, h.arcs))
    assert {p for p in permutations(range(n)) if Permutation(p) in aut} == brute
    assert aut.order == len(brute)
    for small in (*smalls, *find_regular_subgroups(aut, n)):
        norm = normalizer(aut, small)
        assert {p.images for p in norm.perms} == oracles.brute_normalizer(
            brute, [p.images for p in small.perms]
        )
    assert "perms" not in vars(aut)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_chain_matches_brute_force_on_random_dihypergraphs(data):
    n = data.draw(st.integers(1, 5))
    _, _, text = data.draw(dihypergraph_texts(n))
    check_chain_against_brute_force(load_dihypergraph(text))


def test_chain_matches_brute_force_on_census_arc_sets():
    # every distinct arc set among the instances of run_census(6, 3),
    # with the right translations of the first group that gives it
    seen = {}
    for g in census_corpus(6):
        for x in census_hypersets(g, 3):
            h = cd_construct(g, x)
            seen.setdefault(h.arcs, (h, g))
    assert len(seen) == 35
    for h, g in seen.values():
        check_chain_against_brute_force(h, [right_regular(g)])


def test_analyze_lists_only_the_point_stabiliser_of_aut(monkeypatch):
    # Aut of the Z8 loops is S8; the normalizer of the translations walks
    # only the stabiliser of 0, 8!/8 = 5040 of its elements, in a pruned
    # search that makes no product here, so what is built is at most
    # that stabiliser (here only the few maps of Aut(Z8, X))
    import cdhg.groups

    built = set()
    products = cdhg.groups._products

    def counted(group, reps):
        for p in products(group, reps):
            built.add(p)
            yield p

    monkeypatch.setattr(cdhg.groups, "_products", counted)
    z8 = make_cyclic(8)
    lines = build_analysis_report(z8, validate_hyperset(z8, [[0]])).render().splitlines()
    assert "aut_h: 40320" in lines
    assert "normalizer: 32" in lines
    assert all(line.endswith(": pass") for line in lines if line.startswith("theorem2_"))
    assert len(built) <= 5040


def z8_loops_aut():
    z8 = make_cyclic(8)
    return z8, aut_hypergraph(cd_construct(z8, validate_hyperset(z8, [[0]])))


def test_normalizer_on_a_chain_prunes_the_point_stabiliser(monkeypatch):
    # Aut of the Z8 loops is S8, whose stabiliser of 0 has 5040 elements;
    # the search down the chain cuts a branch as soon as a conjugate of a
    # translation leaves the translations, so it takes 128 steps and
    # makes no product over Aut's transversals (listing the translations
    # themselves is a product over their own one-level chain)
    import cdhg.groups
    import cdhg.perms

    z8, aut = z8_loops_aut()
    steps = []
    search = cdhg.groups._chain_search

    def counted(transversals, step, state):
        def counted_step(k, x, below):
            steps.append(k)
            return step(k, x, below)

        return search(transversals, counted_step, state)

    products = cdhg.groups._products

    def no_products(group, reps):
        if reps in aut.transversals:
            raise AssertionError("a product of Aut's chain was made")
        return products(group, reps)

    monkeypatch.setattr(cdhg.perms, "_chain_search", counted)
    monkeypatch.setattr(cdhg.groups, "_products", no_products)
    norm = normalizer(aut, right_regular(z8))
    assert 0 < len(steps) <= 256
    assert norm.order == 32


def test_regular_search_keeps_the_semiregular_products_of_the_chain(monkeypatch):
    # the search down S8's chain lists each slot w at most once, as
    # exactly the products of the chain sending 0 to w that the powers
    # oracle finds semiregular
    import cdhg.perms
    from cdhg.groups import _chain_products

    _, aut = z8_loops_aut()
    kept = {}
    search = cdhg.perms._chain_search

    def recorded(transversals, step, state):
        found = search(transversals, step, state)
        w = transversals[0][0][0]
        assert w not in kept
        kept[w] = found
        return found

    monkeypatch.setattr(cdhg.perms, "_chain_search", recorded)
    regs = find_regular_subgroups(aut, 8)
    reference = sorted(filter(oracles.is_semiregular, _chain_products(aut.transversals, 8)))
    assert len(reference) == 6406
    assert 1 in kept
    for w, found in kept.items():
        assert sorted(found) == [x for x in reference if x[0] == w]
    assert len(regs) == 2760


def test_regular_subgroups_are_generated_by_their_t0():
    # each subgroup found is one level past the identity's, and its
    # generators are the maps of that level, in order of image of 0
    _, aut = z8_loops_aut()
    for r in find_regular_subgroups(aut, 8):
        t0, *rest = r.transversals
        assert all(reps == (tuple(range(8)),) for reps in rest)
        assert [p.images for p in r.generators] == list(t0[1:])


@pytest.mark.parametrize("n", range(1, 8))
def test_semiregular_rule_matches_the_powers_oracle(n):
    # the search down S_n's chain with the cycle rule keeps exactly the
    # permutations of n whose non-identity powers move every point
    from cdhg.groups import _chain_search
    from cdhg.perms import _cycle_step

    kept = _chain_search(symmetric(n).transversals, _cycle_step, 0)
    assert len(kept) == len(set(kept))
    assert set(kept) == set(filter(oracles.is_semiregular, permutations(range(n))))


def test_semiregular_search_on_the_s7_loops_cuts_closed_cycles_that_miss_7():
    # the 720 7-cycles and the identity; a cycle of length 2 to 6 closed
    # at an early level ends its branch there, as 7 has no such divisor,
    # so the search takes well under the 6,778 steps it took without it
    from cdhg.perms import _cycle_step

    z7 = make_cyclic(7)
    aut = aut_hypergraph(cd_construct(z7, validate_hyperset(z7, [[0]])))
    calls = [0]

    def counted(k, x, length):
        calls[0] += 1
        return _cycle_step(k, x, length)

    assert len(perms._chain_search(aut.transversals, counted, 0)) == 721
    assert calls[0] < 5000


@lru_cache(maxsize=None)
def census_10_regulars():
    """(h, Aut(h), its regular subgroups) per distinct arc set of
    run_census(10, 3) whose Aut(h) is under the order cap, h from the
    first instance that gives it."""
    seen, out = set(), []
    for g in census_corpus(10):
        for x in census_hypersets(g, 3):
            h = cd_construct(g, x)
            if h.arcs not in seen:
                seen.add(h.arcs)
                try:
                    aut = aut_hypergraph(h)
                except CutoffExceeded:
                    continue
                out.append((h, aut, find_regular_subgroups(aut, g.order)))
    return out


def test_regular_chains_equal_those_read_off_the_closure():
    # the chain and generators of every regular subgroup the census to
    # order 10 finds, and of every right regular representation, are
    # those groups._chain_of_elements reads off the closure of the
    # generators, listed by the oracle
    found = census_10_regulars()
    assert (len(found), sum(len(regs) for _, _, regs in found)) == (150, 6684)
    for h, _, regs in found:
        n = h.vertex_count
        for r in regs:
            gens = [p.images for p in r.generators]
            ref = PermGroup._from_elements(n, oracles._perm_closure(gens, n))
            assert (r.transversals, r.generators) == (ref.transversals, ref.generators)
    for g in census_corpus(10):
        n = g.order
        columns = [tuple(g.table[i][j] for i in range(n)) for j in range(n)]
        gens = [columns[s] for s in g.generators]
        g_r = right_regular(g)
        ref = PermGroup._from_elements(n, oracles._perm_closure(gens, n))
        assert g_r.transversals == ref.transversals
        assert [p.images for p in g_r.generators] == gens


def test_regular_subgroups_make_their_generators_on_first_read():
    # the census reads only T_0 of most regular subgroups, so their
    # generators are not made until read, and then are T_0 past the
    # identity
    h, aut, _ = max(census_10_regulars(), key=lambda found: len(found[2]))
    regs = find_regular_subgroups(aut, h.vertex_count)
    assert len(regs) > 100
    for r in regs:
        assert "generators" not in vars(r)
        assert [p.images for p in r.generators] == list(r.transversals[0][1:])
        assert "generators" in vars(r)


def listed_weights(aut, n):
    """T_0 -> weight of each regular subgroup perms._regular_search lists."""
    listed = perms._regular_search(aut, n)
    weights = {t0: len(orbit) for t0, orbit in listed}
    assert len(weights) == len(listed)
    return weights


def test_regular_classes_partition_by_the_normalizer_index():
    # on each census arc set to order 10 every Aut(h)-class of the
    # regular subgroups meets the list the search makes up to conjugacy
    # by the maps fixing 0 and 1, and the listed members of a class have
    # weights summing to |Aut(h) : N(R)|, N(R) of its first member R
    # from normalizer, a chain search that shares no code with the
    # weights; the classes come from the oracle, by Aut(h)'s generators
    sizes = []
    for h, aut, regs in census_10_regulars():
        t0s = [r.transversals[0] for r in regs]
        weights = listed_weights(aut, h.vertex_count)
        classes = oracles.generator_conjugacy_classes([p.images for p in aut.generators], t0s)
        assert sorted(j for c in classes for j in c) == list(range(len(regs)))
        for c in classes:
            listed = [weights[t0s[j]] for j in c if t0s[j] in weights]
            assert listed
            assert sum(listed) * normalizer(aut, regs[c[0]]).order == aut.order
        assert sum(weights.values()) == len(regs)
        sizes.extend(map(len, classes))
    assert (len(sizes), max(sizes)) == (358, 1260)


def test_regular_classes_match_the_brute_force_conjugates():
    # every census arc set to order 10 with |Aut(h)| <= 48: each class
    # made by conjugating every subgroup by every element of Aut(h) meets
    # the list, and its listed members' weights sum to its size
    checked = 0
    for h, aut, regs in census_10_regulars():
        if aut.order <= 48:
            t0s = [r.transversals[0] for r in regs]
            weights = listed_weights(aut, h.vertex_count)
            elements = [p.images for p in aut.perms]
            for c in oracles.brute_conjugacy_classes(elements, t0s):
                assert sum(weights.get(t0s[j], 0) for j in c) == len(c)
            checked += 1
    assert checked == 83


def test_regular_classes_refuse_a_conjugate_that_is_not_listed():
    # on the Z4 loops (Aut S4) the census's regular_subgroups row finds
    # the translations' listed conjugate, and fails once it is dropped
    from cdhg.census import _rows
    from cdhg.groups import group_automorphisms, inner_automorphisms

    z4 = make_cyclic(4)
    x = validate_hyperset(z4, [[0]])
    h = cd_construct(z4, x)
    g_r = right_regular(z4)
    found = cayley_presentations(h)
    assert sum(len(orbit) for _, orbit, _ in found.listed) == 4 > len(found.listed)

    def row(found):
        rows = _rows(z4, x, h, g_r, group_automorphisms(z4), inner_automorphisms(z4), found)
        return next(good for name, good, _ in rows if name == "regular_subgroups")

    own = found.entry_for(g_r)
    assert own is not None
    assert row(found) is True
    dropped = tuple(entry for entry in found.listed if entry is not own)
    assert row(CayleyPresentations(**{**vars(found), "listed": dropped})) is False


@pytest.mark.parametrize(
    "n, members",
    [(4, [[0]]), (6, [[0, 3], [0, 2, 4]]), (7, [[0, 1, 3], [0, 4, 5], [0, 2, 6]]), (8, [[0]])],
)
def test_cayley_presentations_count_each_regular_subgroup_once(n, members):
    # entry_for sends each regular subgroup of Aut(h) to the listed one
    # whose weight counts it, and every listed one recovers h
    zn = make_cyclic(n)
    h = cd_construct(zn, validate_hyperset(zn, members))
    found = cayley_presentations(h)
    assert found.aut.order == aut_hypergraph(h).order and found.broken is None
    counted = Counter(found.entry_for(r)[0] for r in find_regular_subgroups(found.aut, n))
    assert counted == {t0: len(orbit) for t0, orbit, _ in found.listed}
    assert all(cd_construct(rec.group, rec.hyperset) == h for _, _, rec in found.listed)


def test_cayley_presentations_of_a_refused_aut_list_nothing():
    # the Z9 loops give Aut = S9, over the order cap
    z9 = make_cyclic(9)
    found = cayley_presentations(cd_construct(z9, validate_hyperset(z9, [[0]])))
    assert (found.aut, found.broken, found.listed) == (None, None, ())
    assert found.entry_for(right_regular(z9)) is None


@pytest.mark.parametrize("n", range(1, 9))
def test_regular_weights_count_the_symmetric_group_on_the_loops(n):
    # Aut of the Z_n loops is S_n, whose regular subgroups number the sum
    # over the groups G of order n of (n-1)!/|Aut(G)|: 2,760 for S8 (see
    # test_find_regular_subgroups_in_symmetric_group); both the weights
    # and the expanded list count them
    aut_orders = {1: [1], 2: [1], 3: [2], 4: [2, 6], 5: [4], 6: [2, 6], 7: [6], 8: [4, 8, 168, 8, 24]}
    expected = sum(math.factorial(n - 1) // a for a in aut_orders[n])
    zn = make_cyclic(n)
    aut = aut_hypergraph(cd_construct(zn, validate_hyperset(zn, [[0]])))
    assert aut.order == math.factorial(n)
    assert sum(listed_weights(aut, n).values()) == expected
    assert len(find_regular_subgroups(aut, n)) == expected


def test_normalizer_is_normalized_by_sympy_on_census_arc_sets():
    # every distinct census arc set of order 7 or 8, with the right
    # translations of the first group that gives it: sympy's own
    # Schreier-Sims finds G_R normal in the group the normalizer's
    # elements generate, and that group has exactly those elements
    seen = {}
    for g in census_corpus(8):
        if g.order >= 7:
            for x in census_hypersets(g, 3):
                h = cd_construct(g, x)
                seen.setdefault(h.arcs, (h, g))
    assert len(seen) == 43

    def as_sympy(p):
        return SympyPermutationGroup([SympyPermutation(list(q.images)) for q in p.perms])

    for h, g in seen.values():
        g_r = right_regular(g)
        norm = normalizer(aut_hypergraph(h), g_r)
        generated = as_sympy(norm)
        assert generated.order() == norm.order
        assert as_sympy(g_r).is_normal(generated)


def test_find_regular_subgroups_contains_translations(fano_group, fano_cd):
    aut = aut_hypergraph(fano_cd)
    g_r = right_regular(fano_group)
    regs = find_regular_subgroups(aut, 7)
    assert any(r.perms == g_r.perms for r in regs)


def test_find_regular_subgroups_trivial_cases():
    only_id = closure(3)
    assert find_regular_subgroups(only_id, 3) == []
    z6_r = right_regular(make_cyclic(6))
    regs = find_regular_subgroups(z6_r, 6)
    assert len(regs) == 1
    assert regs[0].perms == z6_r.perms


def test_find_regular_subgroups_full_hyperset():
    # loops plus one edge covering everything: automorphisms = all of Sym(4)
    z4 = make_cyclic(4)
    h = cd_construct(z4, validate_hyperset(z4, [[0, 1, 2, 3]]))
    aut = aut_hypergraph(h)
    assert aut.order == 24
    regs = find_regular_subgroups(aut, 4)
    assert len(regs) == 4
    oracle = oracles.brute_regular_subgroups([p.images for p in aut.perms], 4)
    assert {frozenset(p.images for p in r.perms) for r in regs} == set(oracle)
    kleins = [
        r
        for r in regs
        if all(p.then(p).images == tuple(range(4)) for p in r.perms)
    ]
    assert len(kleins) == 1


def test_find_regular_subgroups_matches_the_oracle_exactly():
    # every distinct census arc set of order <= 6 with |Aut| <= 48: the
    # sorted image lists come out in the oracle's sorted order, so the
    # search repeats no subgroup and sorts them as the oracle does
    seen = {}
    for g in census_corpus(6):
        for x in census_hypersets(g, 3):
            h = cd_construct(g, x)
            seen.setdefault(h.arcs, (h, g.order))
    checked = found = 0
    for h, n in seen.values():
        aut = aut_hypergraph(h)
        if aut.order > 48:
            continue
        regs = [sorted(p.images for p in r.perms) for r in find_regular_subgroups(aut, n)]
        oracle = oracles.brute_regular_subgroups([p.images for p in aut.perms], n)
        assert regs == sorted(map(sorted, oracle))
        checked, found = checked + 1, found + len(regs)
    assert (checked, found) == (29, 80)


def test_regular_search_on_the_z8_loops_makes_few_products(monkeypatch):
    # the closure multiplies by the generators chosen on the path, not
    # by every filled slot, so S8 takes well under the 484,990 products
    # an all-pairs closure makes
    calls = [0]
    real = perms.itemgetter

    def counting(*items):
        get = real(*items)

        def counted(o):
            calls[0] += 1
            return get(o)

        return counted

    _, aut = z8_loops_aut()
    monkeypatch.setattr(perms, "itemgetter", counting)
    assert len(find_regular_subgroups(aut, 8)) == 2760
    assert calls[0] < 400_000


@pytest.mark.parametrize("n, expected", [(5, 6), (6, 80), (7, 120), (8, 2760)])
def test_find_regular_subgroups_in_symmetric_group(n, expected):
    # sum over the groups G of order n of (n-1)!/|Aut(G)|: Z5 (|Aut| 4),
    # Z6 (2) and S3 (6), Z7 (6); for n = 8, 7!/|Aut(G)| over Z8 (4),
    # Z2xZ4 (8), Z2^3 (168), D4 (8) and Q8 (24)
    regs = find_regular_subgroups(symmetric(n), n)
    assert len(regs) == expected
    assert all(is_regular(r, n) for r in regs)


def test_round_trip_returns_input_exactly(fano_group, fano_x, fano_cd):
    rec = regular_to_cayley(fano_cd, right_regular(fano_group))
    assert rec.group == fano_group
    assert rec.hyperset == fano_x
    assert cd_construct(rec.group, rec.hyperset) == fano_cd


def test_round_trip_with_foreign_regular_subgroup():
    z4 = make_cyclic(4)
    h = cd_construct(z4, validate_hyperset(z4, [[0, 1, 2, 3]]))
    aut = aut_hypergraph(h)
    g_r = right_regular(z4)
    foreign = [r for r in find_regular_subgroups(aut, 4) if r.perms != g_r.perms]
    assert foreign
    for r in foreign:
        rec = regular_to_cayley(h, r)
        assert rec.group.order == 4
        rebuilt = cd_construct(rec.group, rec.hyperset)
        assert hypergraph_isomorphic(rebuilt, h) is not None


def test_regular_to_cayley_rejects_irregular(fano_cd):
    with pytest.raises(ValueError):
        regular_to_cayley(fano_cd, closure(3, (1, 0, 2), (1, 2, 0)))


def test_regular_to_cayley_rejects_a_transitive_set_that_is_not_a_group():
    # its closure reaches every point, but it is no group: the chain
    # read off it has a map fixing 0, so its order is 4, not 3
    z3 = make_cyclic(3)
    h = cd_construct(z3, validate_hyperset(z3, [[0]]))
    r = PermGroup._from_elements(3, ((0, 1, 2), (1, 0, 2), (0, 2, 1)))
    assert not is_regular(r, 3)
    with pytest.raises(ValueError, match="not regular"):
        regular_to_cayley(h, r)


def test_regular_to_cayley_rejects_translations_that_move_an_arc():
    z4 = make_cyclic(4)
    h = cd_construct(z4, validate_hyperset(z4, [[0, 1]]))
    klein = right_regular(direct_product(make_cyclic(2), make_cyclic(2)))
    with pytest.raises(ValueError, match="do not preserve the arcs"):
        regular_to_cayley(h, klein)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_regular_to_cayley_succeeds_exactly_when_the_arcs_are_preserved(data):
    n = data.draw(st.integers(1, 5))
    _, arcs, _ = data.draw(dihypergraph_texts(n))
    r = data.draw(st.sampled_from(regular_in_symmetric(n)))
    images = [p.images for p in r.perms]
    # put each vertex into its edge, and take the orbit of the arcs under
    # r, each half of the time, so that both outcomes are drawn often
    if data.draw(st.booleans()):
        arcs = [(v, [v, *(u for u in e if u != v)]) for v, e in arcs]
    if data.draw(st.booleans()):
        arcs = [(p[v], [p[u] for u in e]) for p in images for v, e in arcs]
    h = Dihypergraph(vertex_count=n, arcs=oracles.arc_set(arcs))
    if oracles.preserves_arcs(images, arcs) and all(v in e for v, e in arcs):
        rec = regular_to_cayley(h, r)
        assert cd_construct(rec.group, rec.hyperset) == h
        assert right_regular(rec.group).perms == r.perms
    else:
        with pytest.raises(ValueError):
            regular_to_cayley(h, r)


def test_normalizer_of_self():
    p = right_regular(make_cyclic(6))
    assert normalizer(p, p).perms == p.perms


def test_normalizer_in_fano_aut(fano_group, fano_cd):
    aut = aut_hypergraph(fano_cd)
    norm = normalizer(aut, right_regular(fano_group))
    assert norm.order == 21


def test_normalizer_of_rotations_in_s3():
    s3 = closure(3, (1, 0, 2), (1, 2, 0))
    assert normalizer(s3, closure(3, (1, 2, 0))).order == 6


@pytest.mark.parametrize("n, gens, order", [
    (4, [(1, 0, 2, 3)], 4),
    (4, [(1, 0, 3, 2)], 8),
    (4, [], 24),
    (5, [(0, 2, 1, 3, 4)], 12),
    (5, [(1, 0, 2, 3, 4), (0, 1, 3, 2, 4)], 8),
])
def test_normalizer_of_intransitive_subgroups(n, gens, order):
    # small fixes a point or is not transitive, so it is refused; order
    # is the size of its normalizer in S_n by the oracle, which the
    # library no longer computes
    big = symmetric(n)
    small = closure(n, *gens)
    with pytest.raises(ValueError, match=rf"small of order {small.order} is not regular on {n} points"):
        normalizer(big, small)
    assert len(oracles.brute_normalizer(
        [p.images for p in big.perms], [p.images for p in small.perms]
    )) == order


@pytest.mark.parametrize("n", [4, 5])
def test_normalizer_matches_brute_force_on_regular_subgroups_of_symmetric(n):
    big = symmetric(n)
    brute = [p.images for p in big.perms]
    regs = regular_in_symmetric(n)
    assert len(regs) == {4: 4, 5: 6}[n]
    for small in regs:
        assert {p.images for p in normalizer(big, small).perms} == oracles.brute_normalizer(
            brute, [p.images for p in small.perms]
        )


def test_normalizer_refuses_a_degree_mismatch_and_a_small_outside_big():
    with pytest.raises(ValueError, match="degree mismatch: 4 vs 3"):
        normalizer(symmetric(4), right_regular(make_cyclic(3)))
    # the Klein four-group's translations are not in the cyclic ones
    klein = right_regular(direct_product(make_cyclic(2), make_cyclic(2)))
    with pytest.raises(ValueError, match="small is not contained in big"):
        normalizer(right_regular(make_cyclic(4)), klein)


def test_permgroup_holds_no_permutation_of_another_degree():
    z4 = right_regular(make_cyclic(4))
    assert Permutation((1, 2, 3, 0)) in z4
    assert Permutation((1, 2, 0)) not in z4
    assert Permutation((1, 2, 3, 4, 0)) not in z4


def test_find_regular_subgroups_on_no_vertices():
    # no group has order 0
    assert find_regular_subgroups(aut_hypergraph(load_dihypergraph("dihypergraph 0\n")), 0) == []


def test_find_regular_subgroups_refuses_the_wrong_degree():
    with pytest.raises(ValueError, match="group acts on degree 4, expected 5"):
        find_regular_subgroups(symmetric(4), 5)


def test_theorem2_fano(fano_group, fano_x):
    report = verify_theorem2(fano_group, fano_x)
    assert report.all_pass
    assert report.aut_h_order == 168
    assert report.aut_g_x_order == 3
    assert report.normalizer_order == 21
    assert report.group_order * report.aut_g_x_order == report.normalizer_order


def test_theorem2_loops_give_holomorph():
    z4 = make_cyclic(4)
    report = verify_theorem2(z4, validate_hyperset(z4, [[0]]))
    assert report.all_pass
    assert report.aut_h_order == 24
    assert report.aut_g_x_order == 2
    assert report.normalizer_order == 8


def test_theorem2_two_vertices():
    z2 = make_cyclic(2)
    report = verify_theorem2(z2, validate_hyperset(z2, [[0, 1]]))
    assert report.all_pass
    assert report.aut_h_order == 2
    assert report.aut_g_x_order == 1
    assert report.normalizer_order == 2


def test_theorem2_accepts_precomputed_aut(fano_group, fano_x, fano_cd):
    aut = aut_hypergraph(fano_cd)
    report = verify_theorem2(fano_group, fano_x, aut=aut)
    assert report.all_pass


def test_theorem2_reports_g_r_not_normal_in_a_group_past_its_normalizer(monkeypatch):
    # Aut(CD(Z4, {{0}})) is S4, where G_R has normalizer D4 of order 8; a
    # normalizer that returned all of S4 must read as G_R not normal
    monkeypatch.setattr(perms, "normalizer", lambda big, small: big)
    z4 = make_cyclic(4)
    report = verify_theorem2(z4, validate_hyperset(z4, [[0]]))
    assert report.normalizer_order == 24
    assert not report.g_r_normal
    assert not report.all_pass


# Theorem 2's sub-checks, as (report attribute, cdhg analyze key)
THEOREM2_CHECKS = [
    ("product_factorization", "theorem2_product_factorization"),
    ("order_matches", "theorem2_order"),
    ("trivial_intersection", "theorem2_trivial_intersection"),
    ("g_r_normal", "theorem2_normality"),
    ("stabilizer_matches", "theorem2_stabilizer"),
]


@pytest.mark.parametrize("attribute, key", THEOREM2_CHECKS, ids=[a for a, _ in THEOREM2_CHECKS])
def test_each_theorem2_check_reaches_all_pass_analyze_and_the_census(
    monkeypatch, capsys, attribute, key
):
    real = perms.verify_theorem2

    def only_this_fails(*args, **kwargs):
        report = real(*args, **kwargs)
        assert report.all_pass
        setattr(report, attribute, False)
        return report

    z7 = make_cyclic(7)
    assert not only_this_fails(z7, single_cayley_closure(z7, {0, 1, 3})).all_pass

    monkeypatch.setattr(cdhg.cli, "verify_theorem2", only_this_fails)
    argv = ["analyze", "--group", str(DATA / "z7.group"), "--hyperset", str(DATA / "fano.hyperset")]
    assert cdhg.cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("theorem2_")] == [
        f"{k}: {'fail' if k == key else 'pass'}" for _, k in THEOREM2_CHECKS
    ]

    monkeypatch.setattr(cdhg.census, "verify_theorem2", only_this_fails)
    tally = run_census(3, 1).tallies["normalizer_factorization"]
    assert tally.failed == len(tally.failures) > 0 and tally.passed == 0
    for failure in tally.failures:
        assert failure.count("=False") == 1 and f"{key}=False" in failure


def test_g_r_normal_agrees_with_the_normalizer_order(monkeypatch):
    # with the normalizer patched to all of Aut(h), g_r_normal (tested on
    # the chain's maps only) says whether G_R is normal in Aut(h), which
    # holds exactly when the true normalizer is all of Aut(h)
    true_normalizer = perms.normalizer
    monkeypatch.setattr(perms, "normalizer", lambda big, small: big)
    seen = set()
    for g in census_corpus(6):
        for x in census_hypersets(g, 3):
            aut = aut_hypergraph(cd_construct(g, x))
            normal = true_normalizer(aut, right_regular(g)).order == aut.order
            assert verify_theorem2(g, x, aut=aut).g_r_normal == normal, (g.name, x.members)
            seen.add(normal)
    assert seen == {False, True}

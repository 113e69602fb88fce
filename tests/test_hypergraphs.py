"""Dihypergraph construction, structure predicates, isomorphism, dumps."""

import random
import tracemalloc
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cdhg import (
    Dihypergraph,
    FiniteGroup,
    cd_construct,
    census_corpus,
    census_hypersets,
    ch_construct,
    direct_product,
    dump_dihypergraph,
    hypergraph_isomorphic,
    is_cayley_closed,
    is_connected,
    is_undirected,
    load_dihypergraph,
    make_cyclic,
    make_dihedral,
    non_cayley_equivalent_representatives,
    single_cayley_closure,
    subgroup_generated,
    to_cayley_digraph,
    underlying,
    uniformity,
    validate_hyperset,
)
from cdhg.hypergraphs import _pair_codes
from conftest import FANO_EDGES, dihypergraph_texts

CORPUS8 = census_corpus(8)


@st.composite
def instances(draw, max_members=3, max_size=3):
    g = draw(st.sampled_from(CORPUS8))
    raw = []
    for _ in range(draw(st.integers(1, max_members))):
        extra = draw(st.sets(st.integers(0, g.order - 1), max_size=max_size - 1))
        raw.append({0} | extra)
    return g, validate_hyperset(g, raw)


def relabel(h, p):
    """Apply a vertex permutation to every arc."""
    arcs = {(p[v], tuple(sorted(p[w] for w in e))) for v, e in h.arcs}
    return Dihypergraph(vertex_count=h.vertex_count, arcs=frozenset(arcs))


def test_cd_construct_fano(fano_cd):
    assert len(fano_cd.arcs) == 21
    assert fano_cd.edges == frozenset(FANO_EDGES)


def test_cd_construct_loops():
    z5 = make_cyclic(5)
    h = cd_construct(z5, validate_hyperset(z5, [[0]]))
    assert h.arcs == frozenset((g, (g,)) for g in range(5))


def test_cd_construct_mixed_sizes():
    z6 = make_cyclic(6)
    h = cd_construct(z6, validate_hyperset(z6, [[0, 3], [0, 2, 4]]))
    assert len(h.arcs) == 12
    assert h.edges == frozenset({(0, 3), (1, 4), (2, 5), (0, 2, 4), (1, 3, 5)})


def test_cd_construct_rejects_order_mismatch():
    x = validate_hyperset(make_cyclic(5), [[0, 1]])
    with pytest.raises(ValueError):
        cd_construct(make_cyclic(6), x)


def test_constructors_match_the_brute_force_translates():
    # every census family to order 10 and of three groups of order 64,
    # seeds of up to 3 elements: the arcs are the oracle's (h, m*h), and
    # ch_construct of one member per class gives their edges
    z8xz8 = direct_product(make_cyclic(8), make_cyclic(8))
    count = 0
    for g in (*census_corpus(10), make_cyclic(64), make_dihedral(32), z8xz8):
        for x in census_hypersets(g, 3):
            arcs = oracles.brute_translate_arcs(g.table, x.members)
            assert cd_construct(g, x).arcs == arcs
            reps = non_cayley_equivalent_representatives(g, x)
            edges = {e for _, e in oracles.brute_translate_arcs(g.table, reps.members)}
            assert ch_construct(g, reps).edges == edges
            count += 1
    assert count == 2272


def test_cd_construct_matches_the_brute_force_translates_on_partial_classes():
    # families that are not closed, on nonabelian groups: each draws a few
    # members from the translate classes of random seeds, so a class may
    # be cut short and a member's equivalent partner may be absent, or
    # come before or after it in sorted order
    rng = random.Random(20241020)
    d4 = make_dihedral(4)
    p = [0, *rng.sample(range(1, 8), 7)]
    table = [[0] * 8 for _ in range(8)]
    for i in range(8):
        for j in range(8):
            table[p[i]][p[j]] = p[d4.table[i][j]]
    groups = (make_dihedral(3), d4, make_dihedral(5), FiniteGroup.from_table("D4 relabelled", table))
    partial = shared = 0
    for g in groups:
        for _ in range(150):
            raw = []
            for _ in range(rng.randint(1, 4)):
                seed = [0, *rng.sample(range(1, g.order), rng.randint(0, 3))]
                cls = sorted(oracles.brute_single_closure(g.table, seed))
                raw.extend(rng.sample(cls, rng.randint(1, len(cls))))
            x = validate_hyperset(g, raw)
            assert cd_construct(g, x).arcs == oracles.brute_translate_arcs(g.table, x.members)
            classes = oracles.brute_cayley_classes(g.table, x.members)
            shared += len(x) - len(classes)
            partial += any(len(c) < len(oracles.brute_single_closure(g.table, c[0])) for c in classes)
    assert shared > 800 and partial > 300


def test_ch_construct_fano():
    z7 = make_cyclic(7)
    ch = ch_construct(z7, validate_hyperset(z7, [[0, 1, 3]]))
    assert ch.edges == frozenset(FANO_EDGES)


def test_ch_construct_singletons():
    z5 = make_cyclic(5)
    ch = ch_construct(z5, validate_hyperset(z5, [[0]]))
    assert ch.edges == frozenset({(g,) for g in range(5)})


def test_ch_construct_cosets():
    z6 = make_cyclic(6)
    ch = ch_construct(z6, validate_hyperset(z6, [[0, 3]]))
    assert ch.edges == frozenset({(0, 3), (1, 4), (2, 5)})


def test_ch_construct_rejects_a_hyperset_of_another_order():
    y = validate_hyperset(make_cyclic(6), [[0, 3]])
    with pytest.raises(ValueError, match="hyperset is over order 6, group has order 7"):
        ch_construct(make_cyclic(7), y)


def test_ch_construct_rejects_equivalent_members():
    z7 = make_cyclic(7)
    y = validate_hyperset(z7, [[0, 1, 3], [0, 2, 6]])
    with pytest.raises(ValueError) as err:
        ch_construct(z7, y)
    assert str(err.value) == (
        "members (0, 1, 3) and (0, 2, 6) are Cayley equivalent; "
        "pass one representative per class"
    )


def test_underlying_fano(fano_cd):
    assert underlying(fano_cd).edges == frozenset(FANO_EDGES)


def test_underlying_empty():
    h = Dihypergraph(vertex_count=3, arcs=frozenset())
    assert underlying(h).edges == frozenset()


def test_is_connected(fano_cd):
    assert is_connected(fano_cd)
    z4 = make_cyclic(4)
    assert not is_connected(cd_construct(z4, validate_hyperset(z4, [[0, 2]])))
    z1 = make_cyclic(1)
    assert is_connected(cd_construct(z1, validate_hyperset(z1, [[0]])))


def test_is_undirected(fano_cd):
    assert is_undirected(fano_cd)
    z5 = make_cyclic(5)
    assert not is_undirected(cd_construct(z5, validate_hyperset(z5, [[0, 1]])))
    z6 = make_cyclic(6)
    assert is_undirected(cd_construct(z6, validate_hyperset(z6, [[0, 3], [0, 2, 4]])))


def test_is_undirected_on_loaded_arcs_that_miss_their_vertex():
    # an edge entered only from outside it is not undirected; one entered
    # from each of its vertices is, whatever other arcs enter it
    cases = {
        "dihypergraph 3\narc 0 : 1 2\n": False,
        "dihypergraph 3\narc 0 : 1 2\narc 1 : 1 2\n": False,
        "dihypergraph 3\narc 0 : 1 2\narc 1 : 1 2\narc 2 : 1 2\n": True,
        "dihypergraph 3\narc 0 : 1\narc 1 : 1\n": True,
        "dihypergraph 3\narc 0 : 1\n": False,
        "dihypergraph 3\n": True,
    }
    for text, expected in cases.items():
        h = load_dihypergraph(text)
        assert is_undirected(h) == oracles.brute_is_undirected(h.arcs) == expected


@settings(max_examples=150, deadline=None)
@given(drawn=dihypergraph_texts())
def test_is_undirected_matches_the_brute_force_on_loaded_text(drawn):
    h = load_dihypergraph(drawn[2])
    assert is_undirected(h) == oracles.brute_is_undirected(h.arcs)


def test_is_undirected_counts_only_arcs_that_hold_their_vertex():
    # two arcs and two pairs (w, e) with w in an edge e, but neither arc
    # holds its vertex, so equal counts do not make it undirected
    h = Dihypergraph(2, frozenset({(0, (1,)), (1, (0,))}))
    assert not oracles.brute_is_undirected(h.arcs)
    assert not is_undirected(h)


def test_is_undirected_matches_the_brute_force_on_census_and_seeded_texts():
    for g in CORPUS8:
        for x in census_hypersets(g, 3):
            h = cd_construct(g, x)
            assert is_undirected(h) == oracles.brute_is_undirected(h.arcs)
    rng = random.Random(25)
    for _ in range(3000):
        n = rng.randint(1, 4)
        lines = [f"dihypergraph {n}"]
        for _ in range(rng.randint(0, 6)):
            edge = rng.sample(range(n), rng.randint(1, n))
            lines.append(f"arc {rng.randrange(n)} : {' '.join(map(str, edge))}")
        h = load_dihypergraph("\n".join(lines))
        assert is_undirected(h) == oracles.brute_is_undirected(h.arcs), lines


def test_uniformity(fano_cd):
    assert uniformity(fano_cd) == 3
    z6 = make_cyclic(6)
    assert uniformity(cd_construct(z6, validate_hyperset(z6, [[0, 3], [0, 2, 4]]))) is None
    z5 = make_cyclic(5)
    assert uniformity(cd_construct(z5, validate_hyperset(z5, [[0]]))) == 1


def test_to_cayley_digraph_z5():
    z5 = make_cyclic(5)
    arcs = to_cayley_digraph(z5, validate_hyperset(z5, [[0, 1], [0, 2]]))
    assert arcs == frozenset(
        {(g, (g + 1) % 5) for g in range(5)} | {(g, (g + 2) % 5) for g in range(5)}
    )
    assert len(arcs) == 10


def test_to_cayley_digraph_complete_symmetric():
    z3 = make_cyclic(3)
    arcs = to_cayley_digraph(z3, validate_hyperset(z3, [[0, 1], [0, 2]]))
    assert arcs == frozenset((a, b) for a in range(3) for b in range(3) if a != b)


def test_to_cayley_digraph_single_swap():
    z2 = make_cyclic(2)
    arcs = to_cayley_digraph(z2, validate_hyperset(z2, [[0, 1]]))
    assert arcs == frozenset({(0, 1), (1, 0)})


def test_to_cayley_digraph_rejects_non_pairs(fano_group, fano_x):
    with pytest.raises(ValueError):
        to_cayley_digraph(fano_group, fano_x)


def test_isomorphic_to_itself(fano_cd):
    p = hypergraph_isomorphic(fano_cd, fano_cd)
    assert p is not None
    assert relabel(fano_cd, p) == fano_cd
    # the identity in particular is an automorphism
    assert relabel(fano_cd, tuple(range(7))) == fano_cd


def test_isomorphic_to_equivalent_seed(fano_cd):
    z7 = make_cyclic(7)
    other = cd_construct(z7, single_cayley_closure(z7, {0, 2, 6}))
    p = hypergraph_isomorphic(fano_cd, other)
    assert p is not None
    assert relabel(fano_cd, p) == other


def test_not_isomorphic_to_interval_seed(fano_cd):
    z7 = make_cyclic(7)
    other = cd_construct(z7, single_cayley_closure(z7, {0, 1, 2}))
    assert hypergraph_isomorphic(fano_cd, other) is None
    # the 5040-permutation scan agrees
    assert oracles.brute_hypergraph_isomorphism(7, fano_cd.arcs, other.arcs) is None


def test_isomorphic_short_circuits_size_mismatch(fano_cd):
    z6 = make_cyclic(6)
    other = cd_construct(z6, validate_hyperset(z6, [[0, 1, 3]]))
    assert hypergraph_isomorphic(fano_cd, other) is None


def test_isomorphism_first_map_is_pinned(fano_cd):
    # the search order is fixed (vertices in order, candidate images in
    # order), so the map returned is the first in that order, not any one
    p = (3, 6, 0, 5, 1, 4, 2)
    assert hypergraph_isomorphic(fano_cd, relabel(fano_cd, p)) == (0, 1, 2, 6, 5, 4, 3)
    d4 = next(g for g in CORPUS8 if g.name == "D4")
    a = cd_construct(d4, validate_hyperset(d4, [[0, 1, 6], [0, 3, 7], [0, 6, 7]]))
    b = cd_construct(d4, single_cayley_closure(d4, {0, 1, 7}))
    assert hypergraph_isomorphic(a, b) == (0, 1, 2, 3, 5, 6, 7, 4)


def test_dump_golden():
    z2 = make_cyclic(2)
    h = cd_construct(z2, validate_hyperset(z2, [[0, 1]]))
    assert dump_dihypergraph(h) == "dihypergraph 2\narc 0 : 0 1\narc 1 : 0 1\n"


def test_load_dump_round_trip(fano_cd):
    assert load_dihypergraph(dump_dihypergraph(fano_cd)) == fano_cd


def test_load_allows_vertex_outside_edge():
    h = load_dihypergraph("dihypergraph 3\narc 0 : 1 2\n")
    assert h.arcs == frozenset({(0, (1, 2))})


def test_load_rejects_bad_input():
    with pytest.raises(ValueError, match="dihypergraph"):
        load_dihypergraph("arc 0 : 1\n")
    with pytest.raises(ValueError):
        load_dihypergraph("dihypergraph 2\narc 0 :\n")
    # a second vertex before the colon, or a word after the count, is not
    # dropped but refused
    with pytest.raises(ValueError) as err:
        load_dihypergraph("dihypergraph 3\narc 0 1 : 2\n")
    assert str(err.value) == "bad arc line 'arc 0 1 : 2'"
    with pytest.raises(ValueError) as err:
        load_dihypergraph("dihypergraph 3 junk\n")
    assert str(err.value) == "bad vertex count in 'dihypergraph 3 junk'"


def test_is_connected_counts_joins_before_the_union_find():
    assert not is_connected(load_dihypergraph("dihypergraph 0\n"))
    assert is_connected(load_dihypergraph("dihypergraph 1\n"))
    assert is_connected(load_dihypergraph("dihypergraph 3\narc 0 : 0 1 2\n"))
    # enough room for the three merges four vertices need, yet 3 lies in no edge
    assert not is_connected(load_dihypergraph("dihypergraph 4\narc 0 : 0 1 2\narc 1 : 0 1\n"))


@pytest.mark.parametrize(
    "f, expected",
    [(is_connected, False), (dump_dihypergraph, "dihypergraph 2000000\narc 0 : 0 1\n")],
    ids=["is_connected", "dump_dihypergraph"],
)
def test_a_large_vertex_count_alone_costs_no_memory(f, expected):
    h = load_dihypergraph("dihypergraph 2000000\narc 0 : 0 1\n")
    tracemalloc.start()
    try:
        assert f(h) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@settings(max_examples=100, deadline=None)
@given(inst=instances())
def test_arc_count_is_order_times_members(inst):
    g, x = inst
    h = cd_construct(g, x)
    assert len(h.arcs) == g.order * len(x)
    assert h.vertex_count == g.order


@settings(max_examples=80, deadline=None)
@given(inst=instances())
def test_connected_iff_members_generate(inst):
    g, x = inst
    union = {s for m in x.members for s in m}
    assert is_connected(cd_construct(g, x)) == (
        subgroup_generated(g, union) == frozenset(g.elements())
    )


@settings(max_examples=80, deadline=None)
@given(inst=instances())
def test_undirected_iff_closed(inst):
    g, x = inst
    assert is_undirected(cd_construct(g, x)) == is_cayley_closed(g, x)


@settings(max_examples=60, deadline=None)
@given(inst=instances(), data=st.data())
def test_isomorphism_survives_relabeling(inst, data):
    g, x = inst
    h = cd_construct(g, x)
    p = tuple(data.draw(st.permutations(range(g.order))))
    other = relabel(h, p)
    q = hypergraph_isomorphic(h, other)
    assert q is not None
    assert relabel(h, q) == other


@settings(max_examples=60, deadline=None)
@given(inst=instances())
def test_dump_round_trips_and_is_stable(inst):
    g, x = inst
    h = cd_construct(g, x)
    text = dump_dihypergraph(h)
    assert load_dihypergraph(text) == h
    assert dump_dihypergraph(load_dihypergraph(text)) == text


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_isomorphic_iff_brute_force_on_random_pairs(data):
    n, arcs_a, text_a = data.draw(dihypergraph_texts())
    _, arcs_b, text_b = data.draw(dihypergraph_texts(n=n))
    a, b = load_dihypergraph(text_a), load_dihypergraph(text_b)
    q = hypergraph_isomorphic(a, b)
    assert (q is None) == (oracles.brute_hypergraph_isomorphism(n, arcs_a, arcs_b) is None)
    if q is not None:
        assert relabel(a, q) == b


@settings(max_examples=100, deadline=None)
@given(drawn=dihypergraph_texts(), data=st.data())
def test_isomorphic_finds_relabelled_random_copies(drawn, data):
    n, arcs, text = drawn
    h = load_dihypergraph(text)
    p = tuple(data.draw(st.permutations(range(n))))
    other = relabel(h, p)
    q = hypergraph_isomorphic(h, other)
    assert q is not None
    assert relabel(h, q) == other
    assert oracles.brute_hypergraph_isomorphism(n, arcs, other.arcs) is not None


def census_arc_sets(orders):
    """The distinct arc sets of the census instances of these orders with
    member size <= 3, the first of each in corpus order."""
    seen = {}
    for g in census_corpus(max(orders)):
        if g.order in orders:
            for x in census_hypersets(g, 3):
                h = cd_construct(g, x)
                seen.setdefault(h.arcs, h)
    return list(seen.values())


def test_isomorphic_agrees_with_vf2_on_order_8_census_pairs():
    # every pair that the arc count and the edge sizes do not tell apart
    arc_sets = census_arc_sets({8})
    assert len(arc_sets) == 34

    def sizes(h):
        return sorted(len(e) for _, e in h.arcs)

    pairs = [(a, b) for i, a in enumerate(arc_sets) for b in arc_sets[i + 1:] if sizes(a) == sizes(b)]
    assert len(pairs) == 217
    found = 0
    for a, b in pairs:
        q = hypergraph_isomorphic(a, b)
        assert (q is not None) == oracles.vf2_isomorphic(8, a.arcs, b.arcs)
        if q is not None:
            assert relabel(a, q) == b
            found += 1
    assert found == 83


def check_relabelled_census_arc_sets(orders, count):
    """Each distinct census arc set of these orders is found isomorphic to
    a seeded relabelling of itself, by a map that carries its arcs, and
    VF2 agrees."""
    rng = random.Random(2021)
    arc_sets = census_arc_sets(orders)
    assert len(arc_sets) == count
    for h in arc_sets:
        n = h.vertex_count
        p = list(range(n))
        rng.shuffle(p)
        other = relabel(h, p)
        q = hypergraph_isomorphic(h, other)
        assert q is not None
        assert relabel(h, q) == other
        assert oracles.vf2_isomorphic(n, h.arcs, other.arcs)


def test_isomorphic_finds_relabelled_census_arc_sets_of_order_9_and_10():
    check_relabelled_census_arc_sets({9, 10}, 74)


def test_isomorphic_finds_relabelled_census_arc_sets_of_order_11_and_12():
    check_relabelled_census_arc_sets({11, 12}, 111)


@settings(max_examples=300, deadline=None)
@given(drawn=dihypergraph_texts(), data=st.data())
def test_pair_codes_follow_a_relabelling(drawn, data):
    # the search prunes by these codes, so they must be a label of the
    # pair and not of the vertex indices: a relabelling moves them along
    n, _, text = drawn
    h = load_dihypergraph(text)
    p = data.draw(st.permutations(range(n)))
    before = _pair_codes(h)
    after = _pair_codes(relabel(h, p))
    assert all(after[p[u]][p[v]] == before[u][v] for u in range(n) for v in range(n))


def loaded_pair(rng):
    """(n, a, b): arcs on 2..5 vertices with edges of size 1 to 3, most
    of size 2 and some arc missing its vertex, and a seeded relabelling
    of them, half the time with one arc's edge swapped for another of
    its size."""
    n = rng.randint(2, 5)
    arcs = set()
    for _ in range(rng.randint(1, 8)):
        v = rng.randrange(n)
        arcs.add((v, tuple(sorted(rng.sample(range(n), min(n, rng.choice((1, 2, 2, 2, 3))))))))
    if all(v in e for v, e in arcs):
        v = rng.randrange(n)
        arcs.add((v, tuple(sorted(rng.sample([u for u in range(n) if u != v], 1)))))
    a = Dihypergraph(vertex_count=n, arcs=frozenset(arcs))
    p = list(range(n))
    rng.shuffle(p)
    b = set(relabel(a, p).arcs)
    if rng.random() < 0.5:
        v, e = rng.choice(sorted(b))
        b.remove((v, e))
        b.add((v, tuple(sorted(rng.sample(range(n), len(e))))))
    return n, a, Dihypergraph(vertex_count=n, arcs=frozenset(b))


def test_isomorphic_agrees_with_vf2_on_seeded_loaded_pairs():
    # arcs that miss their vertex make a size-2 arc more than one digit
    # of a pair code, so the search must still check it
    rng = random.Random(22)
    outcomes = {True: 0, False: 0}
    for _ in range(3000):
        n, a, b = loaded_pair(rng)
        q = hypergraph_isomorphic(a, b)
        assert (q is not None) == oracles.vf2_isomorphic(n, a.arcs, b.arcs)
        if q is not None:
            assert relabel(a, q) == b
        outcomes[q is not None] += 1
    assert min(outcomes.values()) > 500


def test_isomorphic_agrees_with_vf2_on_seeded_pairs_of_one_code_bucket():
    # on 4 vertices, the cases with five size-2 arcs fall into 1,826
    # classes, and their sorted pair-code keys into 1,809 buckets: in 17
    # buckets two classes agree on every code, and only the arc checks
    # tell them apart.  Seeded pairs from those buckets, VF2 the oracle
    possible = [(v, e) for v in range(4) for e in combinations(range(4), 2)]
    relabels = [{(v, e): (p[v], tuple(sorted(map(p.__getitem__, e)))) for v, e in possible}
                for p in permutations(range(4))]
    classes = {}
    for arcs in combinations(possible, 5):
        least = min(tuple(sorted(map(r.__getitem__, arcs))) for r in relabels)
        classes.setdefault(least, []).append(arcs)
    buckets = {}
    for cases in classes.values():
        codes = _pair_codes(Dihypergraph(4, frozenset(cases[0])))
        key = tuple(sorted((row[v], tuple(sorted(row))) for v, row in enumerate(codes)))
        buckets.setdefault(key, []).append(cases)
    shared = [b for b in buckets.values() if len(b) > 1]
    assert (len(classes), len(buckets), len(shared)) == (1826, 1809, 17)
    rng = random.Random(23)
    outcomes = {True: 0, False: 0}
    for bucket in shared:
        for _ in range(64):
            a, b = (Dihypergraph(4, frozenset(rng.choice(rng.choice(bucket)))) for _ in "ab")
            q = hypergraph_isomorphic(a, b)
            assert (q is not None) == oracles.vf2_isomorphic(4, a.arcs, b.arcs)
            if q is not None:
                assert relabel(a, q) == b
            outcomes[q is not None] += 1
    assert min(outcomes.values()) > 400


def test_isomorphic_checks_size_2_arcs_that_miss_their_vertex():
    # found by search: every arc has size 2 and (0, {2, 3}) misses its
    # vertex, so the pair codes do not decide the arcs.  They agree under
    # (0, 2, 3, 1), which carries (0, {0, 1}) off b's arcs, and a and b
    # are not isomorphic: a search that took the codes for the size-2
    # arc checks would answer (0, 2, 3, 1)
    a = Dihypergraph(4, frozenset([(0, (0, 1)), (0, (2, 3)), (1, (0, 3)), (1, (1, 2)), (2, (2, 3))]))
    b = Dihypergraph(4, frozenset([(0, (0, 1)), (0, (2, 3)), (2, (0, 2)), (2, (1, 3)), (3, (1, 3))]))
    assert not oracles.vf2_isomorphic(4, a.arcs, b.arcs)
    assert hypergraph_isomorphic(a, b) is None

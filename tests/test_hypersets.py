"""Hypersets: validation, translate closure, equivalence, preserving maps."""

from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

import cdhg.groups
import oracles
from cdhg import (
    CutoffExceeded,
    are_cayley_equivalent,
    aut_g_x,
    cayley_closure,
    cayley_equivalence_classes,
    census_corpus,
    ch_construct,
    direct_product,
    group_automorphisms,
    inn_g_x,
    inner_automorphisms,
    is_cayley_closed,
    is_subgroup,
    load_hyperset,
    make_cyclic,
    make_dihedral,
    non_cayley_equivalent_representatives,
    right_translate,
    single_cayley_closure,
    validate_hyperset,
)
from conftest import FANO_MEMBERS, refused_at_least

CORPUS8 = census_corpus(8)


@st.composite
def instances(draw, max_members=3, max_size=3):
    """A census-scale (group, hyperset) pair."""
    g = draw(st.sampled_from(CORPUS8))
    raw = []
    for _ in range(draw(st.integers(1, max_members))):
        extra = draw(st.sets(st.integers(0, g.order - 1), max_size=max_size - 1))
        raw.append({0} | extra)
    return g, validate_hyperset(g, raw)


def test_validate_fano():
    x = validate_hyperset(make_cyclic(7), FANO_MEMBERS)
    assert len(x) == 3
    assert x.members == ((0, 1, 3), (0, 2, 6), (0, 4, 5))


def test_validate_rejects_member_without_identity():
    with pytest.raises(ValueError, match="does not contain the identity 0"):
        validate_hyperset(make_cyclic(5), [[1, 2]])


def test_validate_rejects_empty_member():
    with pytest.raises(ValueError, match="empty member"):
        validate_hyperset(make_cyclic(5), [[]])


def test_validate_rejects_out_of_range():
    with pytest.raises(ValueError):
        validate_hyperset(make_cyclic(5), [[0, 5]])


def test_validate_deduplicates():
    x = validate_hyperset(make_cyclic(5), [[0, 1], [1, 0], [0, 1]])
    assert x.members == ((0, 1),)


def test_load_hyperset():
    text = "# the running example\n0 1 3\n0 4 5\n\n0 2 6  # third member\n"
    x = load_hyperset(text, make_cyclic(7))
    assert x == validate_hyperset(make_cyclic(7), FANO_MEMBERS)


def test_load_hyperset_rejects_non_integers():
    with pytest.raises(ValueError, match="line 2"):
        load_hyperset("0 1\n0 x\n", make_cyclic(5))


def test_right_translate():
    z7 = make_cyclic(7)
    assert right_translate(z7, (0, 1, 3), 2) == (2, 3, 5)
    assert right_translate(z7, (0, 1, 3), 0) == (0, 1, 3)


def test_single_closure_of_fano_seed():
    x = single_cayley_closure(make_cyclic(7), {0, 1, 3})
    assert x.members == ((0, 1, 3), (0, 2, 6), (0, 4, 5))


def test_single_closure_of_identity_singleton():
    x = single_cayley_closure(make_cyclic(5), {0})
    assert x.members == ((0,),)


def test_single_closure_of_subgroup_is_itself():
    x = single_cayley_closure(make_cyclic(6), {0, 3})
    assert x.members == ((0, 3),)


def test_single_closure_of_interval_seed():
    x = single_cayley_closure(make_cyclic(7), {0, 1, 2})
    assert x.members == ((0, 1, 2), (0, 1, 6), (0, 5, 6))


def test_equivalent_seeds_share_a_closure():
    z7 = make_cyclic(7)
    assert single_cayley_closure(z7, {0, 2, 6}) == single_cayley_closure(z7, {0, 1, 3})


def test_is_cayley_closed():
    z7 = make_cyclic(7)
    z5 = make_cyclic(5)
    assert is_cayley_closed(z7, validate_hyperset(z7, FANO_MEMBERS))
    assert not is_cayley_closed(z5, validate_hyperset(z5, [[0, 1]]))
    z6 = make_cyclic(6)
    assert is_cayley_closed(z6, validate_hyperset(z6, [[0, 3], [0, 2, 4]]))


def test_are_cayley_equivalent_examples():
    z7 = make_cyclic(7)
    assert are_cayley_equivalent(z7, {0, 1, 3}, {0, 2, 6})
    assert are_cayley_equivalent(z7, {0, 1, 3}, {0, 1, 3})
    assert not are_cayley_equivalent(z7, {0, 1, 3}, {0, 1, 2})


def test_equivalence_classes_fano():
    z7 = make_cyclic(7)
    x = validate_hyperset(z7, FANO_MEMBERS)
    classes = cayley_equivalence_classes(z7, x)
    assert len(classes) == 1
    assert set(classes[0]) == set(x.members)


def test_equivalence_classes_mixed_sizes():
    z6 = make_cyclic(6)
    x = validate_hyperset(z6, [[0, 3], [0, 2, 4]])
    classes = cayley_equivalence_classes(z6, x)
    assert len(classes) == 2


def test_representatives_fano():
    z7 = make_cyclic(7)
    x = validate_hyperset(z7, FANO_MEMBERS)
    y = non_cayley_equivalent_representatives(z7, x)
    assert y.members == ((0, 1, 3),)


def test_representatives_keep_inequivalent_members():
    z6 = make_cyclic(6)
    x = validate_hyperset(z6, [[0, 3], [0, 2, 4]])
    y = non_cayley_equivalent_representatives(z6, x)
    assert y.members == ((0, 2, 4), (0, 3))


def test_representatives_of_singleton():
    z5 = make_cyclic(5)
    x = validate_hyperset(z5, [[0]])
    assert non_cayley_equivalent_representatives(z5, x).members == ((0,),)


def test_aut_g_x_fano():
    z7 = make_cyclic(7)
    x = validate_hyperset(z7, FANO_MEMBERS)
    preserving = aut_g_x(z7, x)
    assert len(preserving) == 3
    doubling = tuple(2 * i % 7 for i in range(7))
    assert doubling in {a.images for a in preserving}


def test_aut_g_x_of_all_pairs_is_everything():
    z5 = make_cyclic(5)
    x = validate_hyperset(z5, [[0, s] for s in range(1, 5)])
    assert set(aut_g_x(z5, x)) == set(group_automorphisms(z5))


@cache
def brute_automorphisms(table):
    return oracles.brute_group_automorphisms(table)


@settings(max_examples=150, deadline=None)
@given(inst=instances())
def test_aut_g_x_matches_the_brute_force_oracle(inst):
    g, x = inst
    members = x.member_set()
    want = [
        p for p in brute_automorphisms(g.table)
        if all(tuple(sorted(p[s] for s in m)) in members for m in x.members)
    ]
    assert [a.images for a in aut_g_x(g, x)] == want


def count_closures(monkeypatch):
    """The generator tuples of every _close_partial_map call, in order."""
    calls = []
    original = cdhg.groups._close_partial_map

    def counted(g, gens, images):
        calls.append(tuple(gens))
        return original(g, gens, images)

    monkeypatch.setattr(cdhg.groups, "_close_partial_map", counted)
    return calls


def test_aut_g_x_prunes_the_search_by_the_hyperset(monkeypatch):
    calls = count_closures(monkeypatch)
    d19 = make_dihedral(19)
    x = single_cayley_closure(d19, {0, 5})
    # the two rotations 5 and 5^-1 may map to each other, each flip anywhere
    assert len(aut_g_x(d19, x)) == 38
    # the base is 5 and the flip 19; one closure finds the map sending 19
    # to 20, whose powers carry 19 to every flip, and two find one sending
    # 5 to 5^-1 = 14.  Listing every map made 40 closures, and listing
    # Aut(D19) and filtering it 360
    assert len(calls) <= 3


@pytest.mark.parametrize("g", CORPUS8, ids=lambda g: g.name)
def test_group_automorphisms_search_over_the_validation_generators(g, monkeypatch):
    calls = count_closures(monkeypatch)
    auts = group_automorphisms(g)
    assert all(gens == g.generators[: len(gens)] for gens in calls)
    # a map other than the identity is found by a closure over g
    assert (g.generators in calls) == (len(auts) > 1)


@pytest.mark.parametrize(
    "rank, order, bound",
    [(5, 9999360, 237), (6, 20158709760, 733), (7, 163849992929280, 2109)],
)
def test_group_automorphisms_of_z2_n_are_refused_after_few_closures(monkeypatch, rank, order, bound):
    # a lower bound on |GL(n,2)| is read off the stabiliser chain's levels
    # built so far; listing Aut(Z2^5) up to the cap made 101,069 closures
    g = make_cyclic(2)
    for _ in range(rank - 1):
        g = direct_product(g, make_cyclic(2))
    calls = count_closures(monkeypatch)
    with pytest.raises(CutoffExceeded) as refused:
        group_automorphisms(g)
    assert 50000 < refused_at_least(refused.value) <= order
    assert len(calls) <= bound


def test_aut_g_x_counts_only_the_preserving_automorphisms_against_the_cap():
    z2 = make_cyclic(2)
    z2_5 = direct_product(direct_product(direct_product(direct_product(z2, z2), z2), z2), z2)
    # |GL(5,2)| = 9,999,360 is over the cap, but a flag of members of
    # distinct sizes fixes each basis vector 1, 2, 4, 8, 16
    flag = validate_hyperset(z2_5, [[0, 1], [0, 1, 2], [0, 1, 2, 4], [0, 1, 2, 4, 8], [0, 1, 2, 4, 8, 16]])
    assert [a.images for a in aut_g_x(z2_5, flag)] == [tuple(range(32))]
    # X = {{0, 1}} is still refused: 322,560 automorphisms fix the element
    # 1 (tests/test_cli.py, test_analyze_refuses_group_automorphisms_over_cap)


def test_aut_g_x_asks_the_chain_only_for_label_candidates(monkeypatch):
    # an element's label, its order and the sorted sizes of the members
    # holding it, is kept by every automorphism preserving x, so the
    # chain asks for no image with a label other than the base point's
    asked = []
    chain = cdhg.groups._stabiliser_chain

    def spied(n, base, first, *rest):
        def spy(k, w):
            asked.append((base[k], w))
            return first(k, w)

        return chain(n, base, spy, *rest)

    monkeypatch.setattr(cdhg.groups, "_stabiliser_chain", spied)
    d19 = make_dihedral(19)
    z2 = make_cyclic(2)
    z2_5 = direct_product(direct_product(direct_product(direct_product(z2, z2), z2), z2), z2)
    flag = [[0, 1], [0, 1, 2], [0, 1, 2, 4], [0, 1, 2, 4, 8], [0, 1, 2, 4, 8, 16]]
    for g, x, count in (
        (d19, single_cayley_closure(d19, {0, 5}), 38),
        (z2_5, validate_hyperset(z2_5, flag), 1),
    ):
        asked.clear()
        assert len(aut_g_x(g, x)) == count

        def label(a):
            power, order = a, 1
            while power:
                power, order = g.mul(power, a), order + 1
            return order, sorted(len(m) for m in x.members if a in m)

        assert all(label(b) == label(w) for b, w in asked)


def test_inn_g_x_abelian_is_trivial():
    z7 = make_cyclic(7)
    x = validate_hyperset(z7, FANO_MEMBERS)
    assert len(inn_g_x(z7, x)) == 1


def test_inn_g_x_dihedral():
    d3 = make_dihedral(3)
    rotations = validate_hyperset(d3, [[0, 1, 2]])
    assert len(inn_g_x(d3, rotations)) == 6
    one_flip = validate_hyperset(d3, [[0, 3]])
    assert len(inn_g_x(d3, one_flip)) == 2


@settings(max_examples=100, deadline=None)
@given(inst=instances())
def test_closure_contains_and_is_idempotent(inst):
    g, x = inst
    closed = cayley_closure(g, x)
    assert set(x.members) <= set(closed.members)
    assert cayley_closure(g, closed) == closed
    assert is_cayley_closed(g, closed)


@settings(max_examples=100, deadline=None)
@given(inst=instances(max_members=1))
def test_single_closure_matches_family_closure(inst):
    g, x = inst
    single = single_cayley_closure(g, x.members[0])
    assert single == cayley_closure(g, x)
    assert is_cayley_closed(g, single)
    # oracle recomputes the translate set straight from the definition
    assert set(single.members) == oracles.brute_single_closure(g.table, x.members[0])


@settings(max_examples=100, deadline=None)
@given(inst=instances())
def test_representatives_satisfy_their_contract(inst):
    g, x = inst
    classes = cayley_equivalence_classes(g, x)
    y = non_cayley_equivalent_representatives(g, x)
    # one representative per class, each the least member of its class
    assert len(y.members) == len(classes)
    for rep, cls in zip(y.members, classes):
        assert rep == min(cls)
    for i, a in enumerate(y.members):
        for b in y.members[i + 1:]:
            assert not are_cayley_equivalent(g, a, b)
    assert cayley_closure(g, y) == cayley_closure(g, x)


@st.composite
def hypersets_with_translates(draw):
    """A census-scale group and a hyperset that need not be closed: random
    identity-containing subsets, each joined by some of its own translates
    a*s^-1 (s in a), read straight off the table."""
    g = draw(st.sampled_from(CORPUS8))
    inv = oracles.table_inverses(g.table)
    raw = []
    for _ in range(draw(st.integers(1, 4))):
        a = sorted({0} | draw(st.sets(st.integers(0, g.order - 1), max_size=3)))
        raw.append(a)
        for s in draw(st.sets(st.sampled_from(a), max_size=2)):
            raw.append([g.table[t][inv[s]] for t in a])
    return g, validate_hyperset(g, raw)


@settings(max_examples=200, deadline=None)
@given(inst=hypersets_with_translates())
def test_classes_match_the_pairwise_oracle(inst):
    g, x = inst
    classes = oracles.brute_cayley_classes(g.table, x.members)
    assert list(cayley_equivalence_classes(g, x)) == classes
    # ch_construct refuses the first equivalent pair in member order
    pairs = [
        (a, b)
        for i, a in enumerate(x.members)
        for b in x.members[i + 1:]
        if b in oracles.brute_single_closure(g.table, a)
    ]
    if pairs:
        a, b = pairs[0]
        with pytest.raises(ValueError) as err:
            ch_construct(g, x)
        assert str(err.value).startswith(f"members {a} and {b} are Cayley equivalent")
    else:
        assert ch_construct(g, x).edges == {
            tuple(sorted(g.table[t][h] for t in m)) for m in x.members for h in g.elements()
        }


@settings(max_examples=100, deadline=None)
@given(inst=instances(max_members=2))
def test_equivalence_agrees_with_translate_classes(inst):
    g, x = inst
    a = x.members[0]
    b = x.members[-1]
    assert are_cayley_equivalent(g, a, b) == (
        tuple(b) in oracles.brute_single_closure(g.table, a)
    )
    assert are_cayley_equivalent(g, a, a)
    assert are_cayley_equivalent(g, a, b) == are_cayley_equivalent(g, b, a)


@settings(max_examples=60, deadline=None)
@given(inst=instances())
def test_preserving_automorphisms_form_subgroups(inst):
    g, x = inst
    outer = {a.images for a in aut_g_x(g, x)}
    inner = {a.images for a in inn_g_x(g, x)}
    assert inner <= outer
    assert outer <= {a.images for a in group_automorphisms(g)}
    assert inner <= {a.images for a in inner_automorphisms(g)}
    assert tuple(g.elements()) in outer
    for a in outer:
        for b in outer:
            assert tuple(b[v] for v in a) in outer


def test_members_must_be_subgroup_closed_when_subgroups():
    # subgroup members are fixed by their own translates
    z6 = make_cyclic(6)
    for members in ([[0, 3]], [[0, 2, 4]], [[0, 3], [0, 2, 4]]):
        x = validate_hyperset(z6, members)
        assert all(is_subgroup(z6, m) for m in x.members)
        assert is_cayley_closed(z6, x)

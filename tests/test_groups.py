"""Group construction, validation, subgroups, and automorphisms."""

import re

import pytest
from hypothesis import given, settings, strategies as st

import cdhg
import oracles
from cdhg import (
    CutoffExceeded,
    FiniteGroup,
    Permutation,
    census_corpus,
    direct_product,
    element_order,
    group_automorphisms,
    inner_automorphisms,
    is_subgroup,
    load_group,
    make_cyclic,
    make_dihedral,
    serialize_group,
    subgroup_generated,
    subgroup_index,
)
from conftest import refused_at_least

# order-6 dihedral table with rotations at 0..2, flips at 3..5; checked
# against the flip*rot^k normal form by hand before freezing
D3_TABLE = (
    (0, 1, 2, 3, 4, 5),
    (1, 2, 0, 4, 5, 3),
    (2, 0, 1, 5, 3, 4),
    (3, 5, 4, 0, 2, 1),
    (4, 3, 5, 1, 0, 2),
    (5, 4, 3, 2, 1, 0),
)

# Latin square with identity 0 that breaks associativity at (1,1,2)
LOOP5_TABLE = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]

CORPUS8 = census_corpus(8)
CORPUS12 = census_corpus(12)
CORPUS6 = [g for g in CORPUS8 if g.order <= 6]


@st.composite
def bordered_tables(draw):
    """Identity-bordered tables of order n <= 6: either a random interior,
    or a corpus group relabelled by a permutation fixing 0 with up to two
    interior entries redrawn, so groups and near-groups both occur."""
    if draw(st.booleans()):
        g = draw(st.sampled_from(CORPUS6))
        n = g.order
        p = [0, *draw(st.permutations(range(1, n)))]
        table = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                table[p[i]][p[j]] = p[g.table[i][j]]
        if n > 1:
            for _ in range(draw(st.integers(0, 2))):
                i, j = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
                table[i][j] = draw(st.integers(0, n - 1))
        return table
    n = draw(st.integers(1, 6))
    inner = st.lists(st.integers(0, n - 1), min_size=n - 1, max_size=n - 1)
    return [list(range(n))] + [[i, *draw(inner)] for i in range(1, n)]


def is_abelian(g):
    return all(g.mul(a, b) == g.mul(b, a) for a in g.elements() for b in g.elements())


def test_make_cyclic_products():
    z7 = make_cyclic(7)
    assert z7.order == 7
    assert z7.table[1][3] == 4
    assert z7.mul(5, 4) == 2


def test_make_cyclic_inverse():
    z4 = make_cyclic(4)
    assert z4.inv(1) == 3
    assert z4.inv(0) == 0


def test_make_cyclic_trivial():
    z1 = make_cyclic(1)
    assert z1.order == 1
    assert z1.identity == 0
    assert z1.table == ((0,),)


def test_make_cyclic_rejects_nonpositive():
    with pytest.raises(ValueError):
        make_cyclic(0)


def test_make_dihedral_order_6_is_nonabelian():
    d3 = make_dihedral(3)
    assert d3.order == 6
    assert not is_abelian(d3)
    assert d3.table == D3_TABLE


def test_make_dihedral_order_4_is_abelian():
    d2 = make_dihedral(2)
    assert d2.order == 4
    assert is_abelian(d2)


def test_direct_product_z2_z3():
    g = direct_product(make_cyclic(2), make_cyclic(3))
    assert g.order == 6
    assert g.name == "Z2xZ3"
    assert is_abelian(g)
    assert max(element_order(g, a) for a in g.elements()) == 6


def test_from_table_rejects_missing_identity():
    with pytest.raises(ValueError, match="no identity element"):
        FiniteGroup.from_table("bad", [[1, 1], [1, 1]])


def test_from_table_hints_at_renumbering():
    # 1 is a two-sided identity, 0 is not
    with pytest.raises(ValueError, match="identity is element 1.*renumber"):
        FiniteGroup.from_table("swapped", [[1, 0], [0, 1]])


def test_from_table_rejects_missing_inverse():
    with pytest.raises(ValueError, match="no inverse for element 1"):
        FiniteGroup.from_table("monoid", [[0, 1], [1, 1]])


def test_from_table_rejects_nonassociative_latin_square():
    with pytest.raises(ValueError, match=r"associativity fails at \(1,1,2\)"):
        FiniteGroup.from_table("loop", LOOP5_TABLE)


def assert_validates_like_oracle(table):
    """from_table accepts exactly the groups, and a named associativity
    failure is a real one."""
    want = oracles.brute_is_group(table)
    try:
        g = FiniteGroup.from_table("t", table)
    except ValueError as exc:
        assert not want, str(exc)
        named = re.match(r"associativity fails at \((\d+),(\d+),(\d+)\)", str(exc))
        if named:
            x, a, y = map(int, named.groups())
            assert table[table[x][a]][y] != table[x][table[a][y]]
    else:
        assert want
        assert list(g.inverse) == oracles.table_inverses(table)
    return want


@settings(max_examples=400, deadline=None)
@given(table=bordered_tables())
def test_from_table_accepts_exactly_the_groups(table):
    assert_validates_like_oracle(table)


def test_from_table_checks_generators_after_the_first():
    # Z3 x Z2 with (q,b)(r,c) = (q+r, b+c+f(q,r)) at index 2q+b, over the
    # 16 f: Z3 x Z3 -> Z2 vanishing on 0.  Element 1 = (0,1) associates
    # in the middle for every f, so the first generator always passes and
    # the 12 non-associative tables must be refused at a later one
    refused = 0
    for bits in range(16):
        f = [[0, 0, 0], [0, bits & 1, bits >> 1 & 1], [0, bits >> 2 & 1, bits >> 3 & 1]]
        table = [
            [2 * ((q + r) % 3) + (b + c + f[q][r]) % 2 for r in range(3) for c in range(2)]
            for q in range(3)
            for b in range(2)
        ]
        refused += not assert_validates_like_oracle(table)
    assert refused == 12


def test_from_table_rejects_identity_adjoined_null_semigroup():
    # associative, with every product of two non-identity elements equal
    # to 1: the associativity test alone would check n-2 generators, so
    # the inverse check must come first and refuse it
    n = 256
    table = [list(range(n))] + [[i] + [1] * (n - 1) for i in range(1, n)]
    with pytest.raises(ValueError, match="no inverse for element 1"):
        FiniteGroup.from_table("null", table)


def test_from_table_rejects_ragged_rows():
    with pytest.raises(ValueError, match="row 1 has 1 entries"):
        FiniteGroup.from_table("ragged", [[0, 1], [1]])


def test_from_table_rejects_out_of_range_entries():
    with pytest.raises(ValueError, match="out of range"):
        FiniteGroup.from_table("oob", [[0, 1], [1, 2]])


# each _validate_table refusal, in order of precedence: a table breaking
# two axioms gets the message of the one checked first
VALIDATE_CASES = [
    ([], ValueError, "empty table: a group has at least the identity"),
    ([[0, 1], [1]], ValueError, "row 1 has 1 entries, expected 2"),
    ([[0, 5], [1]], ValueError, "entry table[0][1] = 5 is out of range 0..1"),
    ([[0, 1, 2], [1, 2], [2, 0, 9]], ValueError, "row 1 has 2 entries, expected 3"),
    ([[0, 1, 2], [1, 7, -1], [2, 0, 1]], ValueError, "entry table[1][1] = 7 is out of range 0..2"),
    ([[0, 1], [1, -1]], ValueError, "entry table[1][1] = -1 is out of range 0..1"),
    ([[1, 1], [1, 2]], ValueError, "entry table[1][1] = 2 is out of range 0..1"),
    # entries outside 0..n-1 that are not integers
    ([[0, 1], [1, 1.5]], ValueError, "entry table[1][1] = 1.5 is out of range 0..1"),
    ([[0, 1], [1, "a"]], ValueError, "entry table[1][1] = a is out of range 0..1"),
    ([[1, 0], [0, 1]], ValueError, "identity is element 1, not 0; renumber the elements so the identity has index 0"),
    ([[1, 1], [1, 1]], ValueError, "no identity element: index 0 is not a two-sided identity"),
    ([[0, 1, 2], [1, 1, 1], [2, 2, 2]], ValueError, "no inverse for element 1"),
    ([[0, 1, 2, 3], [1, 0, 1, 1], [2, 1, 1, 1], [3, 1, 1, 1]], ValueError, "no inverse for element 2"),
    (LOOP5_TABLE, ValueError, "associativity fails at (1,1,2): (1*1)*2 = 2 but 1*(1*2) = 4"),
    # 1.0 == 1 passes every check before associativity, where it is used
    # as an index
    ([[0, 1.0], [1.0, 0]], TypeError, None),
]


@pytest.mark.parametrize("table, error, message", VALIDATE_CASES)
def test_from_table_refusals_in_order_of_precedence(table, error, message):
    with pytest.raises(error) as refused:
        FiniteGroup.from_table("t", table)
    assert refused.type is error
    if message is not None:
        assert str(refused.value) == message


def test_load_group_round_trip():
    for g in CORPUS8:
        assert load_group(serialize_group(g)) == g


def test_load_group_tolerates_comments_and_blanks():
    text = "# cyclic of order 2\ngroup Z2\n\norder 2  # two elements\ntable\n0 1\n1 0\n"
    g = load_group(text)
    assert g == make_cyclic(2)


def test_load_group_rejects_short_files():
    with pytest.raises(ValueError, match="too short"):
        load_group("group Z2\norder 2\n")


def test_load_group_rejects_wrong_row_count():
    with pytest.raises(ValueError, match="expected 2 table rows"):
        load_group("group Z2\norder 2\ntable\n0 1\n")


def test_subgroup_generated_full_group():
    z7 = make_cyclic(7)
    assert subgroup_generated(z7, {1, 3}) == frozenset(range(7))


def test_subgroup_generated_empty_seed():
    z7 = make_cyclic(7)
    assert subgroup_generated(z7, set()) == frozenset({0})


def test_subgroup_generated_proper():
    z4 = make_cyclic(4)
    assert subgroup_generated(z4, {2}) == frozenset({0, 2})


def test_is_subgroup():
    z6 = make_cyclic(6)
    z7 = make_cyclic(7)
    assert is_subgroup(z6, {0, 3})
    assert not is_subgroup(z7, {0, 1, 3})
    assert is_subgroup(z6, {0, 2, 4})


def test_subgroup_index():
    z6 = make_cyclic(6)
    assert subgroup_index(z6, {0, 3}) == 3
    assert subgroup_index(z6, {0, 2, 4}) == 2
    assert subgroup_index(z6, range(6)) == 1


def test_subgroup_index_rejects_non_subgroup():
    with pytest.raises(ValueError):
        subgroup_index(make_cyclic(6), {0, 1})


def test_refusals_of_empty_tables_and_sets():
    with pytest.raises(ValueError, match="empty table: a group has at least the identity"):
        FiniteGroup.from_table("empty", [])
    with pytest.raises(ValueError, match="dihedral parameter must be positive, got 0"):
        make_dihedral(0)
    z6 = make_cyclic(6)
    for s in (set(), {0, 6}, {0, -1}):
        assert not is_subgroup(z6, s)
        with pytest.raises(ValueError, match="not a subgroup of the given group"):
            subgroup_index(z6, s)


def test_subgroup_generated_refuses_a_seed_out_of_range():
    z6 = make_cyclic(6)
    for s in (6, -1):
        with pytest.raises(ValueError, match=rf"seed element {s} is out of range 0..5"):
            subgroup_generated(z6, {1, s})


def test_generators_match_the_greedy_oracle():
    for g in census_corpus(10):
        table = [list(row) for row in g.table]
        gens = g.generators
        assert gens == oracles.greedy_generators(table), g.name
        for k, a in enumerate(gens):
            assert a not in oracles.close_subset(table, gens[:k]), (g.name, a)
        assert oracles.close_subset(table, gens) == frozenset(g.elements()), g.name


def test_element_order_identity():
    assert element_order(make_cyclic(5), 0) == 1
    assert element_order(make_cyclic(5), 1) == 5
    assert element_order(make_dihedral(3), 3) == 2


def test_group_automorphisms_cyclic_7():
    assert len(group_automorphisms(make_cyclic(7))) == 6


def test_group_automorphisms_cyclic_2():
    assert len(group_automorphisms(make_cyclic(2))) == 1


def test_group_automorphisms_klein_four():
    klein = direct_product(make_cyclic(2), make_cyclic(2))
    assert len(group_automorphisms(klein)) == 6


def test_group_automorphisms_are_vertex_permutations():
    # one permutation type: perms re-exports groups.Permutation, so a
    # group automorphism is a vertex permutation of CD(G, X) as it stands
    assert cdhg.groups.Permutation is cdhg.perms.Permutation is Permutation
    d4 = make_dihedral(4)
    assert all(type(a) is Permutation and a.degree == 8 for a in group_automorphisms(d4))
    assert all(type(a) is Permutation for a in inner_automorphisms(d4))


@pytest.mark.parametrize("g", CORPUS8, ids=lambda g: g.name)
def test_group_automorphisms_match_brute_force(g):
    got = {a.images for a in group_automorphisms(g)}
    want = set(oracles.brute_group_automorphisms(g.table))
    assert got == want


@pytest.mark.parametrize("g", CORPUS8, ids=lambda g: g.name)
def test_group_automorphisms_closed_under_composition(g):
    auts = group_automorphisms(g)
    maps = {a.images for a in auts}
    for a in auts:
        # homomorphism property at every pair of elements
        assert all(
            a(g.mul(i, j)) == g.mul(a(i), a(j))
            for i in g.elements()
            for j in g.elements()
        )
        assert tuple(g.inverse[a(g.inv(i))] for i in g.elements()) == a.images
    for a in auts:
        for b in auts:
            assert tuple(b(a(i)) for i in g.elements()) in maps


def test_group_automorphisms_refuses_large_orders():
    # the group's order does not refuse it: Z41 has phi(41) = 40
    assert len(group_automorphisms(make_cyclic(41))) == 40
    # |GL(5,2)| = 9,999,360 is refused from the chain's levels built so
    # far, before any is listed
    z2 = make_cyclic(2)
    g = direct_product(direct_product(direct_product(direct_product(z2, z2), z2), z2), z2)
    with pytest.raises(CutoffExceeded) as refused:
        group_automorphisms(g)
    assert 50000 < refused_at_least(refused.value) <= 9999360


# The build benchmark's group shapes of order 41 to 64, which the search
# used to refuse by their order alone
BUILD_SHAPES_41_64 = [
    *(f"Z{n}" for n in range(41, 65)),
    *(f"D{n}" for n in range(21, 33)),
    *(f"Z{a}xZ{b}" for a in range(2, 33) for b in range(a, 33) if 41 <= a * b <= 64),
]


def test_abelian_aut_order_oracle_matches_brute_force():
    for g in CORPUS8:
        if re.fullmatch(r"Z\d+(xZ\d+)*", g.name):
            orders = [int(f) for f in g.name[1:].split("xZ")]
            want = len(oracles.brute_group_automorphisms([list(row) for row in g.table]))
            assert oracles.abelian_aut_order(orders) == want, g.name
    assert all(oracles.abelian_aut_order([n]) == oracles.totient(n) for n in range(1, 65))


@pytest.mark.parametrize("name", BUILD_SHAPES_41_64)
def test_group_automorphisms_count_by_identities_over_order_40(name):
    # |Aut(Z_n)| = phi(n), |Aut(D_n)| = n phi(n) for n >= 3, and the
    # products of two cyclic groups by the Hillar-Rhea formula
    if name.startswith("D"):
        n = int(name[1:])
        g, want = make_dihedral(n), n * oracles.totient(n)
    else:
        orders = [int(f) for f in name[1:].split("xZ")]
        g = make_cyclic(orders[0])
        for m in orders[1:]:
            g = direct_product(g, make_cyclic(m))
        want = oracles.totient(orders[0]) if len(orders) == 1 else oracles.abelian_aut_order(orders)
    assert 41 <= g.order <= 64
    assert len(group_automorphisms(g)) == want


def test_group_automorphisms_of_z2_4_stay_under_the_count_cap():
    z2 = make_cyclic(2)
    g = direct_product(direct_product(direct_product(z2, z2), z2), z2)
    # |GL(4,2)|
    assert len(group_automorphisms(g)) == 20160


def test_inner_automorphisms_abelian_trivial():
    assert len(inner_automorphisms(make_cyclic(7))) == 1
    assert len(inner_automorphisms(direct_product(make_cyclic(2), make_cyclic(3)))) == 1


def test_inner_automorphisms_dihedral_6():
    assert len(inner_automorphisms(make_dihedral(3))) == 6


@pytest.mark.parametrize("g", CORPUS8, ids=lambda g: g.name)
def test_inner_automorphism_count_is_order_over_center(g):
    center = oracles.brute_center(g.table)
    assert len(inner_automorphisms(g)) == g.order // len(center)
    inner = {a.images for a in inner_automorphisms(g)}
    assert inner <= {a.images for a in group_automorphisms(g)}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_subgroup_generated_is_minimal(data):
    g = data.draw(st.sampled_from(CORPUS12))
    seed = data.draw(st.sets(st.integers(0, g.order - 1), max_size=3))
    h = subgroup_generated(g, seed)
    assert is_subgroup(g, h)
    assert set(seed) <= h
    # no strictly smaller subgroup contains the seed
    for s in oracles.all_subgroups_up_to(g.table, g.order):
        if set(seed) <= s:
            assert h <= s

"""Non-canonical and hostile text for load_group, load_dihypergraph,
load_hyperset and the command line that reads them.

Each text is drawn with its expected result known by construction: any
accepted spelling of an index (+1, 01, -0), with comments, blank lines
and extra whitespace around it, loads to the value its canonical text
gives; one hostile token (not an integer, negative, or out of range,
or for a hyperset a member without 0) gives the message pinned below
for it.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cdhg import (
    Dihypergraph,
    FiniteGroup,
    cd_construct,
    census_corpus,
    dump_dihypergraph,
    load_dihypergraph,
    load_group,
    load_hyperset,
    serialize_group,
    validate_hyperset,
)
from cdhg.cli import main
from conftest import dihypergraph_texts

CORPUS8 = census_corpus(8)
CORPUS10 = census_corpus(10)

GAPS = st.sampled_from([" ", "  ", "\t", " \t "])
PADS = st.sampled_from(["", " ", "\t"])
COLONS = st.sampled_from([" : ", ":", " :", ": ", " \t: "])
NOISE = st.sampled_from(["", "   ", "# a comment", "  # indented 1 2 3"])
NON_INTEGERS = st.sampled_from(["x", "1.0", "1e3", "0x1", "--1", "1-", "one"])


def spellings(v):
    """The ways of writing the integer v that int() reads as v."""
    return st.sampled_from([str(v), f"+{v}", f"0{v}", f"00{v}", *(["-0"] if v == 0 else [])])


def canonical(v):
    return st.just(str(v))


def hostile(n):
    """(token, value): a token that is no index below n, with the integer
    it spells, or None when it spells none."""
    return st.one_of(
        NON_INTEGERS.map(lambda t: (t, None)),
        st.integers(-5, -1).map(lambda v: (str(v), v)),
        # canonical out of range, which a lookup that ignores n would take
        st.integers(n, n + 5).map(lambda v: (str(v), v)),
        st.integers(n, n + 5).flatmap(lambda v: spellings(v).map(lambda t: (t, v))),
    )


def joined(draw, tokens):
    """The tokens separated by drawn whitespace."""
    return "".join(t + draw(GAPS) for t in tokens[:-1]) + tokens[-1]


def noisy_lines(draw, bodies):
    """The text of the line bodies, each padded and perhaps commented,
    with comment-only and blank lines drawn between them, and the line
    number of each body."""
    out, at = [], []
    for body in bodies:
        out.extend(draw(st.lists(NOISE, max_size=1)))
        line = draw(PADS) + body + draw(PADS)
        out.append(line + draw(st.sampled_from(["", " # note", "#x 1 2"])))
        at.append(len(out))
    return "\n".join(out) + draw(st.sampled_from(["\n", "", "\n\n# end\n"])), at


def noisy(draw, bodies):
    return noisy_lines(draw, bodies)[0]


@st.composite
def group_texts(draw):
    """(group, text, message): message is None when the text is a
    spelling of the group, else the ValueError the text must raise."""
    g = draw(st.sampled_from(CORPUS8))
    n = g.order
    # half the texts spell every index canonically, as serialize_group does
    spell = draw(st.sampled_from([canonical, spellings]))
    rows = [[draw(spell(v)) for v in row] for row in g.table]
    bad = None
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j], value = draw(hostile(n))
        bad = (i, j, value)
    bodies = [joined(draw, row) for row in rows]
    text = noisy(draw, [f"group {g.name}", f"order {draw(spellings(n))}", "table", *bodies])
    if bad is None:
        return g, text, None
    i, j, value = bad
    if value is None:
        return g, text, f"table row {i} has a non-integer entry: {bodies[i]!r}"
    return g, text, f"entry table[{i}][{j}] = {value} is out of range 0..{n - 1}"


@st.composite
def arc_texts(draw):
    """(dihypergraph, text, message), as group_texts."""
    n = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(vertex, st.lists(vertex, min_size=1, max_size=n)), max_size=6))
    value = Dihypergraph(n, frozenset((v, tuple(sorted(set(e)))) for v, e in arcs))
    spell = draw(st.sampled_from([canonical, spellings]))
    tokens = [[draw(spell(v)), *(draw(spell(u)) for u in e)] for v, e in arcs]
    bad = None
    if arcs and draw(st.booleans()):
        k = draw(st.integers(0, len(arcs) - 1))
        at = draw(st.integers(0, len(tokens[k]) - 1))
        tokens[k][at], spelled = draw(hostile(n))
        bad = (k, spelled)
    bodies = [
        "arc" + draw(st.sampled_from([" ", "  ", " \t"])) + v + draw(COLONS) + joined(draw, edge)
        for v, *edge in tokens
    ]
    text = noisy(draw, [f"dihypergraph {draw(spellings(n))}", *bodies])
    if bad is None:
        return value, text, None
    k, spelled = bad
    if spelled is None:
        return value, text, f"bad arc line {bodies[k]!r}"
    return value, text, f"vertex {spelled} out of range 0..{n - 1} in {bodies[k]!r}"


@st.composite
def hyperset_texts(draw):
    """(group, members, text, message): members are the drawn member
    lists, and message is as group_texts gives it.  Each member holds
    one 0; the corrupted token is one not an integer, one out of range,
    or a member's 0 replaced by another element."""
    g = draw(st.sampled_from(CORPUS8))
    n = g.order
    nonzero = st.lists(st.integers(1, n - 1), max_size=3) if n > 1 else st.just([])
    members = draw(st.lists(nonzero.flatmap(lambda m: st.permutations([0, *m])), min_size=1, max_size=4))
    spell = draw(st.sampled_from([canonical, spellings]))
    tokens = [[draw(spell(v)) for v in m] for m in members]
    kind = draw(st.sampled_from([None, "non-integer", "range", "identity"][: 4 if n > 1 else 3]))
    k = draw(st.integers(0, len(members) - 1))
    at = draw(st.integers(0, len(members[k]) - 1))
    if kind == "non-integer":
        tokens[k][at] = draw(NON_INTEGERS)
    elif kind == "range":
        tokens[k][at], members[k][at] = draw(hostile(n).filter(lambda case: case[1] is not None))
    elif kind == "identity":
        at = members[k].index(0)
        members[k][at] = draw(st.integers(1, n - 1))
        tokens[k][at] = draw(spell(members[k][at]))
    bodies = [joined(draw, member) for member in tokens]
    text, lines = noisy_lines(draw, bodies)
    if kind is None:
        return g, members, text, None
    if kind == "non-integer":
        return g, members, text, f"line {lines[k]} has a non-integer entry: {bodies[k]!r}"
    if kind == "range":
        return g, members, text, f"member element {members[k][at]} is out of range 0..{n - 1}"
    return g, members, text, f"member {tuple(sorted(set(members[k])))} does not contain the identity 0"


@settings(max_examples=200, deadline=None)
@given(case=group_texts())
def test_load_group_reads_every_spelling_and_names_the_bad_token(case):
    g, text, message = case
    if message is None:
        loaded = load_group(text)
        assert loaded == g and loaded.name == g.name
        assert serialize_group(loaded) == serialize_group(g)
    else:
        with pytest.raises(ValueError) as err:
            load_group(text)
        assert str(err.value) == message


@settings(max_examples=300, deadline=None)
@given(case=arc_texts())
def test_load_dihypergraph_reads_every_spelling_and_names_the_bad_token(case):
    h, text, message = case
    if message is None:
        loaded = load_dihypergraph(text)
        assert loaded == h
        assert dump_dihypergraph(loaded) == dump_dihypergraph(h)
    else:
        with pytest.raises(ValueError) as err:
            load_dihypergraph(text)
        assert str(err.value) == message


@settings(max_examples=300, deadline=None)
@given(case=hyperset_texts())
def test_load_hyperset_reads_every_spelling_and_names_the_bad_token(case):
    g, members, text, message = case
    if message is None:
        assert load_hyperset(text, g) == validate_hyperset(g, members)
    else:
        with pytest.raises(ValueError) as err:
            load_hyperset(text, g)
        assert str(err.value) == message


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=hyperset_texts())
def test_cli_reads_hyperset_text_and_exits_2_on_the_bad_token(case, tmp_path, capsys):
    # build dumps the instance the members give; build and analyze on a
    # bad file both print the loader's message and exit 2, raising nothing
    g, members, text, message = case
    group_path, hyperset_path = tmp_path / "g.txt", tmp_path / "x.txt"
    group_path.write_text(serialize_group(g))
    hyperset_path.write_text(text)
    files = ["--group", str(group_path), "--hyperset", str(hyperset_path)]
    capsys.readouterr()
    if message is None:
        assert main(["build", *files]) == 0
        out = capsys.readouterr().out
        assert out == dump_dihypergraph(cd_construct(g, validate_hyperset(g, members)))
        return
    for command in ("build", "analyze"):
        assert main([command, *files]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


# the header lines and a row of canonical tokens of the wrong length;
# a line that is "group " and spaces strips to "group", so it names no
# group and is refused as the first line
GROUP_HEADER_ERRORS = [
    ("grp Z2\norder 2\ntable\n0 1\n1 0\n", "expected 'group <name>' on the first line, got 'grp Z2'"),
    ("group  \norder 2\ntable\n0 1\n1 0\n", "expected 'group <name>' on the first line, got 'group'"),
    ("group Z2\nsize 2\ntable\n0 1\n1 0\n", "expected 'order <n>' on the second line, got 'size 2'"),
    ("group Z2\norder 2 2\ntable\n0 1\n1 0\n", "expected 'order <n>' on the second line, got 'order 2 2'"),
    ("group Z2\norder 0\ntable\n", "order must be positive, got 0"),
    ("group Z2\norder -2\ntable\n0 1\n1 0\n", "order must be positive, got -2"),
    ("group Z2\norder 2\n0 1\n1 0\n", "expected 'table' on the third line, got '0 1'"),
    ("group Z2\norder 2\ntable\n0 1\n1\n", "table row 1 has 1 entries, expected 2"),
    ("group Z2\norder 2\ntable\n0 1\n1 0 1\n", "table row 1 has 3 entries, expected 2"),
]


@pytest.mark.parametrize("text, message", [
    ("group Z2\norder 2\ntable\n0 1\n1 x\n", "table row 1 has a non-integer entry: '1 x'"),
    ("group Z2\norder 2\ntable\n0 1\n1 -1\n", "entry table[1][1] = -1 is out of range 0..1"),
    ("group Z2\norder 2\ntable\n0 1\n1 +2\n", "entry table[1][1] = 2 is out of range 0..1"),
    ("group Z2\norder two\ntable\n0 1\n1 0\n", "order is not an integer: 'two'"),
    *GROUP_HEADER_ERRORS,
])
def test_load_group_messages(text, message):
    with pytest.raises(ValueError) as err:
        load_group(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", GROUP_HEADER_ERRORS)
def test_cli_build_exits_2_on_a_bad_group_header(text, message, tmp_path, capsys):
    group_path, hyperset_path = tmp_path / "g.txt", tmp_path / "x.txt"
    group_path.write_text(text)
    hyperset_path.write_text("0\n")
    assert main(["build", "--group", str(group_path), "--hyperset", str(hyperset_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("dihypergraph 3\narc 0 : 1 x\n", "bad arc line 'arc 0 : 1 x'"),
    ("dihypergraph 3\narc 0 : 1 -1\n", "vertex -1 out of range 0..2 in 'arc 0 : 1 -1'"),
    # a non-integer is named before a vertex out of range, and an empty
    # edge before either
    ("dihypergraph 3\narc 3 : 1 x\n", "bad arc line 'arc 3 : 1 x'"),
    ("dihypergraph 3\narc 5 :\n", "empty edge in arc line 'arc 5 :'"),
    ("dihypergraph 3\narc 0 : 1 : 2\n", "expected 'arc <v> : <vertices>', got 'arc 0 : 1 : 2'"),
    ("dihypergraph 3\narc : 1\n", "expected 'arc <v> : <vertices>', got 'arc : 1'"),
    ("dihypergraph 3\narc\t0 : 1\n", "expected 'arc <v> : <vertices>', got 'arc\\t0 : 1'"),
    ("dihypergraph -2\n", "vertex count must be nonnegative, got -2"),
    ("dihypergraph x\n", "bad vertex count in 'dihypergraph x'"),
])
def test_load_dihypergraph_messages(text, message):
    with pytest.raises(ValueError) as err:
        load_dihypergraph(text)
    assert str(err.value) == message


def test_load_dihypergraph_with_a_huge_vertex_count_stays_small():
    n = 10**12
    h = load_dihypergraph(f"dihypergraph {n}\narc {n - 1} : 0 5\n")
    assert h == Dihypergraph(n, frozenset({(n - 1, (0, 5))}))


@settings(max_examples=60, deadline=None)
@given(g=st.sampled_from(CORPUS10), data=st.data())
def test_serialize_then_load_group_is_the_identity(g, data):
    # relabel by a permutation fixing the identity, so the rows are no
    # longer those the constructors wrote
    p = [0, *data.draw(st.permutations(range(1, g.order)))]
    table = [[0] * g.order for _ in range(g.order)]
    for i in g.elements():
        for j in g.elements():
            table[p[i]][p[j]] = p[g.table[i][j]]
    relabelled = FiniteGroup.from_table(g.name, table)
    loaded = load_group(serialize_group(relabelled))
    assert loaded == relabelled and loaded.name == relabelled.name


@settings(max_examples=100, deadline=None)
@given(drawn=dihypergraph_texts())
def test_dump_then_load_dihypergraph_is_the_identity(drawn):
    n, arcs, _ = drawn
    h = Dihypergraph(n, frozenset((v, tuple(sorted(e))) for v, e in arcs))
    assert load_dihypergraph(dump_dihypergraph(h)) == h

"""Source hygiene: no module imports a name it never uses, no private
helper outlives its last caller, the front ends import no private name,
importing the package loads none of dataclasses, inspect and argparse,
the plain value classes keep value semantics, and each result record
carries its fields where it is built."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cdhg import (
    CayleyHyperset,
    Dihypergraph,
    FiniteGroup,
    Permutation,
    UndirectedHypergraph,
    build_analysis_report,
    cayley_presentations,
    cd_construct,
    make_cyclic,
    regular_to_cayley,
    right_regular,
    run_census,
    single_cayley_closure,
    verify_theorem2,
)

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "cdhg").glob("*.py"))
SOURCES = sorted([*LIBRARY, *(ROOT / "tests").glob("*.py")])


def unused_imports(source):
    """(line, name) for each name bound by an import and never used: not
    read anywhere in the module and not listed in its __all__."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # "import a.b" binds a
            imported.extend((node.lineno, a.asname or a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.extend((node.lineno, a.asname or a.name) for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_finds_a_dead_import():
    source = "import os\nimport a.b\nfrom x import y, z as w\n__all__ = ['y']\nprint(a)\n"
    assert unused_imports(source) == [(1, "os"), (3, "w")]


def dead_helpers(sources):
    """(module, name) for each module-level private function (one leading
    underscore) that no module references outside the function's own
    body.  sources maps module names to source text; a name read, an
    attribute or an imported name counts as a reference."""
    defined = []
    references = set()  # (module, enclosing top-level function or None, name)
    for module, source in sources.items():
        for top in ast.parse(source).body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            if owner and owner.startswith("_") and not owner.startswith("__"):
                defined.append((module, owner))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    references.add((module, owner, node.id))
                elif isinstance(node, ast.Attribute):
                    references.add((module, owner, node.attr))
                elif isinstance(node, ast.alias):
                    references.add((module, owner, node.name))
    return [
        (module, name)
        for module, name in defined
        if not any(ref == name and (m, o) != (module, name) for m, o, ref in references)
    ]


def test_no_dead_private_helpers():
    assert dead_helpers({p.stem: p.read_text() for p in LIBRARY}) == []


def test_dead_helpers_finds_an_uncalled_helper():
    sources = {
        "a": "def _dead(n):\n    return _dead(n - 1)\n\ndef _used():\n    pass\n\n"
        "def __getattr__(name):\n    pass\n",
        "b": "from .a import _used\n\ndef _local():\n    pass\n\nf = _local\n",
        "c": "import a\n\ndef run():\n    return a._by_attribute()\n\n"
        "def _by_attribute():\n    pass\n",
    }
    assert dead_helpers(sources) == [("a", "_dead")]


def private_imports(source):
    """(line, name) for each underscore name imported from a cdhg module."""
    return [
        (node.lineno, a.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("cdhg"))
        for a in node.names
        if a.name.startswith("_")
    ]


@pytest.mark.parametrize("name", ["census.py", "cli.py"])
def test_front_ends_import_no_private_name(name):
    # the census and the command line call the library through its
    # public functions, so each decision lives behind one of them
    assert private_imports((ROOT / "src" / "cdhg" / name).read_text()) == []


def test_private_imports_finds_a_private_name():
    source = "from .perms import _a, b\nfrom cdhg.groups import _c\nfrom os import _d\n"
    assert private_imports(source) == [(1, "_a"), (2, "_c")]


def test_cold_import_loads_no_dataclasses_or_inspect():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import cdhg, cdhg.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    added = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "cdhg.cli" in added
    # argparse loads only when the command line runs
    assert [m for m in ("dataclasses", "inspect", "argparse") if m in added] == []


# (class, keyword fields built afresh on each call, the fields == and hash read)
VALUE_TYPES = [
    (
        FiniteGroup,
        lambda: dict(
            name="Z3",
            order=3,
            table=tuple(tuple(row) for row in [[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
            inverse=tuple([0, 2, 1]),
            generators=tuple([1]),
        ),
        ("order", "table", "inverse"),
    ),
    (Permutation, lambda: dict(images=tuple([1, 2, 0])), ("images",)),
    (CayleyHyperset, lambda: dict(group_order=3, members=(tuple([0, 1]),)), ("group_order", "members")),
    (
        Dihypergraph,
        lambda: dict(vertex_count=3, arcs=frozenset({(0, tuple([0, 1])), (1, (1, 2))})),
        ("vertex_count", "arcs"),
    ),
    (
        UndirectedHypergraph,
        lambda: dict(vertex_count=3, edges=frozenset({tuple([0, 1]), (1, 2)})),
        ("vertex_count", "edges"),
    ),
]
VALUE_IDS = [cls.__name__ for cls, _, _ in VALUE_TYPES]


@pytest.mark.parametrize("cls, fields, compared", VALUE_TYPES, ids=VALUE_IDS)
def test_value_types_are_equal_and_hash_by_their_compared_fields(cls, fields, compared):
    a, b = cls(**fields()), cls(*fields().values())
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(fields()[f] for f in compared))
    assert {a: "found"}[b] == "found"
    assert all(getattr(a, name) == value for name, value in fields().items())


@pytest.mark.parametrize("cls, fields, compared", VALUE_TYPES, ids=VALUE_IDS)
def test_value_types_do_not_equal_another_class(cls, fields, compared):
    a = cls(**fields())
    assert a.__eq__(tuple(fields().values())) is NotImplemented
    assert a != tuple(fields().values())


@pytest.mark.parametrize("cls, fields, compared", VALUE_TYPES, ids=VALUE_IDS)
def test_value_types_are_immutable(cls, fields, compared):
    a = cls(**fields())
    for name, value in fields().items():
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == cls(**fields())


def test_permutation_hashes_as_the_tuple_of_its_images():
    t = (2, 0, 1, 3)
    assert hash(Permutation(t)) == hash((t,))


def test_finite_groups_differing_in_name_or_generators_are_equal():
    fields = VALUE_TYPES[0][1]
    g = FiniteGroup(**fields())
    renamed = FiniteGroup(**{**fields(), "name": "C3"})
    regenerated = FiniteGroup(**{**fields(), "generators": (2,)})
    assert g == renamed == regenerated
    assert hash(g) == hash(renamed) == hash(regenerated)
    assert len({g, renamed, regenerated}) == 1


@pytest.mark.parametrize("cls, fields, compared", VALUE_TYPES, ids=VALUE_IDS)
def test_value_types_repr_every_field_by_keyword_in_slot_order(cls, fields, compared):
    values = fields()
    assert tuple(values) == tuple(name for name in cls.__slots__ if not name.startswith("_"))
    shown = ", ".join(f"{name}={value!r}" for name, value in values.items())
    assert repr(cls(**values)) == f"{cls.__name__}({shown})"


def test_dihypergraph_whose_edges_were_read_is_the_same_value():
    # the edge set kept after the first read takes no part in ==, the
    # hash or the repr
    fields = VALUE_TYPES[3][1]
    read, unread = Dihypergraph(**fields()), Dihypergraph(**fields())
    assert read.edges is read.edges == frozenset({(0, 1), (1, 2)})
    assert read == unread and hash(read) == hash(unread) and repr(read) == repr(unread)
    assert {read: "found"}[unread] == "found"


def test_permutation_repr():
    assert repr(Permutation((1, 2, 0))) == "Permutation(images=(1, 2, 0))"


def test_records_carry_their_fields_where_they_are_built():
    z7 = make_cyclic(7)
    fano = single_cayley_closure(z7, {0, 1, 3})
    h = cd_construct(z7, fano)
    built = [
        (
            verify_theorem2(z7, fano),
            "group_order aut_h_order aut_g_x normalizer_order product_factorization "
            "order_matches trivial_intersection g_r_normal stabilizer_matches",
        ),
        (
            run_census(3, 1),
            "max_order max_member_size group_count instance_count tallies "
            "nontrivial_regular_round_trips foreign_presentations",
        ),
        (regular_to_cayley(h, right_regular(z7)), "group hyperset"),
        (cayley_presentations(h), "aut broken listed"),
        (build_analysis_report(z7, fano), "entries"),
    ]
    # a record takes any keyword, so a misspelt field shows only here
    for record, fields in built:
        assert [name for name in fields.split() if not hasattr(record, name)] == []
    assert [len(fields.split()) for _, fields in built] == [9, 7, 2, 3, 1]

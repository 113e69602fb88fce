"""Source hygiene: no module imports a name it never uses, and no private
helper outlives its last caller."""

import ast
from pathlib import Path

import pytest

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

"""README examples run as written: the library tour's Python blocks and
the `cdhg analyze` example with its printed report."""

import ast
import re
from pathlib import Path

import pytest

from cdhg.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
FENCED = re.compile(r"^```(\w*)\n(.*?)^```$", flags=re.M | re.S)
# (language, body) of every fenced block, in order
BLOCKS = FENCED.findall(README)
_TOUR = README.index("## Library tour")
TOUR_BLOCKS = [
    body for lang, body in FENCED.findall(README[_TOUR:README.index("\n## ", _TOUR)]) if lang == "python"
]


@pytest.mark.parametrize("body", TOUR_BLOCKS, ids=lambda body: body.split("\n", 1)[0])
def test_library_tour_runs(body):
    # a line "expression  # literal" shows the expression's value
    namespace = {}
    exec(compile(body, "README.md", "exec"), namespace)
    for line in body.splitlines():
        code, sep, comment = line.partition("#")
        if not sep:
            continue
        try:
            expected = ast.literal_eval(comment.strip())
            expression = compile(code.strip(), "README.md", "eval")
        except (SyntaxError, ValueError, TypeError):
            continue
        assert eval(expression, namespace) == expected, line


def test_library_tour_is_found():
    assert len(TOUR_BLOCKS) == 2


def test_analyze_example_prints_the_readme_report(capsys, monkeypatch):
    command = "cdhg analyze --group data/z7.group --hyperset data/fano.hyperset"
    at = next(i for i, (lang, body) in enumerate(BLOCKS) if body == command + "\n")
    lang, report = BLOCKS[at + 1]
    assert lang == ""
    monkeypatch.chdir(ROOT)
    assert main(command.split()[1:]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == report

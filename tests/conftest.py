"""Shared fixtures: the 7-point running example and the census run."""

import re
import time

import pytest
from hypothesis import strategies as st

from cdhg import (
    Dihypergraph,
    cd_construct,
    make_cyclic,
    run_census,
    validate_hyperset,
)

FANO_MEMBERS = [[0, 1, 3], [0, 4, 5], [0, 2, 6]]
FANO_EDGES = {
    (0, 1, 3),
    (1, 2, 4),
    (2, 3, 5),
    (3, 4, 6),
    (0, 4, 5),
    (1, 5, 6),
    (0, 2, 6),
}


@st.composite
def dihypergraph_texts(draw, n=None):
    """(n, arcs, text): up to 8 random arcs on n <= 6 vertices and their
    dump-format text.

    An arc's vertex may lie outside its edge, the arc list may be empty,
    and edges are written in drawn order, so loading the text sorts them.
    """
    if n is None:
        n = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    edge = st.lists(vertex, min_size=1, max_size=n, unique=True)
    arcs = draw(st.lists(st.tuples(vertex, edge), max_size=8))
    text = f"dihypergraph {n}\n" + "".join(
        f"arc {v} : {' '.join(map(str, e))}\n" for v, e in arcs
    )
    return n, arcs, text


def refused_at_least(message):
    """N of the order cap's refusal 'aut order over cap 50000: at least
    N', a lower bound on the refused group's order."""
    m = re.fullmatch(r"aut order over cap 50000: at least (\d+)", str(message))
    assert m, f"not the order cap's refusal: {message}"
    return int(m[1])


def edge_reads(monkeypatch):
    """A list that gets one (dihypergraph, the set returned) pair per
    read of Dihypergraph.edges from then on.  It keeps every set it is
    handed, so two sets built apart are never one object."""
    reads = []
    edges = Dihypergraph.edges.fget

    def read(h):
        reads.append((h, edges(h)))
        return reads[-1][1]

    monkeypatch.setattr(Dihypergraph, "edges", property(read))
    return reads


def built_once(reads):
    """True when some dihypergraph in reads, a list from edge_reads, was
    read more than once and each one read got the same set every time."""
    first = {}
    return all(first.setdefault(id(h), e) is e for h, e in reads) and len(reads) > len(first)


# one "PASS criterion n: ..." line per acceptance criterion, echoed after
# the run so the verdicts are visible in plain pytest output
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def fano_group():
    return make_cyclic(7)


@pytest.fixture(scope="session")
def fano_x(fano_group):
    return validate_hyperset(fano_group, FANO_MEMBERS)


@pytest.fixture(scope="session")
def fano_cd(fano_group, fano_x):
    return cd_construct(fano_group, fano_x)


@pytest.fixture(scope="session")
def full_census():
    """Default census sweep plus its wall-clock duration in seconds."""
    start = time.monotonic()
    result = run_census(max_order=8, max_member_size=3)
    return result, time.monotonic() - start

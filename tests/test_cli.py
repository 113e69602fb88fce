"""Command line front end: build, analyze, census, error handling."""

import math
import os
import subprocess
import sys
from pathlib import Path

import cdhg
from cdhg import (
    build_analysis_report,
    direct_product,
    make_cyclic,
    serialize_group,
    validate_hyperset,
)
from cdhg.cli import main
from conftest import FANO_MEMBERS, built_once, edge_reads, refused_at_least

DATA = Path(__file__).resolve().parent.parent / "data"

FANO_REPORT = """\
group: Z7
order: 7
members: 3
cayley_closed: true
connected: true
undirected: true
uniformity: 3
arcs: 21
edges: 7
aut_h: 168
aut_g_x: 3
normalizer: 21
theorem2_product_factorization: pass
theorem2_order: pass
theorem2_trivial_intersection: pass
theorem2_normality: pass
theorem2_stabilizer: pass
"""


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_report_without_aut_builds_the_edges_once(monkeypatch):
    # the report reads h.edges through each invariant, and every read
    # returns the set the first one built
    reads = edge_reads(monkeypatch)
    z7 = make_cyclic(7)
    report = build_analysis_report(z7, validate_hyperset(z7, FANO_MEMBERS), with_aut=False)
    assert report.render().startswith(FANO_REPORT.split("aut_h")[0])
    assert len({id(h) for h, _ in reads}) == 1
    assert built_once(reads)


def test_build_golden(capsys):
    rc, out, err = run(
        capsys, "build", "--group", str(DATA / "z4.group"), "--hyperset", str(DATA / "halver.hyperset")
    )
    assert rc == 0
    assert err == ""
    assert out == "dihypergraph 4\narc 0 : 0 2\narc 1 : 1 3\narc 2 : 0 2\narc 3 : 1 3\n"


def test_build_fano_arc_count(capsys):
    rc, out, _ = run(
        capsys, "build", "--group", str(DATA / "z7.group"), "--hyperset", str(DATA / "fano.hyperset")
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "dihypergraph 7"
    assert sum(1 for ln in lines if ln.startswith("arc ")) == 21


def test_build_trivial_group(capsys, tmp_path):
    group_file = tmp_path / "z1.group"
    group_file.write_text(serialize_group(make_cyclic(1)))
    hyperset_file = tmp_path / "loop.hyperset"
    hyperset_file.write_text("0\n")
    rc, out, _ = run(capsys, "build", "--group", str(group_file), "--hyperset", str(hyperset_file))
    assert rc == 0
    assert out == "dihypergraph 1\narc 0 : 0\n"


def test_build_mixed_sizes(capsys):
    rc, out, _ = run(
        capsys, "build", "--group", str(DATA / "z6.group"), "--hyperset", str(DATA / "mixed.hyperset")
    )
    assert rc == 0
    assert sum(1 for ln in out.splitlines() if ln.startswith("arc ")) == 12


def test_analyze_fano_golden(capsys):
    rc, out, err = run(
        capsys, "analyze", "--group", str(DATA / "z7.group"), "--hyperset", str(DATA / "fano.hyperset")
    )
    assert rc == 0
    assert err == ""
    assert out == FANO_REPORT


def test_analyze_disconnected(capsys):
    rc, out, _ = run(
        capsys, "analyze", "--group", str(DATA / "z4.group"), "--hyperset", str(DATA / "halver.hyperset")
    )
    assert rc == 0
    assert "connected: false" in out.splitlines()


def test_analyze_directed(capsys):
    rc, out, _ = run(
        capsys, "analyze", "--group", str(DATA / "z5.group"), "--hyperset", str(DATA / "adjacent.hyperset")
    )
    assert rc == 0
    lines = out.splitlines()
    assert "undirected: false" in lines
    assert "cayley_closed: false" in lines


def test_analyze_no_aut(capsys):
    rc, out, _ = run(
        capsys,
        "analyze",
        "--group", str(DATA / "z7.group"),
        "--hyperset", str(DATA / "fano.hyperset"),
        "--no-aut",
    )
    assert rc == 0
    lines = out.splitlines()
    assert "aut_h: skipped: --no-aut" in lines
    assert "normalizer: skipped: --no-aut" in lines
    assert "arcs: 21" in lines


def test_analyze_answers_the_directed_21_cycle(capsys, tmp_path):
    # no vertex count is refused as such: the 21-cycle's search tries
    # few images, and its Aut(h) is the translations, all normalising
    group_file = tmp_path / "z21.group"
    group_file.write_text(serialize_group(make_cyclic(21)))
    hyperset_file = tmp_path / "step.hyperset"
    hyperset_file.write_text("0 1\n")
    rc, out, _ = run(
        capsys,
        "analyze",
        "--group", str(group_file),
        "--hyperset", str(hyperset_file),
    )
    assert rc == 0
    lines = out.splitlines()
    assert "aut_h: 21" in lines
    assert "normalizer: 21" in lines
    assert "aut_g_x: 1" in lines


def elementary_abelian_2(rank):
    g = make_cyclic(2)
    for _ in range(rank - 1):
        g = direct_product(g, make_cyclic(2))
    return g


def analyze_step(capsys, tmp_path, g):
    """The analyze report lines of g with X = {{0, 1}}."""
    group_file = tmp_path / "g.group"
    group_file.write_text(serialize_group(g))
    hyperset_file = tmp_path / "step.hyperset"
    hyperset_file.write_text("0 1\n")
    rc, out, _ = run(capsys, "analyze", "--group", str(group_file), "--hyperset", str(hyperset_file))
    assert rc == 0
    return out.splitlines()


def refused(lines, key):
    """N of the report line '<key>: skipped: aut order over cap 50000:
    at least N'."""
    (line,) = [line for line in lines if line.startswith(f"{key}: ")]
    return refused_at_least(line.removeprefix(f"{key}: skipped: "))


def test_analyze_refuses_group_automorphisms_over_cap(capsys, tmp_path):
    # X = {{0, 1}} is preserved by the 322,560 automorphisms of Z2^5
    # that fix 1, and the cap refuses them by the order of their chain;
    # h is 16 disjoint undirected edges, with 2^16 * 16! automorphisms
    lines = analyze_step(capsys, tmp_path, elementary_abelian_2(5))
    assert 50000 < refused(lines, "aut_h") <= 2**16 * math.factorial(16)
    assert 50000 < refused(lines, "aut_g_x") <= 322560


def test_analyze_refuses_group_automorphisms_of_z2_7(capsys, tmp_path):
    # |GL(7,2)| / 127 automorphisms of Z2^7 fix 1; the refusal bounds
    # their number without listing one, and Aut(h)'s, 2^64 * 64!, too
    lines = analyze_step(capsys, tmp_path, elementary_abelian_2(7))
    assert 50000 < refused(lines, "aut_h") <= 2**64 * math.factorial(64)
    assert 50000 < refused(lines, "aut_g_x") <= 1290157424640


def test_analyze_is_deterministic(capsys):
    argv = ("analyze", "--group", str(DATA / "z6.group"), "--hyperset", str(DATA / "mixed.hyperset"))
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.txt"
    rc, out, _ = run(
        capsys,
        "build",
        "--group", str(DATA / "z4.group"),
        "--hyperset", str(DATA / "halver.hyperset"),
        "--out", str(target),
    )
    assert rc == 0
    assert out == ""
    assert target.read_text() == "dihypergraph 4\narc 0 : 0 2\narc 1 : 1 3\narc 2 : 0 2\narc 3 : 1 3\n"


def test_census_small_bounds(capsys):
    rc, out, err = run(capsys, "census", "--max-order", "5", "--max-member-size", "2")
    assert rc == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "census: max_order=5 max_member_size=2"
    assert lines[-1] == "result: PASS"
    assert "check connected_iff_generating: 21 pass, 0 fail" in lines


def test_census_is_byte_stable(capsys):
    argv = ("census", "--max-order", "4", "--max-member-size", "2")
    rc1, first, _ = run(capsys, *argv)
    rc2, second, _ = run(capsys, *argv)
    assert rc1 == rc2 == 0
    assert first == second


def test_census_trivial_bound(capsys):
    rc, out, _ = run(capsys, "census", "--max-order", "1")
    assert rc == 0
    assert "result: PASS" in out.splitlines()


def test_census_rejects_bounds_over_cap(capsys):
    rc, out, err = run(capsys, "census", "--max-order", "11")
    assert rc == 2
    assert err.startswith("error:")


def test_missing_file_exits_2(capsys, tmp_path):
    rc, out, err = run(
        capsys, "analyze", "--group", str(tmp_path / "nope.group"), "--hyperset", str(DATA / "fano.hyperset")
    )
    assert rc == 2
    assert err.startswith("error:")


def test_invalid_group_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.group"
    bad.write_text("group bad\norder 2\ntable\n0 1\n1 1\n")
    rc, out, err = run(capsys, "analyze", "--group", str(bad), "--hyperset", str(DATA / "fano.hyperset"))
    assert rc == 2
    assert "no inverse" in err


def run_python(*argv):
    """Run a fresh "python argv..." on the imported package's sources."""
    # the directory that holds the imported package, so the child runs it
    src = str(Path(cdhg.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_python_m_cdhg_runs_without_warnings():
    proc = run_python("-m", "cdhg", "census", "--max-order", "3")
    assert proc.returncode == 0
    assert "result: PASS" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


def test_python_m_cdhg_cli_runs_without_warnings():
    # importing the package must not import cdhg.cli before runpy does
    proc = run_python("-m", "cdhg.cli", "census", "--max-order", "3")
    assert proc.returncode == 0
    assert "result: PASS" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


def test_cli_names_resolve_from_the_package():
    # in a fresh interpreter, where nothing has imported cdhg.cli yet
    proc = run_python("-c", (
        "from cdhg import *\n"
        "import cdhg\n"
        "assert build_analysis_report is cdhg.cli.build_analysis_report\n"
        "assert AnalysisReport is cdhg.AnalysisReport is cdhg.cli.AnalysisReport\n"
        "assert cdhg.build_analysis_report is build_analysis_report\n"
    ))
    assert proc.returncode == 0, proc.stderr

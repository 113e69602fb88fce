"""The benchmark's tracer (perfbench/tracing.py) wraps the library by
name: every name it lists must still resolve on a cdhg module, or a
rename would leave its layer reading zero, and the report and the
census must reach those layers through the names it wraps."""

from pathlib import Path

import cdhg
from cdhg import make_cyclic, validate_hyperset
from conftest import FANO_MEMBERS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def traced(monkeypatch, fn, *args):
    """The tracer after one pass of fn(*args) with its wrappers in place."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer(cdhg)
    tracer.install()
    try:
        tracer.run("traced", fn, *args)
    finally:
        tracer.restore()
    return tracer


def test_tracer_finds_every_layer_and_restores_the_library(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    modules = [cdhg, *(getattr(cdhg, m) for m in tracing.MODULES)]
    assert [name for name in tracing.LAYERS if not any(name in vars(m) for m in modules)] == []

    def hooked():
        """Every attribute the tracer replaces, by (module, name)."""
        found = {(m.__name__, name): vars(m)[name] for m in modules for name in tracing.LAYERS if name in vars(m)}
        found["Permutation", "then"] = vars(cdhg.perms.Permutation)["then"]
        return found

    originals = hooked()
    tracer = tracing.Tracer(cdhg)
    tracer.install()
    try:
        installed = hooked()
        tracer.run("census(3,1)", cdhg.census.run_census, 3, 1)
    finally:
        tracer.restore()

    assert all(installed[key] is not fn for key, fn in originals.items())
    assert hooked() == originals
    assert {"census.self", "perms.aut", "perms.theorem2", "groups.automorphisms", "hypersets.aut_g_x"} <= {
        span[0] for span in tracer.spans
    }
    assert tracer.problems == []


def test_traced_report_without_aut_times_the_invariants(monkeypatch):
    # the --no-aut report calls is_connected, is_undirected and
    # uniformity by name, so the invariants' layer sees their time
    z7 = make_cyclic(7)
    x = validate_hyperset(z7, FANO_MEMBERS)
    tracer = traced(monkeypatch, cdhg.cli.build_analysis_report, z7, x, False)
    assert "hypergraphs.invariants" in {span[0] for span in tracer.spans}
    assert tracer.problems == []


def test_traced_census_times_aut_recovery_and_invariants(monkeypatch):
    # cayley_presentations calls aut_hypergraph and regular_to_cayley
    # through the globals of cdhg.perms, where the tracer wraps them
    tracer = traced(monkeypatch, cdhg.census.run_census, 4, 2)
    assert {"perms.aut", "perms.recovery", "hypergraphs.invariants"} <= {span[0] for span in tracer.spans}
    assert tracer.problems == []

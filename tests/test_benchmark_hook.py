"""The benchmark's tracer (perfbench/tracing.py) wraps the library by
name: every name it lists must still resolve on a cdhg module, or a
rename would leave its layer reading zero."""

from pathlib import Path

import cdhg

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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

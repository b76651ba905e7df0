"""The traced benchmark in perfbench/ wraps program functions by module
attribute name.  Installing and removing every workload's wrappers here
turns a rename under src/ that would break it into a fast test failure."""

from pathlib import Path

from cvqkdsim import (classical, experiments, physics, pipeline, postprocess,
                      protocol)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = (classical, experiments, physics, pipeline, postprocess, protocol)


def test_every_workload_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    assert workloads.WORKLOADS
    before = {m.__name__: dict(vars(m)) for m in MODULES}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(1)
        try:
            tracer = tracing.Tracer()
            wl.install(tracer)
            tracer.uninstall()
        finally:
            wl.close()
        after = {m.__name__: dict(vars(m)) for m in MODULES}
        assert after == before, f"{name}: uninstall left wrappers behind"

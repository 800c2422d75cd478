"""Every function that the benchmark tracer times still exists.

``perfbench/tracer.py``'s ``Tracer.install`` drops a target it cannot find
and goes on, so a deleted or renamed function would read as a per-layer
metric of zero.  This loads the tracer's ``TARGETS`` from its file, without
importing the rest of the benchmark, and resolves each one in the package.
"""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_traced_target_resolves_to_a_callable():
    targets = _targets()
    assert len(targets) == 28
    missing = []
    for module, attr, *_ in targets:
        owner = importlib.import_module("partition_forge." + module)
        for name in attr.split("."):
            owner = getattr(owner, name, None)
        if not callable(owner):
            missing.append("%s.%s" % (module, attr))
    assert missing == []

"""The benchmark tracer's patch table must name functions relfix still has.

``perfbench/tracer.py`` wraps relfix functions by module and attribute name
and raises ``PatchTargetMissing`` when one is gone.  Installing it here makes
a rename of a traced function fail this suite, not only a traced benchmark
run.  The test reads ``perfbench/`` and changes nothing there.
"""

import importlib
import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _targets(tracer):
    """(owner, attribute) of every function the tracer replaces."""
    module = importlib.import_module
    pairs = [(module(m), attr) for m, attr, _ in tracer.SPANS + tracer.CALL_COUNTS]
    pairs.append((module("relfix.relation").BinaryRelation, "successors"))
    pairs.append((module("relfix.report"), "_plain"))
    pairs.append((module("relfix.cli"), "json"))
    return pairs


def test_tracer_patches_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    try:
        targets = _targets(tracer)
        before = [getattr(owner, attr) for owner, attr in targets]
        probe = tracer.Tracer()
        try:
            with probe:
                during = [getattr(owner, attr) for owner, attr in targets]
        finally:
            probe.uninstall()  # a failed install leaves its earlier patches behind
        after = [getattr(owner, attr) for owner, attr in targets]
    finally:
        sys.modules.pop("tracer", None)
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))

"""The benchmark tracer against the functions it wraps.

``perfbench/bench_trace.py`` binds the traced demandlab functions by
name.  Entering and leaving ``Tracer.installed()`` here fails as soon as
one of them is renamed or deleted, which would otherwise surface only as
a broken ``perfbench/run.py --trace 1``.
"""

import importlib.util
import sys
from pathlib import Path

import demandlab  # noqa: F401  (the tracer patches the loaded modules)

BENCH_TRACE = (Path(__file__).resolve().parents[1] / "perfbench"
               / "bench_trace.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every function bound at module level or on a class in a loaded
    demandlab module, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "demandlab" or name.startswith("demandlab."):
            for key, value in list(vars(mod).items()):
                out[(name, key)] = value
                if isinstance(value, type):
                    for attr, member in list(vars(value).items()):
                        out[(name, key, attr)] = member
    return out


def test_tracer_installs_and_restores_every_binding():
    bench_trace = _load_tracer()
    targets = bench_trace._targets()  # imports the traced modules
    before = _bindings()
    tracer = bench_trace.Tracer()
    with tracer.installed():
        during = _bindings()
    after = _bindings()
    # every traced function was wrapped, at least once
    assert targets
    for owner, attr, _, _ in targets:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        assert callable(original)
    changed = [key for key in before if during.get(key) is not before[key]]
    assert len(changed) >= len(targets)
    # and every binding is the original again
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []

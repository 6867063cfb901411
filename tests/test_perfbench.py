"""The benchmark's tracer rebinds library functions by name; these tests
keep every name it rebinds in place, so that ``perfbench/run.py --trace 1``
keeps working when the library changes."""

import importlib.util
import os

import pytest

import plasmonstack
from plasmonstack.geometry import LayerStack

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(tracer):
    return [(owner, attr) for _name, pairs, _key, _size in tracer.TARGETS for owner, attr in pairs]


def test_every_target_resolves_to_a_callable(tracer):
    for owner, attr in bindings(tracer):
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_install_then_uninstall_restores_the_functions(tracer):
    originals = [getattr(owner, attr) for owner, attr in bindings(tracer)]
    t = tracer.Tracer()
    t.install()
    try:
        assert all(getattr(owner, attr) is not fn for (owner, attr), fn in zip(bindings(tracer), originals))
        # modes looks build_np up at call time, so the traced build is its child
        plasmonstack.modes(LayerStack(R=1.0, xi=(2.0, 1.0)), 1)
        names = [span[0] for span in t.spans]
        assert names == ["spectrum.modes", "npcore.build_np"]
        assert t.spans[1][2] == 0
        assert t.check_nesting() == []
    finally:
        t.uninstall()
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in zip(bindings(tracer), originals))

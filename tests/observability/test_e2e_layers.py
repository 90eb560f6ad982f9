"""Every target of the end-to-end benchmark's layer tracer still exists.

``benchmarks/e2e/layers.py`` times each layer by wrapping functions and
methods of the program by module and attribute name.  A rename in the
program would make ``benchmarks/e2e/run.py --trace 1`` fail at install
time; this test fails first.
"""

import importlib
import importlib.util
import os

import pytest

LAYERS_PY = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks",
                         "e2e", "layers.py")


def _layers():
    spec = importlib.util.spec_from_file_location("e2e_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _layers()
TARGETS = [(layer, module, attr) for layer, _, targets in LAYERS.LAYERS
           for module, attr in targets]


@pytest.mark.parametrize("layer,module,attr", TARGETS,
                         ids=[f"{m}:{a}" for _, m, a in TARGETS])
def test_target_resolves(layer, module, attr):
    owner, name = LAYERS._resolve(module, attr)
    target = getattr(owner, name)
    assert callable(target), f"{layer}: {module}.{attr}"
    # A name imported into another module (the engine's forward_sweep,
    # the device's fold) is the defining module's object, not a copy.
    home = importlib.import_module(target.__module__)
    path = target.__qualname__.split(".")
    for part in path:
        home = getattr(home, part)
    assert home is target, \
        f"{layer}: {module}.{attr} is not {target.__module__}.{path}"


def _current(module, attr):
    owner, name = LAYERS._resolve(module, attr)
    return owner.__dict__[name] if isinstance(owner, type) else getattr(
        owner, name)


def test_tracer_installs_and_restores():
    before = [_current(m, a) for _, m, a in TARGETS]
    tracer = LAYERS.Tracer()
    with tracer.installed():
        assert all(_current(m, a) is not b
                   for (_, m, a), b in zip(TARGETS, before))
    assert all(_current(m, a) is b for (_, m, a), b in zip(TARGETS, before))

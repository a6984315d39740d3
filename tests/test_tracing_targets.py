"""The traced benchmark run wraps functions by module path and attribute
name.  Every binding it names must exist, so that renaming or deleting a
traced function fails here and not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
BINDINGS = [(name, module, attr) for name, bindings in tracing._TARGETS.items()
            for module, attr in bindings]


@pytest.mark.parametrize("name,module,attr", BINDINGS,
                         ids=[f"{name}@{module}" for name, module, _ in BINDINGS])
def test_traced_binding_resolves_to_a_function(name, module, attr):
    owner, leaf = tracing._resolve(module, attr)
    # the tracer replaces the binding found in the owner's own namespace
    assert leaf in owner.__dict__, f"{name}: {module}.{attr} is not defined there"
    assert callable(owner.__dict__[leaf]), f"{name}: {module}.{attr} is not callable"

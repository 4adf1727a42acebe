import importlib
import pkgutil

import pytest

import jplda

# __main__ runs the CLI on import
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(jplda.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", ["jplda"] + [f"jplda.{m}" for m in SUBMODULES])
def test_every_export_is_defined(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []

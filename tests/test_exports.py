import ast
import importlib
import pkgutil
from pathlib import Path

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


def imported_but_unused(source: str) -> list:
    """Names that a module's imports bind but that it neither reads nor
    lists in ``__all__``. A name read only in a string does not count."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read | exported)


# __init__ imports to re-export; every other module imports what it uses
PACKAGE = Path(jplda.__file__).parent
SOURCES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("name", SOURCES)
def test_no_module_imports_a_name_it_does_not_use(name):
    source = (PACKAGE / name).read_text()
    assert imported_but_unused(source) == []


def test_unused_import_check_finds_a_dead_import():
    source = "from .errors import DimensionMismatch, NonFinite\n\ndef f():\n    raise NonFinite\n"
    assert imported_but_unused(source) == ["DimensionMismatch (line 1)"]

import ast
import importlib
import pathlib
import pkgutil

import pytest

import eggsum

MODULES = ["eggsum"] + [
    f"eggsum.{info.name}" for info in pkgutil.iter_modules(eggsum.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # the benchmark's tracer finds a layer's functions through __all__ and
    # skips a name it cannot find, so a stale entry would drop its spans
    # without an error
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == [], name
    assert len(set(exported)) == len(exported), name


def test_no_module_imports_another_ones_private_names():
    # a private name belongs to its module: a second module that imports it
    # shares a decision that one module should own
    found = []
    for path in sorted(pathlib.Path(eggsum.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "eggsum"
            ):
                found += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []

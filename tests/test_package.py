import importlib
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

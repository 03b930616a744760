import importlib
import pkgutil

import pytest

import simplexsp

MODULES = ["simplexsp", *(m.name for m in pkgutil.iter_modules(simplexsp.__path__, "simplexsp."))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """A name left in ``__all__`` after its definition is deleted breaks
    ``from module import *``."""
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []

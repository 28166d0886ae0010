"""Public surface: every exported name resolves."""
import importlib
import pkgutil

import pytest

import lpequiv

MODULES = [
    importlib.import_module(f"lpequiv.{info.name}")
    for info in pkgutil.iter_modules(lpequiv.__path__)
]


@pytest.mark.parametrize("module", [lpequiv, *MODULES], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []

import importlib
import pkgutil

import asyncsa


def test_every_exported_name_resolves():
    modules = [asyncsa] + [
        importlib.import_module(f"asyncsa.{info.name}")
        for info in pkgutil.iter_modules(asyncsa.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []

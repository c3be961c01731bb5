"""Every name a module lists in ``__all__`` exists there, once."""

import importlib
import pkgutil

import pytest

import lotkacenter

MODULES = [lotkacenter] + [
    importlib.import_module(f"lotkacenter.{info.name}")
    for info in pkgutil.iter_modules(lotkacenter.__path__)
]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]


def test_every_exporting_module_is_checked():
    names = {m.__name__ for m in EXPORTING}
    assert {"lotkacenter", "lotkacenter.classifier", "lotkacenter.model"} <= names


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_all_entries_resolve_once(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names what it does not define: {missing}"
    repeated = sorted({name for name in module.__all__ if module.__all__.count(name) > 1})
    assert not repeated, f"{module.__name__}.__all__ repeats {repeated}"

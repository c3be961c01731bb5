"""Every name a module lists in ``__all__`` exists there, once, and every
exported record class is a NamedTuple result or a validated input."""

import dataclasses
import importlib
import math
import pkgutil
from enum import Enum

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


def test_results_are_named_tuples_and_inputs_frozen_dataclasses():
    inputs = {"CanonicalParams", "RawLotkaParams", "Point"}
    classes = {
        name: getattr(module, name)
        for module in EXPORTING
        for name in module.__all__
        if isinstance(getattr(module, name), type)
        and not issubclass(getattr(module, name), (Enum, BaseException))
    }
    records = {name: cls for name, cls in classes.items() if name not in inputs}
    assert inputs <= classes.keys()
    assert {"CenterClassification", "JacobianSummary", "Term", "CaseConstraints"} <= records.keys()
    for name, cls in records.items():
        assert issubclass(cls, tuple) and cls._fields, name
        assert not dataclasses.is_dataclass(cls), name
        rec = cls(*[None] * len(cls._fields))
        with pytest.raises(AttributeError):
            setattr(rec, cls._fields[0], None)

    for name in inputs:
        assert dataclasses.is_dataclass(classes[name]) and classes[name].__dataclass_params__.frozen
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            lotkacenter.CanonicalParams(1.0, bad, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="must be finite"):
            lotkacenter.RawLotkaParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, bad, 1.0, 1.0, 1.0)
        with pytest.raises((ValueError, lotkacenter.DomainError)):
            lotkacenter.Point(bad, 1.0)
    for K in (0.0, -1.0):
        with pytest.raises(ValueError, match="K must be positive"):
            lotkacenter.CanonicalParams(1.0, 1.0, 1.0, 1.0, K)
        with pytest.raises(ValueError, match="rate k1 must be positive"):
            lotkacenter.RawLotkaParams(K, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(lotkacenter.DomainError):
            lotkacenter.Point(K, 1.0)

import importlib

import pytest

import tminfer as tm

MODULES = ("model", "pseudolikelihood", "optimize", "selection", "extraction",
           "experiments", "io")


@pytest.mark.parametrize("name", [None, *MODULES])
def test_exports_resolve_without_duplicates(name):
    mod = tm if name is None else importlib.import_module(f"tminfer.{name}")
    exports = mod.__all__
    assert len(exports) == len(set(exports))
    missing = [e for e in exports if not hasattr(mod, e)]
    assert not missing

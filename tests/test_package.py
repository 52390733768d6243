"""The package's public surface: ``relu_unwrap.__all__`` and the ``__all__``
of each module it re-exports."""

import types

import pytest

import relu_unwrap
from relu_unwrap import decomposition, errors, explain, lp, network, shallow

MODULES = (decomposition, errors, explain, lp, network, shallow)


def test_all_names_the_public_bindings():
    """Every exported name resolves, and every public name the package binds
    (no leading underscore, not a submodule) is exported."""
    exported = relu_unwrap.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(relu_unwrap, name)] == []
    public = {
        name
        for name, value in vars(relu_unwrap).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == public


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_all_resolves_without_duplicates(module):
    names = module.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(module, name)] == []
    # a module lists the classes and functions it defines, not ones it imports
    defined = (type, types.FunctionType)
    values = [getattr(module, name) for name in names]
    assert [v.__name__ for v in values if isinstance(v, defined) and v.__module__ != module.__name__] == []


def test_package_all_is_the_sorted_union_of_the_modules():
    """The package exports exactly the six lists, sorted, each name bound to
    its module's object."""
    union = [name for module in MODULES for name in module.__all__]
    assert len(set(union)) == len(union)
    assert relu_unwrap.__all__ == sorted(union)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(relu_unwrap, name) is getattr(module, name), name

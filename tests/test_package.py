"""The package's public surface: ``relu_unwrap.__all__``."""

import types

import relu_unwrap


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

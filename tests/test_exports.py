"""The package's export list names exactly what it imports for its users."""

import types

import shiftprod


def test_all_lists_every_public_name():
    public = {
        name
        for name, value in vars(shiftprod).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(shiftprod.__all__) == sorted(public)

"""The package's public surface: ``__all__`` names exactly what it binds."""

import types

import thermoshift


def test_all_lists_every_public_name_once():
    names = thermoshift.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(thermoshift, name), name
    bound = {
        name
        for name, value in vars(thermoshift).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == bound

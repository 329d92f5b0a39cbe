import types

import refparse as rp


def test_public_names_are_the_package_all():
    assert len(set(rp.__all__)) == len(rp.__all__)
    assert all(hasattr(rp, name) for name in rp.__all__)
    public = {
        name
        for name, value in vars(rp).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(rp.__all__)
    # the name-level feature walk is a test oracle, and training indexes
    # its keys: neither is part of the library's surface
    assert not hasattr(rp, "extract") and not hasattr(rp, "build_index")

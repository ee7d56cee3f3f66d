"""The package's public names."""

import entrofed


def test_every_export_resolves():
    # A name deleted from its module but left in __all__ fails here.
    assert len(set(entrofed.__all__)) == len(entrofed.__all__)
    missing = [name for name in entrofed.__all__ if not hasattr(entrofed, name)]
    assert not missing, missing

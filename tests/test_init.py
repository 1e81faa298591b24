"""The package's public names."""

import macq


def test_every_exported_name_resolves_once():
    assert len(macq.__all__) == len(set(macq.__all__))
    # A name listed in __all__ but not defined makes the star import raise.
    namespace: dict[str, object] = {}
    exec("from macq import *", namespace)
    assert set(macq.__all__) <= set(namespace)

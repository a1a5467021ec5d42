"""The package's public surface: every exported name exists, once."""

import partgrowth


def test_every_public_name_resolves_once():
    names = partgrowth.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(partgrowth, name)]
    assert missing == []

"""The package's public surface."""

import entroframe


def test_every_public_name_resolves():
    missing = [name for name in entroframe.__all__ if not hasattr(entroframe, name)]
    assert missing == []
    assert len(set(entroframe.__all__)) == len(entroframe.__all__)

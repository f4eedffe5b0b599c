"""The package's public names."""

import mesp


def test_every_exported_name_resolves():
    assert len(mesp.__all__) == len(set(mesp.__all__))
    missing = [name for name in mesp.__all__ if not hasattr(mesp, name)]
    assert not missing

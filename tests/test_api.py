"""The public API: every name in lapeig.__all__ resolves."""

import lapeig


def test_all_names_resolve_once():
    names = lapeig.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(lapeig, name)]
    assert missing == []

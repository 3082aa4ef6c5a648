"""The package's public names."""

import longicausal


def test_all_names_exist_sorted_and_unique():
    names = longicausal.__all__
    assert [name for name in names if not hasattr(longicausal, name)] == []
    assert names == sorted(set(names))

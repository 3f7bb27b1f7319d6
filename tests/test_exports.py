"""The package's export list names each public object once, and every name resolves."""

import simnorm


def test_every_exported_name_resolves_once():
    names = simnorm.__all__
    duplicates = sorted({n for n in names if names.count(n) > 1})
    assert not duplicates, f"names exported more than once: {duplicates}"
    missing = [n for n in names if not hasattr(simnorm, n)]
    assert not missing, f"names in simnorm.__all__ that do not resolve: {missing}"


def test_star_import_runs():
    # a stale __all__ entry makes the import raise AttributeError
    namespace = {}
    exec("from simnorm import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(simnorm.__all__)

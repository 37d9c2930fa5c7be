import smoothmax


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from smoothmax import *", namespace)
    missing = [name for name in smoothmax.__all__ if name not in namespace]
    assert not missing
    assert len(set(smoothmax.__all__)) == len(smoothmax.__all__)

"""The package's public names: every one resolves, none is listed twice."""

import hqvq


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from hqvq import *", namespace)
    assert set(hqvq.__all__) <= namespace.keys()


def test_all_has_no_duplicates():
    assert len(hqvq.__all__) == len(set(hqvq.__all__))

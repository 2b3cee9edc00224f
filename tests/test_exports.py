"""The package's export list names exactly what a star-import gives."""

import gridwords


def test_star_import_gives_exactly_all():
    namespace = {}
    exec("from gridwords import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(gridwords.__all__)


def test_all_has_no_duplicates():
    assert len(gridwords.__all__) == len(set(gridwords.__all__))

"""The package's public names resolve.

A name deleted from its module but left in `__all__` fails only on
`from levypassage import *`, which no other test does.
"""

import levypassage


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from levypassage import *", namespace)
    assert len(set(levypassage.__all__)) == len(levypassage.__all__)
    assert set(levypassage.__all__) <= namespace.keys()

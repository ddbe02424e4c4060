"""Tests for the package's public surface."""
import tuckersearch


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from tuckersearch import *", namespace)
    missing = [name for name in tuckersearch.__all__ if name not in namespace]
    assert missing == []
    assert len(set(tuckersearch.__all__)) == len(tuckersearch.__all__)

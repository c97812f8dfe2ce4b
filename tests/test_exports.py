"""The package's export list matches what it defines."""

from __future__ import annotations

import capflow


def test_every_exported_name_resolves():
    missing = [name for name in capflow.__all__ if not hasattr(capflow, name)]
    assert missing == []
    assert len(set(capflow.__all__)) == len(capflow.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from capflow import *", namespace)
    assert set(capflow.__all__) <= set(namespace)

"""The package's public surface: what ``from keyauth import *`` exports."""

from __future__ import annotations

from types import ModuleType

import keyauth


def test_all_holds_only_public_names_that_resolve():
    names = keyauth.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert not name.startswith("_"), name
        assert not isinstance(getattr(keyauth, name), ModuleType), name


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from keyauth import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(keyauth.__all__)

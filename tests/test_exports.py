"""Every name that ``parmreach`` or one of its modules exports exists."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import parmreach

MODULES = ["parmreach"] + [
    f"parmreach.{info.name}" for info in pkgutil.iter_modules(parmreach.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)

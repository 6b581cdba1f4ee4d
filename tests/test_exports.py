"""Every name that ``parmreach`` or one of its modules exports exists,
and so does every function the benchmark's span tracer wraps; all
session state sits in one object, and the docstring examples run."""

from __future__ import annotations

import doctest
import importlib
import importlib.util
import pathlib
import pkgutil

import pytest

import parmreach
from parmreach.polycore import Session

MODULES = ["parmreach"] + [
    f"parmreach.{info.name}" for info in pkgutil.iter_modules(parmreach.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_every_traced_function_resolves():
    path = pathlib.Path(__file__).parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, name in spans.TRACED:
        target = importlib.import_module(f"parmreach.{module}")
        for attr in name.split("."):
            target = getattr(target, attr, None)
        if not callable(target):
            missing.append(f"{module}.{name}")
    assert missing == []


def test_session_state_lives_in_one_session_object():
    containers, holders = [], []
    for name in MODULES:
        for attr, value in vars(importlib.import_module(name)).items():
            if attr.startswith("__") and attr.endswith("__"):
                continue  # module machinery: __all__, __path__, __builtins__
            if isinstance(value, (dict, list, set, bytearray)):
                containers.append(f"{name}.{attr}")
            if isinstance(value, Session):
                holders.append(f"{name}.{attr}")
    assert containers == []
    assert len(holders) == 1, holders


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0

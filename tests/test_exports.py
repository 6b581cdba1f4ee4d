"""Every name that ``parmreach`` or one of its modules exports exists,
and so does every function the benchmark's span tracer wraps."""

from __future__ import annotations

import importlib
import importlib.util
import pathlib
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

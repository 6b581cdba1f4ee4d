"""Every name that ``parmreach`` or one of its modules exports exists,
and so does every function the benchmark's span tracer wraps; all
session state sits in one object, the docstring examples run, importing
the CLI loads no module a query does not use, and the result records
keep their fields."""

from __future__ import annotations

import doctest
import importlib
import importlib.util
import pathlib
import os
import pkgutil
import subprocess
import sys

import pytest

import parmreach
from parmreach import CheckStats, Dtmc, GcdTriple, ReachabilityResult
from parmreach.polycore import Session
from parmreach.scc_mc import AbstractionResult

SRC = pathlib.Path(__file__).parent.parent / "src"

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


def test_importing_the_cli_leaves_unused_modules_unloaded():
    # dataclasses pulls in inspect, ast, dis and tokenize; argparse pulls in
    # gettext and locale; a query runs neither the generators nor the oracle.
    unwanted = [
        "dataclasses", "inspect", "ast", "argparse", "gettext", "locale",
        "parmreach.benchgen", "parmreach.oracle",
    ]
    probe = f"import sys, parmreach.cli; print([m for m in {unwanted!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_names_that_load_on_first_use_resolve():
    from parmreach import SingularSystem, SizeCapExceeded, numeric_reachability
    from parmreach.benchgen import SizeCapExceeded as cap
    from parmreach.oracle import SingularSystem as singular, numeric_reachability as oracle

    assert (SingularSystem, SizeCapExceeded, numeric_reachability) == (singular, cap, oracle)
    namespace: dict = {}
    exec("from parmreach import *", namespace)
    assert {"SingularSystem", "SizeCapExceeded", "numeric_reachability"} <= set(namespace)
    with pytest.raises(AttributeError, match="nosuch"):
        parmreach.nosuch


RECORDS = [
    (GcdTriple, ("cofactor_left", "cofactor_right", "common"), {}),
    (Dtmc, ("states", "init", "trans", "targets"), {"targets": ()}),
    (AbstractionResult, ("rows", "constraints", "sites"), {}),
    (
        CheckStats,
        ("stored_polynomials", "gcd_kernel_calls", "abstraction_sites", "elapsed_seconds"),
        {},
    ),
    (ReachabilityResult, ("per_pair", "total", "constraints", "stats"), {}),
]


@pytest.mark.parametrize("record, fields, defaults", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_result_records_keep_fields_defaults_repr_and_immutability(record, fields, defaults):
    assert record._fields == fields
    assert record._field_defaults == defaults
    required = [f for f in fields if f not in defaults]
    value = record(*range(len(required)))
    assert [getattr(value, f) for f in fields] == [*range(len(required)), *defaults.values()]
    shown = ", ".join(f"{f}={getattr(value, f)!r}" for f in fields)
    assert repr(value) == f"{record.__name__}({shown})"
    with pytest.raises(AttributeError):
        setattr(value, fields[0], 1)

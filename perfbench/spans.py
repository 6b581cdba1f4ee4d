"""Span tracer that times parmreach's layers from outside the program.

:func:`installed` wraps every function in :data:`TRACED` for the length
of a ``with`` block.  A module-level function is rebound in every
``parmreach`` module that holds a reference to it, because ``cli``,
``scc_mc``, ``elimination``, ``model`` and ``ratfun`` import their
callees by name; calls inside the defining module go through the same
module global, so rebinding ``polycore.poly_mul`` also catches
``Polynomial.__mul__``.  A dotted name is a method patched on its class.

Each call records one span ``[name, start, end, parent]`` in memory;
:func:`summarize` turns the spans into per-function call counts and
self times once the query is over.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

# (module, function) pairs, grouped by layer from the top down.
TRACED = (
    ("cli", "main"),
    ("model", "parse_model"),
    ("model", "preprocess"),
    ("scc_mc", "induced"),
    ("scc_mc", "solve_single_input"),
    ("scc_mc", "solve_multi_input"),
    ("scc_mc", "substitute"),
    ("scc_mc", "collect_constraints"),
    ("elimination", "eliminate_all"),
    ("ratfun", "rf_add"),
    ("ratfun", "rf_mul"),
    ("ratfun", "rf_div"),
    ("ratfun", "rf_sum"),
    ("ratfun", "rf_eval"),
    ("factorizations", "fadd"),
    ("factorizations", "gcd_factored"),
    ("factorizations", "Factorization.expand"),
    ("factorizations", "Factorization.of"),
    ("polycore", "poly_mul"),
    ("polycore", "poly_gcd"),
    ("polycore", "poly_divide_exact"),
    ("polycore", "is_irreducible_heuristic"),
)

# Functions whose results are also classified: the count of "useful"
# outcomes becomes a ratio over calls (a gcd that is not 1 found a
# common factor).
JUDGED: dict[str, Callable[[Any], bool]] = {
    "polycore.poly_gcd": lambda g: not g.is_one,
}


class Tracer:
    """In-memory span recorder for one single-threaded query."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.useful: dict[str, int] = {}
        self._open = [-1]

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._open, time.perf_counter
        judge = JUDGED.get(name)
        useful = self.useful
        if judge is not None:
            useful[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if judge is not None and judge(result):
                useful[name] += 1
            return result

        return traced


def _parmreach_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "parmreach" or name.startswith("parmreach."))
    ]


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every :data:`TRACED` function; restore all of them on exit."""
    patches: list[tuple[object, str, object]] = []
    try:
        for module_name, qualname in TRACED:
            module = sys.modules[f"parmreach.{module_name}"]
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    replacement = classmethod(tracer.wrap(name, original.__func__))
                else:
                    replacement = tracer.wrap(name, original)
                patches.append((cls, attr, original))
                setattr(cls, attr, replacement)
                continue
            original = getattr(module, qualname)
            replacement = tracer.wrap(name, original)
            for mod in _parmreach_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, attr, original))
                        setattr(mod, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Calls run on one thread, so the children of a span are disjoint
    intervals inside it and the time they cover is their summed length.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """``{"module.function": {"calls", "self_s"[, "useful"]}}`` for every
    traced function, zero for those never called."""
    out = {f"{m}.{q}": {"calls": 0, "self_s": 0.0} for m, q in TRACED}
    for (name, _, _, _), own in zip(tracer.spans, self_times(tracer.spans)):
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += own
    for name, count in tracer.useful.items():
        out[name]["useful"] = count
    return out

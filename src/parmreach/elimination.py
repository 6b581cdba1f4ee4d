"""Baseline state-elimination engine: the SCC engine's final pass alone.

:func:`eliminate_all` solves the whole live model as the SCC engine's
final pass does: the live initial states are the inputs,
:func:`parmreach.scc_mc.induced` gives the outputs and the interior, and
:func:`parmreach.scc_mc.reduce_component`, which solves every SCC
component, answers.  With one output that every live state reaches,
each input reaches it with probability 1 and nothing is removed;
otherwise the interior is removed (:func:`~parmreach.scc_mc.eliminate`)
in the shared greedy order, fewest new transitions first.  The order
does not change the final (canceled) functions, only the amount of
intermediate work.

No hierarchy is built, so states still on loops are removed and the
checks that a component's interior is loop-free are skipped.  Instead
every row a removal changed must still sum to exactly 1, which
:func:`~parmreach.ratfun.rf_sums_to_one` decides without cancelling.
Models built from repeated parts, such as brp, change the same rows
again and again; a row the session has already found to sum to 1 is
answered from the session's memo, so the audit costs arithmetic only
for rows it has not seen.

The result contract matches :func:`parmreach.scc_mc.model_check`
exactly.  The engines share the component boundaries, the solve, the
removal step and the order, so their agreement checks the SCC
hierarchy; the exact numeric oracle (:mod:`parmreach.oracle`) remains
the independent check of the arithmetic.  Only divisions are recorded
as constraints: where the shortcut answers, nothing is divided and no
divisor enters the SMT export.
"""

from __future__ import annotations

import time

from .errors import ParmreachError
from .model import Pdtmc
from .ratfun import RationalFunction, rf_sums_to_one
from .scc_mc import (
    NoTargets,
    ReachabilityResult,
    SelfLoopProbabilityOne,
    assemble_result,
    eliminate,
    induced,
    reduce_component,
    substitute,
)

__all__ = [
    "SelfLoopProbabilityOne",
    "ConservationBroken",
    "eliminate_all",
]


class ConservationBroken(ParmreachError):
    """A row stopped summing to 1 after an elimination step."""


def _remove_state(
    rows: dict[str, dict[str, RationalFunction]],
    preds: dict[str, set[str]],
    s: str,
    constraints: list[RationalFunction],
) -> None:
    """Eliminate ``s`` (:func:`~parmreach.scc_mc.eliminate`), then check
    that every row that changed still sums to exactly 1."""
    for u in sorted(eliminate(rows, preds, s, constraints)):
        if not rf_sums_to_one(rows[u].values()):
            raise ConservationBroken(
                f"outgoing probabilities of {u!r} no longer sum to 1 "
                f"(after removing {s!r})"
            )


def eliminate_all(m: Pdtmc) -> ReachabilityResult:
    """Exact reachability functions for every (initial, target) pair.

    The model must be preprocessed (absorbing targets, no multi-state
    bottom components).  The final pass is the SCC engine's: the same
    component boundaries and the same solve, guarded single-output
    shortcut included (module docstring).  On a model that is not, a
    closed class (a bottom component other than an absorbing state)
    raises :class:`SelfLoopProbabilityOne`: at its first state if no
    live initial state is in it, else at one of those.  So if the live
    rows feed no absorbing state: a live input surely returns to itself.
    """
    if not m.targets:
        raise NoTargets("model has no target states")
    started = time.perf_counter()

    rows = {s: dict(m.row(s)) for s in m.states}
    live = [s for s in m.states if not m.is_absorbing(s)]
    inputs = [s for s in m.initial_states if not m.is_absorbing(s)]
    outputs, interior = induced(m, rows, live, inputs)
    result = reduce_component(rows, inputs, outputs, interior, _remove_state)
    substitute(rows, live, result)
    return assemble_result(m, rows, result.constraints, started, result.sites)

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

No components are abstracted.  Instead the row of every state must
still sum to exactly 1 when that state is removed, which
:func:`~parmreach.ratfun.rf_sums_to_one` decides without cancelling;
the inputs' rows are checked by the per-input site audits of
:func:`~parmreach.scc_mc.reduce_component`.  That covers
every row a removal changed, though only in the version that is used.
Removing ``s`` rewrites each predecessor's row as
``row_u - P(u,s)*[s] + P(u,s)*row_s/(1 - P(s,s))``; when ``row_s``
sums to 1, checked just before, the added mass is ``P(u,s)``, so the
removal leaves row u's sum as it was.  A deviation any step puts into
row u is therefore still in it when u is removed, or when u's input
row reaches its site audit, and the intermediate versions of the row
that a later removal overwrites need no check of their own.  Only two
faults in one row that cancel exactly could hide each other; checking
every changed row after every step would have caught the first.
Models built from repeated parts, such as brp, meet the same rows
again and again; a row the session has already found to sum to 1 is
answered from the session's memo, so the audit costs arithmetic only
for rows it has not seen.

The result contract matches :func:`parmreach.scc_mc.model_check`
exactly.  The engines share the component boundaries, the solve, the
removal step and the order, so their agreement checks the SCC
abstraction; the exact numeric oracle (:mod:`parmreach.oracle`) remains
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
    """A row no longer sums to 1 when its state is removed."""


def _remove_state(
    rows: dict[str, dict[str, RationalFunction]],
    preds: dict[str, set[str]],
    s: str,
    constraints: list[RationalFunction],
) -> None:
    """Check that the row of ``s`` still sums to exactly 1, the one
    version of it whose mass the removal passes on, then eliminate ``s``
    (:func:`~parmreach.scc_mc.eliminate`).  The rows the removal
    changes are checked when their own states are removed, or at their
    input's site audit (module docstring)."""
    if not rf_sums_to_one(rows[s].values()):
        raise ConservationBroken(
            f"outgoing probabilities of {s!r} no longer sum to 1 (before removing it)"
        )
    eliminate(rows, preds, s, constraints)


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

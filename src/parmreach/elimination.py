"""Baseline state-elimination engine: the SCC engine's final pass alone.

:func:`eliminate_all` solves the whole live model as the SCC engine's
final pass does: the live initial states are the inputs, the absorbing
states the live rows feed are the outputs (in declaration order), and
every other live state is interior.  It first tries
:func:`parmreach.scc_mc.single_output`, the shortcut every SCC
component tries: with one output that every live state reaches, each
input reaches it with probability 1, and nothing is removed.  Otherwise
it hands the model to :func:`parmreach.scc_mc.reduce_component`, the
reduction every SCC component is solved with, which removes the interior
(:func:`~parmreach.scc_mc.eliminate`) in the shared greedy order, fewest
new transitions first.  The order does not change the final (canceled)
functions, only the amount of intermediate work.

No hierarchy is built, so states still on loops are removed and the
checks that a component's interior is loop-free are skipped.  Instead
every row a removal changed must still sum to exactly 1, which
:func:`~parmreach.ratfun.rf_sums_to_one` decides without cancelling.
Models built from repeated parts, such as brp, change the same rows
again and again; a row the session has already found to sum to 1 is
answered from the session's memo, so the audit costs arithmetic only
for rows it has not seen.

The result contract matches :func:`parmreach.scc_mc.model_check`
exactly.  The engines share the shortcut, the removal step, the order
and the reduction, so their agreement checks the SCC hierarchy; the
exact numeric oracle (:mod:`parmreach.oracle`) remains the independent
check of the arithmetic.  Only divisions are recorded as constraints:
where the shortcut answers, nothing is divided and no divisor enters
the SMT export.
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
    reduce_component,
    single_output,
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
    fed outputs, and the same guarded single-output shortcut before the
    reduction (module docstring).  If the live rows feed no absorbing
    state, the reduction runs with no outputs, and a live input, which
    then surely returns to itself, raises :class:`SelfLoopProbabilityOne`.
    """
    if not m.targets:
        raise NoTargets("model has no target states")
    started = time.perf_counter()

    rows = {s: dict(m.row(s)) for s in m.states}
    live = [s for s in m.states if not m.is_absorbing(s)]
    inputs = [s for s in m.initial_states if not m.is_absorbing(s)]
    # the absorbing states the live rows feed, as scc's final pass has them
    outputs = m.sort_states({t for s in live for t in rows[s] if m.is_absorbing(t)})
    interior = [s for s in live if s not in m.init]
    result = single_output(rows, inputs, outputs, interior)
    if result is None:
        result = reduce_component(rows, inputs, outputs, interior, _remove_state)
    substitute(m, rows, live, inputs, result)
    return assemble_result(m, rows, result.constraints, started, result.sites)

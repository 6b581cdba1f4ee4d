"""Baseline state-elimination engine over the same rational-function layer.

States that are neither initial nor absorbing are removed one at a
time: each predecessor ``u`` of the removed state ``s`` inherits a
direct edge to every successor ``v``, weighted by the probability of
reaching ``v`` through ``s`` with the self-loop summed out as a
geometric series.  Once only initial and absorbing states remain, the
per-initial reachability function falls out of one final self-loop
fold.

The removal step itself, :func:`parmreach.scc_mc.eliminate`, is the one
the SCC engine solves its components with; the audits stay per engine.
Here every row a removal changed is re-summed symbolically and must
still cancel to exactly 1.

The result contract matches :func:`parmreach.scc_mc.model_check`
exactly, so the two engines can be cross-checked symbolically.  States
are removed greedily, fewest new transitions first; the order does not
change the final (canceled) functions, only the amount of intermediate
work.
"""

from __future__ import annotations

import time

from .errors import ParmreachError
from .model import Pdtmc, predecessor_map
from .ratfun import RationalFunction, rf_div, rf_one, rf_sub, rf_sum, rf_zero
from .scc_mc import (
    NoTargets,
    ReachabilityResult,
    SelfLoopProbabilityOne,
    assemble_result,
    eliminate,
)

__all__ = [
    "SelfLoopProbabilityOne",
    "ConservationBroken",
    "eliminate_all",
]


class ConservationBroken(ParmreachError):
    """A row stopped summing to 1 after an elimination step."""


_Rows = dict[str, dict[str, RationalFunction]]


def _remove_state(
    rows: _Rows,
    preds: dict[str, set[str]],
    s: str,
    constraints: list[RationalFunction],
) -> None:
    """Eliminate ``s`` (:func:`~parmreach.scc_mc.eliminate`), then re-sum
    every row that changed symbolically: it must still cancel to exactly 1."""
    for u in sorted(eliminate(rows, preds, s, constraints)):
        if rf_sum(rows[u].values()) != rf_one():
            raise ConservationBroken(
                f"outgoing probabilities of {u!r} no longer sum to 1 "
                f"(after removing {s!r})"
            )


def _removal_sequence(
    m: Pdtmc,
    rows: _Rows,
    preds: dict[str, set[str]],
    candidates: list[str],
):
    """Yield the states to remove: greedily, the state whose removal
    creates the fewest direct edges (the product of its current in- and
    out-degree), declaration order breaking ties.

    The score is recomputed after every removal, so the sequence is
    driven by the live ``rows``/``preds`` structures.
    """
    remaining = set(candidates)
    while remaining:
        best = min(
            remaining,
            key=lambda s: (len(preds[s]) * len(rows[s]), m.index(s)),
        )
        remaining.discard(best)
        yield best


def eliminate_all(m: Pdtmc) -> ReachabilityResult:
    """Exact reachability functions for every (initial, target) pair.

    The model must be preprocessed (absorbing targets, no multi-state
    bottom components).
    """
    if not m.targets:
        raise NoTargets("model has no target states")
    started = time.perf_counter()

    rows: _Rows = {s: dict(m.row(s)) for s in m.states}
    preds = predecessor_map(rows)
    initials = set(m.initial_states)
    absorbing = {s for s in m.states if m.is_absorbing(s)}
    candidates = [s for s in m.states if s not in initials and s not in absorbing]

    constraints: list[RationalFunction] = []
    for s in _removal_sequence(m, rows, preds, candidates):
        _remove_state(rows, preds, s, constraints)

    def reach(source: str) -> dict[str, RationalFunction]:
        if source in absorbing:
            return {t: rf_one() if t == source else rf_zero() for t in m.targets}
        return _solve_initial(m, rows, preds, absorbing, source, constraints)

    return assemble_result(m, reach, constraints, started, 0)


def _solve_initial(
    m: Pdtmc,
    rows: _Rows,
    preds: dict[str, set[str]],
    absorbing: set[str],
    source: str,
    constraints: list[RationalFunction],
) -> dict[str, RationalFunction]:
    """Reachability functions from one initial state of the reduced graph.

    ``rows`` holds only initial and absorbing states by now.  The other
    non-absorbing initial states are removed from a private copy (in
    declaration order), then the final self-loop of ``source`` is
    folded: f(source, t) = P'(source, t) / (1 - P'(source, source)).
    """
    local: _Rows = {u: dict(row) for u, row in rows.items()}
    local_preds = {u: set(ps) for u, ps in preds.items()}
    for other in m.initial_states:
        if other != source and other not in absorbing:
            _remove_state(local, local_preds, other, constraints)

    row = local[source]
    keep = rf_sub(rf_one(), row.get(source, rf_zero()))
    if keep.is_zero:
        raise SelfLoopProbabilityOne(
            f"initial state {source!r} returns to itself with probability 1"
        )
    constraints.append(keep)
    return {
        t: rf_one() if t == source else rf_div(row.get(t, rf_zero()), keep)
        for t in m.targets
    }

"""Baseline state-elimination engine over the same rational-function layer.

States that are neither initial nor absorbing are removed one at a
time: each predecessor ``u`` of the removed state ``s`` inherits a
direct edge to every successor ``v``, weighted by the probability of
reaching ``v`` through ``s`` with the self-loop summed out as a
geometric series.  Once only initial and absorbing states remain, the
per-initial reachability function falls out of one final self-loop
fold.

The result contract matches :func:`parmreach.scc_mc.model_check`
exactly, so the two engines can be cross-checked symbolically.  The
order in which states are removed does not change the final (canceled)
functions, only the amount of intermediate work; three interchangeable
strategies are provided.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from enum import Enum

from .errors import ParmreachError
from .model import Pdtmc
from .ratfun import (
    RationalFunction,
    rf_add,
    rf_div,
    rf_mul,
    rf_one,
    rf_sub,
    rf_sum,
    rf_zero,
)
from .scc_mc import (
    Constraint,
    ConstraintKind,
    NoTargets,
    ReachabilityResult,
    assemble_result,
)

__all__ = [
    "SelfLoopProbabilityOne",
    "ConservationBroken",
    "Strategy",
    "EliminationOrder",
    "eliminate_state",
    "eliminate_all",
]


class SelfLoopProbabilityOne(ParmreachError):
    """Removal of a state whose self-loop probability cancels to 1.

    Such a state never passes control back, so the geometric series
    used to sum out its self-loop diverges; the state is effectively
    absorbing and must stay in the model.
    """


class ConservationBroken(ParmreachError):
    """A row stopped summing to 1 after an elimination step."""


class Strategy(Enum):
    """How the next state to remove is chosen."""

    DECLARATION_ORDER = "declaration"
    FEWEST_TRANSITIONS_FIRST = "fewest-transitions"
    RANDOM = "random"


@dataclass(frozen=True)
class EliminationOrder:
    """A deterministic state-removal policy.

    ``DECLARATION_ORDER`` removes eligible states in the order they
    were declared.  ``FEWEST_TRANSITIONS_FIRST`` (the default) greedily
    removes the state whose removal creates the fewest direct edges,
    scored by the product of its current in- and out-degree with
    declaration order breaking ties.  ``RANDOM`` shuffles the eligible
    states once using ``seed``.
    """

    strategy: Strategy = Strategy.FEWEST_TRANSITIONS_FIRST
    seed: int = 0


_Rows = dict[str, dict[str, RationalFunction]]


def _predecessor_map(rows: _Rows) -> dict[str, set[str]]:
    preds: dict[str, set[str]] = {s: set() for s in rows}
    for u, row in rows.items():
        for v in row:
            if v in preds:
                preds[v].add(u)
    return preds


def _audit_rows(rows: _Rows, touched: set[str], context: str) -> None:
    for u in sorted(touched):
        if rf_sum(rows[u].values()) != rf_one():
            raise ConservationBroken(
                f"outgoing probabilities of {u!r} no longer sum to 1 ({context})"
            )


def _remove_state(
    rows: _Rows,
    preds: dict[str, set[str]],
    s: str,
    constraints: list[Constraint],
) -> None:
    """Remove ``s`` from the working graph in place.

    Every predecessor ``u`` gains ``P(u,s) * P(s,v) / (1 - P(s,s))``
    on its edge to each successor ``v``.  ``rows`` and ``preds`` are
    kept consistent throughout, and every row that changed is re-summed
    symbolically: it must still cancel to exactly 1.
    """
    row_s = rows.pop(s)
    loop = row_s.pop(s, None)
    incoming = preds.pop(s)
    incoming.discard(s)
    for v in row_s:
        preds[v].discard(s)

    if loop is not None:
        keep = rf_sub(rf_one(), loop)
        if keep.is_zero:
            raise SelfLoopProbabilityOne(
                f"state {s!r} has self-loop probability 1 and cannot be removed"
            )
        constraints.append(
            Constraint(
                ConstraintKind.DENOMINATOR_NONZERO,
                keep,
                f"summing out the self-loop of {s!r}",
            )
        )
        row_s = {v: rf_div(f, keep) for v, f in row_s.items()}

    for u in sorted(incoming):
        row_u = rows[u]
        weight = row_u.pop(s)
        for v, f in row_s.items():
            combined = rf_add(row_u.get(v, rf_zero()), rf_mul(weight, f))
            if combined.is_zero:
                row_u.pop(v, None)
                if v in preds:
                    preds[v].discard(u)
            else:
                row_u[v] = combined
                if v in preds:
                    preds[v].add(u)

    _audit_rows(rows, incoming, f"after removing {s!r}")


def _is_absorbing_row(s: str, row: dict[str, RationalFunction]) -> bool:
    return set(row) == {s} and row[s].is_one


def eliminate_state(m: Pdtmc, s: str) -> Pdtmc:
    """Return ``m`` with the non-initial, non-target state ``s`` removed.

    Direct predecessor-to-successor edges replace the removed state; a
    self-loop is summed out first as a geometric series.  Raises
    :class:`SelfLoopProbabilityOne` if that self-loop cancels to 1.
    """
    if not m.has_state(s):
        raise ValueError(f"unknown state {s!r}")
    if s in m.initial_states:
        raise ValueError(f"cannot remove initial state {s!r}")
    if s in m.targets:
        raise ValueError(f"cannot remove target state {s!r}")

    rows = {u: dict(m.row(u)) for u in m.states}
    constraints: list[Constraint] = []
    _remove_state(rows, _predecessor_map(rows), s, constraints)
    states = tuple(u for u in m.states if u != s)
    return Pdtmc(
        states=states,
        params=m.params,
        init=dict(m.init),
        trans={u: rows[u] for u in states if rows[u]},
        targets=m.targets,
    )


def _removal_sequence(
    m: Pdtmc,
    rows: _Rows,
    preds: dict[str, set[str]],
    candidates: list[str],
    order: EliminationOrder,
):
    """Yield the states to remove, honoring the chosen strategy.

    The greedy strategy re-scores after every removal, so it is driven
    by the live ``rows``/``preds`` structures.
    """
    if order.strategy is Strategy.DECLARATION_ORDER:
        yield from candidates
    elif order.strategy is Strategy.RANDOM:
        shuffled = list(candidates)
        random.Random(order.seed).shuffle(shuffled)
        yield from shuffled
    else:
        remaining = set(candidates)
        while remaining:
            best = min(
                remaining,
                key=lambda s: (len(preds[s]) * len(rows[s]), m.index(s)),
            )
            remaining.discard(best)
            yield best


def eliminate_all(
    m: Pdtmc, order: EliminationOrder | None = None
) -> ReachabilityResult:
    """Exact reachability functions for every (initial, target) pair.

    The model must be preprocessed (absorbing targets, no multi-state
    bottom components).  All removal strategies produce the same
    canceled functions; ``order`` only affects intermediate work.
    """
    if not m.targets:
        raise NoTargets("model has no target states")
    if order is None:
        order = EliminationOrder()
    started = time.perf_counter()

    rows: _Rows = {s: dict(m.row(s)) for s in m.states}
    preds = _predecessor_map(rows)
    initials = set(m.initial_states)
    absorbing = {s for s in m.states if _is_absorbing_row(s, rows[s])}
    candidates = [s for s in m.states if s not in initials and s not in absorbing]

    constraints: list[Constraint] = []
    for s in _removal_sequence(m, rows, preds, candidates, order):
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
    constraints: list[Constraint],
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
    if not keep.is_one:
        constraints.append(
            Constraint(
                ConstraintKind.DENOMINATOR_NONZERO,
                keep,
                f"summing out the self-loop of initial state {source!r}",
            )
        )
    return {
        t: rf_one() if t == source else rf_div(row.get(t, rf_zero()), keep)
        for t in m.targets
    }

"""Independent numeric reference for reachability probabilities.

Everything here works on concrete :class:`~parmreach.model.Dtmc` values
and deliberately shares no machinery with the symbolic engines: exact
Fraction arithmetic and a sparse Gauss-Jordan linear solve.  Tests
compare both symbolic pipelines against it at sampled parameter points.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ParmreachError
from .model import Dtmc

__all__ = ["SingularSystem", "numeric_reachability"]


class SingularSystem(ParmreachError):
    """The reachability equation system has no unique solution."""


def _can_reach(d: Dtmc, goals: set[str]) -> set[str]:
    """States with a positive-probability path into *goals* (inclusive)."""
    preds: dict[str, list[str]] = {s: [] for s in d.states}
    for s, row in d.trans.items():
        for t in row:
            preds[t].append(s)
    seen = set(goals)
    frontier = list(goals)
    while frontier:
        s = frontier.pop()
        for p in preds[s]:
            if p not in seen:
                seen.add(p)
                frontier.append(p)
    return seen


def numeric_reachability(
    d: Dtmc,
    sources: Iterable[str] | None = None,
    targets: Sequence[str] | None = None,
) -> dict[tuple[str, str], Fraction]:
    """Exact reachability probabilities ``(source, target) -> Fraction``.

    Solves ``x_s = sum_s' P(s,s') x_s'`` with ``x_t = 1`` at the target
    and 0 at states that cannot reach it, one right-hand-side column per
    target, by sparse Gauss-Jordan elimination with a fill-reducing
    pivot order.  Targets are treated as absorbing regardless of their
    outgoing edges.
    """
    target_list = tuple(d.targets if targets is None else targets)
    source_list = tuple(d.init if sources is None else sources)
    for t in target_list:
        if t not in d.states:
            raise ValueError(f"unknown target {t!r}")
    tset = set(target_list)
    live = _can_reach(d, tset)
    one = Fraction(1)
    zero = Fraction(0)

    # unknowns: non-target states that can reach some target
    unknowns = [s for s in d.states if s in live and s not in tset]
    index = {s: i for i, s in enumerate(d.states)}

    # A x = B with A = I - Q (restricted), B(s, t) = P(s, t)
    A: dict[str, dict[str, Fraction]] = {}
    B: dict[str, dict[str, Fraction]] = {}
    for s in unknowns:
        row = d.trans.get(s, {})
        a_row: dict[str, Fraction] = {s: one}
        b_row: dict[str, Fraction] = {}
        for t, prob in row.items():
            if t in tset:
                b_row[t] = b_row.get(t, zero) + prob
            elif t in live:
                a_row[t] = a_row.get(t, zero) - prob
                if a_row[t] == 0:
                    del a_row[t]
            # edges into dead states contribute 0
        A[s] = a_row
        B[s] = b_row

    # column occupancy for Markowitz-style pivoting
    col_rows: dict[str, set[str]] = {s: set() for s in unknowns}
    for r, a_row in A.items():
        for c in a_row:
            col_rows[c].add(r)

    remaining = set(unknowns)
    while remaining:
        pivot = min(
            remaining,
            key=lambda s: ((len(A[s]) - 1) * (len(col_rows[s]) - 1), index[s]),
        )
        remaining.discard(pivot)
        p_row, p_rhs = A[pivot], B[pivot]
        diag = p_row.get(pivot, zero)
        if diag == 0:
            raise SingularSystem(f"zero pivot while eliminating {pivot!r}")
        for r in list(col_rows[pivot]):
            if r == pivot:
                continue
            factor = A[r].pop(pivot) / diag
            col_rows[pivot].discard(r)
            a_row = A[r]
            for c, v in p_row.items():
                if c == pivot:
                    continue
                nv = a_row.get(c, zero) - factor * v
                if nv == 0:
                    if c in a_row:
                        del a_row[c]
                        col_rows[c].discard(r)
                else:
                    if c not in a_row:
                        col_rows[c].add(r)
                    a_row[c] = nv
            b_row = B[r]
            for c, v in p_rhs.items():
                nv = b_row.get(c, zero) - factor * v
                if nv == 0:
                    b_row.pop(c, None)
                else:
                    b_row[c] = nv

    solution: dict[str, dict[str, Fraction]] = {}
    for s in unknowns:
        diag = A[s][s]
        solution[s] = {t: v / diag for t, v in B[s].items()}

    out: dict[tuple[str, str], Fraction] = {}
    for s in source_list:
        if s not in index:
            raise ValueError(f"unknown source {s!r}")
        for t in target_list:
            if s == t:
                out[(s, t)] = one
            elif s in solution:
                out[(s, t)] = solution[s].get(t, zero)
            else:
                out[(s, t)] = zero
    return out

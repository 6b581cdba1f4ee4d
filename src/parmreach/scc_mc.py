"""SCC-based computation of reachability functions.

The engine replaces strongly connected parts ``K`` of the model by
their *abstraction*: direct edges from the input states of ``K`` to its
output states, labeled with the exact probabilities of eventually
crossing from input to output.  Then a final pass over the live states,
whose inputs are the live initial states, solves what is left.

One driver, ``_reach(m, components, remove)``, runs both engines.
:func:`model_check` passes the components below and :func:`eliminate`;
:func:`~parmreach.elimination.eliminate_all`, classic state
elimination, passes no components and an audited wrapper of
:func:`eliminate`, so only the final pass runs, over the whole live
model.  The removal step is the one difference between the engines.

The components come from :func:`~parmreach.model.scc_components`: the
looping components of the model without its initial states, one level
deep.  They are handled in place on one working copy of the transition
rows: a component's inputs come with it, its outputs are read off the
working rows, and :func:`substitute` deletes the non-input states and
rewrites each input's row.

This keeps the paper's SCC abstraction and drops only its recursion
into the components nested inside one.  Solving those innermost first
fixes a chain's removal order, and each level divides out a self-loop:
on gambler's ruin on 0..n, whose loops nest n - 2 deep, that recorded
n - 2 divisors (148 for ruin(150)), where removing the component's
interior in the greedy order of :func:`removal_order` records 75, as
elimination does.  It also took most of the engine's time: ruin(300)
ran in 0.34 s of engine CPU time with the recursion and 0.12 s without
it (in-process, best of 3, 2-core x86-64 VM).  So an interior may still
loop, and :func:`solve_multi_input` removes its states whatever loops
they are on.

Only components with exactly one input are abstracted.  Abstracting a
component with several inputs means eliminating its inputs again, per
target input, on a copy of its rows.  On the benchmark's fuzz models
that re-elimination made the engine slower than plain elimination:
it took about 0.33 s of the engine's 0.46 s (in-process, 2-core x86-64
VM), and leaving these components removes two thirds of the gcd
kernel calls.  Such a component is *left*: its states stay in the
working rows, and the final pass removes them with the same
elimination step.  So is a component with no inputs, which nothing
enters or whose rows lead nowhere outside it (a closed class, only in
an unpreprocessed model).  The rule is fixed; nothing configures it.

:func:`solve_multi_input` solves every abstracted component and the
final pass, under both engines.  It checks that no row escapes the
component.  A component with one output that each of its states
reaches is then left through that output with probability 1, and
nothing is eliminated.  Otherwise the removal step passed in runs on
the interior, then, per target input, on the other inputs; with a
single input this reduces to dividing out the first-return
probability.  The interior goes in the greedy order of
:func:`removal_order`, after any interior states that reach no output:
those lead into a closed class, whose removal fails at its first state
in both engines.  What guards a solve is the escaping-edge check, the
site audits at every input (below), and the two engines agreeing with
each other and with the exact oracle (:mod:`parmreach.oracle`) on every
model of the usual set (``tests/test_engines.py``, one test per model).

Every divisor used along the way is recorded, so the final result can
be exported as an SMT query characterizing the parameter region where
the closed forms are valid (:func:`collect_constraints`).  Where the
shortcut answers, nothing is divided, so no divisor is recorded.

Internal invariants are checked unconditionally: at every abstraction
site the outgoing abstracted probabilities must sum to exactly 1, and
the first-return probability must complement the crossing
probabilities (:func:`~parmreach.ratfun.rf_sums_to_one` decides both
exactly, with no cancellation).  Every solved component reports how
many sites it audited, and the result carries their sum
(``CheckStats.abstraction_sites``), so tests can assert the checks
actually ran.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ParmreachError
from .model import Pdtmc, predecessor_map, scc_components
from .polycore import Polynomial, monomial_exponents, session
from .ratfun import (
    RationalFunction,
    rf_add,
    rf_div,
    rf_mul,
    rf_one,
    rf_sub,
    rf_sum,
    rf_sums_to_one,
    rf_zero,
)

__all__ = [
    "NoTargets",
    "AbstractionInvariantBroken",
    "SelfLoopProbabilityOne",
    "AbstractionResult",
    "ReachabilityResult",
    "CheckStats",
    "eliminate",
    "removal_order",
    "induced",
    "solve_single_input",
    "solve_multi_input",
    "substitute",
    "model_check",
    "collect_constraints",
]


class NoTargets(ParmreachError):
    """Reachability needs a nonempty target set."""


class AbstractionInvariantBroken(ParmreachError):
    """An always-on internal identity failed; indicates a bug, not bad input."""


class SelfLoopProbabilityOne(ParmreachError):
    """Removal of a state whose self-loop probability cancels to 1.

    Such a state never passes control back, so the geometric series
    used to sum out its self-loop diverges; the state is effectively
    absorbing and must stay in the model.
    """


class AbstractionResult(NamedTuple):
    """Abstraction of one component: ``rows`` maps each input to its
    abstracted row, the normalized crossing probability to each output
    it reaches, in output order; ``constraints`` are the divisors used,
    each of which must stay nonzero; ``sites`` counts the abstraction
    sites audited on the way (one per input)."""

    rows: Mapping[str, Mapping[str, RationalFunction]]
    constraints: tuple[RationalFunction, ...]
    sites: int


class CheckStats(NamedTuple):
    stored_polynomials: int
    gcd_kernel_calls: int
    abstraction_sites: int
    elapsed_seconds: float


class ReachabilityResult(NamedTuple):
    """Outcome of :func:`model_check`: ``constraints`` are the divisors
    the engine used, in order, each of which must stay nonzero for the
    functions to be valid."""

    per_pair: Mapping[tuple[str, str], RationalFunction]
    total: RationalFunction
    constraints: tuple[RationalFunction, ...]
    stats: CheckStats


# ---------------------------------------------------------------------------
# Components, solved on the working row table
# ---------------------------------------------------------------------------

# The engine's working transition rows: a mutable copy of ``m.trans``
# whose rows keep declaration order and in which every solved component
# has been replaced by direct edges from its inputs to its outputs.
_Rows = dict[str, dict[str, RationalFunction]]
# A removal step: :func:`eliminate`, or an audited wrapper of it.
_Remove = Callable[[_Rows, dict[str, set[str]], str, list[RationalFunction]], object]


def eliminate(
    rows: _Rows,
    preds: dict[str, set[str]],
    s: str,
    constraints: list[RationalFunction],
) -> set[str]:
    """Remove ``s`` from ``rows`` in place; return its predecessors.

    Every predecessor ``u`` gains ``P(u,s) * P(s,v) / (1 - P(s,s))``
    on its edge to each successor ``v``, and ``1 - P(s,s)`` is recorded
    in ``constraints`` when ``s`` has a self-loop.  ``preds`` (which
    must hold every successor of ``s``) is kept consistent with
    ``rows``.  Nothing is audited here: each engine checks the returned
    rows its own way.
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
        constraints.append(keep)
        row_s = {v: rf_div(f, keep) for v, f in row_s.items()}

    for u in sorted(incoming):
        row_u = rows[u]
        weight = row_u.pop(s)
        for v, f in row_s.items():
            old = row_u.get(v)
            combined = rf_mul(weight, f) if old is None else rf_add(old, rf_mul(weight, f))
            if combined.is_zero:
                row_u.pop(v, None)
                preds[v].discard(u)
            else:
                row_u[v] = combined
                preds[v].add(u)
    return incoming


def removal_order(
    rows: _Rows, preds: dict[str, set[str]], candidates: Sequence[str]
) -> Iterator[str]:
    """Yield ``candidates`` greedily; the caller removes each yielded
    state from ``rows`` and ``preds`` before it asks for the next.

    The next state is the one whose removal makes the fewest new edges:
    the product of its current in- and out-degree (the Markowitz score),
    ties broken by the order of ``candidates``.  A removal changes only
    the rows of the removed state's predecessors and the predecessor
    sets of its successors, so only those are scored again; a lazy heap
    holds every pending state's current score, and entries a rescore
    left stale are skipped when popped.
    """

    def score(s: str) -> int:
        return len(preds[s]) * len(rows[s])

    rank = {s: i for i, s in enumerate(candidates)}
    pending = {s: score(s) for s in candidates}
    heap = [(k, rank[s], s) for s, k in pending.items()]
    heapq.heapify(heap)
    while heap:
        k, _, s = heapq.heappop(heap)
        if pending.get(s) != k:
            continue
        del pending[s]
        touched = {*preds[s], *rows[s]}
        yield s
        for t in touched:
            if t in pending and (new := score(t)) != pending[t]:
                pending[t] = new
                heapq.heappush(heap, (new, rank[t], t))


def induced(
    m: Pdtmc, rows: _Rows, K: Sequence[str], inputs: Sequence[str]
) -> tuple[tuple[str, ...], list[str]]:
    """The outputs of component ``K`` (states outside K fed by its rows,
    in declaration order) and its interior (K minus ``inputs``).  Either
    may be empty: :func:`solve_multi_input` decides what that means."""
    ks = set(K)
    outputs = m.sort_states({t for s in K for t in rows[s] if t not in ks})
    entries = set(inputs)
    return outputs, [s for s in K if s not in entries]


def _audit_site(
    site: str,
    abs_row: Mapping[str, RationalFunction],
    raw_row: Mapping[str, RationalFunction] | None = None,
    self_loop: RationalFunction | None = None,
) -> None:
    """Always-on identities: normalized sum 1, and (when a computation
    happened) conservation of raw crossing + first-return mass."""
    if raw_row is not None and not rf_sums_to_one([*raw_row.values(), self_loop]):
        mass = rf_add(rf_sum(raw_row.values()), self_loop)
        raise AbstractionInvariantBroken(
            f"at {site}: crossing + first-return mass is {mass}, expected 1"
        )
    if not rf_sums_to_one(abs_row.values()):
        raise AbstractionInvariantBroken(
            f"at {site}: abstracted probabilities sum to {rf_sum(abs_row.values())}, expected 1"
        )


def solve_single_input(
    rows: _Rows, inputs: Sequence[str], outputs: Sequence[str], interior: Sequence[str]
) -> AbstractionResult:
    """:func:`solve_multi_input`, which also covers a single input."""
    return solve_multi_input(rows, inputs, outputs, interior)


def solve_multi_input(
    rows: _Rows,
    inputs: Sequence[str],
    outputs: Sequence[str],
    interior: Sequence[str],
    remove: _Remove = eliminate,
) -> AbstractionResult:
    """Abstraction of a component, after every interior and input row
    is checked for edges that escape the component, reached or not.
    Both engines solve every component and their final pass here,
    through the one driver; they differ only in ``remove``.

    With one output that every input and interior state reaches, a
    finite chain leaves through it with probability 1: each input gets
    probability 1, audited as one site, with no division and so no
    divisor.  Otherwise ``remove`` (:func:`eliminate` or an audited
    wrapper of it) removes the interior from a copy of the input and
    interior rows, which leaves each input with direct edges to the
    outputs and to the inputs.  The interior may still loop: its states
    are removed whatever their loops.  The interior states that reach no
    output go first, last first in the interior's order, and the rest
    in :func:`removal_order`.  Such states lead into a closed class
    (only in an unpreprocessed model), and removing a class fails at
    the last of its states removed; in this order that is its first
    state, whatever other rows lead into it.  Then, per
    target input, the other inputs are removed from a copy of those
    rows: the target's edges to the outputs are its unnormalized
    crossing functions, their sum ``escape`` is recorded as a nonzero
    divisor, and its self-loop is the first-return probability.  If
    ``escape`` cancels to zero (always, with no outputs) the input
    surely returns to itself.  Both identities are audited at every
    input (one site each).

    Which check covers which rows: the escaping-edge check covers the
    rows as given, and the site audits check each input's final row,
    after every removal that changed it.  The elimination engine's
    ``remove`` also checks the row of each state it removes, just
    before the removal, the other inputs in the per-target copies
    included (:mod:`parmreach.elimination`).  :func:`eliminate`, the
    SCC engine's ``remove``, checks nothing, so there a fault in an
    interior row shows only where it reaches an input's row.
    """
    allowed = {*interior, *inputs, *outputs}
    for s in (*interior, *inputs):
        for t in rows[s]:
            if t not in allowed:
                raise AbstractionInvariantBroken(
                    f"edge {s!r} -> {t!r} escapes the component being solved"
                )
    local: _Rows = {s: dict(rows[s]) for s in (*inputs, *interior)}
    local.update((t, {}) for t in outputs)
    preds = predecessor_map(local)
    reaching = set(outputs)
    stack = list(outputs)
    while stack:
        for u in preds[stack.pop()]:
            if u not in reaching:
                reaching.add(u)
                stack.append(u)
    if len(outputs) == 1 and len(reaching) == len(local):
        (out,) = outputs
        for s in inputs:
            _audit_site(f"{s} (single output)", {out: rf_one()})
        return AbstractionResult({s: {out: rf_one()} for s in inputs}, (), len(inputs))

    constraints: list[RationalFunction] = []
    for s in [s for s in interior if s not in reaching][::-1]:
        remove(local, preds, s, constraints)
    for s in removal_order(local, preds, [s for s in interior if s in reaching]):
        remove(local, preds, s, constraints)

    abstracted: dict[str, dict[str, RationalFunction]] = {}
    for target in inputs:
        work = {u: dict(row) for u, row in local.items()}
        work_preds = {u: set(ps) for u, ps in preds.items()}
        for j in inputs:
            if j != target:
                remove(work, work_preds, j, constraints)
        raw_row = {t: work[target][t] for t in outputs if t in work[target]}
        self_loop = work[target].get(target, rf_zero())

        escape = rf_sum(raw_row.values())
        if escape.is_zero:
            raise SelfLoopProbabilityOne(
                f"initial state {target!r} returns to itself with probability 1"
            )
        constraints.append(escape)
        row = {t: rf_div(v, escape) for t, v in raw_row.items()}
        _audit_site(f"input {target!r}", row, raw_row, self_loop)
        abstracted[target] = row

    return AbstractionResult(abstracted, tuple(constraints), len(inputs))


def substitute(rows: _Rows, K: Sequence[str], result: AbstractionResult) -> None:
    """Replace component K in ``rows`` by direct input-to-output edges:
    the non-input states go, each input's row becomes its abstracted
    row."""
    for s in K:
        if s not in result.rows:
            del rows[s]
    rows.update(result.rows)


# ---------------------------------------------------------------------------
# The driver of both engines: components first, then the rest of the model
# ---------------------------------------------------------------------------


def _solve(
    m: Pdtmc,
    rows: _Rows,
    K: Sequence[str],
    inputs: Sequence[str],
    constraints: list[RationalFunction],
    remove: _Remove,
) -> int:
    """Replace component K by direct edges from its inputs to its
    outputs (:func:`solve_multi_input`, removing states with
    ``remove``, the engine's one own step); return the number of
    abstraction sites audited."""
    outputs, interior = induced(m, rows, K, inputs)
    result = solve_multi_input(rows, inputs, outputs, interior, remove)
    constraints.extend(result.constraints)
    substitute(rows, K, result)
    return result.sites


def _reach(
    m: Pdtmc, components: Iterable[tuple[Sequence[str], Sequence[str]]], remove: _Remove
) -> ReachabilityResult:
    """The driver of both engines, which differ only in ``components``
    and ``remove``.

    Each ``(states, inputs)`` pair of ``components`` with one input is
    replaced by direct edges, in the order given; the pairs are
    disjoint, so solving one leaves every other one's states in the
    rows.  One with several inputs or none is left in the rows (module
    docstring).  Then the final pass solves the rest: the live
    (non-absorbing) states, whose inputs are the live initial states.
    Afterwards each live initial state's row holds its reachability
    functions, an absorbing one only its self-loop; ``total`` weights
    each initial state's target mass by its initial probability.
    """
    if not m.targets:
        raise NoTargets("model has no target states")
    started = time.perf_counter()
    rows: _Rows = {s: dict(m.row(s)) for s in m.states}
    constraints: list[RationalFunction] = []
    sites = 0
    for K, inputs in components:
        if len(inputs) == 1:
            sites += _solve(m, rows, K, inputs, constraints, remove)

    # solving never makes a state absorbing or changes an absorbing row
    live = [s for s in m.states if s in rows and not m.is_absorbing(s)]
    entries = [s for s in m.initial_states if not m.is_absorbing(s)]
    sites += _solve(m, rows, live, entries, constraints, remove)

    per_pair: dict[tuple[str, str], RationalFunction] = {}
    total = rf_zero()
    for s in m.initial_states:
        mass = rf_zero()
        for t in m.targets:
            f = rf_one() if s == t else rows[s].get(t, rf_zero())
            per_pair[(s, t)] = f
            mass = rf_add(mass, f)
        total = rf_add(total, rf_mul(m.init[s], mass))

    current = session()
    stats = CheckStats(
        stored_polynomials=current.stored_polynomials,
        gcd_kernel_calls=current.gcd_kernel_calls,
        abstraction_sites=sites,
        elapsed_seconds=time.perf_counter() - started,
    )
    return ReachabilityResult(per_pair, total, tuple(constraints), stats)


def model_check(m: Pdtmc) -> ReachabilityResult:
    """Exact reachability functions for every (initial, target) pair.

    The model must be preprocessed (absorbing targets, no multi-state
    bottom components).  On a model that is not, the final pass meets
    a closed class and raises :class:`SelfLoopProbabilityOne`, with
    the message :func:`~parmreach.elimination.eliminate_all` gives.
    """
    region = [s for s in m.states if s not in m.init]
    return _reach(m, scc_components(m, region), eliminate)


# ---------------------------------------------------------------------------
# SMT-LIB export
# ---------------------------------------------------------------------------


# SMT-LIB 2.6 reserved words and Core symbols that are also valid
# parameter names; a quoted ``|and|`` still names the Core ``and``
_SMT_TAKEN = frozenset(
    "_ as let exists forall match par NUMERAL DECIMAL STRING BINARY HEXADECIMAL"
    " assert push pop reset exit echo true false not and or xor ite distinct".split()
)


def _smt_symbol(name: str) -> str:
    """``name`` as an SMT-LIB symbol; a taken name gets a ``'`` no parameter has."""
    return f"|{name}'|" if name in _SMT_TAKEN else name


def _smt_int(n: int) -> str:
    return str(n) if n >= 0 else f"(- {-n})"


def _smt_monomial(key: int, names: Mapping[int, str]) -> list[str]:
    parts: list[str] = []
    for vid, e in monomial_exponents(key):
        parts.extend([names[vid]] * e)
    return parts


def _smt_poly(p: Polynomial, names: Mapping[int, str]) -> str:
    if p.is_zero:
        return "0"
    terms = []
    for key, coeff in p.terms:
        factors = _smt_monomial(key, names)
        if not factors:
            terms.append(_smt_int(coeff))
        elif coeff == 1 and len(factors) == 1:
            terms.append(factors[0])
        else:
            inner = " ".join(factors)
            if coeff == 1:
                terms.append(f"(* {inner})")
            else:
                terms.append(f"(* {_smt_int(coeff)} {inner})")
    if len(terms) == 1:
        return terms[0]
    return f"(+ {' '.join(terms)})"


def collect_constraints(r: ReachabilityResult, m: Pdtmc) -> str:
    """Render the side conditions as an SMT-LIB 2 script (QF_NRA).

    Per recorded divisor, in order: ``numerator != 0``; then per
    parametric edge f = n/d of ``m``, in row order: ``0 < n*d`` (the
    edge keeps positive probability) and ``0 < (d-n)*d`` (it stays
    below one).  Constant conditions are trivially true and omitted;
    duplicates are emitted once.  A parameter named like an SMT-LIB
    reserved word or Core symbol is declared as a quoted symbol.  The
    script ends with (check-sat) and performs no solving itself.
    """
    names = {v.id: _smt_symbol(v.name) for v in m.params}
    lines = ["(set-logic QF_NRA)"]
    for v in m.params:
        lines.append(f"(declare-const {names[v.id]} Real)")

    seen: set[str] = set()

    def emit(assertion: str) -> None:
        if assertion not in seen:
            seen.add(assertion)
            lines.append(assertion)

    # dividing by the positive integer content keeps every (in)equality's sign
    for divisor in r.constraints:
        num = divisor.numerator_poly()
        if not num.is_constant:
            emit(f"(assert (not (= {_smt_poly(num.split_content()[1], names)} 0)))")
    rendered = set()  # (num, den) of the edge functions handled so far
    for row in m.trans.values():
        for f in row.values():
            if f.is_constant or (f.num, f.den) in rendered:
                continue
            rendered.add((f.num, f.den))
            num, den = f.numerator_poly(), f.denominator_poly()
            positive = (num * den).split_content()[1]
            emit(f"(assert (< 0 {_smt_poly(positive, names)}))")
            below_one = ((den - num) * den).split_content()[1]
            if not below_one.is_constant:
                emit(f"(assert (< 0 {_smt_poly(below_one, names)}))")

    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"

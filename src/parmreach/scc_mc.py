"""Hierarchical SCC-based computation of reachability functions.

The engine repeatedly replaces a strongly connected part ``K`` of the
model by its *abstraction*: direct edges from the input states of ``K``
to its output states, labeled with the exact probabilities of
eventually crossing from input to output.  Loops are handled innermost
first, so by the time a component is solved, everything strictly inside
it is already loop-free and a single backward pass over the DAG
suffices.  For a component with one input state the first-return
probability is divided out in one normalization step; with several
input states their mutual-visit equations are solved by symbolic
variable elimination, separately per input.

Every division performed along the way is recorded as a
:class:`Constraint`, so the final result can be exported as an SMT
query characterizing the parameter region where the closed forms are
valid (:func:`collect_constraints`).

Internal invariants are checked unconditionally: at every abstraction
site the outgoing abstracted probabilities must sum to exactly 1, and
the first-return probability must complement the crossing
probabilities.  A module-level counter tracks how many sites were
audited, so tests can assert the checks actually ran.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ParmreachError
from .factorizations import pool_stats
from .model import Pdtmc, build_scc_tree, inp, out, tarjan_sccs
from .polycore import Polynomial, monomial_exponents
from .ratfun import (
    RationalFunction,
    rf_add,
    rf_const,
    rf_div,
    rf_mul,
    rf_one,
    rf_sub,
    rf_sum,
    rf_zero,
)

__all__ = [
    "AbsorbingSubset",
    "NoTargets",
    "AbstractionInvariantBroken",
    "ConstraintKind",
    "Constraint",
    "AbstractionResult",
    "ReachabilityResult",
    "CheckStats",
    "induced",
    "solve_single_input",
    "solve_multi_input",
    "substitute",
    "abstract",
    "model_check",
    "assemble_result",
    "collect_constraints",
    "abstraction_sites_checked",
    "reset_abstraction_site_counter",
]


class AbsorbingSubset(ParmreachError):
    """The chosen state set has no output states; it cannot be abstracted."""


class NoTargets(ParmreachError):
    """Reachability needs a nonempty target set."""


class AbstractionInvariantBroken(ParmreachError):
    """An always-on internal identity failed; indicates a bug, not bad input."""


class ConstraintKind(Enum):
    EDGE_POSITIVE = "edge-positive"
    DENOMINATOR_NONZERO = "denominator-nonzero"


@dataclass(frozen=True)
class Constraint:
    """A symbolic side condition collected during the computation."""

    kind: ConstraintKind
    function: RationalFunction
    context: str


@dataclass(frozen=True)
class AbstractionResult:
    """Abstraction of one component.

    ``abs_probs`` maps (input, output) to the normalized crossing
    probability; ``raw_pabs`` additionally holds the unnormalized
    crossing functions and, under key (input, input), the first-return
    probability that was divided out.
    """

    abs_probs: Mapping[tuple[str, str], RationalFunction]
    raw_pabs: Mapping[tuple[str, str], RationalFunction]
    constraints: tuple[Constraint, ...]


@dataclass(frozen=True)
class CheckStats:
    stored_polynomials: int
    gcd_kernel_calls: int
    abstraction_sites: int
    elapsed_seconds: float


@dataclass(frozen=True)
class ReachabilityResult:
    """Outcome of :func:`model_check`."""

    per_pair: Mapping[tuple[str, str], RationalFunction]
    total: RationalFunction
    constraints: tuple[Constraint, ...]
    stats: CheckStats


_sites_checked = 0


def abstraction_sites_checked() -> int:
    """How many abstraction sites have had their sum-to-1 identity audited."""
    return _sites_checked


def reset_abstraction_site_counter() -> None:
    global _sites_checked
    _sites_checked = 0


# ---------------------------------------------------------------------------
# Component models
# ---------------------------------------------------------------------------


def induced(m: Pdtmc, K: Iterable[str]) -> Pdtmc:
    """The sub-model on ``K`` with its output states made absorbing.

    The initial distribution is uniform over the input states of K,
    which is all downstream steps need (they only read *which* states
    are inputs).  The outputs double as the target set.
    """
    ks = m.sort_states(K)
    if not ks:
        raise ValueError("empty state set")
    outputs = out(m, ks)
    if not outputs:
        raise AbsorbingSubset(f"state set {list(ks)} has no output states")
    inputs = inp(m, ks)
    if not inputs:
        raise ValueError(f"state set {list(ks)} has no input states; it is unreachable")
    states = m.sort_states(set(ks) | set(outputs))
    one = rf_one()
    trans: dict[str, dict[str, RationalFunction]] = {}
    for s in ks:
        row = m.trans.get(s, {})
        if row:
            trans[s] = dict(row)
    for o in outputs:
        trans[o] = {o: one}
    weight = rf_const(Fraction(1, len(inputs)))
    init = {s: weight for s in inputs}
    return Pdtmc(states, m.params, init, trans, outputs)


def _reverse_topological(m: Pdtmc, region: Sequence[str]) -> list[str]:
    """The region's states, successors before predecessors.

    The caller guarantees the region is loop-free; a loop here means the
    innermost-first processing order was violated.
    """
    order: list[str] = []
    for scc in tarjan_sccs(m, region):
        if len(scc) > 1 or scc[0] in m.trans.get(scc[0], {}):
            raise AbstractionInvariantBroken(
                f"interior {list(region)} still contains the loop {list(scc)}"
            )
        order.append(scc[0])
    return order


def _crossing_functions(
    m: Pdtmc, interior: Sequence[str], terminals: Sequence[str]
) -> dict[str, dict[str, RationalFunction]]:
    """Path probabilities from each interior state to each terminal,
    moving through interior states only (one backward DAG pass)."""
    tset = set(terminals)
    iset = set(interior)
    w: dict[str, dict[str, RationalFunction]] = {}
    for s in _reverse_topological(m, interior):
        row = m.trans.get(s, {})
        acc: dict[str, RationalFunction] = {}
        for t, prob in row.items():
            if t in tset:
                acc[t] = rf_add(acc.get(t, rf_zero()), prob)
            elif t in iset:
                for tau, val in w[t].items():
                    acc[tau] = rf_add(acc.get(tau, rf_zero()), rf_mul(prob, val))
            else:
                raise AbstractionInvariantBroken(
                    f"edge {s!r} -> {t!r} escapes the component being solved"
                )
        w[s] = acc
    return w


def _first_hit_from(
    m: Pdtmc,
    source: str,
    interior_w: Mapping[str, Mapping[str, RationalFunction]],
    interior: set[str],
    terminals: set[str],
) -> dict[str, RationalFunction]:
    """One more step of the same recursion, starting at a source state."""
    acc: dict[str, RationalFunction] = {}
    for t, prob in m.trans.get(source, {}).items():
        if t in terminals:
            acc[t] = rf_add(acc.get(t, rf_zero()), prob)
        elif t in interior:
            for tau, val in interior_w[t].items():
                acc[tau] = rf_add(acc.get(tau, rf_zero()), rf_mul(prob, val))
        else:
            raise AbstractionInvariantBroken(
                f"edge {source!r} -> {t!r} escapes the component being solved"
            )
    return acc


def _audit_site(
    site: str,
    abs_row: Mapping[str, RationalFunction],
    raw_row: Mapping[str, RationalFunction] | None = None,
    self_loop: RationalFunction | None = None,
) -> None:
    """Always-on identities: normalized sum 1, and (when a computation
    happened) conservation of raw crossing + first-return mass."""
    global _sites_checked
    if raw_row is not None and self_loop is not None:
        mass = rf_add(rf_sum(raw_row.values()), self_loop)
        if not mass.is_one:
            raise AbstractionInvariantBroken(
                f"at {site}: crossing + first-return mass is {mass}, expected 1"
            )
    total = rf_sum(abs_row.values())
    if not total.is_one:
        raise AbstractionInvariantBroken(
            f"at {site}: abstracted probabilities sum to {total}, expected 1"
        )
    _sites_checked += 1


def solve_single_input(m: Pdtmc) -> AbstractionResult:
    """Abstraction of a component model with exactly one input state.

    The interior is loop-free, so one backward pass yields the
    unnormalized crossing functions and the first-return probability;
    dividing by their sum (recorded as a nonzero side condition) gives
    the abstraction.  With a single output no computation is needed at
    all: the crossing probability is 1.
    """
    (source,) = m.initial_states
    outputs = tuple(t for t in m.states if m.is_absorbing(t))
    if len(outputs) == 1:
        abs_probs = {(source, outputs[0]): rf_one()}
        _audit_site(f"{source} (single output)", {outputs[0]: rf_one()})
        return AbstractionResult(abs_probs, {}, ())

    interior = [s for s in m.states if not m.is_absorbing(s) and s != source]
    terminals = outputs + (source,)
    w = _crossing_functions(m, interior, terminals)
    hit = _first_hit_from(m, source, w, set(interior), set(terminals))

    raw: dict[tuple[str, str], RationalFunction] = {}
    raw_row: dict[str, RationalFunction] = {}
    for t in outputs:
        val = hit.get(t, rf_zero())
        raw[(source, t)] = val
        if not val.is_zero:
            raw_row[t] = val
    self_loop = hit.get(source, rf_zero())
    raw[(source, source)] = self_loop

    escape = rf_sum(raw_row.values())
    constraints = (
        Constraint(
            ConstraintKind.DENOMINATOR_NONZERO,
            escape,
            f"normalization at input {source!r}",
        ),
    )
    row = {t: rf_div(val, escape) for t, val in raw_row.items()}
    _audit_site(f"input {source!r}", row, raw_row, self_loop)
    return AbstractionResult({(source, t): f for t, f in row.items()}, raw, constraints)


def solve_multi_input(m: Pdtmc) -> AbstractionResult:
    """Abstraction of a component model with several input states.

    After the single backward pass, the inputs' mutual-visit equations
    ``v_i = b_i + sum_j A_ij v_j`` remain.  They are solved once per
    input: for input i, every other input variable is eliminated from a
    working copy, leaving the unnormalized crossing functions (the
    constant terms) and the first-return coefficient ``A'_ii``.
    """
    inputs = m.initial_states
    outputs = tuple(t for t in m.states if m.is_absorbing(t))
    constraints: list[Constraint] = []

    if len(outputs) == 1:
        abs_probs: dict[tuple[str, str], RationalFunction] = {}
        for s in inputs:
            _audit_site(f"{s} (single output)", {outputs[0]: rf_one()})
            abs_probs[(s, outputs[0])] = rf_one()
        return AbstractionResult(abs_probs, {}, ())

    interior = [s for s in m.states if not m.is_absorbing(s) and s not in set(inputs)]
    terminals = outputs + inputs
    w = _crossing_functions(m, interior, terminals)
    ivals = {
        s: _first_hit_from(m, s, w, set(interior), set(terminals)) for s in inputs
    }

    abs_probs = {}
    raw: dict[tuple[str, str], RationalFunction] = {}
    for target_input in inputs:
        # working copy of the input-to-input system
        A = {
            i: {j: ivals[i].get(j, rf_zero()) for j in inputs} for i in inputs
        }
        b = {
            i: {t: ivals[i].get(t, rf_zero()) for t in outputs} for i in inputs
        }
        alive = [j for j in inputs if j != target_input]
        for j in alive:
            keep = rf_sub(rf_one(), A[j][j])
            constraints.append(
                Constraint(
                    ConstraintKind.DENOMINATOR_NONZERO,
                    keep,
                    f"eliminating input {j!r} while solving for {target_input!r}",
                )
            )
            # v_j = (b_j + sum_{k != j} A_jk v_k) / keep
            sub_row = {
                k: rf_div(A[j][k], keep) for k in inputs if k != j and not A[j][k].is_zero
            }
            sub_rhs = {t: rf_div(v, keep) for t, v in b[j].items() if not v.is_zero}
            for i in inputs:
                if i == j or not A[i]:
                    continue  # skip the row being removed and spent rows
                coeff = A[i][j]
                if coeff.is_zero:
                    continue
                A[i][j] = rf_zero()
                for k, v in sub_row.items():
                    A[i][k] = rf_add(A[i][k], rf_mul(coeff, v))
                for t, v in sub_rhs.items():
                    b[i][t] = rf_add(b[i][t], rf_mul(coeff, v))
            A[j] = {}
            b[j] = {}

        raw_row = {t: v for t, v in b[target_input].items() if not v.is_zero}
        self_loop = A[target_input][target_input]
        for t in outputs:
            raw[(target_input, t)] = raw_row.get(t, rf_zero())
        raw[(target_input, target_input)] = self_loop

        escape = rf_sum(raw_row.values())
        constraints.append(
            Constraint(
                ConstraintKind.DENOMINATOR_NONZERO,
                escape,
                f"normalization at input {target_input!r}",
            )
        )
        row = {t: rf_div(v, escape) for t, v in raw_row.items()}
        _audit_site(f"input {target_input!r}", row, raw_row, self_loop)
        for t, v in row.items():
            abs_probs[(target_input, t)] = v

    return AbstractionResult(abs_probs, raw, tuple(constraints))


def substitute(m: Pdtmc, K: Iterable[str], result: AbstractionResult) -> Pdtmc:
    """Replace component K by direct input-to-output edges."""
    ks = set(K)
    inputs = set(inp(m, ks))
    drop = ks - inputs
    states = [s for s in m.states if s not in drop]
    trans: dict[str, dict[str, RationalFunction]] = {}
    for s in states:
        if s in inputs:
            row = {
                t: f
                for (i, t), f in result.abs_probs.items()
                if i == s and not f.is_zero
            }
            trans[s] = dict(sorted(row.items(), key=lambda kv: m.index(kv[0])))
        elif s in m.trans:
            trans[s] = dict(m.trans[s])
    return Pdtmc(states, m.params, m.init, trans, [t for t in m.targets if t not in drop])


# ---------------------------------------------------------------------------
# The engine: innermost components first, then the rest of the model
# ---------------------------------------------------------------------------


def _solve(m: Pdtmc, K: Sequence[str], constraints: list[Constraint]) -> Pdtmc:
    """Replace component K of m, whose interior is loop-free by now, by
    direct edges from its inputs to its outputs."""
    final = induced(m, K)
    result = (
        solve_single_input(final)
        if len(final.initial_states) == 1
        else solve_multi_input(final)
    )
    constraints.extend(result.constraints)
    return substitute(m, K, result)


def _abstract(m: Pdtmc) -> tuple[Pdtmc, list[Constraint]]:
    """Abstract every looping component of ``m`` (initial states
    excluded), each after the components nested in it, then the rest.

    The hierarchy is walked with an explicit stack, so nesting depth is
    bounded by memory rather than by the recursion limit.  When a
    component's turn comes, its nested components have already been
    replaced by direct edges, which leaves its interior loop-free.
    """
    constraints: list[Constraint] = []
    current = m
    initials = set(m.initial_states)
    tree = build_scc_tree(m, [s for s in m.states if s not in initials])
    stack = [(node, False) for node in reversed(tree.roots)]
    while stack:
        node, nested_done = stack.pop()
        if not nested_done:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node.children))
            continue
        # nested components left only their input states behind
        current = _solve(
            current, [s for s in node.states if current.has_state(s)], constraints
        )

    live = [s for s in current.states if not current.is_absorbing(s)]
    if live:
        current = _solve(current, live, constraints)
    return current, constraints


def abstract(m: Pdtmc) -> Pdtmc:
    """Fully abstract a preprocessed model: the result keeps only the
    initial and absorbing states, with direct reachability edges.
    """
    result, _ = _abstract(m)
    return result


def assemble_result(
    m: Pdtmc,
    reach: Callable[[str], Mapping[str, RationalFunction]],
    constraints: list[Constraint],
    started: float,
    abstraction_sites: int,
) -> ReachabilityResult:
    """The result both engines return, once the model is reduced.

    ``reach(s)`` maps every target to its reachability function from the
    initial state ``s``; it is called once per initial state, in order,
    and may append to ``constraints``.  The edge-positivity constraints
    of ``m`` follow, and ``total`` weights each initial state's target
    mass by its initial probability.  ``started`` is the
    :func:`time.perf_counter` reading the elapsed time counts from.
    """
    per_pair: dict[tuple[str, str], RationalFunction] = {}
    total = rf_zero()
    for s in m.initial_states:
        row = reach(s)
        mass = rf_zero()
        for t in m.targets:
            per_pair[(s, t)] = row[t]
            mass = rf_add(mass, row[t])
        total = rf_add(total, rf_mul(m.init[s], mass))

    for s, row in m.trans.items():
        for t, f in row.items():
            constraints.append(
                Constraint(ConstraintKind.EDGE_POSITIVE, f, f"edge {s!r} -> {t!r}")
            )

    stats = CheckStats(
        stored_polynomials=pool_stats().stored_polynomials,
        gcd_kernel_calls=pool_stats().gcd_kernel_calls,
        abstraction_sites=abstraction_sites,
        elapsed_seconds=time.perf_counter() - started,
    )
    return ReachabilityResult(per_pair, total, tuple(constraints), stats)


def model_check(m: Pdtmc) -> ReachabilityResult:
    """Exact reachability functions for every (initial, target) pair.

    The model must be preprocessed (absorbing targets, no multi-state
    bottom components).  ``total`` weights each initial state's target
    mass by its initial probability.
    """
    if not m.targets:
        raise NoTargets("model has no target states")
    started = time.perf_counter()
    sites_before = abstraction_sites_checked()
    abstracted, constraints = _abstract(m)
    return assemble_result(
        m,
        lambda s: {t: rf_one() if s == t else abstracted.prob(s, t) for t in m.targets},
        constraints,
        started,
        abstraction_sites_checked() - sites_before,
    )


# ---------------------------------------------------------------------------
# SMT-LIB export
# ---------------------------------------------------------------------------


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


def _content_normalized(p: Polynomial) -> Polynomial:
    """Divide by the (positive) integer content; inequality-safe."""
    content, prim = p.split_content()
    return prim


def collect_constraints(r: ReachabilityResult, m: Pdtmc) -> str:
    """Render the side conditions as an SMT-LIB 2 script (QF_NRA).

    Per parametric original edge f = n/d: ``0 < n*d`` (the edge keeps
    positive probability) and ``0 < (d-n)*d`` (it stays below one); per
    recorded division: ``numerator != 0``.  Constant conditions are
    trivially true and omitted; duplicates are emitted once.  The script
    ends with (check-sat) and performs no solving itself.
    """
    names = {v.id: v.name for v in m.params}
    lines = ["(set-logic QF_NRA)"]
    for v in m.params:
        lines.append(f"(declare-const {v.name} Real)")

    seen: set[str] = set()

    def emit(assertion: str) -> None:
        if assertion not in seen:
            seen.add(assertion)
            lines.append(assertion)

    for c in r.constraints:
        num = c.function.numerator_poly()
        den = c.function.denominator_poly()
        if c.kind is ConstraintKind.EDGE_POSITIVE:
            if c.function.is_constant:
                continue
            positive = _content_normalized(num * den)
            emit(f"(assert (< 0 {_smt_poly(positive, names)}))")
            below_one = _content_normalized((den - num) * den)
            if not below_one.is_constant:
                emit(f"(assert (< 0 {_smt_poly(below_one, names)}))")
        else:
            if num.is_constant:
                continue
            emit(f"(assert (not (= {_smt_poly(_content_normalized(num), names)} 0)))")

    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"

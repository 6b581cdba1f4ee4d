"""Parametric DTMC data model, text format parser, and graph utilities.

A :class:`Pdtmc` is a finite state set with a parametric initial
distribution and a parametric transition matrix whose entries are exact
:class:`~parmreach.ratfun.RationalFunction`\\ s.  Models are immutable
after construction and all iteration orders are fixed by state
declaration order, so every downstream computation is deterministic.

The text format is line-oriented (``#`` starts a comment)::

    @params p q
    @state s1          # one state per line; order fixes indices
    @init s1 : 1
    @trans s1 -> s2 : 0.4
    @target s5 s9

Expressions support ``+ - * / ^`` with integer and decimal literals
(decimals are exact: ``0.4`` is 2/5) and declared parameter names.
Every state's outgoing row must sum to one *symbolically*; so must the
initial distribution, and a constant weight must lie in [0, 1].
Targets must already be absorbing in the file -- :func:`preprocess` is
the programmatic way to absorb them.

Text is validated once, by :func:`parse_model`, which also sorts each
row once; a hand-built model is checked by the public :class:`Pdtmc`
constructor.  :func:`preprocess` shares the rows it leaves unchanged.

The graph routines (:func:`predecessor_map`, :func:`tarjan_sccs`,
:func:`looping`) work on plain row tables, mappings from a state to its
successors: ``m.trans`` or an engine's working rows alike.
:func:`scc_components` uses them to list a model's looping components,
each with its inputs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ParmreachError
from .polycore import MissingAssignment, Variable, variable
from .ratfun import (
    DivisionByZeroFunction,
    EvalDenominatorZero,
    RationalFunction,
    rf_add,
    rf_const,
    rf_div,
    rf_eval,
    rf_mul,
    rf_neg,
    rf_of_variable,
    rf_one,
    rf_pow,
    rf_sub,
    rf_sum,
    rf_sums_to_one,
    rf_zero,
)

__all__ = [
    "ModelSyntaxError",
    "UnknownState",
    "RowSumNotOne",
    "TargetNotAbsorbing",
    "NotWellDefined",
    "Pdtmc",
    "Dtmc",
    "parse_model",
    "parse_expression",
    "evaluate",
    "is_graph_preserving",
    "predecessor_map",
    "tarjan_sccs",
    "looping",
    "scc_components",
    "preprocess",
]


class ModelSyntaxError(ParmreachError):
    """Malformed model source; message carries line (and column) info."""


class UnknownState(ParmreachError):
    """A directive references a state that has not been declared."""


class RowSumNotOne(ParmreachError):
    """A transition row (or the initial distribution) does not sum to one.

    Attributes
    ----------
    state:
        The offending state, or ``"@init"`` for the initial distribution.
    residual:
        ``1 - (row sum)`` as a rational function.
    """

    def __init__(self, state: str, residual: RationalFunction):
        self.state = state
        self.residual = residual
        super().__init__(f"probabilities leaving {state!r} sum to 1 - ({residual}), not 1")


class TargetNotAbsorbing(ParmreachError):
    """A declared target state has transitions other than a self-loop 1."""


class NotWellDefined(ParmreachError):
    """Evaluation does not yield a DTMC; lists every violated condition."""

    def __init__(self, violations: Sequence[str]):
        self.violations = tuple(violations)
        super().__init__("; ".join(violations))


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------


class Pdtmc:
    """An immutable parametric DTMC.

    ``init`` and ``trans`` store only nonzero entries; iteration over
    states, rows, and row entries always follows state declaration
    order.  The public constructor checks that every name is a state,
    normalizes ordering and drops zero entries, but performs no
    stochasticity checks -- the parser (and internal constructions, by
    design) establish those.  The parser and :func:`preprocess` check
    and order their parts themselves and build with :meth:`_trusted`.
    """

    __slots__ = ("states", "params", "init", "trans", "targets", "_index")

    def __init__(
        self,
        states: Sequence[str],
        params: Sequence[Variable],
        init: Mapping[str, RationalFunction],
        trans: Mapping[str, Mapping[str, RationalFunction]],
        targets: Iterable[str] = (),
    ):
        sts = tuple(states)
        if len(set(sts)) != len(sts):
            raise ValueError("duplicate state labels")
        index = {s: i for i, s in enumerate(sts)}
        for s in init:
            if s not in index:
                raise ValueError(f"init references unknown state {s!r}")
        for s, row in trans.items():
            if s not in index:
                raise ValueError(f"transition source {s!r} is not a state")
            for t in row:
                if t not in index:
                    raise ValueError(f"transition destination {t!r} is not a state")
        targets = set(targets)
        for t in targets:
            if t not in index:
                raise ValueError(f"target {t!r} is not a state")
        norm_trans: dict[str, dict[str, RationalFunction]] = {}
        for s in sts:
            row = trans.get(s)
            if not row:
                continue
            entries = {t: row[t] for t in sorted(row, key=index.__getitem__) if not row[t].is_zero}
            if entries:
                norm_trans[s] = entries
        self._fill(
            sts,
            tuple(dict.fromkeys(params)),
            {s: init[s] for s in sts if s in init and not init[s].is_zero},
            norm_trans,
            tuple(sorted(targets, key=index.__getitem__)),
            index,
        )

    @classmethod
    def _trusted(
        cls,
        states: tuple[str, ...],
        params: tuple[Variable, ...],
        init: dict[str, RationalFunction],
        trans: dict[str, dict[str, RationalFunction]],
        targets: tuple[str, ...],
        index: dict[str, int],
    ) -> Pdtmc:
        """A model of parts already checked and normalized as the public
        constructor leaves them, ``index`` mapping each state to its
        position; the parts are kept, not copied."""
        m = object.__new__(cls)
        m._fill(states, params, init, trans, targets, index)
        return m

    def _fill(self, *parts) -> None:
        for name, value in zip(self.__slots__, parts):
            object.__setattr__(self, name, value)

    def __setattr__(self, key, value):  # pragma: no cover - guard only
        raise AttributeError("Pdtmc is immutable")

    # -- queries ---------------------------------------------------------

    def index(self, s: str) -> int:
        return self._index[s]

    def row(self, s: str) -> Mapping[str, RationalFunction]:
        return self.trans.get(s, {})

    def prob(self, s: str, t: str) -> RationalFunction:
        return self.trans.get(s, {}).get(t, rf_zero())

    @property
    def initial_states(self) -> tuple[str, ...]:
        return tuple(self.init)

    def is_absorbing(self, s: str) -> bool:
        row = self.trans.get(s, {})
        return len(row) == 1 and s in row and row[s].is_one

    def sort_states(self, it: Iterable[str]) -> tuple[str, ...]:
        """Deterministic order: by declaration index."""
        return tuple(sorted(it, key=self._index.__getitem__))

    def __repr__(self) -> str:
        return (
            f"Pdtmc({len(self.states)} states, {len(self.params)} params, "
            f"{sum(len(r) for r in self.trans.values())} transitions, "
            f"targets={list(self.targets)})"
        )


class Dtmc(NamedTuple):
    """A concrete (parameter-free) DTMC produced by :func:`evaluate`."""

    states: tuple[str, ...]
    init: Mapping[str, Fraction]
    trans: Mapping[str, Mapping[str, Fraction]]
    targets: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Expression parsing
# ---------------------------------------------------------------------------

# ASCII only: Unicode \w and \d would take names SMT-LIB cannot declare and digits like '١'.
_TOKEN = re.compile(
    r"(?P<num>\d+(?:\.\d+)?)|(?P<ident>[A-Za-z_]\w*)|(?P<op>[-+*/^()])|(?P<bad>\S)", re.ASCII
)
_NAME = re.compile(r"[A-Za-z_]\w*", re.ASCII)

# Deeper parentheses are a syntax error, not a RecursionError: a level costs four frames.
_MAX_NESTING = 100


class _ExprParser:
    """Recursive-descent parser producing a RationalFunction.

    Grammar::

        expr   := term (('+'|'-') term)*
        term   := factor (('*'|'/') factor)*
        factor := '-'? atom ('^' uint)?
        atom   := uint | decimal | ident | '(' expr ')'

    One scan, before parsing, finds bad characters, matches parentheses
    and checks the nesting limit, so faults are reported in this order:
    the first unexpected character, the first '(' nested deeper than
    :data:`_MAX_NESTING`, the parser's first error.  Columns count from 1.
    """

    def __init__(self, text: str, params: Mapping[str, Variable], where: str, groups: dict):
        self.text = text
        self.params = params
        self.where = where
        self.groups = groups
        self.tokens: list[tuple[str, str, int]] = []
        self.closing: dict[int, int] = {}  # index of '(' -> index of its ')'
        opened: list[int] = []  # indices of the '(' not closed yet
        too_deep = None  # column of the first '(' opening level _MAX_NESTING + 1
        for m in _TOKEN.finditer(text):
            kind, tok, col = m.lastgroup, m.group(), m.start()
            if kind == "bad":
                self._fail(col, f"unexpected character {tok!r}")
            if tok == "(":
                opened.append(len(self.tokens))
                if len(opened) > _MAX_NESTING and too_deep is None:
                    too_deep = col
            elif tok == ")" and opened:
                self.closing[opened.pop()] = len(self.tokens)
            self.tokens.append((kind, tok, col))
        if too_deep is not None:
            self._fail(too_deep, f"parentheses nested deeper than {_MAX_NESTING}")
        self.i = 0

    def _fail(self, col: int, msg: str) -> None:
        raise ModelSyntaxError(f"{self.where}, column {col + 1}: {msg}")

    def _peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> tuple[str, str, int]:
        tok = self._peek()
        if tok is None:
            self._fail(len(self.text), "unexpected end of expression")
        self.i += 1
        return tok

    def parse(self) -> RationalFunction:
        value = self._expr()
        tok = self._peek()
        if tok is not None:
            self._fail(tok[2], f"unexpected {tok[1]!r}")
        return value

    def _expr(self) -> RationalFunction:
        value = self._term()
        while (tok := self._peek()) is not None and tok[1] in "+-":
            self.i += 1
            rhs = self._term()
            value = rf_add(value, rhs) if tok[1] == "+" else rf_sub(value, rhs)
        return value

    def _term(self) -> RationalFunction:
        value = self._factor()
        while (tok := self._peek()) is not None and tok[1] in "*/":
            self.i += 1
            rhs = self._factor()
            if tok[1] == "*":
                value = rf_mul(value, rhs)
            else:
                try:
                    value = rf_div(value, rhs)
                except DivisionByZeroFunction:
                    self._fail(tok[2], "division by an identically zero expression")
        return value

    def _factor(self) -> RationalFunction:
        negate = False
        tok = self._peek()
        if tok is not None and tok[1] == "-":
            self.i += 1
            negate = True
        value = self._atom()
        tok = self._peek()
        if tok is not None and tok[1] == "^":
            self.i += 1
            kind, text, col = self._next()
            if kind != "num" or "." in text:
                self._fail(col, "exponent must be a non-negative integer")
            value = rf_pow(value, int(text))
        return rf_neg(value) if negate else value

    def _atom(self) -> RationalFunction:
        kind, text, col = self._next()
        if kind == "num":
            return rf_const(Fraction(text))
        if kind == "ident":
            v = self.params.get(text)
            if v is None:
                self._fail(col, f"unknown parameter {text!r} (declare it with @params)")
            return rf_of_variable(v)
        if text == "(":
            close = self.closing.get(self.i - 1)
            key = close and tuple(tok[1] for tok in self.tokens[self.i - 1 : close + 1])
            if key in self.groups:  # the scan has bounded its nesting already
                self.i = close + 1
                return self.groups[key]
            value = self._expr()
            tok = self._next()
            if tok[1] != ")":
                self._fail(tok[2], "expected ')'")
            self.groups[key] = value  # a parse that got here matched its '('
            return value
        self._fail(col, f"unexpected {text!r}")
        raise AssertionError("unreachable")


def parse_expression(
    text: str, params: Mapping[str, Variable], where: str = "expression"
) -> RationalFunction:
    """Parse a single expression against a parameter table."""
    return _ExprParser(text, params, where, {}).parse()


# ---------------------------------------------------------------------------
# Model parsing
# ---------------------------------------------------------------------------


def parse_model(text: str) -> Pdtmc:
    """Parse model source text into a validated :class:`Pdtmc`.

    Lines end only at ``\\n``, ``\\r\\n`` or ``\\r``, as in an editor.
    Each line is checked as it is read, each distinct weight text parsed
    once (a constant one also range-checked) and each distinct row (the
    same weight objects) summed once;
    the rows, sorted once, make the model with no second check.

    Raises :class:`ModelSyntaxError`, :class:`UnknownState`,
    :class:`RowSumNotOne`, or :class:`TargetNotAbsorbing`.
    """
    params: dict[str, Variable] = {}
    states: list[str] = []
    index: dict[str, int] = {}  # state -> declaration position
    # every @init state and @trans pair seen, zero weights included (dropped at the end)
    init: dict[str, RationalFunction] = {}
    trans: dict[str, dict[str, RationalFunction]] = {}
    targets: dict[str, None] = {}  # in order of first mention
    # weight text or a group's token texts -> function; successes only (errors keep their place)
    parsed: dict[str, RationalFunction] = {}
    groups: dict[tuple[str, ...], RationalFunction] = {}
    zeros = False  # whether some weight is zero

    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.split("\n"), 1):
        if "#" in raw:
            raw = raw.partition("#")[0]
        bits = raw.split(None, 1)
        if not bits:
            continue
        head = bits[0]
        rest = bits[1].rstrip() if len(bits) > 1 else ""
        if head == "@trans":
            lhs, sep, expr = rest.partition(":")
            src, arrow, dst = lhs.partition("->")
            if not sep or not arrow:
                raise ModelSyntaxError(
                    f"line {lineno}: expected '@trans <state> -> <state> : <expr>'"
                )
            s = src.strip()
            t = dst.strip()
            if s not in index or t not in index:
                name = s if s not in index else t
                raise UnknownState(f"line {lineno}: state {name!r} has not been declared")
            row = trans.get(s)
            if row is None:
                row = trans[s] = {}
            elif t in row:
                raise ModelSyntaxError(f"line {lineno}: duplicate transition {s!r} -> {t!r}")
        elif head == "@init":
            lhs, sep, expr = rest.partition(":")
            if not sep:
                raise ModelSyntaxError(f"line {lineno}: expected '@init <state> : <expr>'")
            t = lhs.strip()
            if t not in index:
                raise UnknownState(f"line {lineno}: state {t!r} has not been declared")
            if t in init:
                raise ModelSyntaxError(f"line {lineno}: duplicate @init for {t!r}")
            row = init
        elif head == "@state":
            if not _NAME.fullmatch(rest):
                raise ModelSyntaxError(f"line {lineno}: @state takes exactly one identifier")
            if rest in index:
                raise ModelSyntaxError(f"line {lineno}: duplicate state {rest!r}")
            index[rest] = len(states)
            states.append(rest)
            continue
        elif head == "@params":
            names = rest.split()
            if not names:
                raise ModelSyntaxError(f"line {lineno}: @params needs at least one name")
            for name in names:
                if not _NAME.fullmatch(name):
                    raise ModelSyntaxError(f"line {lineno}: invalid parameter name {name!r}")
                params.setdefault(name, variable(name))
            continue
        elif head == "@target":
            names = rest.split()
            if not names:
                raise ModelSyntaxError(f"line {lineno}: @target needs at least one state")
            for name in names:
                if name not in index:
                    raise UnknownState(f"line {lineno}: state {name!r} has not been declared")
                targets[name] = None
            continue
        else:
            raise ModelSyntaxError(f"line {lineno}: unknown directive {head!r}")
        # an @init or @trans weight, stored under t in row
        key = expr.strip()
        f = parsed.get(key)
        if f is None:
            f = parsed[key] = _ExprParser(expr, params, f"line {lineno}", groups).parse()
            if f.is_constant and not 0 <= f.num.coeff <= f.den.coeff:
                raise ModelSyntaxError(f"line {lineno}: probability {key} is outside [0, 1]")
            zeros = zeros or f.is_zero
        row[t] = f

    if not states:
        raise ModelSyntaxError("model declares no states")
    position = index.__getitem__

    def ordered(row: dict[str, RationalFunction]) -> dict[str, RationalFunction]:
        """*row* in declaration order, without its zero weights."""
        return {t: row[t] for t in sorted(row, key=position) if not (zeros and row[t].is_zero)}

    init = ordered(init)
    if not init:
        raise ModelSyntaxError("model declares no initial distribution (@init)")
    rows = {s: row for s in sorted(trans, key=position) if (row := ordered(trans[s]))}

    # rows holding the same weight objects have the same sum, so each is decided once
    summed: set[tuple[int, ...]] = set()
    for s, row in (("@init", init), *((s, rows.get(s, {})) for s in states)):
        key = tuple(sorted(map(id, row.values())))
        if key in summed:
            continue
        if not rf_sums_to_one(row.values()):
            raise RowSumNotOne(s, rf_sub(rf_one(), rf_sum(row.values())))
        summed.add(key)
    for t in targets:
        row = rows.get(t, {})
        if not (len(row) == 1 and t in row and row[t].is_one):
            raise TargetNotAbsorbing(
                f"target {t!r} must carry exactly a self-loop with probability 1"
            )

    return Pdtmc._trusted(
        tuple(states),
        tuple(params.values()),
        init,
        rows,
        tuple(sorted(targets, key=position)),
        index,
    )


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate(m: Pdtmc, u: Mapping[Variable, Fraction | int]) -> Dtmc:
    """Instantiate the parameters, checking the result is a DTMC.

    Entries whose denominator vanishes at *u* count as 0 (they are
    dropped from the sparse matrix); if that or a range violation breaks
    stochasticity, :class:`NotWellDefined` reports every violated
    condition at once.
    """
    missing = [v.name for v in m.params if v not in u]
    if missing:
        raise MissingAssignment(f"no value for parameter(s): {', '.join(missing)}")
    a = {v: Fraction(x) for v, x in u.items()}
    violations: list[str] = []

    def num(f: RationalFunction, what: str) -> Fraction | None:
        try:
            val = rf_eval(f, a)
        except EvalDenominatorZero:
            violations.append(f"{what}: denominator of ({f}) vanishes (entry treated as 0)")
            return None
        if val < 0 or val > 1:
            violations.append(f"{what}: value {val} outside [0, 1]")
            return None
        return val

    init: dict[str, Fraction] = {}
    for s, f in m.init.items():
        val = num(f, f"initial probability of {s!r}")
        if val:
            init[s] = val
    if sum(init.values()) != 1:
        violations.append(f"initial distribution sums to {sum(init.values())}, not 1")

    trans: dict[str, dict[str, Fraction]] = {}
    for s, row in m.trans.items():
        ev_row: dict[str, Fraction] = {}
        for t, f in row.items():
            val = num(f, f"transition {s!r} -> {t!r}")
            if val:
                ev_row[t] = val
        if sum(ev_row.values()) != 1:
            violations.append(f"row of {s!r} sums to {sum(ev_row.values())}, not 1")
        if ev_row:
            trans[s] = ev_row

    if violations:
        raise NotWellDefined(violations)
    return Dtmc(m.states, init, trans, m.targets)


def is_graph_preserving(m: Pdtmc, u: Mapping[Variable, Fraction | int]) -> bool:
    """True iff *u* yields a DTMC and keeps every nonzero edge positive.

    :func:`evaluate` rejects negative values and vanishing denominators
    and drops the entries that evaluate to 0, so the graph survives
    exactly when it succeeds and every row keeps all its entries.
    """
    try:
        d = evaluate(m, u)
    except NotWellDefined:
        return False
    return all(len(d.trans.get(s, ())) == len(row) for s, row in m.trans.items())


# ---------------------------------------------------------------------------
# Graph utilities
# ---------------------------------------------------------------------------

# Routines that take ``rows`` read any row table, a mapping from a state
# to its successors: ``m.trans`` or an engine's working copy.


def predecessor_map(rows: Mapping[str, Iterable[str]]) -> dict[str, set[str]]:
    """For each state of ``rows``, the states whose rows lead to it."""
    preds: dict[str, set[str]] = {s: set() for s in rows}
    for u, row in rows.items():
        for v in row:
            if v in preds:
                preds[v].add(u)
    return preds


def tarjan_sccs(
    rows: Mapping[str, Iterable[str]], region: Sequence[str]
) -> list[tuple[str, ...]]:
    """Strongly connected components of the subgraph of ``rows`` induced
    by *region*.

    Returns a partition of the region (singletons included) in reverse
    topological order of the condensation: a component is emitted only
    after every component reachable from it.  Roots are taken in the
    region's order and successors in row order; successors outside the
    region are skipped, and a state without a row has none.  Each
    component lists its states in the region's order, so the output is
    deterministic.  Iterative implementation; immune to recursion limits
    on long chains.
    """
    position = {s: i for i, s in enumerate(region)}
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[tuple[str, ...]] = []

    for root in region:
        if root in index:
            continue
        # explicit DFS stack of (state, iterator over its successors)
        work = [(root, iter(rows.get(root, ())))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            s, it = work[-1]
            for t in it:
                if t not in position:
                    continue
                if t not in index:
                    index[t] = low[t] = len(index)
                    stack.append(t)
                    on_stack.add(t)
                    work.append((t, iter(rows.get(t, ()))))
                    break
                if t in on_stack and index[t] < low[s]:
                    low[s] = index[t]
            else:  # every successor of s is done
                work.pop()
                lows = low[s]
                if work:
                    parent = work[-1][0]
                    if lows < low[parent]:
                        low[parent] = lows
                if lows != index[s]:
                    continue
                t = stack.pop()
                on_stack.discard(t)
                if t == s:  # a singleton: nothing to order
                    sccs.append((s,))
                    continue
                comp = [t]
                while t != s:
                    t = stack.pop()
                    on_stack.discard(t)
                    comp.append(t)
                sccs.append(tuple(sorted(comp, key=position.__getitem__)))
    return sccs


def looping(rows: Mapping[str, Iterable[str]], comp: Sequence[str]) -> bool:
    """Whether a component of :func:`tarjan_sccs` can loop: several
    states, or a self-loop."""
    return len(comp) > 1 or comp[0] in rows.get(comp[0], ())


def scc_components(
    m: Pdtmc, region: Sequence[str]
) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
    """``(states, inputs)`` of every looping component of the subgraph
    induced by *region*, in the order of :func:`tarjan_sccs`.

    Only the region's own components are yielded; nothing inside one is
    decomposed further.  The inputs of a component are its states with
    initial mass or a predecessor outside it, read off one
    :func:`predecessor_map` of the model, in the component's order.
    Acyclic pieces and absorbing states have nothing to abstract and are
    left out.  A component that nothing enters, or whose rows lead
    nowhere outside it (a closed class), is yielded with no inputs.
    """
    found = [
        scc
        for scc in tarjan_sccs(m.trans, region)
        if looping(m.trans, scc) and not m.is_absorbing(scc[0])
    ]
    preds = predecessor_map(m.trans) if found else {}  # an acyclic model needs none
    for scc in found:
        ks = set(scc)
        inputs = tuple(s for s in scc if s in m.init or not preds[s] <= ks)
        yield scc, inputs if any(t not in ks for s in scc for t in m.trans[s]) else ()


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------


def preprocess(m: Pdtmc) -> Pdtmc:
    """Normalize a model for reachability analysis.

    Target states are made absorbing; input states of every multi-state
    bottom component become absorbing (no target can sit inside one, so
    reachability values are preserved); states unreachable from the
    initial distribution are dropped, except targets, which are kept as
    isolated absorbing states so result tables stay total.

    Bottom components and their inputs are found on the working rows,
    after the targets are absorbed, in one pass over the edges: an
    edge between two components makes its source's component no bottom
    one and its destination an input, and so does initial mass.  The
    rows change only once that pass is done.

    The result shares ``init`` and every unchanged row with ``m`` (a
    changed row is replaced, never edited).  No kept row loses a
    successor: those of reachable states are reachable, and a kept
    unreachable state is a target with its self-loop.
    """
    one = rf_one()
    trans = dict(m.trans)
    for t in m.targets:
        if not m.is_absorbing(t):
            trans[t] = {t: one}

    sccs = tarjan_sccs(trans, m.states)
    comp = {s: i for i, scc in enumerate(sccs) for s in scc}
    bottom = [len(scc) > 1 for scc in sccs]
    entered = set(m.init)
    for u, row in trans.items():
        cu = comp[u]
        for v in row:
            if comp[v] != cu:
                bottom[cu] = False
                entered.add(v)
    for s in entered:
        if bottom[comp[s]]:
            trans[s] = {s: one}

    reachable: set[str] = set()
    frontier = list(m.init)
    while frontier:
        s = frontier.pop()
        if s in reachable:
            continue
        reachable.add(s)
        frontier.extend(trans.get(s, ()))
    reachable.update(m.targets)
    if len(reachable) == len(m.states):
        states, index = m.states, m._index
    else:
        states = tuple(s for s in m.states if s in reachable)
        index = {s: i for i, s in enumerate(states)}
    rows = {s: trans[s] for s in states if s in trans}
    return Pdtmc._trusted(states, m.params, m.init, rows, m.targets, index)

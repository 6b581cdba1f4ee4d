"""A deliberately strict SMT-LIB 2 syntax checker for constraint scripts.

Accepts exactly the command shape the exporter promises: one
``(set-logic QF_NRA)``, then ``declare-const``/``assert`` commands, then
one final ``(check-sat)``.  Terms may use the QF_NRA core: arithmetic
over declared Real constants and rational literals, comparisons,
equality, and boolean connectives.  A declared name may be a simple
symbol or a quoted ``|...|`` symbol, which denotes the symbol between the
bars; it may be neither a reserved word written unquoted nor, quoted or
not, a symbol that the Core or Reals theory already defines.  Every
deviation is reported, so a passing script is well-formed SMT-LIB 2 by
construction.
"""

from __future__ import annotations

import re

_TOKEN = re.compile(
    r"\s*(?:(?P<open>\()|(?P<close>\))|(?P<decimal>\d+\.\d+)|(?P<numeral>\d+)"
    r"|(?P<symbol>[A-Za-z~!@$%^&*_+=<>.?/-][A-Za-z0-9~!@$%^&*_+=<>.?/-]*)"
    r"|\|(?P<quoted>[^|\\]*)\|)"
)

# the reserved words of SMT-LIB 2.6, command names included
_RESERVED = set(
    "! _ as BINARY DECIMAL exists HEXADECIMAL forall let match NUMERAL par STRING"
    " assert check-sat check-sat-assuming declare-const declare-datatype"
    " declare-datatypes declare-fun declare-sort define-fun define-fun-rec"
    " define-funs-rec define-sort echo exit get-assertions get-assignment get-info"
    " get-model get-option get-proof get-unsat-assumptions get-unsat-core"
    " get-value pop push reset reset-assertions set-info set-logic set-option".split()
)

_NUM_OPS = {"+", "*", "-", "/"}
_REL_OPS = {"<", "<=", ">", ">=", "="}
_BOOL_OPS = {"not", "and", "or"}
# the function symbols of the Core and Reals theories, which no script may redeclare
_THEORY = {"true", "false", "=>", "xor", "distinct", "ite"} | _NUM_OPS | _REL_OPS | _BOOL_OPS


def _tokenize(text: str, problems: list[str]) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None or match.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            problems.append(f"unreadable input at {rest[:20]!r}")
            return tokens
        pos = match.end()
        kind = match.lastgroup
        if kind:
            tokens.append((kind, match.group(kind)))
    return tokens


def _parse(tokens: list[tuple[str, str]], problems: list[str]) -> list:
    forms: list = []
    stack: list[list] = []
    for kind, value in tokens:
        if kind == "open":
            stack.append([])
        elif kind == "close":
            if not stack:
                problems.append("unbalanced ')'")
                return forms
            done = stack.pop()
            (stack[-1] if stack else forms).append(done)
        else:
            atom = (kind, value)
            if stack:
                stack[-1].append(atom)
            else:
                problems.append(f"atom {value!r} outside any command")
    if stack:
        problems.append("unbalanced '(' at end of input")
    return forms


def _check_term(term, declared: set[str], problems: list[str]) -> str:
    """Return the term's sort: 'num', 'bool', or 'bad'."""
    if isinstance(term, tuple):
        kind, value = term
        if kind in ("numeral", "decimal"):
            return "num"
        if kind == "symbol" and value in _RESERVED:
            problems.append(f"reserved word {value!r} used as a term")
            return "bad"
        if value in declared:
            return "num"
        problems.append(f"undeclared symbol {value!r} in term")
        return "bad"
    if not term:
        problems.append("empty application ()")
        return "bad"
    head = term[0]
    if not (isinstance(head, tuple) and head[0] == "symbol"):
        problems.append(f"application head is not an operator: {head!r}")
        return "bad"
    op = head[1]
    args = term[1:]
    sorts = [_check_term(a, declared, problems) for a in args]
    if op in _NUM_OPS:
        minimum = 1 if op == "-" else 2
        if len(args) < minimum:
            problems.append(f"operator {op!r} needs at least {minimum} arguments")
        if op == "/" and len(args) != 2:
            problems.append("operator '/' needs exactly 2 arguments")
        for s in sorts:
            if s == "bool":
                problems.append(f"operator {op!r} applied to a boolean argument")
        return "num"
    if op in _REL_OPS:
        if len(args) != 2:
            problems.append(f"relation {op!r} needs exactly 2 arguments")
        for s in sorts:
            if s == "bool":
                problems.append(f"relation {op!r} applied to a boolean argument")
        return "bool"
    if op in _BOOL_OPS:
        if op == "not" and len(args) != 1:
            problems.append("'not' needs exactly 1 argument")
        if op != "not" and len(args) < 2:
            problems.append(f"connective {op!r} needs at least 2 arguments")
        for s in sorts:
            if s == "num":
                problems.append(f"connective {op!r} applied to a numeric argument")
        return "bool"
    problems.append(f"unknown operator {op!r}")
    return "bad"


def check_smtlib(text: str) -> list[str]:
    """All syntax problems found in ``text``; empty means valid."""
    problems: list[str] = []
    forms = _parse(_tokenize(text, problems), problems)
    if problems:
        return problems
    if not forms:
        return ["no commands"]

    def sym(x) -> str | None:
        return x[1] if isinstance(x, tuple) and x[0] == "symbol" else None

    def quoted(x) -> str | None:
        return x[1] if isinstance(x, tuple) and x[0] == "quoted" else None

    first = forms[0]
    if not (
        isinstance(first, list)
        and len(first) == 2
        and sym(first[0]) == "set-logic"
        and sym(first[1]) == "QF_NRA"
    ):
        problems.append("first command must be (set-logic QF_NRA)")

    last = forms[-1]
    if not (isinstance(last, list) and len(last) == 1 and sym(last[0]) == "check-sat"):
        problems.append("last command must be (check-sat)")

    declared: set[str] = set()
    for form in forms[1:-1]:
        if not isinstance(form, list) or not form:
            problems.append(f"malformed command {form!r}")
            continue
        head = sym(form[0])
        if head == "declare-const":
            if len(form) != 3 or sym(form[2]) != "Real":
                problems.append("declare-const must be (declare-const <name> Real)")
                continue
            name = sym(form[1]) or quoted(form[1])
            if name is None:
                problems.append("declare-const name must be a symbol")
            elif sym(form[1]) in _RESERVED:
                problems.append(f"reserved word {name!r} declared unquoted")
            elif name in _THEORY:
                problems.append(f"declaration of {name!r} redefines a theory symbol")
            elif name in declared:
                problems.append(f"duplicate declaration of {name!r}")
            else:
                declared.add(name)
        elif head == "assert":
            if len(form) != 2:
                problems.append("assert takes exactly one term")
                continue
            if _check_term(form[1], declared, problems) == "num":
                problems.append("assert applied to a numeric term")
        else:
            problems.append(f"unexpected command {head!r}")
    return problems

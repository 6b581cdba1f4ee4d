"""Model layer: parsing, evaluation, graph utilities, preprocessing."""

import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from parmreach import model
from parmreach.benchgen import STATE_CAP, SizeCapExceeded, brp, crowds, zeroconf
from parmreach.model import (
    _ExprParser,
    ModelSyntaxError,
    NotWellDefined,
    Pdtmc,
    RowSumNotOne,
    TargetNotAbsorbing,
    UnknownState,
    evaluate,
    is_graph_preserving,
    looping,
    parse_expression,
    parse_model,
    preprocess,
    scc_components,
    tarjan_sccs,
)
from parmreach.oracle import numeric_reachability
from parmreach.polycore import MissingAssignment, variable
from parmreach.ratfun import EvalDenominatorZero, rf_const, rf_eval, rf_one, rf_sums_to_one
from parmreach.scc_mc import induced

from fuzzgen import BENCH_GEN, graph_preserving_point, random_pdtmc

DATA = pathlib.Path(__file__).parent / "data"

TINY = """
@params p
@state a
@state b
@init a : 1
@trans a -> a : 1 - p
@trans a -> b : p
@trans b -> b : 1
@target b
"""

CHAIN = """
@state a
@state b
@state c
@init a : 1
@trans a -> b : 1
@trans b -> c : 1
@trans c -> c : 1
@target c
"""

CYCLE = """
@state a
@state b
@state c
@state d
@init a : 1
@trans a -> b : 1
@trans b -> c : 1
@trans c -> a : 0.5
@trans c -> d : 0.5
@trans d -> d : 1
@target d
"""


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_minimal_model():
    m = parse_model(TINY)
    assert m.states == ("a", "b")
    assert m.targets == ("b",)
    assert [v.name for v in m.params] == ["p"]
    assert str(m.prob("a", "b")) == "p"
    assert m.is_absorbing("b")


def test_row_sum_checked_exactly():
    bad = """
@state a
@state b
@init a : 1
@trans a -> b : 0.5
@trans a -> a : 0.4
@trans b -> b : 1
"""
    with pytest.raises(RowSumNotOne) as exc:
        parse_model(bad)
    err = exc.value
    assert err.state == "a"
    assert err.residual == rf_const(Fraction(1, 10))
    assert str(err) == "probabilities leaving 'a' sum to 1 - ((1)/(10)), not 1"


NEAR_ONE = """
@params p
@state a
@state b
@init a : 1
@trans a -> b : p/(1+p)
@trans a -> a : 1/(WHAT+p)
@trans b -> b : 1
"""


def test_row_sum_is_one_only_after_cancellation():
    # p/(1+p) + 1/(1+p) = (p+1)/(p+1): exactly one, though no term is
    m = parse_model(NEAR_ONE.replace("WHAT", "1"))
    row = {t: str(f) for t, f in m.row("a").items()}
    assert row == {"b": "(p)/(p + 1)", "a": "(1)/(p + 1)"}
    with pytest.raises(RowSumNotOne) as exc:
        parse_model(NEAR_ONE.replace("WHAT", "2"))
    err = exc.value
    assert err.state == "a"
    assert err.residual.factored_str() == "[(1)] / [(p + 1)*(p + 2)]"
    assert str(err) == "probabilities leaving 'a' sum to 1 - ((1)/(p^2 + 3*p + 2)), not 1"


def test_init_sum_checked():
    bad = """
@state a
@state b
@init a : 0.9
@trans a -> b : 1
@trans b -> b : 1
"""
    with pytest.raises(RowSumNotOne) as exc:
        parse_model(bad)
    assert exc.value.state == "@init"


def test_parse_error_cases():
    with pytest.raises(ModelSyntaxError):
        parse_model("@bogus x")
    with pytest.raises(ModelSyntaxError):
        parse_model("@state a\n@state a\n@init a : 1\n@trans a -> a : 1")
    with pytest.raises(UnknownState):
        parse_model("@state a\n@init a : 1\n@trans a -> zz : 1")
    with pytest.raises(ModelSyntaxError):  # no init
        parse_model("@state a\n@trans a -> a : 1")
    with pytest.raises(ModelSyntaxError):  # empty @params
        parse_model("@params\n@state a\n@init a : 1\n@trans a -> a : 1")
    with pytest.raises(TargetNotAbsorbing):
        parse_model(
            "@state a\n@state b\n@init a : 1\n"
            "@trans a -> b : 1\n@trans b -> a : 1\n@target b"
        )


@pytest.mark.parametrize(
    "directives, message",
    [
        (
            "@init a : 1\n@trans a -> b : 0\n@trans a -> b : 1",
            "line 6: duplicate transition 'a' -> 'b'",
        ),
        (
            "@init a : 1\n@trans a -> b : p - p\n@trans a -> b : 1",
            "line 6: duplicate transition 'a' -> 'b'",
        ),
        (
            "@init a : 0\n@init a : 1\n@trans a -> b : 1",
            "line 5: duplicate @init for 'a'",
        ),
    ],
    ids=["zero_weight", "weight_cancelling_to_zero", "zero_init"],
)
def test_a_directive_repeated_after_a_zero_weight_is_a_duplicate(directives, message):
    # a zero weight is not stored, but its directive still counts
    text = f"@params p\n@state a\n@state b\n{directives}\n@trans b -> b : 1\n"
    with pytest.raises(ModelSyntaxError, match=message):
        parse_model(text)


@pytest.mark.parametrize("depth", [50, 100])
def test_nested_parentheses_parse(depth):
    m = parse_model(TINY.replace("1 - p", "(" * depth + "1 - p" + ")" * depth))
    assert m.prob("a", "a") == parse_model(TINY).prob("a", "a")


def test_parentheses_nested_past_the_limit_are_a_syntax_error():
    nested = "(" * 101 + "1 - p" + ")" * 101
    with pytest.raises(ModelSyntaxError, match="line 6, column 102: .* deeper than 100"):
        parse_model(TINY.replace("1 - p", nested))


def test_one_scan_reports_a_bad_character_then_deep_nesting_then_parse_errors():
    nested = "(" * 101 + "p" + ")" * 101
    # the stray '+' comes first, but the scan finds the too-deep group before any parsing
    with pytest.raises(ModelSyntaxError, match="line 6, column 104: .* deeper than 100"):
        parse_model(TINY.replace("1 - p", "+ " + nested))
    with pytest.raises(ModelSyntaxError, match="line 6, column 208: unexpected character '\\$'"):
        parse_model(TINY.replace("1 - p", "+ " + nested + " $"))


def test_a_group_parsed_shallow_and_repeated_past_the_limit_is_still_an_error():
    deep = "(" * 100 + "(1 - p)" + ")" * 100
    text = TINY.replace("a -> a : 1 - p", "a -> a : (1 - p)").replace("a -> b : p", f"a -> b : {deep}")
    with pytest.raises(ModelSyntaxError, match="line 7, column 102: .* deeper than 100"):
        parse_model(text)


def test_each_distinct_parenthesized_group_is_parsed_once(monkeypatch):
    # the first model of the benchmark's fuzz family (perfbench/gen.py)
    text = BENCH_GEN.fuzz_model(random.Random(13123979), 0)
    groups = []
    expr = _ExprParser._expr

    def counting(self):
        start = self.i
        value = expr(self)
        if start and self.tokens[start - 1][1] == "(":
            groups.append(tuple(tok[1] for tok in self.tokens[start - 1 : self.i + 1]))
        return value

    monkeypatch.setattr(_ExprParser, "_expr", counting)
    parse_model(text)
    assert groups and len(groups) == len(set(groups))


def test_each_distinct_weight_text_is_parsed_once(monkeypatch):
    texts = []
    parse = _ExprParser.parse

    def counting(self):
        texts.append(self.text.strip())
        return parse(self)

    monkeypatch.setattr(_ExprParser, "parse", counting)
    parse_model(brp(16, 4))
    assert texts and len(texts) == len(set(texts))


def test_comments_and_blank_lines_ignored():
    m = parse_model("# header\n\n@state a  # trailing\n@init a : 1\n@trans a -> a : 1\n")
    assert m.states == ("a",)


# lines 1-5: a comment, a blank line, parameters, and two states (one
# with a trailing comment); each case's directives start on line 6
_ERROR_HEAD = "# model\n\n@params p\n@state a  # first\n@state b\n"

_LINE_ERRORS = [
    ("@params", ModelSyntaxError, "line 6: @params needs at least one name"),
    ("@params 1x", ModelSyntaxError, "line 6: invalid parameter name '1x'"),
    ("@params q pé", ModelSyntaxError, "line 6: invalid parameter name 'pé'"),
    ("@state", ModelSyntaxError, "line 6: @state takes exactly one identifier"),
    ("@state c d", ModelSyntaxError, "line 6: @state takes exactly one identifier"),
    ("@state 9", ModelSyntaxError, "line 6: @state takes exactly one identifier"),
    ("@state a", ModelSyntaxError, "line 6: duplicate state 'a'"),
    ("@init a 1", ModelSyntaxError, "line 6: expected '@init <state> : <expr>'"),
    ("@init", ModelSyntaxError, "line 6: expected '@init <state> : <expr>'"),
    ("@init zz : 1", UnknownState, "line 6: state 'zz' has not been declared"),
    ("@init a : 1\n@init a : 0", ModelSyntaxError, "line 7: duplicate @init for 'a'"),
    ("@trans a b : 1", ModelSyntaxError, "line 6: expected '@trans <state> -> <state> : <expr>'"),
    ("@trans a -> b 1", ModelSyntaxError, "line 6: expected '@trans <state> -> <state> : <expr>'"),
    ("@trans", ModelSyntaxError, "line 6: expected '@trans <state> -> <state> : <expr>'"),
    ("@trans zz -> a : 1", UnknownState, "line 6: state 'zz' has not been declared"),
    ("@trans a -> zz : 1", UnknownState, "line 6: state 'zz' has not been declared"),
    ("@trans ->  : 1", UnknownState, "line 6: state '' has not been declared"),
    (
        "@trans a -> b : 1\n@trans a -> b : 1",
        ModelSyntaxError,
        "line 7: duplicate transition 'a' -> 'b'",
    ),
    ("@target", ModelSyntaxError, "line 6: @target needs at least one state"),
    ("@target a zz", UnknownState, "line 6: state 'zz' has not been declared"),
    ("@bogus x", ModelSyntaxError, "line 6: unknown directive '@bogus'"),
    ("state a", ModelSyntaxError, "line 6: unknown directive 'state'"),
    ("@trans a -> b : p +", ModelSyntaxError, "line 6, column 5: unexpected end of expression"),
    ("@trans a -> b :", ModelSyntaxError, "line 6, column 1: unexpected end of expression"),
    ("@trans a -> b : (p", ModelSyntaxError, "line 6, column 4: unexpected end of expression"),
    (
        "@trans a -> b : q",
        ModelSyntaxError,
        "line 6, column 2: unknown parameter 'q' (declare it with @params)",
    ),
    (
        "@trans a -> b : 1/(p-p)",
        ModelSyntaxError,
        "line 6, column 3: division by an identically zero expression",
    ),
    (
        "@trans a -> b : p^0.5",
        ModelSyntaxError,
        "line 6, column 4: exponent must be a non-negative integer",
    ),
    (
        "@trans a->b:p^-1",
        ModelSyntaxError,
        "line 6, column 3: exponent must be a non-negative integer",
    ),
    ("@trans a -> b : p $", ModelSyntaxError, "line 6, column 4: unexpected character '$'"),
    ("@trans a -> a : 1 -   $p", ModelSyntaxError, "line 6, column 8: unexpected character '$'"),
    ("@trans a -> b : p p", ModelSyntaxError, "line 6, column 4: unexpected 'p'"),
    ("@trans a -> b : )", ModelSyntaxError, "line 6, column 2: unexpected ')'"),
    ("@init a : 1 :", ModelSyntaxError, "line 6, column 4: unexpected character ':'"),
    ("@trans a -> b : (1 - p p)", ModelSyntaxError, "line 6, column 9: expected ')'"),
    # a constant weight outside [0, 1] is a fault even in a row summing to 1
    (
        "@trans a -> b : 2\n@trans a -> a : -1",
        ModelSyntaxError,
        "line 6: probability 2 is outside [0, 1]",
    ),
    ("@init a : 1\n@trans a -> b : 1/2 - 1", ModelSyntaxError,
     "line 7: probability 1/2 - 1 is outside [0, 1]"),
    ("@init a : 3/2\n@init b : -1/2", ModelSyntaxError, "line 6: probability 3/2 is outside [0, 1]"),
    # comments and blank lines count as lines
    (
        "@init a : 1\n\n# c\n@trans a -> b : 1 -",
        ModelSyntaxError,
        "line 9, column 5: unexpected end of expression",
    ),
    # a zero weight is not stored, but a later line still fails on its own
    (
        "@init a : 1\n@trans a -> b : 0\n@target b\n@trans a -> zz : 1",
        UnknownState,
        "line 9: state 'zz' has not been declared",
    ),
    # every line is read before any row is summed
    ("@init a : 1/2\n@bogus", ModelSyntaxError, "line 7: unknown directive '@bogus'"),
    ("@target a\n@state c", ModelSyntaxError, "model declares no initial distribution (@init)"),
]


@pytest.mark.parametrize(
    "directives, error, message", _LINE_ERRORS, ids=[case[0] for case in _LINE_ERRORS]
)
def test_each_parse_error_names_its_line(directives, error, message):
    with pytest.raises(error) as exc:
        parse_model(f"{_ERROR_HEAD}{directives}\n@trans b -> b : 1\n")
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_a_parametric_weight_is_range_checked_where_it_is_evaluated():
    m = parse_model(
        "@params p\n@state a\n@state b\n@init a : 1\n"
        "@trans a -> b : 2*p\n@trans a -> a : 1 - 2*p\n@trans b -> b : 1\n@target b\n"
    )
    (p,) = m.params
    with pytest.raises(NotWellDefined, match="value 3/2 outside"):
        evaluate(m, {p: Fraction(3, 4)})


_MODEL_ERRORS = [
    ("", ModelSyntaxError, "model declares no states"),
    ("# c\n\n", ModelSyntaxError, "model declares no states"),
    ("@state a\n@trans a -> a : 1", ModelSyntaxError, "model declares no initial distribution (@init)"),
    (
        "@state a\n@init a : 0\n@trans a -> a : 1",
        ModelSyntaxError,
        "model declares no initial distribution (@init)",
    ),
    (
        "@state a\n@state b\n@init a : 1/2\n@init b : 1/3\n@trans a -> a : 1\n@trans b -> b : 1",
        RowSumNotOne,
        "probabilities leaving '@init' sum to 1 - ((1)/(6)), not 1",
    ),
    (
        "@params p\n@state a\n@state b\n@init a : 1\n@trans a -> b : p\n@trans b -> b : 1",
        RowSumNotOne,
        "probabilities leaving 'a' sum to 1 - (-p + 1), not 1",
    ),
    (
        "@state a\n@state b\n@init a : 1\n@trans a -> b : 1\n@target b",
        RowSumNotOne,
        "probabilities leaving 'b' sum to 1 - (1), not 1",
    ),
    (
        "@state a\n@state b\n@init a : 1\n@trans a -> b : 1\n@trans b -> a : 1\n@target b",
        TargetNotAbsorbing,
        "target 'b' must carry exactly a self-loop with probability 1",
    ),
    # Windows and old Mac line ends break lines as a newline does
    ("# c\r\n\r\n@state a\r\n@bogus\r\n", ModelSyntaxError, "line 4: unknown directive '@bogus'"),
    ("# c\r\r@state a\r@bogus\r", ModelSyntaxError, "line 4: unknown directive '@bogus'"),
    (
        "# c\n\r\n@state a\r@init a : 1\n\n@trans a -> a : 1 +\n",
        ModelSyntaxError,
        "line 6, column 5: unexpected end of expression",
    ),
]


@pytest.mark.parametrize("text, error, message", _MODEL_ERRORS)
def test_each_whole_model_error_keeps_its_message(text, error, message):
    with pytest.raises(error) as exc:
        parse_model(text)
    assert type(exc.value) is error
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_only_newline_carriage_return_and_their_pair_end_a_line(char):
    # an editor shows each of these inside its line, so the line count skips them
    text = f"@state a\n@init a : 1\n# page {char} here\n@trans a -> a : 1\n"
    assert parse_model(text).states == ("a",)
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model(text + "@bogus\n")
    assert str(exc.value) == "line 5: unknown directive '@bogus'"


def test_each_distinct_row_is_audited_once(monkeypatch):
    audited = []

    def counting(row):
        row = list(row)
        audited.append(row)
        return rf_sums_to_one(row)

    monkeypatch.setattr(model, "rf_sums_to_one", counting)
    m = parse_model(brp(16, 4))
    # the parser shares one object per distinct weight text, so a row is
    # told apart by the objects it holds
    rows = [m.init, *(m.row(s) for s in m.states)]
    distinct = {tuple(sorted(map(id, row.values()))) for row in rows}
    assert len(audited) == len(distinct) < len(rows) // 10
    assert {tuple(sorted(map(id, row))) for row in audited} == distinct


def test_a_wrong_row_after_repeated_valid_rows_is_still_reported():
    valid = "".join(
        f"@state s{i}\n" for i in range(6)
    ) + "@state t\n@init s0 : 1\n@trans t -> t : 1\n@target t\n"
    valid += "".join(f"@trans s{i} -> s{i + 1} : p\n@trans s{i} -> t : 1 - p\n" for i in range(3))
    wrong = "@trans s3 -> s4 : p\n@trans s3 -> t : p\n"
    rest = "".join(f"@trans s{i} -> t : 1\n" for i in (4, 5))
    with pytest.raises(RowSumNotOne) as exc:
        parse_model("@params p\n" + valid + wrong + rest)
    assert exc.value.state == "s3"
    assert str(exc.value) == "probabilities leaving 's3' sum to 1 - (-2*p + 1), not 1"


def _constructed(text: str) -> Pdtmc:
    """The model the public constructor builds from the directives of
    *text* in file order, each weight parsed on its own."""
    params, states, init, trans, targets = {}, [], {}, {}, []
    for raw in text.split("\n"):
        line = raw.split("#", 1)[0].strip()
        head, _, rest = line.partition(" ")
        if head == "@params":
            for name in rest.split():
                params.setdefault(name, variable(name))
        elif head == "@state":
            states.append(rest.strip())
        elif head == "@init":
            s, _, expr = rest.partition(":")
            init[s.strip()] = parse_expression(expr, params)
        elif head == "@trans":
            lhs, _, expr = rest.partition(":")
            s, _, t = lhs.partition("->")
            trans.setdefault(s.strip(), {})[t.strip()] = parse_expression(expr, params)
        elif head == "@target":
            targets += rest.split()
    return Pdtmc(states, params.values(), init, trans, targets)


def _text_of(m: Pdtmc, rng: random.Random) -> str:
    """Model text for *m*, with its weight and target lines shuffled."""
    lines = [f"@params {' '.join(v.name for v in m.params)}"] if m.params else []
    lines += [f"@state {s}" for s in m.states]
    body = [f"@init {s} : {f}" for s, f in m.init.items()]
    body += [f"@trans {s} -> {t} : {f}" for s, row in m.trans.items() for t, f in row.items()]
    rng.shuffle(body)
    targets = list(m.targets)
    rng.shuffle(targets)
    return "\n".join([*lines, *body, f"@target {' '.join(targets)}"]) + "\n"


def _fields(m: Pdtmc) -> tuple:
    """Every field of *m* in its order, each function by its factorizations."""
    return (*_layout(m), m.params, [m.index(s) for s in m.states], m._index)


def test_the_parser_builds_the_model_the_public_constructor_builds(fig2_text):
    rng = random.Random(2424)
    texts = [_text_of(random_pdtmc(rng, max_states=14), rng) for _ in range(30)]
    family = random.Random(13123979)  # the benchmark's fuzz models
    texts += [BENCH_GEN.fuzz_model(family, i) for i in range(BENCH_GEN.FUZZ_MODELS)]
    texts += [brp(16, 4), brp(4, 2), crowds(3, 2), zeroconf(4), fig2_text]
    texts += [(DATA / name).read_text() for name in ("three.pdtmc", "two_inputs.pdtmc")]
    for text in texts:
        assert _fields(parse_model(text)) == _fields(_constructed(text))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_golden_model(fig2_text):
    m = parse_model(fig2_text)
    p, q = m.params
    d = evaluate(m, {p: Fraction(1, 2), q: Fraction(1, 2)})
    assert d.trans["s1"] == {
        "s2": Fraction(2, 5),
        "s3": Fraction(1, 5),
        "s6": Fraction(2, 5),
    }
    assert d.trans["s4"] == {"s2": Fraction(1, 2), "s5": Fraction(1, 2)}
    assert d.targets == ("s5", "s9")


def test_evaluate_out_of_range_rejected(fig2_text):
    m = parse_model(fig2_text)
    p, q = m.params
    with pytest.raises(NotWellDefined) as exc:
        evaluate(m, {p: Fraction(2), q: Fraction(1, 2)})
    assert any("outside [0, 1]" in v for v in exc.value.violations)


def test_evaluate_requires_total_assignment(fig2_text):
    m = parse_model(fig2_text)
    p, _ = m.params
    with pytest.raises(MissingAssignment):
        evaluate(m, {p: Fraction(1, 2)})


def test_graph_preserving_classification(fig2_text):
    m = parse_model(fig2_text)
    p, q = m.params
    half = Fraction(1, 2)
    assert is_graph_preserving(m, {p: half, q: half})
    assert not is_graph_preserving(m, {p: half, q: Fraction(0)})  # kills an edge
    assert not is_graph_preserving(m, {p: Fraction(1), q: half})  # kills an edge
    assert not is_graph_preserving(m, {p: Fraction(2), q: half})  # not a DTMC
    with pytest.raises(MissingAssignment):
        is_graph_preserving(m, {p: half})


def _preserves_every_edge(m, point):
    """The per-edge definition: every edge stays positive and *point* yields a DTMC."""
    for row in m.trans.values():
        for f in row.values():
            try:
                if rf_eval(f, point) <= 0:
                    return False
            except EvalDenominatorZero:
                return False
    try:
        evaluate(m, point)
    except NotWellDefined:
        return False
    return True


def test_graph_preserving_matches_the_per_edge_definition():
    # 0 and 1 kill edges, -1 zeroes the denominator of 1/(1 + v), and
    # 2 and -1/2 leave [0, 1]
    values = [Fraction(v) for v in ("0", "1", "1/2", "1/3", "2", "-1", "-1/2")]
    rng = random.Random(7)
    seen = set()
    for seed in range(12):
        m = random_pdtmc(random.Random(seed), max_states=10)
        for _ in range(25):
            point = {v: rng.choice(values) for v in m.params}
            expected = _preserves_every_edge(m, point)
            assert is_graph_preserving(m, point) == expected, (seed, point)
            seen.add(expected)
    assert seen == {True, False}


def test_evaluation_preserves_graph_structure(fig2_text):
    m = parse_model(fig2_text)
    p, q = m.params
    d = evaluate(m, {p: Fraction(1, 2), q: Fraction(1, 2)})
    assert set(d.trans) == set(m.trans)
    for s, row in m.trans.items():
        assert set(d.trans[s]) == set(row)


# ---------------------------------------------------------------------------
# input/output state sets: inputs as scc_components yields them, outputs
# as scc_mc.induced reads them off the rows
# ---------------------------------------------------------------------------


def _rows(m: Pdtmc) -> dict:
    return {s: dict(m.row(s)) for s in m.states}


def test_the_whole_state_space_is_entered_only_at_the_initial_state(fig2_text):
    m = parse_model(fig2_text)
    outer = ("s1", "s2", "s3", "s4", "s6", "s7", "s8")
    assert dict(scc_components(m, m.states))[outer] == ("s1",)
    assert induced(m, _rows(m), m.states, ("s1",))[0] == ()


def test_an_absorbing_target_is_no_component_and_has_no_output(fig2_text):
    m = parse_model(fig2_text)
    assert all("s5" not in states for states, _ in scc_components(m, m.states))
    assert induced(m, _rows(m), ["s5"], ["s5"]) == ((), [])


def test_boundaries_of_an_inner_component(fig2_text):
    m = parse_model(fig2_text)
    K = ("s2", "s3", "s4")
    # a component of the engine's region, which leaves the initial state out
    region = [s for s in m.states if s not in m.init]
    assert dict(scc_components(m, region))[K] == ("s2", "s3")
    assert induced(m, _rows(m), K, ("s2", "s3")) == (("s5", "s6"), ["s4"])


# ---------------------------------------------------------------------------
# strongly connected components
# ---------------------------------------------------------------------------


def test_dag_gives_singletons_reverse_topological():
    m = parse_model(CHAIN)
    assert tarjan_sccs(m.trans, m.states) == [("c",), ("b",), ("a",)]


def test_cycle_is_one_component():
    m = parse_model(CYCLE)
    sccs = tarjan_sccs(m.trans, m.states)
    assert ("a", "b", "c") in sccs
    assert sccs.index(("d",)) < sccs.index(("a", "b", "c"))


def test_restriction_limits_the_subgraph():
    m = parse_model(CYCLE)
    # without the edge c -> a (cut by the region) the cycle disappears
    assert tarjan_sccs(m.trans, ["b", "c"]) == [("c",), ("b",)]


def test_a_row_table_is_walked_in_region_order():
    rows = {
        "a": ["b", "x"],  # x is outside the region
        "b": ["c", "a"],
        "c": ["b", "y"],  # y is in the region but has no row
        "d": ["a"],
        "e": ["e"],
    }
    region = ["d", "b", "c", "a", "y", "e"]
    sccs = tarjan_sccs(rows, region)
    # roots in region order, states of a component in region order
    assert sccs == [("y",), ("b", "c", "a"), ("d",), ("e",)]
    assert [looping(rows, scc) for scc in sccs] == [False, True, False, True]


def _reference_tarjan(rows, region):
    """The iterative Tarjan walk as first written: every component sorted
    into region order, lowlinks lowered with ``min``."""
    position = {s: i for i, s in enumerate(region)}
    index, low, on_stack, stack, sccs = {}, {}, set(), [], []
    for root in region:
        if root in index:
            continue
        work = [(root, iter(rows.get(root, ())))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            s, it = work[-1]
            advanced = False
            for t in it:
                if t not in position:
                    continue
                if t not in index:
                    index[t] = low[t] = len(index)
                    stack.append(t)
                    on_stack.add(t)
                    work.append((t, iter(rows.get(t, ()))))
                    advanced = True
                    break
                if t in on_stack:
                    low[s] = min(low[s], index[t])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[s])
            if low[s] == index[s]:
                comp = []
                while True:
                    t = stack.pop()
                    on_stack.discard(t)
                    comp.append(t)
                    if t == s:
                        break
                sccs.append(tuple(sorted(comp, key=position.__getitem__)))
    return sccs


@st.composite
def _graphs(draw):
    """A row table over up to 12 states, some without a row, whose rows
    may lead outside it, and a region: some of its states in any order,
    possibly with states that have no row."""
    names = [f"s{i}" for i in range(draw(st.integers(1, 12)))]
    succ = st.sampled_from([*names, "x", "y"])
    rows = {
        s: draw(st.lists(succ, max_size=4, unique=True))
        for s in names
        if draw(st.integers(0, 5))
    }
    region = draw(st.permutations([*names, "y"]))
    return rows, region[: draw(st.integers(1, len(region)))]


@settings(max_examples=300, deadline=None)
@given(_graphs())
def test_tarjan_matches_the_reference_walk(graph):
    rows, region = graph
    assert tarjan_sccs(rows, region) == _reference_tarjan(rows, region)


def test_tarjan_matches_the_reference_on_long_chains_and_nested_cycles():
    n = 5000
    names = [f"s{i}" for i in range(n)]
    chain = {s: [t] for s, t in zip(names, names[1:])}
    # every tenth state also loops back to the start of its block of
    # 100 and every hundredth to the start: cycles nested in a cycle
    nested = {s: list(row) for s, row in chain.items()}
    for i in range(0, n - 1, 10):
        nested[names[i]].append(names[i - i % 100])
    nested[names[n - 50]].append(names[0])
    selfloops = {s: [s, *row] for s, row in chain.items()}
    for rows in (chain, nested, selfloops):
        for region in (names, names[::-1], names[::2], names[: n - 50] + names[n - 49 :]):
            assert tarjan_sccs(rows, region) == _reference_tarjan(rows, region)
    assert len(tarjan_sccs(chain, names)) == n
    assert [len(c) for c in tarjan_sccs(nested, names)] == [1] * 9 + [n - 9]
    # without the outer back edge's source, each block of 100 is a component
    blocks = tarjan_sccs(nested, names[: n - 50] + names[n - 49 :])
    assert sum(len(c) == 91 for c in blocks) == n // 100 - 1


def test_relabeling_invariance(fig2_text):
    m = parse_model(fig2_text)
    lines = fig2_text.splitlines()
    states = [l for l in lines if l.startswith("@state")]
    rest = [l for l in lines if not l.startswith("@state")]
    m2 = parse_model("\n".join(states[::-1] + rest))
    assert {frozenset(c) for c in tarjan_sccs(m.trans, m.states)} == {
        frozenset(c) for c in tarjan_sccs(m2.trans, m2.states)
    }


@pytest.mark.parametrize("seed", range(40))
def test_inputs_are_the_states_entered_from_outside(seed):
    m = random_pdtmc(random.Random(seed))
    for region in (m.states, [s for s in m.states if s not in m.init]):
        for scc, inputs in scc_components(m, region):
            ks = set(scc)
            entered = {t for s, row in m.trans.items() if s not in ks for t in row if t in ks}
            leaves = any(t not in ks for s in scc for t in m.trans[s])
            # a closed class is yielded with no inputs
            expected = m.sort_states(entered | ks.intersection(m.init)) if leaves else ()
            assert inputs == expected, scc


def test_acyclic_model_has_empty_tree():
    m = parse_model(CHAIN)
    assert list(scc_components(m, m.states)) == []


def test_cycle_tree_single_node():
    m = parse_model(CYCLE)
    assert list(scc_components(m, m.states)) == [(("a", "b", "c"), ("a",))]
    assert induced(m, _rows(m), ("a", "b", "c"), ("a",))[0] == ("d",)


def test_golden_model_components(fig2_text):
    m = parse_model(fig2_text)
    outer = ("s1", "s2", "s3", "s4", "s6", "s7", "s8")
    # the loops inside a component are not yielded
    assert list(scc_components(m, m.states)) == [(outer, ("s1",))]
    assert induced(m, _rows(m), outer, ("s1",))[0] == ("s5", "s9")
    # the engine's region leaves the initial state out
    region = [s for s in m.states if s not in m.init]
    assert list(scc_components(m, region)) == [
        (("s6", "s7", "s8"), ("s6",)),
        (("s2", "s3", "s4"), ("s2", "s3")),
    ]


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------


def test_preprocess_no_change_when_already_normal(fig2_text):
    m = parse_model(fig2_text)
    m2 = preprocess(m)
    assert m2.states == m.states
    assert m2.targets == m.targets
    assert set(m2.trans) == set(m.trans)
    for s, row in m.trans.items():
        assert {t: str(f) for t, f in m2.trans[s].items()} == {
            t: str(f) for t, f in row.items()
        }


def test_preprocess_collapses_targetless_bottom_cycle():
    m = parse_model(
        "@state s\n@state a\n@state b\n@init s : 1\n"
        "@trans s -> a : 1\n@trans a -> b : 1\n@trans b -> a : 1\n"
    )
    m2 = preprocess(m)
    assert m2.states == ("s", "a")  # b became unreachable and was dropped
    assert m2.is_absorbing("a")


def test_preprocess_makes_targets_absorbing():
    # constructed directly: the parser would reject a leaky target
    one = rf_one()
    half = rf_const(Fraction(1, 2))
    m = Pdtmc(
        states=("a", "t"),
        params=(),
        init={"a": one},
        trans={"a": {"t": one}, "t": {"a": half, "t": half}},
        targets=("t",),
    )
    m2 = preprocess(m)
    assert m2.is_absorbing("t")


def test_preprocess_keeps_unreachable_targets():
    m = parse_model(
        "@state a\n@state t\n@init a : 1\n@trans a -> a : 1\n@trans t -> t : 1\n@target t\n"
    )
    m2 = preprocess(m)
    assert "t" in m2.states
    assert m2.is_absorbing("t")


def test_preprocess_preserves_numeric_reachability():
    rng = random.Random(4242)
    for _ in range(6):
        m = random_pdtmc(rng, min_states=5, max_states=12)
        m2 = preprocess(m)
        for _ in range(2):
            pt = graph_preserving_point(rng, m)
            da, db = evaluate(m, pt), evaluate(m2, pt)
            ra = numeric_reachability(da, sources=m.initial_states)
            rb = numeric_reachability(db, sources=m2.initial_states)
            for key, val in rb.items():
                assert ra[key] == val


def _reference_preprocess(m: Pdtmc) -> Pdtmc:
    """Preprocessing with the bottom components and their inputs read off
    the target-absorbed rows by a scan of every edge."""
    one = rf_one()
    trans = {s: dict(row) for s, row in m.trans.items()}
    for t in m.targets:
        trans[t] = {t: one}
    for scc in tarjan_sccs(trans, m.states):
        ks = set(scc)
        if len(scc) > 1 and {t for s in scc for t in trans[s]} <= ks:
            entered = {t for s, row in trans.items() if s not in ks for t in row if t in ks}
            for s in entered | ks.intersection(m.init):
                trans[s] = {s: one}
    reachable: set[str] = set()
    frontier = list(m.init)
    while frontier:
        s = frontier.pop()
        if s not in reachable:
            reachable.add(s)
            frontier.extend(trans.get(s, {}))
    reachable.update(m.targets)
    keep = [s for s in m.states if s in reachable]
    rows = {s: {t: f for t, f in trans[s].items() if t in reachable} for s in keep if s in trans}
    return Pdtmc(keep, m.params, m.init, rows, m.targets)


def _layout(m: Pdtmc) -> tuple:
    """States, rows, initial distribution and targets, in their order,
    each function by its factorizations."""

    def entries(row):
        return [(t, f.num, f.den) for t, f in row.items()]

    return (
        m.states,
        [(s, entries(row)) for s, row in m.trans.items()],
        entries(m.init),
        m.targets,
    )


# a bottom cycle a -> b -> c -> a entered at a and b, and holding initial
# mass at c; a second one, d <-> e, entered at d only; and a target
SEVERAL_INPUTS = """
@state s
@state a
@state b
@state c
@state d
@state e
@state t
@init s : 1/2
@init c : 1/2
@trans s -> a : 1/4
@trans s -> b : 1/4
@trans s -> d : 1/4
@trans s -> t : 1/4
@trans a -> b : 1
@trans b -> c : 1
@trans c -> a : 1
@trans d -> e : 1
@trans e -> d : 1
@trans t -> t : 1
@target t
"""


def _hand_models(fig2_text: str) -> list[Pdtmc]:
    texts = [fig2_text, TINY, CHAIN, CYCLE, SEVERAL_INPUTS]
    texts += [(DATA / name).read_text() for name in ("three.pdtmc", "two_inputs.pdtmc")]
    texts.append(
        "@state s\n@state a\n@state b\n@init s : 1\n"
        "@trans s -> a : 1\n@trans a -> b : 1\n@trans b -> a : 1\n"
    )
    texts.append(
        "@state a\n@state t\n@init a : 1\n@trans a -> a : 1\n@trans t -> t : 1\n@target t\n"
    )
    one, half = rf_one(), rf_const(Fraction(1, 2))
    leaky_target = Pdtmc(
        states=("a", "t"),
        params=(),
        init={"a": one},
        trans={"a": {"t": one}, "t": {"a": half, "t": half}},
        targets=("t",),
    )
    return [parse_model(text) for text in texts] + [leaky_target]


def test_preprocess_matches_the_reference_on_hand_and_random_models(fig2_text):
    rng = random.Random(2323)
    models = _hand_models(fig2_text)
    models += [random_pdtmc(rng, min_states=4, max_states=14) for _ in range(30)]
    family = random.Random(13123979)  # the benchmark's fuzz models
    models += [parse_model(BENCH_GEN.fuzz_model(family, i)) for i in range(BENCH_GEN.FUZZ_MODELS)]
    for m in models:
        assert _layout(preprocess(m)) == _layout(_reference_preprocess(m))


def test_preprocess_shares_the_rows_it_leaves_unchanged():
    m = parse_model(SEVERAL_INPUTS)
    m2 = preprocess(m)
    assert m2.init is m.init
    # s and t keep their rows; a, b, c and d became absorbing
    assert [s for s in m2.states if m2.trans[s] is m.trans[s]] == ["s", "t"]
    # and the input model's rows were replaced in the result, not edited
    assert _layout(m) == _layout(parse_model(SEVERAL_INPUTS))


def test_every_input_of_a_bottom_component_is_absorbed():
    m = preprocess(parse_model(SEVERAL_INPUTS))
    assert m.states == ("s", "a", "b", "c", "d", "t")
    assert [s for s in m.states if m.is_absorbing(s)] == ["a", "b", "c", "d", "t"]


# ---------------------------------------------------------------------------
# shipped benchmark sources parse cleanly (row sums verified by the parser)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "source,states",
    [(brp(4, 1), 23), (crowds(3, 2), 8), (zeroconf(2), 5)],
)
def test_benchmark_sources_parse(source, states):
    m = parse_model(source)
    assert len(m.states) == states


@pytest.mark.parametrize(
    "at_cap, above",
    [
        ((brp, 19, 87), (brp, 357, 4)),
        ((crowds, 3, 1250), (crowds, 3, 1251)),
        ((zeroconf, 4997), (zeroconf, 4998)),
    ],
)
def test_generate_refuses_only_instances_above_the_state_cap(at_cap, above):
    make, *sizes = at_cap
    assert make(*sizes).count("\n@state ") == STATE_CAP
    make, *sizes = above
    with pytest.raises(SizeCapExceeded, match=f"cap {STATE_CAP}"):
        make(*sizes)


def test_pdtmc_rejects_an_unknown_target():
    one = rf_one()
    with pytest.raises(ValueError, match="target 'zz' is not a state"):
        Pdtmc(["a"], [], {"a": one}, {"a": {"a": one}}, targets=["zz"])


def test_repr_summarizes(fig2_text):
    m = parse_model(fig2_text)
    assert repr(m) == "Pdtmc(9 states, 2 params, 17 transitions, targets=['s5', 's9'])"

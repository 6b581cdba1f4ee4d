"""Command-line front end: golden outputs, exit codes, the argv grammar
and the cycle collector, which a check runs without and leaves as it
found it.

The golden files under ``tests/data/golden`` pin the exact text of
``parmreach check`` on a few small models, under both engines: the
plain rendering with ``--eval``, the SMT-LIB file of
``--constraints-out`` and the ``--factored`` rendering.  Regenerate
them (only after an intended output change) with::

    PYTHONPATH=src python3 tests/test_cli.py
"""

from __future__ import annotations

import gc
import pathlib
import os
import random
import subprocess
import sys
from types import SimpleNamespace

import pytest

from fuzzgen import BENCH_GEN
from parmreach import benchgen, cli
from parmreach.model import tarjan_sccs
from parmreach.ratfun import RationalFunction
from smtlib_checker import check_smtlib

HERE = pathlib.Path(__file__).parent
DATA = HERE / "data"
GOLDEN = DATA / "golden"

# model name -> (parmreach gen arguments or None for a file in DATA, --eval point)
MODELS = {
    "fig2": (None, "p=1/3,q=2/5"),
    "three": (None, "p=1/3,q=1/2,r=1/5"),
    "two_inputs": (None, "p=2/7,q=3/7"),
    "brp": (["--family", "brp", "--n", "4", "--max", "2"], "pK=9/10,pL=4/5"),
    "crowds": (["--family", "crowds", "--n", "3", "--rounds", "2"], "p_f=4/5,B=1/10"),
    "zeroconf": (["--family", "zeroconf", "--n", "4"], "p=1/5,q=1/2"),
}
MODES = ("scc", "elim")


def _model_path(name: str, workdir: pathlib.Path) -> pathlib.Path:
    gen_args, _ = MODELS[name]
    if gen_args is None:
        return DATA / f"{name}.pdtmc"
    path = workdir / f"{name}.pdtmc"
    if not path.exists():
        assert cli.main(["gen", *gen_args, "-o", str(path)]) == 0
    return path


def _run(argv: list[str], capsys) -> tuple[int, str, str]:
    capsys.readouterr()
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _outputs(name: str, mode: str, workdir: pathlib.Path, run) -> dict[str, str]:
    """The three golden texts of one (model, engine) pair."""
    model = str(_model_path(name, workdir))
    smt = workdir / f"{name}.{mode}.smt2"
    plain = run(
        ["check", model, "--mode", mode, "--eval", MODELS[name][1],
         "--constraints-out", str(smt)]
    )
    factored = run(["check", model, "--mode", mode, "--factored"])
    return {
        f"{name}.{mode}.out": plain,
        f"{name}.{mode}.smt2": smt.read_text(encoding="utf-8"),
        f"{name}.{mode}.factored.out": factored,
    }


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_check_output_matches_golden(name, mode, tmp_path, capsys):
    def run(argv):
        code, out, err = _run(argv, capsys)
        assert (code, err) == (0, "")
        return out

    outputs = _outputs(name, mode, tmp_path, run)
    for filename, text in outputs.items():
        assert text == (GOLDEN / filename).read_text(encoding="utf-8"), filename
    assert check_smtlib(outputs[f"{name}.{mode}.smt2"]) == []


RESERVED_NAMES = """\
@params let and _
@state s
@state t
@state u
@state w
@init s : 1
@trans s -> s : let * and
@trans s -> t : let * (1 - and)
@trans s -> u : (1 - let) * _
@trans s -> w : (1 - let) * (1 - _)
@trans t -> t : 1
@trans u -> u : 1
@trans w -> w : 1
@target t
"""


@pytest.mark.parametrize("mode", MODES)
def test_constraints_quote_parameters_named_like_smtlib_words(mode, tmp_path, capsys):
    model = tmp_path / "model.pdtmc"
    model.write_text(RESERVED_NAMES, encoding="utf-8")
    smt = tmp_path / "model.smt2"
    argv = ["check", str(model), "--mode", mode, "--constraints-out", str(smt)]
    code, _, err = _run(argv, capsys)
    assert (code, err) == (0, "")
    text = smt.read_text(encoding="utf-8")
    declared = [line for line in text.splitlines() if line.startswith("(declare-const")]
    assert declared == [f"(declare-const |{v}'| Real)" for v in ("let", "and", "_")]
    assert check_smtlib(text) == []


@pytest.mark.parametrize(
    "name, term, accepted",
    [
        ("p", "p", True),
        ("|p|", "p", True),
        ("|let|", "|let|", True),
        ("let", "let", False),
        ("|let|", "let", False),
        ("_", "_", False),
        ("and", "and", False),
        ("|and|", "|and|", False),
    ],
)
def test_checker_rejects_reserved_words_and_theory_symbols_as_names(name, term, accepted):
    text = f"(set-logic QF_NRA)\n(declare-const {name} Real)\n(assert (< 0 {term}))\n(check-sat)\n"
    assert (check_smtlib(text) == []) == accepted


# ---------------------------------------------------------------------------
# exit codes: 0 success, 1 model fault, 2 usage fault, bugs propagate
# ---------------------------------------------------------------------------

FIG2 = str(DATA / "fig2.pdtmc")


def _write(tmp_path: pathlib.Path, text: str) -> str:
    path = tmp_path / "model.pdtmc"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_exit_0_on_success(capsys):
    code, out, err = _run(["check", FIG2], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("f(s1, s5) = ")


def test_exit_1_on_a_model_fault(tmp_path, capsys):
    model = _write(tmp_path, "@params p\n@state a\n@state a\n@init a : 1\n@target a\n")
    code, _, err = _run(["check", model], capsys)
    assert code == 1
    assert err.startswith("error: ") and "duplicate state" in err


def test_exit_1_on_an_exponent_beyond_the_key_fields(tmp_path, capsys):
    model = _write(
        tmp_path,
        "@params p\n@state a\n@state b\n@state c\n@init a : 1\n"
        "@trans a -> b : p^2147483648\n@trans a -> c : 1 - p^2147483648\n"
        "@trans b -> b : 1\n@trans c -> c : 1\n@target b\n",
    )
    code, out, err = _run(["check", model], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "2**31" in err


_TWO_STATES = "@state a\n@state b\n@init a : 1\n@trans b -> b : 1\n@target b\n"


def test_exit_1_naming_the_line_on_a_constant_weight_outside_0_1(tmp_path, capsys):
    # the row sums to 1, but 2 can never be a probability
    model = _write(tmp_path, _TWO_STATES + "@trans a -> b : 2\n@trans a -> a : -1\n")
    code, out, err = _run(["check", model], capsys)
    assert (code, out) == (1, "")
    assert err == "error: line 6: probability 2 is outside [0, 1]\n"


def test_exit_1_on_a_non_ascii_parameter_name(tmp_path, capsys):
    # SMT-LIB simple symbols are ASCII, so `pé` could not be declared
    smt = tmp_path / "c.smt2"
    model = _write(tmp_path, "@params pé\n" + _TWO_STATES + "@trans a -> b : 1\n")
    code, out, err = _run(["check", model, "--constraints-out", str(smt)], capsys)
    assert (code, out) == (1, "")
    assert err == "error: line 1: invalid parameter name 'pé'\n"
    assert not smt.exists()


def test_exit_1_on_a_non_ascii_digit(tmp_path, capsys):
    # the Arabic-Indic digit one is not the weight 1
    model = _write(tmp_path, "@params p\n" + _TWO_STATES + "@trans a -> b : \u0661\n")
    code, out, err = _run(["check", model], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: line 7, column 2: unexpected character '\u0661'"), err


def test_exit_2_on_a_model_file_that_is_not_utf8(tmp_path, capsys):
    # a comment in Latin-1 whose first 'é' follows 91 bytes of valid text
    head = "@state a\n@init a : 1\n@trans a -> a : 1\n@target a\n# "
    head += "x" * (91 - len(head))
    path = tmp_path / "latin1.pdtmc"
    path.write_bytes(head.encode() + b"\xe9t\xe9\n")
    code, out, err = _run(["check", str(path)], capsys)
    assert (code, out) == (2, "")
    reason = "not UTF-8 text (byte 0xe9 at offset 91)"
    assert err == f"usage error: cannot read {str(path)!r}: {reason}\n"


def test_exit_2_on_an_unknown_eval_parameter(capsys):
    code, out, err = _run(["check", FIG2, "--eval", "p=1/2,z=1/3"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and "'z'" in err


@pytest.mark.parametrize("value", ["\u0661/3", "1/\u0663", "1e-3", ".5", "1_0", "1.5/2"])
def test_exit_2_on_an_eval_value_outside_the_ascii_number_syntax(value, capsys):
    # Fraction reads all but the last; the model parser's number syntax none
    code, out, err = _run(["check", FIG2, "--eval", f"p={value},q=2/5"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: --eval value for 'p': "), err


def test_eval_values_may_carry_a_sign_and_a_decimal_point(capsys):
    code, out, err = _run(["check", FIG2, "--eval", "p=+0.25, q=-1/2"], capsys)
    assert code == 0, err
    assert "at p=1/4, q=-1/2: " in out


_MISSING = str(DATA / "no-such-model.pdtmc")


@pytest.mark.parametrize(
    "argv, message",
    [
        ([FIG2, "--eval", "p=1/0,q=1/3"], "--eval value for 'p': '1/0' has a zero denominator"),
        ([FIG2, "--eval", "p"], "--eval entry 'p' is not of the form name=value"),
        ([FIG2, "--eval", "p=1/2"], "--eval leaves parameters unset: q"),
        ([_MISSING], f"cannot read {_MISSING!r}: No such file or directory"),
        ([FIG2, "--eval", ""], "--eval leaves parameters unset: p, q"),
        ([FIG2, "--eval", ","], "--eval leaves parameters unset: p, q"),
    ],
    ids=[
        "zero_denominator", "no_equals_sign", "unset_parameter", "missing_model",
        "empty_eval", "comma_eval",
    ],
)
def test_exit_2_with_the_whole_usage_message(argv, message, capsys):
    assert _run(["check", *argv], capsys) == (2, "", f"usage error: {message}\n")


def test_an_empty_eval_entry_is_skipped(capsys):
    code, out, err = _run(["check", FIG2, "--eval", "p=1/2,,q=1/3"], capsys)
    assert (code, err) == (0, "")
    assert out == _run(["check", FIG2, "--eval", "p=1/2,q=1/3"], capsys)[1]
    assert "at p=1/2, q=1/3: " in out


CHECK_DEFAULTS = dict(
    model=FIG2, mode="scc", eval=None, target=None, factored=False, constraints_out=None,
    stats=False, help=None,
)
GEN_DEFAULTS = dict(family="brp", n=2, max=1, rounds=1, output=None, help=None)


@pytest.mark.parametrize(
    "argv, parsed",
    [
        (["check", FIG2], {}),
        (["check", FIG2, "--mode", "elim"], {"mode": "elim"}),
        (["check", FIG2, "--mode=elim"], {"mode": "elim"}),
        (["check", "--mode", "elim", FIG2], {"mode": "elim"}),
        (["check", FIG2, "--mo", "elim", "--ev=p=1/2,q=1/3"],
         {"mode": "elim", "eval": "p=1/2,q=1/3"}),
        (["check", FIG2, "--const", "c.smt2", "--fact", "--st"],
         {"constraints_out": "c.smt2", "factored": True, "stats": True}),
        (["check", FIG2, "--eval", ""], {"eval": ""}),
        (["check", FIG2, "--eval="], {"eval": ""}),
        (["check", FIG2, "--target", "s5", "--target=s3", "--tar", "s5"],
         {"target": ["s5", "s3", "s5"]}),
        (["check", FIG2, "--mode", "scc", "--mode", "elim"], {"mode": "elim"}),
        (["check", "-"], {"model": "-"}),
        (["check", "-1.5"], {"model": "-1.5"}),
        (["gen", "--family", "brp", "--n", "2"], {}),
        (["gen", "--fam=brp", "--n=2", "--max", "-1", "--rounds", "-3"], {"max": -1, "rounds": -3}),
        (["gen", "--family", "brp", "--n", "2", "-o", "out.pdtmc"], {"output": "out.pdtmc"}),
        (["gen", "--family", "brp", "--n", "2", "-o=out.pdtmc"], {"output": "out.pdtmc"}),
        (["gen", "--family", "brp", "--n", "2", "--out", "-"], {"output": "-"}),
        (["gen", "--family", "crowds", "--n", " +2 "], {"family": "crowds"}),
    ],
)
def test_the_parser_reads_every_accepted_form(argv, parsed):
    defaults = CHECK_DEFAULTS if argv[0] == "check" else GEN_DEFAULTS
    args = vars(cli._parse(argv))
    assert args.pop("func") is (cli._cmd_check if argv[0] == "check" else cli._cmd_gen)
    assert args == {**defaults, **parsed}


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "expected a command, check or gen, got nothing"),
        (["chk", FIG2, "--mode", "scc"], "expected a command, check or gen, got 'chk'"),
        (["--mode", "scc"], "unknown option '--mode'"),
        (["check", FIG2, "--bogus"], "unknown option '--bogus'"),
        (["check", FIG2, "-x"], "unknown option '-x'"),
        (["check", FIG2, "--"], "unknown option '--'"),
        (["check", FIG2, "--eval"], "--eval needs a value"),
        (["check", FIG2, "--eval", "--stats"], "--eval needs a value"),
        (["check", FIG2, "--tar", "-x"], "--target needs a value"),
        (["check", FIG2, "--mode", "nope"], "--mode 'nope' is not one of: scc, elim"),
        (["check", FIG2, "--m=SCC"], "--mode 'SCC' is not one of: scc, elim"),
        (["check", FIG2, "--stats=yes"], "--stats takes no value"),
        (["gen", "--family", "brp", "--n", "two"], "--n 'two' is not an integer"),
        (["gen", "--family", "brp", "--n", "2", "--max=1.5"], "--max '1.5' is not an integer"),
        (["gen", "--family", "dice", "--n", "2"],
         "--family 'dice' is not one of: brp, crowds, zeroconf"),
        (["check"], "expected model, got nothing"),
        (["check", "--mode", "elim"], "expected model, got nothing"),
        (["check", FIG2, "extra"], f"expected model, got {FIG2!r}, 'extra'"),
        (["gen", "brp", "--family", "brp", "--n", "2"], "expected no argument, got 'brp'"),
        (["gen", "--n", "2"], "gen needs --family"),
        (["gen", "--family", "brp"], "gen needs --n"),
    ],
)
def test_malformed_argv_exits_2_with_one_usage_line(argv, message, monkeypatch, capsys):
    def engine(*args):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(cli, "model_check", engine)
    monkeypatch.setattr(cli, "eliminate_all", engine)
    assert _run(argv, capsys) == (2, "", f"usage error: {message}\n")


def test_no_long_flag_name_is_a_prefix_of_another():
    # the parser then reads a prefix that spells a whole name as that flag
    for _, _, _, _, flags in (*cli._COMMANDS, cli._TOP):
        longs = [names[-1] for names, *_ in flags]
        assert [(a, b) for a in longs for b in longs if a != b and b.startswith(a)] == []


@pytest.mark.parametrize(
    "argv, commands",
    [
        (["-h"], ("check", "gen")),
        (["--help"], ("check", "gen")),
        (["--he"], ("check", "gen")),
        (["check", "-h"], ("check",)),
        (["check", FIG2, "--mode", "elim", "--help"], ("check",)),
        (["gen", "--h", "--family", "nope"], ("gen",)),
    ],
)
def test_help_prints_the_usage_and_every_flag(argv, commands, capsys):
    code, out, err = _run(argv, capsys)
    assert (code, err) == (0, "")
    for name, _, about, _, flags in cli._COMMANDS:
        assert (f"usage: parmreach {name} " in out) is (name in commands)
        if name in commands:
            assert about in out
            assert all(", ".join(names) in out and text in out for names, _, _, text in flags)


def test_a_closed_stdout_exits_141_quietly():
    # the read end is closed before the child writes, as `parmreach check ... | head -c 0` does
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "parmreach.cli", "check", FIG2],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (141, b"")


def test_exit_1_naming_the_line_on_parentheses_nested_too_deep(tmp_path, capsys):
    deep = "(" * 1200 + "p" + ")" * 1200
    model = _write(
        tmp_path,
        "@params p\n@state a\n@state b\n@init a : 1\n"
        f"@trans a -> b : {deep}\n@trans a -> a : 1 - p\n@trans b -> b : 1\n@target b\n",
    )
    code, out, err = _run(["check", model], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: line 5, ") and "nested deeper" in err


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "flag",
    [
        ["--target", "nosuch"],
        ["--eval", "zz=1"],
        ["--eval", "p=1/3,q=2/5,p=1/2"],
        ["--constraints-out", str(DATA / "no-such-dir" / "x.smt2")],
    ],
)
def test_exit_2_on_a_bad_flag_before_the_engine_runs(flag, mode, monkeypatch, capsys):
    def engine(*args):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(cli, "model_check", engine)
    monkeypatch.setattr(cli, "eliminate_all", engine)
    code, out, err = _run(["check", FIG2, "--mode", mode, *flag], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ")


def test_the_constraints_file_is_opened_once(monkeypatch, tmp_path, capsys):
    smt = tmp_path / "c.smt2"
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    code, _, _ = _run(["check", FIG2, "--constraints-out", str(smt)], capsys)
    assert code == 0
    assert opened.count(str(smt)) == 1
    assert check_smtlib(smt.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("name, labels, distinct", [("brp", 2, 1), ("two_inputs", 3, 3)])
def test_each_distinct_function_is_rendered_and_evaluated_once(
    name, labels, distinct, monkeypatch, tmp_path, capsys
):
    # brp has one initial state and one target, so total is the pair's
    # function; two_inputs' total differs from both of its pairs
    rendered, evaluated = [], []
    to_text, evaluate = RationalFunction.__str__, cli.rf_eval

    def counting_str(f):
        rendered.append((f.num, f.den))
        return to_text(f)

    def counting_eval(f, point):
        evaluated.append((f.num, f.den))
        return evaluate(f, point)

    monkeypatch.setattr(RationalFunction, "__str__", counting_str)
    monkeypatch.setattr(cli, "rf_eval", counting_eval)
    model = str(_model_path(name, tmp_path))
    code, out, err = _run(["check", model, "--eval", MODELS[name][1]], capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{name}.scc.out").read_text(encoding="utf-8")
    assert len(rendered) == len(set(rendered)) == distinct
    assert evaluated == rendered
    assert sum(" = " in line for line in out.splitlines()) == labels


@pytest.mark.parametrize(
    "args",
    [
        ["--family", "brp", "--n", "0"],
        ["--family", "brp", "--n", "2", "--max", "-1"],
        ["--family", "crowds", "--n", "1"],
        ["--family", "crowds", "--n", "3", "--rounds", "0"],
        ["--family", "zeroconf", "--n", "0"],
        ["--family", "brp", "--n", "100000", "--max", "4"],
        ["--family", "zeroconf", "--n", "4", "-o", str(DATA / "no-such-dir" / "x.pdtmc")],
    ],
)
def test_gen_exits_2_on_a_bad_size_or_output_path(args, capsys):
    code, out, err = _run(["gen", *args], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ")


def test_internal_value_error_is_not_a_usage_error(monkeypatch, capsys):
    def broken(m):
        raise ValueError("empty state set")

    monkeypatch.setattr(cli, "model_check", broken)
    with pytest.raises(ValueError, match="empty state set"):
        cli.main(["check", FIG2])
    assert "usage error" not in capsys.readouterr().err


ROW_SUM_NOT_ONE = (
    "@params p\n@state a\n@state b\n@init a : 1\n"
    "@trans a -> b : p\n@trans a -> a : 1/2\n@trans b -> b : 1\n@target b\n"
)


def test_a_check_leaves_no_cyclic_garbage(tmp_path, capsys):
    # main pauses the cycle collector because a check builds no reference
    # cycles: reference counting frees everything it drops, so a collection
    # right after each run finds nothing to free
    rng = random.Random(13123979)  # the benchmark's fuzz family
    texts = {
        "brp": benchgen.brp(16, 4),
        "crowds": benchgen.crowds(10, 12),
        "ruin": BENCH_GEN.ruin(60),
        "faulty": ROW_SUM_NOT_ONE,
        **{f"fuzz{i}": BENCH_GEN.fuzz_model(rng, i) for i in range(8)},
    }
    paths = [str(DATA / f"{name}.pdtmc") for name in ("fig2", "three", "two_inputs")]
    for name, text in texts.items():
        path = tmp_path / f"{name}.pdtmc"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    paths.append(str(tmp_path / "no-such-model.pdtmc"))
    smt = str(tmp_path / "c.smt2")
    gc.collect()
    for path in paths:
        for mode in MODES:
            argv = ["check", path, "--mode", mode, "--factored", "--constraints-out", smt, "--stats"]
            code = cli.main(argv)
            assert code == {"faulty": 1, "no-such-model": 2}.get(pathlib.Path(path).stem, 0)
            assert gc.collect() == 0, f"{pathlib.Path(path).stem} under {mode} left cyclic garbage"


@pytest.fixture(params=[True, False], ids=["enabled_before", "disabled_before"])
def collector(request):
    """The collector's state before a run, restored after the test."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize(
    "model, code",
    [(FIG2, 0), ("faulty", 1), (str(DATA / "no-such-model.pdtmc"), 2)],
    ids=["exit_0", "exit_1", "exit_2"],
)
def test_main_pauses_the_collector_and_leaves_it_as_it_found_it(
    model, code, collector, monkeypatch, tmp_path, capsys
):
    if model == "faulty":
        model = _write(tmp_path, ROW_SUM_NOT_ONE)
    seen, engine = [], cli.model_check
    monkeypatch.setattr(cli, "model_check", lambda m: seen.append(gc.isenabled()) or engine(m))
    assert _run(["check", model], capsys)[0] == code
    assert seen == ([False] if code == 0 else [])
    assert gc.isenabled() is collector


def test_an_internal_error_propagates_with_the_collector_restored(collector, monkeypatch, capsys):
    def broken(m):
        raise RuntimeError("planted")

    monkeypatch.setattr(cli, "model_check", broken)
    with pytest.raises(RuntimeError, match="planted"):
        cli.main(["check", FIG2])
    assert gc.isenabled() is collector
    assert capsys.readouterr().err == ""


def test_a_malformed_flag_leaves_the_collector_as_it_found_it(collector, capsys):
    code, out, err = _run(["check", FIG2, "--mode", "nope"], capsys)
    assert (code, out, err) == (2, "", "usage error: --mode 'nope' is not one of: scc, elim\n")
    assert gc.isenabled() is collector


@pytest.mark.parametrize("mode, walks", [("scc", 2), ("elim", 1)])
def test_a_check_walks_the_whole_graph_at_most_twice(mode, walks, monkeypatch, tmp_path, capsys):
    # preprocess walks the model once, and scc_components walks the
    # engine's region once more; solving a component walks nothing
    regions = []

    def counting(rows, region):
        regions.append(len(region))
        return tarjan_sccs(rows, region)

    # in every module that holds a reference to it
    for name, module in list(sys.modules.items()):
        if name.startswith("parmreach") and hasattr(module, "tarjan_sccs"):
            monkeypatch.setattr(module, "tarjan_sccs", counting)
    path = _write(tmp_path, benchgen.brp(16, 4))
    assert _run(["check", path, "--mode", mode], capsys)[0] == 0
    assert len(regions) <= walks, regions


@pytest.mark.parametrize("platform, maxrss", [("linux", 20 << 10), ("darwin", 20 << 20)])
def test_the_peak_memory_line_reads_megabytes_on_linux_and_macos(monkeypatch, platform, maxrss):
    # getrusage reports ru_maxrss in kilobytes on Linux and in bytes on macOS
    resource = pytest.importorskip("resource")
    monkeypatch.setattr(sys, "platform", platform)
    monkeypatch.setattr(resource, "getrusage", lambda who: SimpleNamespace(ru_maxrss=maxrss))
    assert cli._peak_memory_mb() == "20.0 MB"


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0
        return buf.getvalue()

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(MODELS):
            for mode in MODES:
                for filename, text in _outputs(name, mode, pathlib.Path(tmp), run).items():
                    (GOLDEN / filename).write_text(text, encoding="utf-8")

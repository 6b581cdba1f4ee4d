"""Command-line front end.

Two subcommands:

* ``check`` — parse a model file, compute the reachability function for
  every (initial state, target) pair with the chosen engine, optionally
  evaluate at a parameter point, export the SMT-LIB 2 validity
  constraints, and print statistics.  Each distinct function is
  rendered and evaluated once per query and its text printed under
  every label that shows it: with one initial state and one target,
  ``total`` is the pair's function.
* ``gen`` — emit a benchmark model file.  The generators are imported
  when ``gen`` runs, so a ``check`` never loads them.

Exit codes: 0 on success, 1 when the model itself is at fault (syntax,
probability sums, absorbing-target violations, …), 2 on usage errors
(unreadable input, a model file that is not UTF-8 text included, or
unwritable output, malformed flags, unknown parameter or target names,
``gen`` sizes out of range or above the state cap).  Any other
exception is a bug and is not reported as either.

Result output is byte-deterministic for a fixed input and mode;
the optional ``--stats`` block (wall time, peak memory) is diagnostic
and exempt.

:func:`main` runs the subcommand with Python's cycle collector paused
and switches it back on afterwards only if it was on before.  The
values a check builds (polynomials, factorizations, rows, the session's
pool and caches) form no reference cycles, so reference counting frees
all of them the moment they are dropped, and a collector pass could
only rescan live objects: a cold check of brp(32,4) made 15 passes and
freed nothing.  ``tests/test_cli.py`` guards the premise, asserting
that ``gc.collect()`` finds no cyclic garbage after checks of many
models under both engines, and that :func:`main` restores the
collector's state on every exit.  The library API (``model_check``,
``eliminate_all``, ...) leaves collector policy to its caller.
"""

from __future__ import annotations

import argparse
import gc
import re
import sys
from contextlib import nullcontext
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence, TextIO

from .elimination import eliminate_all
from .errors import ParmreachError
from .model import Pdtmc, parse_model, preprocess
from .polycore import reset_session
from .ratfun import RationalFunction, rf_eval
from .scc_mc import collect_constraints, model_check

__all__ = ["main"]


class _UsageError(Exception):
    pass


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path!r}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise _UsageError(
            f"cannot read {path!r}: not UTF-8 text (byte {byte:#04x} at offset {exc.start})"
        ) from exc


def _open_output(path: str) -> TextIO:
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot write {path!r}: {exc.strerror}") from exc


# the model parser's number syntax with a sign, or a ratio of integers;
# ASCII only, since Fraction would also read digits like '١'
_EVAL_VALUE = re.compile(r"[-+]?\d+(?:\.\d+|/\d+)?", re.ASCII)


def _parse_eval(text: str, m: Pdtmc) -> dict:
    point: dict = {}
    names = {str(v): v for v in m.params}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, sep, value = piece.partition("=")
        name = name.strip()
        if not sep:
            raise _UsageError(f"--eval entry {piece!r} is not of the form name=value")
        if name not in names:
            raise _UsageError(f"--eval names unknown parameter {name!r}")
        if names[name] in point:
            raise _UsageError(f"--eval sets {name!r} twice")
        value = value.strip()
        if not _EVAL_VALUE.fullmatch(value):
            raise _UsageError(
                f"--eval value for {name!r}: {value!r} is not a number like 3/10 or 0.25"
            )
        try:
            point[names[name]] = Fraction(value)
        except ZeroDivisionError as exc:
            reason = f"{value!r} has a zero denominator"
            raise _UsageError(f"--eval value for {name!r}: {reason}") from exc
    return point


def _approx(x: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def _cmd_check(args: argparse.Namespace) -> int:
    reset_session()
    m = preprocess(parse_model(_read_file(args.model)))
    wanted = args.target or list(m.targets)
    for t in wanted:
        if t not in m.targets:
            raise _UsageError(f"--target {t!r} is not a target state of the model")
    point = _parse_eval(args.eval, m) if args.eval else None
    if point is not None:
        missing = [str(v) for v in m.params if v not in point]
        if missing:
            raise _UsageError(f"--eval leaves parameters unset: {', '.join(missing)}")
    at = (
        ", ".join(f"{v}={point[v]}" for v in m.params)
        if point is not None
        else ""
    )
    # opened before the engine runs, so an unwritable path fails first
    with _open_output(args.constraints_out) if args.constraints_out else nullcontext() as smt:
        result = model_check(m) if args.mode == "scc" else eliminate_all(m)
        if smt is not None:
            smt.write(collect_constraints(result, m) + "\n")

    # text and value line of each distinct function, by its factorizations:
    # within a session they fix both, and ``total`` is often a pair's function
    texts: dict[tuple, str] = {}
    values: dict[tuple, str] = {}

    def show(label: str, f: RationalFunction) -> None:
        key = (f.num, f.den)
        text = texts.get(key)
        if text is None:
            text = texts[key] = f.factored_str() if args.factored else str(f)
        print(f"{label} = {text}")
        if point is not None:
            line = values.get(key)
            if line is None:
                value = rf_eval(f, point)
                line = values[key] = f"  at {at}: {value} (approx. {_approx(value)})"
            print(line)

    for s in m.initial_states:
        for t in m.targets:
            if t in wanted:
                show(f"f({s}, {t})", result.per_pair[(s, t)])
    show("total", result.total)

    if args.stats:
        stats = result.stats
        print("stats:")
        print(f"  engine: {args.mode}")
        print(f"  states after preprocessing: {len(m.states)}")
        print(f"  time: {stats.elapsed_seconds:.4f} s")
        print(f"  stored polynomials: {stats.stored_polynomials}")
        print(f"  gcd kernel calls: {stats.gcd_kernel_calls}")
        print(f"  abstraction sites checked: {stats.abstraction_sites}")
        print(f"  peak memory: {_peak_memory_mb()}")
    return 0


def _peak_memory_mb() -> str:
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # bytes on macOS, else KB
        return f"{peak / (1 << 20 if sys.platform == 'darwin' else 1 << 10):.1f} MB"
    except Exception:  # pragma: no cover - platform-specific
        return "unavailable"


def _cmd_gen(args: argparse.Namespace) -> int:
    from .benchgen import SizeCapExceeded, brp, crowds, zeroconf

    family = args.family
    smallest = 2 if family == "crowds" else 1
    if args.n < smallest:
        raise _UsageError(f"--n must be at least {smallest} for {family}")
    if family == "brp" and args.max < 0:
        raise _UsageError("--max must be at least 0")
    if family == "crowds" and args.rounds < 1:
        raise _UsageError("--rounds must be at least 1")
    try:
        if family == "brp":
            text = brp(args.n, args.max)
        elif family == "crowds":
            text = crowds(args.n, args.rounds)
        else:
            text = zeroconf(args.n)
    except SizeCapExceeded as exc:
        raise _UsageError(str(exc)) from exc
    if args.output:
        with _open_output(args.output) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parmreach",
        description="Exact parametric reachability for discrete-time Markov chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="compute reachability functions")
    check.add_argument("model", help="model file to analyze")
    check.add_argument(
        "--mode",
        choices=["scc", "elim"],
        default="scc",
        help="engine: component abstraction or state elimination",
    )
    check.add_argument(
        "--eval",
        metavar="ASSIGN",
        help="evaluate at a point, e.g. p=1/2,q=3/10",
    )
    check.add_argument(
        "--target",
        action="append",
        metavar="STATE",
        help="restrict output to this target (repeatable)",
    )
    check.add_argument(
        "--factored",
        action="store_true",
        help="print functions in factored form",
    )
    check.add_argument(
        "--constraints-out",
        metavar="PATH",
        help="also write the SMT-LIB validity constraints to PATH",
    )
    check.add_argument("--stats", action="store_true", help="print a statistics block")
    check.set_defaults(func=_cmd_check)

    gen = sub.add_parser("gen", help="generate a benchmark model file")
    gen.add_argument(
        "--family",
        choices=["brp", "crowds", "zeroconf"],
        required=True,
    )
    gen.add_argument("--n", type=int, required=True, help="primary size")
    gen.add_argument(
        "--max",
        type=int,
        default=1,
        help="retransmissions per chunk (brp)",
    )
    gen.add_argument("--rounds", type=int, default=1, help="routing rounds (crowds)")
    gen.add_argument("-o", "--output", metavar="PATH", help="write to PATH (default stdout)")
    gen.set_defaults(func=_cmd_gen)
    return parser


# built once per process: the first build costs about four times a later one
_PARSER = _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ParmreachError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

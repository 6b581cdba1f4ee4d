"""Command-line front end.

Two subcommands:

* ``check`` — parse a model file, compute the reachability function for
  every (initial state, target) pair with the chosen engine, optionally
  evaluate at a parameter point, export the SMT-LIB 2 validity
  constraints, and print statistics.
* ``gen`` — emit a benchmark model file.

Exit codes: 0 on success, 1 when the model itself is at fault (syntax,
probability sums, absorbing-target violations, …), 2 on usage errors
(unreadable input or unwritable output, malformed flags, unknown
parameter or target names, ``gen`` sizes out of range or above the
state cap).  Any other exception is a bug and is not reported as either.

Result output is byte-deterministic for a fixed input and mode;
the optional ``--stats`` block (wall time, peak memory) is diagnostic
and exempt.
"""

from __future__ import annotations

import argparse
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence, TextIO

from .benchgen import BenchSpec, Family, SizeCapExceeded, generate
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


def _open_output(path: str) -> TextIO:
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot write {path!r}: {exc.strerror}") from exc


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
        try:
            point[names[name]] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise _UsageError(f"--eval value for {name!r}: {exc}") from exc
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
    if args.constraints_out:
        _open_output(args.constraints_out).close()  # fail before the engine runs
    result = model_check(m) if args.mode == "scc" else eliminate_all(m)

    def render(f: RationalFunction) -> str:
        return f.factored_str() if args.factored else str(f)

    def show(label: str, f: RationalFunction) -> None:
        print(f"{label} = {render(f)}")
        if point is not None:
            value = rf_eval(f, point)
            print(f"  at {at}: {value} (approx. {_approx(value)})")

    for s in m.initial_states:
        for t in m.targets:
            if t in wanted:
                show(f"f({s}, {t})", result.per_pair[(s, t)])
    show("total", result.total)

    if args.constraints_out:
        with _open_output(args.constraints_out) as fh:
            fh.write(collect_constraints(result, m) + "\n")

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

        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return f"{kb / 1024:.1f} MB"
    except Exception:  # pragma: no cover - platform-specific
        return "unavailable"


def _cmd_gen(args: argparse.Namespace) -> int:
    family = Family(args.family)
    depth = args.max if family is Family.BRP else args.rounds
    smallest = 2 if family is Family.CROWDS else 1
    if args.n < smallest:
        raise _UsageError(f"--n must be at least {smallest} for {family.value}")
    if family is Family.BRP and depth < 0:
        raise _UsageError("--max must be at least 0")
    if family is Family.CROWDS and depth < 1:
        raise _UsageError("--rounds must be at least 1")
    try:
        text = generate(BenchSpec(family, args.n, depth))
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
        help="engine: hierarchical component abstraction or state elimination",
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
        choices=[f.value for f in Family],
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
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ParmreachError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

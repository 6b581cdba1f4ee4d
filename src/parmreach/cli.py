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

The argv grammar::

    parmreach (-h | --help)
    parmreach check [options] MODEL
        --mode {scc,elim}  --eval ASSIGN  --target STATE (repeatable)
        --factored  --constraints-out PATH  --stats  -h, --help
    parmreach gen --family {brp,crowds,zeroconf} --n N [options]
        --max N  --rounds N  -o, --output PATH  -h, --help

Flags and the model file may come in any order after the subcommand.  A
flag is spelled whole or by a unique prefix of its long name
(``--const`` for ``--constraints-out``), and its value follows as the
next word or after ``=`` in the same one (``--mode elim``,
``--mode=elim``).  The next word is a value unless it starts with ``-``
and is neither ``-`` nor a negative number, so ``gen --max -1`` reads
-1.  A repeated flag keeps its last value, except ``--target``, which
collects them.  ``-h``/``--help`` prints the usage and the help text of
every flag to stdout and exits 0, at the top level for both subcommands.
The table :data:`_COMMANDS` lists the flags; :func:`_parse` reads argv
by it, accepting the forms Python's ``argparse`` read for these flags
except the ``--`` separator, at a small fraction of its import and
parse time.

Exit codes: 0 on success, 1 when the model itself is at fault (syntax,
probability sums, absorbing-target violations, …), 2 on usage errors
(unreadable input, a model file that is not UTF-8 text included, or
unwritable output, malformed argv: an unknown subcommand or option, a
missing value, a value that is not one of the choices or not an integer,
a missing or extra argument, a missing required ``gen`` flag; unknown
parameter or target names, ``gen`` sizes out of range or above the
state cap), and 141 when stdout is closed before the output is written,
as by ``| head``: the output is dropped and nothing is printed.  Any
other exception is a bug and is not reported as any of these.

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

import gc
import os
import re
import sys
from contextlib import nullcontext
from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace
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


def _cmd_check(args: SimpleNamespace) -> int:
    reset_session()
    m = preprocess(parse_model(_read_file(args.model)))
    wanted = args.target or list(m.targets)
    for t in wanted:
        if t not in m.targets:
            raise _UsageError(f"--target {t!r} is not a target state of the model")
    point = _parse_eval(args.eval, m) if args.eval is not None else None
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


def _cmd_gen(args: SimpleNamespace) -> int:
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


# Each command: (name, function, help, positionals, flags), and each flag
# (names, kind, default, help), where a kind is str, int, list (a repeatable
# str), bool (a switch), a tuple of choices or None (help) and a default of
# ... marks a required flag.  Tuples: module state holds no mutable container.
_HELP = (("-h", "--help"), None, None, "show this help and exit")
_COMMANDS = (
    ("check", _cmd_check, "compute the reachability functions of a model file", ("model",), (
        (("--mode",), ("scc", "elim"), "scc", "scc abstracts components, elim eliminates states"),
        (("--eval",), str, None, "evaluate at a point, e.g. p=1/2,q=3/10"),
        (("--target",), list, None, "restrict output to this target state (repeatable)"),
        (("--factored",), bool, False, "print functions in factored form"),
        (("--constraints-out",), str, None, "also write the SMT-LIB validity constraints there"),
        (("--stats",), bool, False, "print a statistics block"), _HELP)),
    ("gen", _cmd_gen, "generate a benchmark model file", (), (
        (("--family",), ("brp", "crowds", "zeroconf"), ..., "brp, crowds or zeroconf"),
        (("--n",), int, ..., "primary size"),
        (("--max",), int, 1, "retransmissions per chunk (brp)"),
        (("--rounds",), int, 1, "routing rounds (crowds)"),
        (("-o", "--output"), str, None, "write the model there (default stdout)"), _HELP)),
)
# the top level, read like a command whose one positional, the first word,
# names the command
_TOP = ("", None, "", ("a command, check or gen",), (_HELP,))

# what argparse reads as a value, given no flag that looks like a number:
# a word not starting with "-", a lone "-" or a negative number
_VALUE = re.compile(r"(?!-).*|-|-\d+|-\d*\.\d+", re.DOTALL)


def _dest(names: tuple) -> str:
    return names[-1][2:].replace("-", "_")


def _print_help(args: SimpleNamespace) -> int:
    print("parmreach: exact parametric reachability for discrete-time Markov chains")
    for name, _, about, positionals, flags in args.commands:
        print(f"\nusage: parmreach {name} [options] {' '.join(positionals)}".rstrip())
        print(about)
        for names, kind, default, text in flags:
            row = ", ".join(names) + ("" if kind in (bool, None) else " " + _dest(names).upper())
            print(f"  {row:<34}{text}" + (" (required)" if default is ... else ""))
    return 0


def _parse(argv: Sequence[str]) -> SimpleNamespace:
    """Read ``argv`` by :data:`_COMMANDS`; raise :class:`_UsageError` if it
    is malformed."""
    command = next((c for c in _COMMANDS if argv and c[0] == argv[0]), _TOP)
    name, func, _, positionals, flags = command
    args = SimpleNamespace(func=func, **{_dest(f[0]): f[2] for f in flags})
    given, words = [], iter(argv[1:] if name else argv[:1])
    for word in words:
        if _VALUE.fullmatch(word):
            given.append(word)
            continue
        option, eq, value = word.partition("=")
        # a flag's names, or a unique prefix of its long name; no long name
        # is a prefix of another, so an exact one matches that flag alone
        found = [f for f in flags if option in f[0] or f[0][-1].startswith(option)]
        if len(found) != 1:
            raise _UsageError(f"unknown option {option!r}")
        names, kind, _, _ = found[0]
        option, dest = names[-1], _dest(names)
        if kind is None:
            return SimpleNamespace(func=_print_help, commands=(command,) if name else _COMMANDS)
        if kind is bool:
            if eq:
                raise _UsageError(f"{option} takes no value")
            value = True
        elif not eq:
            value = next(words, "--")
            if not _VALUE.fullmatch(value):
                raise _UsageError(f"{option} needs a value")
        if type(kind) is tuple and value not in kind:
            raise _UsageError(f"{option} {value!r} is not one of: {', '.join(kind)}")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise _UsageError(f"{option} {value!r} is not an integer") from None
        setattr(args, dest, [*(getattr(args, dest) or ()), value] if kind is list else value)
    if command is _TOP or len(given) != len(positionals):
        got = ", ".join(map(repr, given)) or "nothing"
        raise _UsageError(f"expected {' '.join(positionals) or 'no argument'}, got {got}")
    args.__dict__.update(zip(positionals, given))
    for names in (f[0] for f in flags if getattr(args, _dest(f[0])) is ...):
        raise _UsageError(f"{name} needs {names[-1]}")
    return args


def main(argv: Sequence[str] | None = None) -> int:
    """Run the command line ``argv`` (default ``sys.argv[1:]``) and return
    its exit code.  A usage fault, malformed argv included, prints one
    ``usage error:`` line on stderr and returns 2: it never raises, not
    even ``SystemExit``.  A closed stdout returns 141 and prints nothing."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: aim fd 1 at devnull, so that the flush at
        # interpreter exit, which would fail the same way, stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
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

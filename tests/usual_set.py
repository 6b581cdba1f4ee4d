"""Write the ``parmreach check`` outputs of the usual set, for byte-identity checks.

Usage, from the root of a checkout::

    python3 tests/usual_set.py OUTDIR

The usual set is 90 models: the 40 models of ``perfbench/gen.fuzz_model``
for each of the family seeds 13123979 and 20240601, brp(16/24/32, 4),
crowds(10, 12), zeroconf(40), ruin(60/150), and the model files fig2,
three and two_inputs.  For every model and both engines the script writes
into OUTDIR:

* ``<model>.<engine>.out``: the output of ``check --eval POINT --stats``
  with the two diagnostic ``--stats`` lines (time, peak memory) removed;
* ``<model>.<engine>.factored.out``: the output of ``check --factored``;
* ``<model>.<engine>.smt2``: the file of ``--constraints-out``;

and ``SHA256SUMS`` over all of them, in ``sha256sum`` format.  Run it in
two checkouts; their outputs are byte-identical when ``diff -r`` of the
two directories prints nothing.  The script runs the ``parmreach`` under
``src/`` of the checkout it sits in, and only reads ``perfbench/gen.py``.
pytest does not collect it; ``tests/test_usual_set.py`` compares its
``SHA256SUMS`` with the committed ``tests/data/usual_set.SHA256SUMS``.

To compare two such directories::

    python3 tests/usual_set.py --compare DIR_A DIR_B

prints the files that differ, grouped as result lines (a ``.out`` file
above its ``stats:`` line), ``--stats`` counters (from that line on),
``--factored`` and SMT; a file only one directory has differs in each
of its groups.  Then, for each ``--stats`` counter that changed, it
prints in how many files it went down and in how many up from DIR_A to
DIR_B, and its total over all files of each directory.  It exits 1
when a result line, a ``--factored`` text or an SMT file differs, else
0: only the counters may move.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fuzzgen import BENCH_GEN as gen  # noqa: E402
from parmreach import benchgen, cli, parse_model, preprocess  # noqa: E402

FUZZ_FAMILY_SEEDS = (13123979, 20240601)
ENGINES = ("scc", "elim")
DIAGNOSTIC_STATS = ("  time: ", "  peak memory: ")


def models() -> list[tuple[str, str]]:
    """``(name, model text)`` of every model of the usual set."""
    out = []
    for seed in FUZZ_FAMILY_SEEDS:
        rng = random.Random(seed)
        out += [
            (f"fuzz-{seed}-{i:02d}", gen.fuzz_model(rng, i))
            for i in range(gen.FUZZ_MODELS)
        ]
    out += [(f"brp-{c}-4", benchgen.brp(c, 4)) for c in (16, 24, 32)]
    out.append(("crowds-10-12", benchgen.crowds(10, 12)))
    out.append(("zeroconf-40", benchgen.zeroconf(40)))
    out += [(f"ruin-{n}", gen.ruin(n)) for n in (60, 150)]
    data = ROOT / "tests" / "data"
    for name in ("fig2", "three", "two_inputs"):
        out.append((name, (data / f"{name}.pdtmc").read_text()))
    return out


def _check(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", *argv])
    if code != 0:
        raise SystemExit(f"parmreach check {' '.join(argv)} exited with {code}")
    return out.getvalue()


def write_outputs(outdir: pathlib.Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in models():
        model = outdir / f"{name}.pdtmc"
        model.write_text(text, encoding="utf-8")
        params = preprocess(parse_model(text)).params
        # k/19 is never 1/2, where ruin's closed form is undefined
        point = ",".join(f"{v}={5 + 3 * i}/19" for i, v in enumerate(params))
        for engine in ENGINES:
            stem = f"{name}.{engine}"
            smt = outdir / f"{stem}.smt2"
            plain = _check([str(model), "--mode", engine, "--eval", point,
                            "--constraints-out", str(smt), "--stats"])
            plain = "".join(
                line for line in plain.splitlines(keepends=True)
                if not line.startswith(DIAGNOSTIC_STATS)
            )
            factored = _check([str(model), "--mode", engine, "--factored"])
            (outdir / f"{stem}.out").write_text(plain, encoding="utf-8")
            (outdir / f"{stem}.factored.out").write_text(factored, encoding="utf-8")
            written += [f"{stem}.out", f"{stem}.factored.out", f"{stem}.smt2"]
        model.unlink()
    with open(outdir / "SHA256SUMS", "w", encoding="utf-8") as fh:
        for f in written:
            fh.write(f"{hashlib.sha256((outdir / f).read_bytes()).hexdigest()}  {f}\n")


RESULTS, COUNTERS, FACTORED, SMT = "result lines", "--stats counters", "--factored", "SMT"


def parts(name: str, text: str) -> dict[str, str]:
    """The text of output file *name* by comparison group."""
    if name.endswith(".factored.out"):
        return {FACTORED: text}
    if name.endswith(".smt2"):
        return {SMT: text}
    results, _, counters = text.partition("stats:\n")
    return {RESULTS: results, COUNTERS: counters}


def _counters(text: str) -> dict[str, int]:
    """The integer ``--stats`` counters of a ``.out`` file's counter part, by label."""
    counters = {}
    for line in text.splitlines():
        label, _, value = line.strip().partition(": ")
        if value.isdigit():
            counters[label] = int(value)
    return counters


def compare(dir_a: pathlib.Path, dir_b: pathlib.Path) -> int:
    """Print the output files that differ between two directories, by
    group, and per changed ``--stats`` counter label the number of files
    in which it went down and up from A to B and its total in each; 1 if
    a result line, a ``--factored`` text or an SMT file differs, else 0."""
    differ: dict[str, list[str]] = {g: [] for g in (RESULTS, COUNTERS, FACTORED, SMT)}
    moved: dict[str, list[int]] = {}  # label -> [files down, files up]
    totals: dict[str, list[int]] = {}  # label -> [total in A, total in B]
    names = {p.name for d in (dir_a, dir_b) for p in d.iterdir()}
    for name in sorted(n for n in names if n.endswith((".out", ".smt2"))):
        a, b = (d / name for d in (dir_a, dir_b))
        texts = [d.read_text(encoding="utf-8") if d.exists() else None for d in (a, b)]
        for side, text in enumerate(texts):
            if text is not None:
                for label, value in _counters(parts(name, text).get(COUNTERS, "")).items():
                    totals.setdefault(label, [0, 0])[side] += value
        if None in texts:
            for group in parts(name, ""):
                differ[group].append(name)
            continue
        parts_a, parts_b = (parts(name, text) for text in texts)
        for group, text in parts_a.items():
            if text != parts_b[group]:
                differ[group].append(name)
        if COUNTERS in parts_a:
            before, after = _counters(parts_a[COUNTERS]), _counters(parts_b[COUNTERS])
            for label in before.keys() & after.keys():
                if before[label] != after[label]:
                    moved.setdefault(label, [0, 0])[before[label] < after[label]] += 1
    for group, files in differ.items():
        print(f"{group}: {len(files)} files differ")
        for name in files:
            print(f"  {name}")
    for label, (down, up) in sorted(moved.items()):
        total_a, total_b = totals[label]
        print(f"counter {label!r}: down in {down} files, up in {up}; total {total_a} -> {total_b}")
    return 1 if differ[RESULTS] or differ[FACTORED] or differ[SMT] else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        try:
            sys.exit(compare(pathlib.Path(sys.argv[2]), pathlib.Path(sys.argv[3])))
        except BrokenPipeError:
            # the reader (say, ``head``) stopped early; leave quietly, and
            # keep the interpreter's final flush from raising again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            sys.exit(1)
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        raise SystemExit(
            "usage: python3 tests/usual_set.py OUTDIR\n"
            "       python3 tests/usual_set.py --compare DIR_A DIR_B"
        )
    write_outputs(pathlib.Path(sys.argv[1]))

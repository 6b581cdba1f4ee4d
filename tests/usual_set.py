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
pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
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


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python3 tests/usual_set.py OUTDIR")
    write_outputs(pathlib.Path(sys.argv[1]))

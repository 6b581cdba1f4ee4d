"""Benchmark: cold ``parmreach check`` queries, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload {brp,ruin,fuzz} --seed N --seconds S --trace {0,1}

Every query is one ``parmreach.cli.main(["check", MODEL, "--mode", E,
"--eval", POINT, "--constraints-out", FILE, "--stats"])`` call, run as
the CLI ships: audits on, the default elimination order, no
``--parallel``, no ``--pool-cap``.  Queries must be cold because
``reset_session()`` leaves ``polycore._GCD_MEMO`` warm: in one process a
repeated ruin(150) scc query took 0.37 s against 0.94 s cold, and
crowds(5,30) 1.05 s against 1.32 s.  A CLI user never gets that cache.
So each query runs in a process of its own, forked from a worker
(``worker.py``) that has imported ``parmreach`` and run nothing else:
the query starts from the state of a fresh CLI process, while the
interpreter start and the import, several times the median fuzz
query, are paid once per pass instead of once per query.

The loop is closed: one query at a time, the next starting when the
previous one has ended.  A pass starts a fresh worker and runs both
engines on every instance of the workload through it, with
:data:`REFERENCES_PER_PASS` reference jobs spread among the queries;
passes repeat while another one still fits in ``--seconds`` (at least
one runs).

Query times are calibrated.  On a shared 2-core VM the speed of the
same code drifts by 20-30 % for minutes at a time as other tenants come
and go, and set-up, scc and elim drift together, so raw times of runs
made minutes apart spread wider than the bounds (over ten brp runs the
quartiles of ``elim_s`` lay 0.29 of the median apart).  A reference job
runs fixed arithmetic that no change to the program alters
(``worker.reference_work``: fraction sums and an integer loop, with next
to no allocation) in a forked child, exactly like a query.  Every
reported query time is the measured time scaled by ``REFERENCE_S /
reference_s``, where ``reference_s`` is the run's median reference time:
seconds on a host where the reference takes :data:`REFERENCE_S`.  The
raw ``reference_s`` is printed, so measured times can be recovered.
Over ten runs per workload this narrowed the spread between quartiles,
as a share of the median, from 0.14 to 0.07 for ``scc_s`` and from 0.12
to 0.10 for ``elim_s`` on brp, and from 0.18 to 0.05 and from 0.17 to
0.07 on fuzz.  ``setup_s`` (process start and imports) is reported as
measured: scaling widened its spread from 0.11 to 0.18.  References that allocate heavily (a large sort)
drifted on their own and did not track the queries.

End-to-end metrics (``--trace 0``):

* ``setup_s``: launch of a worker to the point where it can call
  ``cli.main`` (interpreter start plus ``import parmreach``), median over
  the run's workers, one per pass.
* ``scc_s`` / ``elim_s``: sum over the instances of the median in-process
  wall time, calibrated, of that engine's query (parse, preprocess,
  engine, rendering, ``--eval`` and the SMT export).
* ``peak_rss_mb``: largest ``ru_maxrss`` of any query process.

``failed_ratio`` (failed over attempted queries) is printed with them;
the result line carries it as ``failed`` and ``attempted``.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of :data:`LAYER_METRICS`: call counts and self times
of the functions ``spans.py`` wraps (self times calibrated like query
times), the counters of the ``--stats`` block, and
``trace.overhead_ratio`` (traced over untraced query time).

Correctness gate, per instance and pass: both engines exit 0, their
outputs are byte-identical once the ``--stats`` block is removed and
identical to the first pass, every ``--eval`` value equals the exact
oracle ``numeric_reachability(evaluate(m, point))`` (computed before any
timing) and, for ruin, ``p^(n-1)(2p-1)/(p^n-(1-p)^n)``.  A failing query
counts in ``failed`` and makes the command exit 1.  The sha256 of every
output is printed so that later changes can show byte-identical results.

Workloads (single prototype runs on a 2-core x86-64 container):

* ``brp``: ``benchgen.brp(chunks, 4)`` for chunks 16, 24 and 32; acyclic,
  two parameters.  brp(24,4) took 1.35 s under scc and 0.20 s under elim;
  traced scc spent about 1.0 of 1.5 s in ``poly_mul`` and 1.33 s inside
  ``fadd``, with no ``poly_gcd`` call.  Loads the multiply/expand path
  and the scc acyclic gap; the GCD kernel stays idle.
* ``ruin``: gambler's ruin (``gen.ruin``) for n = 150 and 200; one
  parameter, nesting depth n.  scc solves one nested single-input
  component per level and degrees grow with n; ``poly_gcd`` took about
  1.4 s of the traced time.  Loads the GCD kernel and the deep
  hierarchy, which brp has neither of.
* ``fuzz``: 40 random models of 7-14 states (``gen.fuzz_model``) with
  1-3 parameters, 1-3 initial states and cycles.  Only fuzz reaches
  ``solve_multi_input`` and multivariate GCDs (about 1.1 s of
  ``gcd_factored`` self time), and its many short queries weigh parse
  and set-up more.

``BENCHMARK.json`` lists brp and fuzz only; ruin is run by hand.  On a
shared 2-core VM the speed of the same query swings by up to about 1.5x,
for seconds to minutes at a time.  Over ten 36-second runs ruin spread
widest, its ``scc_s`` and ``elim_s`` by 25 % and 30 % of their medians,
beyond the largest bound allowed, and the time budget of the benchmark
leaves room for two workloads of 60-second runs.  brp and fuzz keep the
pairing each kernel needs, one workload that loads it and one that
bypasses it: brp spends about 2.4 s of scc self time in ``poly_mul`` and
never calls ``poly_gcd``; fuzz spends about 0.8 s in ``poly_gcd`` and
0.15 s in ``poly_mul``.

The seed picks the ``--eval`` point of every instance.  The fuzz models
come from the fixed :data:`FUZZ_FAMILY_SEED`: a model's query time varies
with its structure by a standard deviation twice its mean, so a set of 40
models drawn per seed moved the summed query time by about 25 % from
seed to seed, more than any bound the benchmark could hold.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("brp", "ruin", "fuzz")
ENGINES = ("scc", "elim")
BRP_CHUNKS = (16, 24, 32)
BRP_RETRIES = 4
RUIN_SIZES = (150, 200)
FUZZ_FAMILY_SEED = 13123979
REFERENCES_PER_PASS = 4
# Median time of one reference job on the 2-core x86-64 container the
# benchmark was written on; the unit of every reported time.
REFERENCE_S = 0.065

_BOTH = ENGINES
_SCC = ("scc",)
_ELIM = ("elim",)

# (metric name after "<engine>.", engines that report it)
LAYER_METRICS = [
    ("polycore.poly_mul.calls", _BOTH),
    ("polycore.poly_mul.self_s", _BOTH),
    ("factorizations.fadd.calls", _BOTH),
    ("factorizations.fadd.self_s", _BOTH),
    ("factorizations.Factorization.expand.calls", _BOTH),
    ("factorizations.Factorization.expand.self_s", _BOTH),
    ("factorizations.Factorization.of.calls", _BOTH),
    ("factorizations.Factorization.of.self_s", _BOTH),
    ("polycore.poly_gcd.calls", _BOTH),
    ("polycore.poly_gcd.self_s", _BOTH),
    ("polycore.poly_gcd.nontrivial_ratio", _BOTH),
    ("factorizations.gcd_factored.calls", _BOTH),
    ("factorizations.gcd_factored.self_s", _BOTH),
    ("factorizations.gcd_kernel_calls", _BOTH),
    ("polycore.is_irreducible_heuristic.calls", _BOTH),
    ("polycore.is_irreducible_heuristic.self_s", _BOTH),
    ("polycore.poly_divide_exact.calls", _BOTH),
    ("polycore.poly_divide_exact.self_s", _BOTH),
    ("scc_mc.solve_single_input.calls", _SCC),
    ("scc_mc.solve_single_input.self_s", _SCC),
    ("scc_mc.solve_multi_input.calls", _SCC),
    ("scc_mc.solve_multi_input.self_s", _SCC),
    ("scc_mc.induced.self_s", _SCC),
    ("scc_mc.substitute.self_s", _SCC),
    ("scc_mc.sites", _SCC),
    ("ratfun.rf_add.calls", _BOTH),
    ("ratfun.rf_add.self_s", _BOTH),
    ("ratfun.rf_mul.calls", _BOTH),
    ("ratfun.rf_mul.self_s", _BOTH),
    ("ratfun.rf_div.calls", _BOTH),
    ("ratfun.rf_div.self_s", _BOTH),
    ("ratfun.rf_sum.calls", _BOTH),
    ("elimination.eliminate_all.self_s", _ELIM),
    ("model.parse_model.self_s", _BOTH),
    ("model.preprocess.self_s", _BOTH),
    ("model.states", _BOTH),
    ("scc_mc.collect_constraints.self_s", _BOTH),
    ("ratfun.rf_eval.self_s", _BOTH),
    ("cli.main.self_s", _BOTH),
    ("factorizations.stored_polynomials", _BOTH),
    ("trace.overhead_ratio", _BOTH),
]

# counters read from the --stats block, by line label
STATS_COUNTERS = {
    "states after preprocessing": "model.states",
    "stored polynomials": "factorizations.stored_polynomials",
    "gcd kernel calls": "factorizations.gcd_kernel_calls",
    "abstraction sites checked": "scc_mc.sites",
}

END_TO_END = [("setup_s", "s"), ("scc_s", "s"), ("elim_s", "s"), ("peak_rss_mb", "MB")]


def layer_metric_specs() -> list[dict]:
    """The per-layer metrics, in the form ``BENCHMARK.json`` lists them."""
    specs = []
    for suffix, engines in LAYER_METRICS:
        stat = suffix.rsplit(".", 1)[1]
        if stat == "self_s":
            unit = "s"
        elif stat.endswith("ratio"):
            unit = "ratio"
        else:
            unit = "count"
        better = "higher" if stat == "nontrivial_ratio" else "lower"
        specs += [
            {"name": f"{e}.{suffix}", "unit": unit, "better": better} for e in engines
        ]
    return specs


@dataclass
class Instance:
    name: str
    text: str
    ruin_n: int | None = None  # ruin instances are also checked against the closed form
    eval_arg: str = ""
    closed_form: Fraction | None = None
    expected: dict[str, Fraction] = field(default_factory=dict)
    model_path: Path = Path()
    digest: str | None = None  # stats-free output of the first pass


@dataclass
class Query:
    instance: Instance
    engine: str
    traced: bool
    report: dict
    problems: list[str] = field(default_factory=list)


def make_instances(workload: str) -> list[Instance]:
    from parmreach import benchgen

    if workload == "brp":
        return [
            Instance(f"brp-{c}-{BRP_RETRIES}", benchgen.brp(c, BRP_RETRIES))
            for c in BRP_CHUNKS
        ]
    if workload == "ruin":
        return [Instance(f"ruin-{n}", gen.ruin(n), n) for n in RUIN_SIZES]
    models = random.Random(FUZZ_FAMILY_SEED)
    return [
        Instance(f"fuzz-{i:02d}", gen.fuzz_model(models, i))
        for i in range(gen.FUZZ_MODELS)
    ]


def prepare(instances: list[Instance], seed: int) -> None:
    """Write the model files, pick the points, compute the exact oracle.

    Every coordinate is k/19 for a seeded k in 1..18: inside the open
    unit box every instance is graph-preserving, never 1/2, where ruin's
    closed form is undefined, and always of the same denominator, so the
    exact arithmetic of ``--eval`` costs about the same at every seed.
    """
    from parmreach import evaluate, numeric_reachability, parse_model, preprocess

    rng = random.Random(seed)
    for inst in instances:
        inst.model_path = WORK / f"{inst.name}.pdtmc"
        inst.model_path.write_text(inst.text, encoding="utf-8")
        m = preprocess(parse_model(inst.text))
        point = {v: Fraction(rng.randint(1, 18), 19) for v in m.params}
        inst.eval_arg = ",".join(f"{v}={x}" for v, x in point.items())
        d = evaluate(m, point)
        reach = numeric_reachability(d, m.initial_states, m.targets)
        total = Fraction(0)
        for s in m.initial_states:
            for t in m.targets:
                inst.expected[f"f({s}, {t})"] = reach[(s, t)]
                total += d.init.get(s, 0) * reach[(s, t)]
        inst.expected["total"] = total
        if inst.ruin_n is not None:
            (p,) = point.values()
            inst.closed_form = gen.ruin_closed_form(inst.ruin_n, p)


def split_stats(stdout: str) -> tuple[str, str]:
    """(result text, --stats block) of one ``check`` output."""
    body, sep, stats = stdout.partition("\nstats:\n")
    return body + "\n" if sep else stdout, stats


def eval_values(body: str) -> dict[str, Fraction]:
    """``label -> value`` from the ``  at <point>: <value> (approx. ...)`` lines."""
    values: dict[str, Fraction] = {}
    label = None
    for line in body.splitlines():
        if line.startswith("  at "):
            text = line.split(": ", 1)[1].split(" (approx.", 1)[0]
            values[label] = Fraction(text)
        else:
            label = line.split(" = ", 1)[0]
    return values


def stats_counters(stats: str) -> dict[str, int]:
    out = {}
    for line in stats.splitlines():
        label, _, value = line.strip().partition(": ")
        if label in STATS_COUNTERS:
            out[STATS_COUNTERS[label]] = int(value)
    return out


class Worker:
    """One ``worker.py`` process: its set-up time, then one cold query per
    :meth:`query` call.  Use it as a context manager, which ends it."""

    def __init__(self) -> None:
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        launched = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
            start_new_session=True,  # one process group: the worker and its query process
        )
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError(f"worker exited {self.proc.returncode} before it was ready")
        self.setup_s = json.loads(line)["ready"] - launched

    def query(self, job: dict) -> dict:
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        return json.loads(line) if line else {"error": "worker ended without a report"}

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, exc_type, *_) -> None:
        if exc_type is not None:  # a query may still be running: end it now
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self.proc.pid, signal.SIGKILL)
        self.close()


def gate(inst: Instance, queries: list[Query]) -> None:
    """Record every correctness problem of one instance's queries."""
    bodies = {}
    for q in queries:
        r = q.report
        if "error" in r:
            q.problems.append(r["error"].strip().splitlines()[-1])
            continue
        if r["rc"] != 0:
            q.problems.append(f"exit code {r['rc']}: {r['stderr'].strip()}")
            continue
        body, _ = split_stats(r["stdout"])
        bodies[q.engine] = body
        values = eval_values(body)
        if values != inst.expected:
            q.problems.append("--eval values differ from the exact oracle")
        if inst.closed_form is not None and values.get("total") != inst.closed_form:
            q.problems.append("total differs from the ruin closed form")
        digest = hashlib.sha256(body.encode()).hexdigest()
        if inst.digest is None:
            inst.digest = digest
        elif digest != inst.digest:
            q.problems.append("output differs from the first pass")
    if len(set(bodies.values())) > 1:
        for q in queries:
            q.problems.append("scc and elim outputs differ")


def run_pass(
    instances: list[Instance], traced: bool, tag: str
) -> tuple[list[Query], float, list[float]]:
    """Both engines on every instance through one fresh worker, with
    reference jobs spread among them; the queries, the worker's set-up
    time and the reference times."""
    done = []
    references = []
    stride = max(1, len(instances) // REFERENCES_PER_PASS)
    with Worker() as worker:
        for i, inst in enumerate(instances):
            if i % stride == 0:
                references.append(worker.query({"reference": True})["query_s"])
            queries = []
            for engine in ENGINES:
                job = {
                    "model": str(inst.model_path),
                    "mode": engine,
                    "eval": inst.eval_arg,
                    "constraints": str(WORK / f"{inst.name}.{engine}.smt2"),
                }
                if traced:
                    job["spans"] = str(WORK / f"{inst.name}.{engine}.{tag}.spans.tsv")
                queries.append(Query(inst, engine, traced, worker.query(job)))
            gate(inst, queries)
            done += queries
    return done, worker.setup_s, references


def _sum_by_pass(queries: list[Query], engine: str, traced: bool, value) -> list:
    """Per pass, ``value(query)`` summed over the pass's queries."""
    per_instance = len({q.instance.name for q in queries})
    chosen = [q for q in queries if q.engine == engine and q.traced == traced]
    sums = []
    for i in range(0, len(chosen), per_instance):
        sums.append(sum(value(q) for q in chosen[i:i + per_instance]))
    return sums


def end_to_end(queries: list[Query], setups: list[float], speed: float) -> dict[str, float]:
    times: dict[tuple[str, str], list[float]] = {}
    for q in queries:
        times.setdefault((q.instance.name, q.engine), []).append(q.report.get("query_s", 0.0))
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(q.report.get("rss_mb", 0.0) for q in queries),
    }
    for engine in ENGINES:
        values[f"{engine}_s"] = speed * sum(
            statistics.median(ts) for (_, e), ts in times.items() if e == engine
        )
    return values


def per_layer(queries: list[Query], speed: float) -> dict[str, float]:
    values: dict[str, float] = {}
    for engine in ENGINES:
        traced = [q for q in queries if q.engine == engine and q.traced]
        first_pass = traced[: len({q.instance.name for q in traced})]
        counts: dict[str, float] = {}
        for q in first_pass:
            for name, entry in q.report.get("layers", {}).items():
                counts[f"{name}.calls"] = counts.get(f"{name}.calls", 0) + entry["calls"]
                if "useful" in entry:
                    key = f"{name}.useful"
                    counts[key] = counts.get(key, 0) + entry["useful"]
            _, stats = split_stats(q.report.get("stdout", ""))
            for name, n in stats_counters(stats).items():
                counts[name] = counts.get(name, 0) + n
        gcds = counts.get("polycore.poly_gcd.calls", 0)
        counts["polycore.poly_gcd.nontrivial_ratio"] = (
            counts.get("polycore.poly_gcd.useful", 0) / gcds if gcds else 0.0
        )
        traced_s = _sum_by_pass(queries, engine, True, lambda q: q.report.get("query_s", 0.0))
        plain_s = _sum_by_pass(queries, engine, False, lambda q: q.report.get("query_s", 0.0))
        counts["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain_s)
        for suffix, engines in LAYER_METRICS:
            if engine not in engines:
                continue
            if suffix.endswith(".self_s"):
                fn = suffix[: -len(".self_s")]
                values[f"{engine}.{suffix}"] = speed * statistics.median(
                    _sum_by_pass(
                        queries, engine, True,
                        lambda q: q.report.get("layers", {}).get(fn, {}).get("self_s", 0.0),
                    )
                )
            else:
                values[f"{engine}.{suffix}"] = counts.get(suffix, 0)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # end through SystemExit, so that the running worker is closed too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "parmreach" / "cli.py").is_file():
        print(f"perfbench: no parmreach sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()

    instances = make_instances(args.workload)
    prepare(instances, args.seed)

    modes = (False, True) if args.trace else (False,)
    queries: list[Query] = []
    setups: list[float] = []
    references: list[float] = []
    started = time.monotonic()
    rounds = 0
    while True:
        round_start = time.monotonic()
        for traced in modes:
            done, setup_s, refs = run_pass(instances, traced, f"pass{rounds}")
            queries += done
            setups.append(setup_s)
            references += refs
        rounds += 1
        now = time.monotonic()
        if now - started + (now - round_start) > args.seconds:
            break

    failed = sum(1 for q in queries if q.problems)
    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  queries {len(queries)}")
    for q in queries:
        for problem in q.problems:
            print(f"FAILED {q.instance.name} {q.engine}: {problem}")
    for inst in instances:
        smt = {
            e: hashlib.sha256((WORK / f"{inst.name}.{e}.smt2").read_bytes()).hexdigest()
            if (WORK / f"{inst.name}.{e}.smt2").is_file() else "-"
            for e in ENGINES
        }
        print(f"sha256 {inst.name} output {inst.digest} smt-scc {smt['scc']} smt-elim {smt['elim']}")

    reference_s = statistics.median(references)
    speed = REFERENCE_S / reference_s
    print(f"reference_s {reference_s:.6f} over {len(references)} jobs; query times below are "
          f"measured times x {speed:.6f} (REFERENCE_S / reference_s)")
    if args.trace:
        values = per_layer(queries, speed)
        units = {s["name"]: s["unit"] for s in layer_metric_specs()}
    else:
        values = end_to_end(queries, setups, speed)
        units = dict(END_TO_END)
    for name, value in values.items():
        print(f"{name:56s} {value:>14.6f} {units[name]}")
    print(f"{'failed_ratio':56s} {failed / len(queries):>14.6f} ratio ({failed}/{len(queries)})")

    result = {
        "correct": failed == 0,
        "attempted": len(queries),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Serve cold ``parmreach check`` queries, each in a process of its own.

Usage: ``python worker.py`` with ``src`` on ``PYTHONPATH``.

The worker imports ``parmreach.cli`` and nothing else, prints
``{"ready": T}`` with the ``time.monotonic()`` reading taken right after
that import (the launching process subtracts its own reading from before
the launch to get the set-up time a CLI run pays), and then reads one
JSON job per line of standard input: ``model``, ``mode``, ``eval``,
``constraints`` and optionally ``spans`` (a path: trace the query and
write its spans there), or ``{"reference": true}``, which times
:func:`reference_work` instead of a query.

Each job runs in a child forked from the worker as it stood when it
printed ``ready``: no query has run in it, so every cache of the program
is as cold as in a fresh ``parmreach`` process, without paying the
interpreter start and the import again.  The worker waits for the child
and prints its report as one JSON line; a child that crashes or runs
past :data:`QUERY_TIMEOUT_S` (``SIGALRM`` ends it) is reported as an
error.  The worker exits at the end of its input.
"""

import time

from parmreach import cli

READY = time.monotonic()

import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from fractions import Fraction  # noqa: E402

QUERY_TIMEOUT_S = 150


def _query(job: dict, out: io.StringIO, err: io.StringIO) -> tuple[int, float]:
    argv = [
        "check", job["model"], "--mode", job["mode"], "--eval", job["eval"],
        "--constraints-out", job["constraints"], "--stats",
    ]
    with redirect_stdout(out), redirect_stderr(err):
        started = time.perf_counter()
        rc = cli.main(argv)
        return rc, time.perf_counter() - started


def reference_work() -> None:
    """Fixed arithmetic that no change to the program alters and that
    allocates next to nothing: sums of fractions, whose big-integer gcds
    are the program's own staple, and a linear congruential loop."""
    for _ in range(5):
        total = Fraction(0)
        for k in range(1, 600):
            total += Fraction(k, k * k + 1)
    x = 1
    for _ in range(200_000):
        x = (x * 1103515245 + 12345) % 2147483648


def run_job(job: dict) -> dict:
    """Run one query (or the reference work) in this process and return
    its report."""
    if job.get("reference"):
        started = time.perf_counter()
        reference_work()
        return {"query_s": time.perf_counter() - started}
    out, err = io.StringIO(), io.StringIO()
    report: dict = {}
    try:
        if job.get("spans"):
            import spans

            tracer = spans.Tracer()
            with spans.installed(tracer):
                rc, elapsed = _query(job, out, err)
            report["layers"] = spans.summarize(tracer)
            with open(job["spans"], "w", encoding="utf-8") as fh:
                for name, start, end, parent in tracer.spans:
                    fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
        else:
            rc, elapsed = _query(job, out, err)
    except Exception:  # report any crash as a failed query
        report["error"] = traceback.format_exc()
        rc, elapsed = -1, 0.0
    report.update(
        rc=rc,
        query_s=elapsed,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        stdout=out.getvalue(),
        stderr=err.getvalue(),
    )
    return report


def fork_job(job: dict) -> str:
    """Run one query in a forked child; its report as one JSON text."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        signal.alarm(QUERY_TIMEOUT_S)
        try:
            text = json.dumps(run_job(job))
        except BaseException:
            text = json.dumps({"error": traceback.format_exc()})
        with os.fdopen(write_end, "w", encoding="utf-8") as fh:
            fh.write(text)
        os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, encoding="utf-8") as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        return json.dumps({"error": f"query process ended with wait status {status}"})
    return text


def main() -> int:
    sys.stdout.write(json.dumps({"ready": READY}) + "\n")
    sys.stdout.flush()
    for line in sys.stdin:
        sys.stdout.write(fork_job(json.loads(line)) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

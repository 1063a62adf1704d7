"""Paths, child processes and summary statistics shared by the workloads.

Every CLI process runs the working tree's ``src/`` through the same entry
point the ``oscmarkets`` console script uses (``oscmarkets.cli:run``), so
the benchmark needs no installed copy of the package.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

_ENTRY = "from oscmarkets.cli import run; run()"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # an ambient config file would change every command's parameters
    env.pop("OSC_MARKETS_CONFIG", None)
    return env


def cli_argv(args) -> list[str]:
    return [sys.executable, "-c", _ENTRY, *args]


@dataclass
class Proc:
    """One finished CLI process: output, exit code, wall time and peak RSS."""

    out: bytes
    err: bytes
    code: int
    seconds: float
    rss_mb: float


def _reap(popen: subprocess.Popen):
    """wait4 the child; returns (exit code, max RSS in MB, end time)."""
    _, status, usage = os.wait4(popen.pid, 0)
    end = time.perf_counter()
    popen.returncode = os.waitstatus_to_exitcode(status)
    return popen.returncode, usage.ru_maxrss / 1024.0, end


def run_cli(args) -> Proc:
    """Run one CLI process to its exit, timing from spawn to exit."""
    with tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        p = subprocess.Popen(cli_argv(args), stdout=subprocess.PIPE,
                             stderr=err, env=child_env())
        with p.stdout:
            out = p.stdout.read()
        code, rss, end = _reap(p)
        err.seek(0)
        return Proc(out, err.read(), code, end - start, rss)


def run_pipeline(producer_args, consumer_args) -> tuple[Proc, Proc]:
    """Run `producer | consumer` as two processes joined by an OS pipe.

    Both Procs carry times measured from the same spawn instant, so the
    consumer's `seconds` is the whole pipeline's wall time and the
    producer's is the time until the producer exited.
    """
    with tempfile.TemporaryFile(dir=OUT) as err_a, \
            tempfile.TemporaryFile(dir=OUT) as err_b:
        env = child_env()
        start = time.perf_counter()
        r, w = os.pipe()
        try:
            pa = subprocess.Popen(cli_argv(producer_args), stdout=w,
                                  stderr=err_a, env=env)
            pb = subprocess.Popen(cli_argv(consumer_args), stdin=r,
                                  stdout=subprocess.PIPE, stderr=err_b,
                                  env=env)
        finally:
            os.close(r)
            os.close(w)
        reaped = {}
        waiter = threading.Thread(target=lambda: reaped.update(a=_reap(pa)))
        waiter.start()
        with pb.stdout:
            out = pb.stdout.read()
        code_b, rss_b, end_b = _reap(pb)
        waiter.join()
        code_a, rss_a, end_a = reaped["a"]
        end = max(end_a, end_b)
        err_a.seek(0)
        err_b.seek(0)
        return (Proc(b"", err_a.read(), code_a, end_a - start, rss_a),
                Proc(out, err_b.read(), code_b, end - start, rss_b))


def median(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def self_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

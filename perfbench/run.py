#!/usr/bin/env python3
r"""Benchmark of the oscmarkets working tree, end to end and per layer.

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 35 \
        --trace 0

--trace 0 measures the end-to-end metrics: set-up (median of three), then
whole rounds of the workload until --seconds have passed. --trace 1 runs
the first round in-process, untraced and traced, and reports the
per-layer metrics. Every output is checked against checks.py; the last
line of stdout is the JSON result. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from common import OUT, SRC, child_env, median, p90, self_rss_mb

SETUPS = 3


def end_to_end(w, seconds: float):
    from workloads import ProcessExec
    ex = ProcessExec()
    setups = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        w.setup(ex)
        setups.append(time.perf_counter() - start)
    problems, walls, ops = [], [], []
    start = time.perf_counter()
    r = 0
    spent = 0.0  # longest round so far, checks included
    # start no round that would end past the deadline, past min_rounds
    while r < w.min_rounds or \
            time.perf_counter() - start + spent <= seconds:
        t0 = time.perf_counter()
        batch = w.round(r, ex)
        walls.append(time.perf_counter() - t0)
        problems += w.check(batch)
        spent = max(spent, time.perf_counter() - t0)
        for op in batch:
            op.data = None
        ops += batch
        r += 1
    a = [op.seconds for op in ops if op.kind == "a" and not op.failed]
    b = [op.seconds for op in ops if op.kind == "b" and not op.failed]
    peak = max(op.rss_mb for op in ops) if w.uses_cli else self_rss_mb()
    metrics = {
        "setup_s": (median(setups), "s"),
        "wall_s": (median(walls), "s"),
        "peak_rss_mb": (peak, "MB"),
        "op_p50_ms": (1e3 * median(a) if a else 0.0, "ms"),
        "op2_p50_ms": (1e3 * median(b) if b else 0.0, "ms"),
    }
    detail = {"rounds": r, "op_samples": len(a), "op2_samples": len(b),
              "op_p90_ms": 1e3 * p90(a) if a else 0.0, "setups_s": setups,
              "walls_s": walls}
    return ops, problems, {k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()}, detail


def erfc_throughput() -> float:
    """Public erfc on the argument array of an N=1000 fit's tail matrix."""
    import numpy as np

    import checks
    from oscmarkets import specfun
    xs, rho = checks.empirical_tail(checks.draw(977.73, 1000, seed=0))
    lo, hi = checks.bracket(xs, rho)
    z = np.sqrt(np.geomspace(lo, hi, 2000) / 2.0)[:, None] * xs[None, :]
    times = []
    for _ in range(5):
        start = time.perf_counter()
        specfun.erfc(z)
        times.append(time.perf_counter() - start)
    return z.size / median(times) / 1e6


def import_seconds() -> float:
    """`import oscmarkets.cli` in a fresh interpreter, median of five."""
    code = ("import time; t = time.perf_counter(); import oscmarkets.cli; "
            "print(time.perf_counter() - t)")
    return median([float(subprocess.run(
        [sys.executable, "-c", code], env=child_env(), check=True,
        capture_output=True, text=True).stdout) for _ in range(5)])


def peak_alloc_mb(call) -> float:
    """tracemalloc peak of one fit, replayed untraced."""
    import tracemalloc
    if call is None:
        return 0.0
    _, args, kwargs = call
    from oscmarkets import estimate
    tracemalloc.start()
    try:
        estimate.fit_m_hat(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def per_layer(w, trace_path: Path):
    """One warm-up round, then untraced and traced in-process rounds in
    the order U T T U, so that drift cancels in the tracing overhead. The
    first traced round gives the spans."""
    from oscmarkets import cli

    from tracing import Tracer, instrument, layer_metrics
    from workloads import InProcessExec, ProcessExec
    w.setup(ProcessExec())
    plain = InProcessExec(cli.main)
    problems = w.check(w.round(0, plain))

    def timed(ex):
        start = time.perf_counter()
        ops = w.round(0, ex)
        return ops, time.perf_counter() - start

    def traced():
        tr = Tracer()
        instrument(tr)
        try:
            return (*timed(InProcessExec(tr.wrap("cli.main", cli.main))), tr)
        finally:
            tr.restore()

    u1, u1_wall = timed(plain)
    ops, t1_wall, tr = traced()
    t2, t2_wall, _ = traced()
    u2, u2_wall = timed(plain)
    for batch in (u1, ops, t2, u2):
        problems += w.check(batch)
    tr.write(trace_path)

    overhead = 0.0
    if w.uses_cli:
        procs = w.round(0, ProcessExec())
        problems += w.check(procs)
        overhead = sum(op.seconds for op in procs) - \
            sum(op.seconds for op in u1 + u2) / 2
    extra = {
        "erfc_melem_per_s": erfc_throughput(),
        "fit_peak_alloc_mb": peak_alloc_mb(tr.largest_fit),
        "import_s": import_seconds(),
        "process_overhead_s": overhead,
        "trace_overhead_s": (t1_wall + t2_wall - u1_wall - u2_wall) / 2,
    }
    detail = {"untraced_round_s": [u1_wall, u2_wall],
              "traced_round_s": [t1_wall, t2_wall], "spans": len(tr.spans)}
    return ops, problems, layer_metrics(tr, extra), detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args()
    # One operation in flight, one core each: a BLAS thread pool would
    # contend with the other process of the synth | estimate pipe. Set
    # before numpy loads; the CLI processes inherit it.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if not (SRC / "oscmarkets" / "cli.py").is_file():
        print(f"error: no package source at {SRC}/oscmarkets", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import oscmarkets

    import checks
    from workloads import WORKLOADS
    if not Path(oscmarkets.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported oscmarkets from {oscmarkets.__file__}",
              file=sys.stderr)
        return 2
    if ns.workload not in WORKLOADS:
        print(f"error: unknown workload {ns.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    problems = [f"checker self-test: {p}" for p in checks.self_test()]
    w = WORKLOADS[ns.workload](ns.seed)
    tag = f"{ns.workload}-s{ns.seed}"
    try:
        if ns.trace:
            ops, found, metrics, detail = per_layer(
                w, OUT / f"trace-{tag}.json")
        else:
            ops, found, metrics, detail = end_to_end(w, ns.seconds)
    finally:
        w.cleanup()
    problems += found
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": metrics,
    }
    (OUT / f"result-{tag}-t{ns.trace}.json").write_text(
        json.dumps({**result, "detail": detail}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

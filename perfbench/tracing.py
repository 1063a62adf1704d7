"""Spans and counters around the package's public entry points.

The benchmark, not the package, records the spans: ``instrument`` swaps
each public function for a wrapper in the module where its caller looks
it up (``cli`` imports its names directly, ``backtest`` imports
``fit_m_hat`` and ``to_displacements``, ``synth`` and ``estimate`` import
``erfc_inv``). Spans are (name, start, end, parent) and stay in memory
until ``write`` at the end of the run. A name the package no longer has
is skipped, so its metrics read 0.
"""

from __future__ import annotations

import json
import time
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.largest_fit = None  # (sample size, args, kwargs)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        return traced

    def replace(self, owner, attr, value):
        if hasattr(owner, attr):
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def patch(self, owner, attr, name, on_result=None):
        fn = getattr(owner, attr, None)
        if fn is not None:
            self.replace(owner, attr, self.wrap(name, fn, on_result))

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def total(self, name) -> float:
        return sum((s[2] - s[1] for s in self.spans if s[0] == name), 0.0)

    def self_time(self, name) -> float:
        child = Counter()
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return sum((s[2] - s[1] - child[i] for i, s in enumerate(self.spans)
                    if s[0] == name), 0.0)

    def calls(self, name) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def write(self, path):
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }))


def _size(obj) -> int:
    try:
        return len(obj)
    except TypeError:
        return 0


def instrument(tr: Tracer) -> None:
    """Wrap every public entry point the workloads reach."""
    from oscmarkets import backtest, cli, estimate, model, synth

    def on_fit(args, kwargs, res):
        grid = _size(getattr(res, "grid", ()))
        tr.counts["estimate.r2_evals"] += grid
        tr.counts["specfun.tail_elements"] += grid * _size(
            getattr(res, "table", ()))
        size = _size(args[0])
        if tr.largest_fit is None or size > tr.largest_fit[0]:
            tr.largest_fit = (size, args, kwargs)

    def on_sample(args, kwargs, res):
        tr.counts["synth.draws"] += getattr(args[0], "n", 0)

    def on_prices(args, kwargs, res):
        if isinstance(args[0], str):
            tr.counts["ingest.price_rows"] += args[0].count("\n") - 1

    def on_erfc_inv(args, kwargs, res):
        tr.counts["specfun.erfc_inv_elements"] += int(np.size(args[0]))

    fit = tr.wrap("estimate.fit_m_hat", estimate.fit_m_hat, on_fit)
    tr.replace(estimate, "fit_m_hat", fit)
    tr.replace(backtest, "fit_m_hat", fit)
    sample = tr.wrap("synth.sample_displacements", synth.sample_displacements,
                     on_sample)
    tr.replace(synth, "sample_displacements", sample)
    tr.replace(cli, "sample_displacements", sample)
    for owner in (synth, estimate):
        tr.patch(owner, "erfc_inv", "specfun.erfc_inv", on_erfc_inv)
    tr.patch(cli, "parse_prices", "ingest.parse_prices", on_prices)
    tr.patch(cli, "parse_displacements", "ingest.parse_displacements")
    tr.patch(cli, "write_displacements", "ingest.write_displacements")
    for owner in (cli, backtest):
        tr.patch(owner, "to_displacements", "ingest.to_displacements")
        tr.patch(owner, "window", "ingest.window")
    tr.patch(backtest, "run_backtest", "backtest.run_backtest")

    cls = getattr(model, "Displacement", None)
    post_init = getattr(cls, "__post_init__", None)
    if post_init is not None:
        def counted(self):
            tr.counts["model.displacements_built"] += 1
            post_init(self)
        tr.replace(cls, "__post_init__", counted)


def layer_metrics(tr: Tracer, extra: dict) -> dict:
    """Per-layer figures of one traced pass; `extra` holds the ones
    measured outside the spans."""
    def rate(count, seconds):
        return count / seconds if seconds > 0.0 else 0.0

    erfc_inv_s = tr.total("specfun.erfc_inv")
    sample_s = tr.total("synth.sample_displacements")
    parse_s = tr.total("ingest.parse_prices")
    c = tr.counts
    values = {
        "specfun.erfc_melem_per_s": (extra["erfc_melem_per_s"], "Melem/s"),
        "specfun.tail_elements": (c["specfun.tail_elements"], "count"),
        "specfun.erfc_inv_melem_per_s": (
            rate(c["specfun.erfc_inv_elements"], erfc_inv_s) / 1e6,
            "Melem/s"),
        "estimate.fit_calls": (tr.calls("estimate.fit_m_hat"), "count"),
        "estimate.fit_s": (tr.total("estimate.fit_m_hat"), "s"),
        "estimate.r2_evals": (c["estimate.r2_evals"], "count"),
        "estimate.fit_peak_alloc_mb": (extra["fit_peak_alloc_mb"], "MB"),
        "synth.sample_s": (sample_s, "s"),
        "synth.draws_per_s": (rate(c["synth.draws"], sample_s), "1/s"),
        "model.displacements_built": (c["model.displacements_built"],
                                      "count"),
        "ingest.parse_prices_s": (parse_s, "s"),
        "ingest.price_rows_per_s": (rate(c["ingest.price_rows"], parse_s),
                                    "1/s"),
        "ingest.to_displacements_s": (tr.total("ingest.to_displacements"),
                                      "s"),
        "ingest.write_displacements_s": (
            tr.total("ingest.write_displacements"), "s"),
        "backtest.self_s": (tr.self_time("backtest.run_backtest"), "s"),
        "cli.import_s": (extra["import_s"], "s"),
        "cli.process_overhead_s": (extra["process_overhead_s"], "s"),
        "cli.self_s": (tr.self_time("cli.main"), "s"),
        "trace.overhead_s": (extra["trace_overhead_s"], "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

"""The three workloads. Each runs whole rounds of the same operations.

closed_loop    library calls sample_displacements -> fit_m_hat, the
               acceptance criterion-5 protocol, plus the named underflow
               group that fails until the tail-underflow fault is mended.
large_sample   `synth --n 100000` alone, then `synth --n 10000 | estimate
               --stdin` with text output.
daily_history  `ingest` and `backtest` over one file of 10^5 daily rows.

A workload's `round(r, ex)` returns the round's operations; `ex` runs CLI
commands either as processes or in-process through ``cli.main``.
`check(ops)` returns the problems found by the reference computations in
checks.py.
"""

from __future__ import annotations

import functools
import io
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

import checks
from common import OUT, Proc, run_cli, run_pipeline

M_TRUE = (355.92, 977.73, 2513.76)


@dataclass
class Op:
    """One timed operation; `data` holds what the checks need."""

    kind: str  # "a" headline, "b" second operation, "group" underflow group
    seconds: float
    failed: bool = False
    rss_mb: float = 0.0
    data: object = None


class ProcessExec:
    """Each command is its own interpreter, as a user runs it."""

    run = staticmethod(run_cli)
    pipeline = staticmethod(run_pipeline)


class InProcessExec:
    """Each command is one call of `main` (cli.main or a traced wrapper)."""

    def __init__(self, main):
        self.main = main

    def run(self, args, stdin_text=None) -> Proc:
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin, sys.stdout, sys.stderr
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        sys.stdout, sys.stderr = out, err
        start = time.perf_counter()
        try:
            code = self.main(list(args))
        finally:
            end = time.perf_counter()
            sys.stdin, sys.stdout, sys.stderr = saved
        return Proc(out.getvalue().encode(), err.getvalue().encode(), code,
                    end - start, 0.0)

    def pipeline(self, producer_args, consumer_args):
        a = self.run(producer_args)
        b = self.run(consumer_args, stdin_text=a.out.decode())
        b.seconds += a.seconds
        return a, b


def ratios(series) -> np.ndarray:
    """Weekly ratios of a displacement series: its `ratios()` method, or a
    `ratio` column once the series is stored as arrays."""
    r = getattr(series, "ratios", None)
    return np.asarray(r() if callable(r) else series.ratio, dtype=np.float64)


def _failed_proc(label, proc: Proc) -> list:
    if proc.code != 0:
        return [f"{label}: exit {proc.code}: "
                f"{proc.err.decode(errors='replace').strip()[-300:]}"]
    return []


class Workload:
    uses_cli = True  # False: the ops are library calls in this process
    min_rounds = 1

    def cleanup(self) -> None:
        """Remove the generated input files."""


# ---------------------------------------------------------------- closed_loop

class ClosedLoop(Workload):
    """Criterion 5: m_true x N over consecutive seeds, in one process.

    A round fits 4 consecutive seeds x 3 m_true at N=100, 1 seed x 3 m_true
    at N=1000, and the 3 fits of the underflow group.
    """

    name = "closed_loop"
    uses_cli = False
    # 9 rounds give 108 fits at N=100, so the p90 in the result file has
    # ten samples beyond it
    min_rounds = 9
    SEEDS_N100 = 4
    GROUP_M = 2.5e5
    GROUP_SEEDS = (0, 1, 2)

    def __init__(self, seed: int):
        self.base = (seed * 100_000) % 2 ** 63
        self.group = []

    @staticmethod
    def group_csv(seed: int) -> str:
        """N=100 draws at m=2.5e5 with week 50 replaced by a +10% move."""
        x = checks.draw(ClosedLoop.GROUP_M, 100, seed)
        x[50] = 0.10
        days = np.datetime64("2000-01-07") + 7 * np.arange(x.size)
        return checks.displacement_csv(days, np.full(x.size, 100.0),
                                       100.0 * (1.0 + x), x)

    def setup(self, ex) -> None:
        from oscmarkets import ingest
        self.group = [ingest.parse_displacements(self.group_csv(s))
                      for s in self.GROUP_SEEDS]
        self._trial(M_TRUE[1], 1000, self.base + 99_999, "b")

    def _trial(self, m, n, seed, kind) -> Op:
        from oscmarkets import errors, estimate, synth
        start = time.perf_counter()
        try:
            sample = synth.sample_displacements(
                synth.SynthSpec(m=m, n=n, seed=seed))
            fit = estimate.fit_m_hat(sample)
        except errors.OscMarketsError as exc:
            return Op(kind, time.perf_counter() - start, failed=True,
                      data=(m, n, seed, str(exc)))
        seconds = time.perf_counter() - start
        bounds = (fit.grid[0][0], fit.grid[-1][0])
        return Op(kind, seconds, data=(m, n, seed, ratios(sample), fit.m_hat,
                                       fit.r2, bounds))

    def _group_fit(self, series) -> Op:
        from oscmarkets import errors, estimate
        start = time.perf_counter()
        try:
            fit = estimate.fit_m_hat(series)
        except errors.OscMarketsError as exc:
            return Op("group", time.perf_counter() - start, failed=True,
                      data=str(exc))
        return Op("group", time.perf_counter() - start, data=fit)

    def round(self, r: int, ex) -> list:
        ops = []
        for j in range(self.SEEDS_N100):
            seed = self.base + self.SEEDS_N100 * r + j
            ops += [self._trial(m, 100, seed, "a") for m in M_TRUE]
        ops += [self._trial(m, 1000, self.base + r, "b") for m in M_TRUE]
        ops += [self._group_fit(s) for s in self.group]
        return ops

    def check(self, ops) -> list:
        problems = []
        by_seed = {}
        for op in ops:
            if op.kind == "group":
                if not op.failed:
                    problems += self._check_mended(op.data)
                continue
            if op.failed:
                m, n, seed, msg = op.data
                problems.append(f"fit m={m} N={n} seed={seed} failed: {msg}")
                continue
            m, n, seed, x, m_hat, r2, bounds = op.data
            label = f"fit m={m} N={n} seed={seed}"
            problems += checks.check_sample(x, m, n, seed)
            problems += checks.check_fit(x, m_hat, r2, label,
                                         reported_bracket=bounds)
            by_seed.setdefault((n, seed), {})[m] = m_hat / m
        for (n, seed), rel in by_seed.items():
            if len(rel) == len(M_TRUE):
                problems += checks.check_equivariance(
                    rel, f"N={n} seed={seed}")
        return problems

    @staticmethod
    def _check_mended(fit) -> list:
        prs = [row.pr for row in fit.table]
        best = max(r for _, r in fit.grid)
        problems = []
        if not all(0.0 <= p <= 1.0 for p in prs):
            problems.append("underflow group: a table pr lies outside [0, 1]")
        if fit.r2 != best:
            problems.append(f"underflow group: r2 {fit.r2!r} is not the best "
                            f"trace score {best!r}")
        return problems


# ---------------------------------------------------------------- large_sample

class LargeSample(Workload):
    """Round r draws at m_true = M_TRUE[r % 3] with seed S = base + r // 3:
    one `synth --m M --n 100000 --seed S` process on its own, then the
    pipeline `synth --m M --n 10000 --seed S | estimate --stdin`. Every
    three rounds fit one seed at all three m_true."""

    name = "large_sample"
    N = 10_000  # pipeline draws: T = 10^4 thresholds
    SYNTH_N = 100_000  # the standalone synth, as in acceptance criterion 6

    def __init__(self, seed: int):
        self.base = (seed * 1000) % 2 ** 63
        self.rel = {}  # seed -> {m_true: m_hat / m_true}

    @staticmethod
    def _synth_args(m, n, seed):
        return ["synth", "--m", repr(m), "--n", str(n), "--seed", str(seed)]

    def _synth(self, ex, m, seed) -> Op:
        p = ex.run(self._synth_args(m, self.SYNTH_N, seed))
        return Op("b", p.seconds, failed=p.code != 0, rss_mb=p.rss_mb,
                  data=(m, seed, p))

    def setup(self, ex) -> None:
        self.rel = {}
        self._synth(ex, M_TRUE[1], self.base + 999)

    def round(self, r: int, ex) -> list:
        m, seed = M_TRUE[r % len(M_TRUE)], self.base + r // len(M_TRUE)
        op = self._synth(ex, m, seed)
        a, b = ex.pipeline(self._synth_args(m, self.N, seed),
                           ["estimate", "--stdin"])
        return [op, Op("a", b.seconds, failed=a.code != 0 or b.code != 0,
                       rss_mb=max(a.rss_mb, b.rss_mb), data=(m, seed, a, b))]

    def check(self, ops) -> list:
        problems = []
        for op in ops:
            m, seed, *procs = op.data
            label = f"{'pipeline' if op.kind == 'a' else 'synth'} m={m} " \
                    f"seed={seed}"
            bad = [p for proc in procs for p in _failed_proc(label, proc)]
            if bad:
                problems += bad
            elif op.kind == "b":
                problems += self._check_synth(procs[0].out.decode(), m, seed,
                                              label)
            else:
                found, m_hat = self._check_report(procs[1].out.decode(), m,
                                                  seed, label)
                problems += found
                rel = self.rel.setdefault(seed, {})
                rel[m] = m_hat / m
                if len(rel) == len(M_TRUE):
                    # m_hat is printed to 4 decimals: 1.4e-7 relative at
                    # m=355.92
                    problems += checks.check_equivariance(
                        self.rel.pop(seed), f"N={self.N} seed={seed}",
                        tol=2e-6)
        return problems

    def _check_synth(self, text, m, seed, label) -> list:
        lines = text.splitlines()
        if not lines[0].startswith("# config: command=synth") or \
                lines[1] != "week_end,x_a,x_b,ratio":
            return [f"{label}: no config echo or displacement header"]
        cols = list(zip(*(row.split(",") for row in lines[2:])))
        days = np.array(cols[0], dtype="datetime64[D]")
        x_a, x_b, ratio = (np.array(c, dtype=np.float64) for c in cols[1:])
        want_days = np.datetime64("2000-01-07") + 7 * np.arange(self.SYNTH_N)
        problems = checks.check_sample(ratio, m, self.SYNTH_N, seed)
        if days.shape != want_days.shape or np.any(days != want_days):
            problems.append(f"{label}: week_end dates are not consecutive "
                            f"Fridays from 2000-01-07")
        if np.any(x_a != 100.0) or np.any(x_b != 100.0 * (1.0 + ratio)):
            problems.append(f"{label}: x_a, x_b disagree with the ratios")
        return problems

    @staticmethod
    def parse_report(text: str):
        """Header fields and the X, rho, pr columns of `estimate` text."""
        lines = text.splitlines()
        head = {}
        body = 0
        for i, line in enumerate(lines[1:], 1):
            if not line.strip():
                body = i + 2  # skip the blank line and the column titles
                break
            key, _, value = line.partition(":")
            head[key.strip()] = value.strip()
        table = np.array([row.split() for row in lines[body:]],
                         dtype=np.float64).reshape(-1, 3)
        return lines[0], head, table

    def _check_report(self, text, m, seed, label):
        """Problems found in one `estimate` report, and its m_hat."""
        first, head, table = self.parse_report(text)
        m_hat, r2 = float(head["m_hat"]), float(head["r2"])
        if not first.startswith("# config: command=estimate"):
            return [f"{label}: no config echo"], m_hat
        x = checks.draw(m, self.N, seed)
        xs, rho = checks.empirical_tail(x)
        problems = []
        if int(head["sample_size"]) != self.N or \
                int(head["thresholds"]) != xs.size or \
                table.shape[0] != xs.size:
            return [f"{label}: sizes {head}, table {table.shape}, want "
                    f"{self.N} draws and {xs.size} thresholds"], m_hat
        # columns are printed as %.6f, %.6f and %.6e
        if np.max(np.abs(table[:, 0] - xs)) > 6e-7:
            problems.append(f"{label}: X column differs from the draws")
        if np.max(np.abs(table[:, 1] - rho)) > 6e-7:
            problems.append(f"{label}: rho column differs from the draws")
        # pr moves with the 4-decimal rounding of m_hat by up to
        # (2z^2 + 2z) * dm/m in relative terms
        z = xs * math.sqrt(m_hat / 2.0)
        tol = 6e-7 + (2.0 * z * z + 2.0 * z) * (5.1e-5 / m_hat)
        pr = checks.tail_law(xs, m_hat)
        if np.any(np.abs(table[:, 2] - pr) > tol * pr):
            problems.append(f"{label}: pr column differs from the tail law "
                            f"at m_hat")
        # r2 is printed to 6 decimals
        problems += checks.check_fit(x, m_hat, r2, label, r2_tol=6e-7,
                                     grid_tol=6e-7, points=256)
        return problems, m_hat


# --------------------------------------------------------------- daily_history

class DailyHistory(Workload):
    """`ingest` and `backtest` over one seeded file of 10^5 daily closes.

    Rows are weekdays from 1600-01-03 on, each dropped with probability
    0.15, so weeks hold 1 to 5 rows, a few weeks are missing, and about
    450 ISO year boundaries occur, week-53 years among them. Closes follow
    a random walk whose daily log-returns are Student-t (3 degrees of
    freedom, scale 0.01) clipped at +-0.1; the clip keeps every 100-week
    training window clear of the tail-underflow fault.
    """

    name = "daily_history"
    ROWS = 100_000
    DROP = 0.15
    START = np.datetime64("1600-01-03")
    TRAIN = (0, 100)

    def __init__(self, seed: int):
        self.seed = seed
        self.path = OUT / f"daily-s{seed}.csv"

    def generate(self):
        rng = np.random.Generator(np.random.Philox(self.seed))
        span = int(self.ROWS / (1.0 - self.DROP) * 1.4) + 700
        days = self.START + np.arange(span)
        weekday = (days.astype(np.int64) + 3) % 7
        days = days[weekday < 5]
        days = days[rng.random(days.size) >= self.DROP][:self.ROWS]
        steps = np.clip(0.01 * rng.standard_t(3, self.ROWS), -0.1, 0.1)
        closes = 100.0 * np.exp(np.cumsum(steps))
        return days, closes

    def setup(self, ex) -> None:
        days, closes = self.generate()
        rows = [f"{d},{c!r}\n" for d, c in
                zip(days.astype(str).tolist(), closes.tolist())]
        self.path.write_text("date,close\n" + "".join(rows))
        self.weekly = checks.weekly_displacements(
            *checks.resample_weekly(days, closes))
        # the crash week: the largest weekly move after the training window
        start, count = self.TRAIN
        moves = np.abs(self.weekly[3][start + count:])
        self.crash = start + count + int(np.argmax(moves))
        self.crash_date = str(self.weekly[0][self.crash])
        ex.run(self._ingest_args())

    def _ingest_args(self):
        return ["ingest", "--input", str(self.path), "--resample",
                "daily-to-weekly", "--format", "csv"]

    def _backtest_args(self):
        start, count = self.TRAIN
        return ["backtest", "--input", str(self.path), "--resample",
                "daily-to-weekly", "--window", f"{start}:{count}",
                "--crash-week", self.crash_date, "--format", "csv"]

    def round(self, r: int, ex) -> list:
        ops = []
        for kind, args in (("a", self._ingest_args()),
                           ("b", self._backtest_args())):
            p = ex.run(args)
            ops.append(Op(kind, p.seconds, failed=p.code != 0,
                          rss_mb=p.rss_mb, data=p))
        return ops

    @functools.cached_property
    def expected_ingest(self) -> str:
        return checks.displacement_csv(*self.weekly)

    def check(self, ops) -> list:
        problems = []
        for op in ops:
            label = "ingest" if op.kind == "a" else "backtest"
            bad = _failed_proc(label, op.data)
            if bad:
                problems += bad
                continue
            head, _, body = op.data.out.decode().partition("\n")
            if not head.startswith(f"# config: command={label}"):
                problems.append(f"{label}: no config echo")
            elif op.kind == "a":
                if body != self.expected_ingest:
                    problems.append("ingest: displacement CSV differs from "
                                    "the reference resampler")
            else:
                problems += self._check_backtest(body)
        return problems

    def _check_backtest(self, body: str) -> list:
        keys, values = body.splitlines()
        rec = {}
        for k, v in zip(keys.split(","), values.split(",")):
            if v in ("true", "false"):
                rec[k] = v == "true"
            else:
                try:
                    rec[k] = float(v)
                except ValueError:
                    rec[k] = v
        start, count = self.TRAIN
        ref = checks.expected_backtest(*self.weekly, start, count, self.crash)
        ref["asset_id"] = self.path.stem
        train_x = self.weekly[3][start:start + count]
        return checks.check_backtest(rec, ref, train_x)

    def cleanup(self) -> None:
        self.path.unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (ClosedLoop, LargeSample, DailyHistory)}

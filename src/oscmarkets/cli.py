"""Command-line front end: ingest, estimate, synth, predict, backtest.

Every run resolves its parameters from three layers (command-line flags
override an optional key=value config file named by OSC_MARKETS_CONFIG,
which overrides defaults) and echoes the fully-resolved set at the top of
its output: a `# config:` comment line for text and csv formats, a
"config" member for structured (JSON) output. Runs contain no timestamps,
so identical invocations over identical files are byte-identical.

The config file is read and checked before the flags are parsed, and its
values become each subcommand's defaults: argparse alone applies the
precedence, and config-file errors come before flag errors and `--help`.

Exit codes: 0 success, 1 usage or configuration error, 2 data/validation
error, 3 numeric/domain failure.

The estimate command accepts either raw prices (`date,close` header) or
ready-made displacements (`week_end,x_a,x_b,ratio` header) and detects
which by the header; `synth ... | oscmarkets estimate --stdin` therefore
composes, since comment lines are skipped by the parsers.
"""

from __future__ import annotations

import argparse
import datetime as dt
import io
import json
import math
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import backtest as bt
from . import estimate as est
from .errors import DataError, DomainError, OscMarketsError
from .ingest import (
    _as_text,
    _iso_date,
    _write,
    parse_prices,
    parse_series,
    to_displacements,
    window,
    write_displacements,
    write_prices,
)
from .model import OscillatorParams, extreme_displacement
from .synth import SynthSpec, sample_displacements

__all__ = ["main", "run"]

CONFIG_ENV = "OSC_MARKETS_CONFIG"


class UsageError(OscMarketsError):
    """Bad flags, bad flag values, or a bad config file."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on errors; route through our taxonomy
    def error(self, message):
        raise UsageError(message)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0: {text}")
    return value


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _seed_value(text: str) -> int:
    value = _integer(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _count_value(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _window_value(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"window must be START:COUNT, got {text!r}")
    try:
        start, count = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"window must be START:COUNT integers, got {text!r}") from None
    if start < 0 or count < 1:
        raise argparse.ArgumentTypeError(
            f"window needs START >= 0 and COUNT >= 1, got {text!r}")
    return start, count


def _grid_value(text: str) -> est.GridSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"grid must be LO:HI:N, got {text!r}")
    try:
        return est.GridSpec(lo=float(parts[0]), hi=float(parts[1]),
                            n=int(parts[2]))
    except (ValueError, DataError) as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from None


def _date_value(text: str) -> dt.date:
    try:
        return _iso_date(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"dates are YYYY-MM-DD, got {text!r}") from None


# each config key and the type function of the flag it stands in for
_CONFIG_TYPES = {"t": _positive_float, "train_count": _count_value,
                 "grid": _grid_value, "seed": _seed_value,
                 "crash_week": _date_value, "prior_close": _positive_float,
                 "m_hat": _positive_float}


def _load_config_file() -> dict:
    """Typed values of the OSC_MARKETS_CONFIG file, each checked as read."""
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = _as_text(fh)
    except (OSError, DataError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    values, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        if key not in _CONFIG_TYPES:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in first_line:
            raise UsageError(f"{path}:{lineno}: config key {key!r} already "
                             f"set on line {first_line[key]}")
        first_line[key] = lineno
        try:
            values[key] = _CONFIG_TYPES[key](value)
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"config key {key}: {exc}") from None
    return values


def _warn_grid_edge(fit: est.EstimationResult) -> None:
    """One stderr line when m_hat is the first or last grid candidate."""
    if fit.at_grid_edge:
        lo, hi = fit.grid.m[[0, -1]].tolist()
        print(f"warning: m_hat {fit.m_hat:.4f} at the edge of the search "
              f"grid [{lo!r}, {hi!r}]", file=sys.stderr)


def _read_series(ns, parse):
    """parse(...) of the CSV at ns.input (- for stdin), labelled with the
    file's stem: the one place a command reads its input."""
    if ns.input is None:
        raise UsageError(f"{ns.command} needs --input PATH")
    stdin = ns.input == "-"
    if stdin and sys.stdin is None:
        raise DataError("cannot read standard input: it is closed")
    try:
        if stdin:
            # bytes, decoded as strictly as a file's, whatever the locale
            text = _as_text(getattr(sys.stdin, "buffer", sys.stdin))
        else:
            with open(ns.input, encoding="utf-8") as fh:
                text = _as_text(fh)
    except OSError as exc:
        where = "standard input" if stdin else f"input {ns.input}"
        raise DataError(f"cannot read {where}: {exc}") from None
    return parse(text, resample=ns.resample == "daily-to-weekly",
                 asset_id="stdin" if stdin else Path(ns.input).stem)


def _grid_label(spec: Optional[est.GridSpec]) -> str:
    if spec is None:
        return f"auto:{est.DEFAULT_GRID_POINTS}"
    return f"{spec.lo!r}:{spec.hi!r}:{spec.n}"


def _emit(ns, text: str) -> None:
    if ns.output == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(ns.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise DataError(
                f"cannot write output {ns.output}: {exc}") from None


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _render(ns, pairs, key: str, record, text=None, table=None) -> str:
    """A command's output in ns.format: the one place that knows formats.

    The configuration echo is `command`, `input` (when the command reads
    one), `output` and `format`, then the command's own `pairs`. `record`,
    `text` and `table` are thunks, and only the one ns.format needs is
    called:

    structured: {"config": {...}, key: record()} as indented JSON.
    csv: the `# config:` line, then table(fh) writing the body or, with no
        table, record() as one header row and one value row.
    text: the `# config:` line, then one line per item of text(): a str
        as it is, and (name, value) or (name, value, spec) as `name: value`
        with the value formatted by spec. With no text, text is csv.
    """
    pairs = [("command", ns.command),
             *([("input", ns.input)] if "input" in ns else []),
             ("output", ns.output), ("format", ns.format), *pairs]
    if ns.format == "structured":
        return json.dumps({"config": dict(pairs), key: record()},
                          indent=2) + "\n"
    out = io.StringIO()
    out.write("# config: " + " ".join(f"{k}={v}" for k, v in pairs) + "\n")
    if ns.format == "text" and text is not None:
        for item in text():
            if not isinstance(item, str):
                name, value, *spec = item
                item = f"{name}: {format(value, *spec)}"
            out.write(item + "\n")
    elif table is not None:
        table(out)
    else:
        rec = record()
        out.write(",".join(rec) + "\n"
                  + ",".join(map(_csv_cell, rec.values())) + "\n")
    return out.getvalue()


def _records(**columns):
    """JSON rows of named columns: ISO dates and Python floats."""
    lists = [np.datetime_as_string(c, unit="D").tolist() if c.dtype.kind == "M"
             else c.tolist() for c in columns.values()]
    return [dict(zip(columns, row)) for row in zip(*lists)]


def _displacement_record(d) -> dict:
    return {"asset_id": d.asset_id,
            "entries": _records(week_end=d.week_end, x_a=d.x_a, x_b=d.x_b,
                                ratio=d.ratio)}


def _cmd_ingest(ns) -> str:
    series = _read_series(ns, parse_prices)
    pairs = [("resample", ns.resample), ("emit", ns.emit),
             ("asset", series.asset_id)]

    def text():
        first, last = np.datetime_as_string(series.week_end[[0, -1]],
                                            unit="D")
        return [("asset", series.asset_id), ("unit", series.unit),
                ("points", len(series)), ("first_week", first),
                ("last_week", last),
                ("displacements", len(to_displacements(series)))]

    if ns.emit == "prices":
        return _render(ns, pairs, "series", lambda: {
            "asset_id": series.asset_id, "unit": series.unit,
            "points": _records(date=series.week_end, close=series.close)},
            text, lambda fh: write_prices(series, fh))
    return _render(
        ns, pairs, "series",
        lambda: _displacement_record(to_displacements(series)), text,
        lambda fh: write_displacements(to_displacements(series), fh))


def _cmd_estimate(ns) -> str:
    if ns.stdin:
        if ns.input is not None:
            raise UsageError("give either --input or --stdin, not both")
        ns.input = "-"
    elif ns.input is None:
        raise UsageError("estimate needs --input PATH or --stdin")
    series = _read_series(ns, parse_series)
    if ns.window is not None:
        series = window(series, ns.window[0], ns.window[1])
    fit = est.fit_m_hat(series, t=ns.t, grid_spec=ns.grid)
    _warn_grid_edge(fit)
    pairs = [("t", repr(ns.t)),
             ("window", "%d:%d" % ns.window if ns.window else "all"),
             ("grid", _grid_label(ns.grid)), ("resample", ns.resample),
             ("emit", ns.emit), ("asset", series.asset_id)]
    rows, trace = fit.table, fit.grid

    def record():
        return {"m_hat": fit.m_hat, "r2": fit.r2,
                "sample_size": fit.sample_size,
                "table": _records(X=rows.x, rho=rows.rho, pr=rows.pr),
                "grid": _records(m_candidate=trace.m, r2=trace.r2)}

    def table(fh):
        fh.write(f"# result: m_hat={fit.m_hat!r} r2={fit.r2!r} "
                 f"sample_size={fit.sample_size}\n")
        if ns.emit == "grid":
            _write(fh, ("m_candidate", "r2"), trace.m, trace.r2)
        else:
            _write(fh, ("X", "rho", "pr"), rows.x, rows.rho, rows.pr)

    def text():
        return [("m_hat", fit.m_hat, ".4f"), ("r2", fit.r2, ".6f"),
                ("sample_size", fit.sample_size),
                ("thresholds", len(rows)),
                ("grid_evaluations", len(trace)),
                "", f"{'X':>12}  {'rho':>10}  {'pr':>12}",
                *(f"{x:>12.6f}  {rho:>10.6f}  {pr:>12.6e}"
                  for x, rho, pr in rows.tolist())]

    return _render(ns, pairs, "result", record, text, table)


def _cmd_synth(ns) -> str:
    spec = SynthSpec(m=ns.m, t=ns.t, n=ns.n, seed=ns.seed)
    series = sample_displacements(spec)
    pairs = [("m", repr(ns.m)), ("t", repr(ns.t)), ("n", str(ns.n)),
             ("seed", str(ns.seed))]
    # no text view: the displacement table IS the artifact, which keeps
    # `synth | estimate --stdin` composable in text and csv alike
    return _render(ns, pairs, "series",
                   lambda: _displacement_record(series),
                   table=lambda fh: write_displacements(series, fh))


def _cmd_predict(ns) -> str:
    m_hat, prior, t = ns.m_hat, ns.prior_close, ns.t
    if m_hat is None:
        raise UsageError("predict needs --m-hat (flag or config file)")
    if prior is None:
        raise UsageError("predict needs --prior-close (flag or config file)")
    ratio = extreme_displacement(OscillatorParams(m=m_hat, t=t))
    points = bt.predict_extreme_points(m_hat, t, prior)
    pairs = [("m_hat", repr(m_hat)), ("t", repr(t)),
             ("prior_close", repr(prior))]
    record = {"m_hat": m_hat, "t": t, "prior_close": prior,
              "predicted_extreme_ratio": ratio,
              "predicted_extreme_points": points}
    specs = (".4f", "g", ".4f", ".6f", ".2f")
    return _render(ns, pairs, "result", lambda: record,
                   lambda: [(*item, spec)
                            for item, spec in zip(record.items(), specs)])


def _cmd_backtest(ns) -> str:
    # a missing --input is reported first, a missing week before any read
    if ns.input is not None and ns.crash_week is None:
        raise UsageError("backtest needs --crash-week (flag or config file)")
    series = _read_series(ns, parse_prices)
    start, count = ns.window or (0, ns.train_count)
    config = bt.BacktestConfig(crash_week_end=ns.crash_week,
                               train_start_index=start, train_count=count,
                               t=ns.t)
    r = bt.run_backtest(series, config, grid_spec=ns.grid)
    _warn_grid_edge(r.fit)
    pairs = [("t", repr(ns.t)), ("window", f"{start}:{count}"),
             ("grid", _grid_label(ns.grid)),
             ("crash_week", ns.crash_week.isoformat()),
             ("resample", ns.resample), ("asset", series.asset_id)]

    def text():
        return [("asset", r.asset_id), ("m_hat", r.m_hat, ".4f"),
                ("r2", r.r2, ".6f"), ("prior_close", r.prior_close, ".4f"),
                ("predicted_extreme_ratio", r.predicted_extreme_ratio, ".6f"),
                ("predicted_extreme_points", r.predicted_extreme_points,
                 ".2f"),
                ("actual_points", r.actual_points, ".2f"),
                ("actual_ratio", r.actual_ratio, ".6f"),
                ("violated", "yes" if r.violated else "no"),
                ("years_from_train_to_crash", r.years_from_train_to_crash,
                 ".1f")]

    return _render(ns, pairs, "result", lambda: {
        f.name: getattr(r, f.name) for f in fields(r) if f.name != "fit"},
        text)


def build_parser(config: dict) -> argparse.ArgumentParser:
    """The CLI parser; `config` (typed config-file values) is every
    subcommand's defaults, so flags > config file > defaults."""
    parser = _Parser(prog="oscmarkets", description=(
        "Oscillator model of weekly price displacements: "
        "estimate inertial coefficients, bound extreme moves."))
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--input": dict(help="input CSV path, or - for stdin"),
        "--resample": dict(choices=("none", "daily-to-weekly"),
                           default="none"),
        "--output": dict(default="-", help="output path (default: stdout)"),
        "--format": dict(choices=("text", "csv", "structured"),
                         default="text"),
        "--t": dict(type=_positive_float, default=1.0),
        "--window": dict(type=_window_value, metavar="START:COUNT",
                         help="weeks fitted (default: all; backtest 0:100)"),
        "--grid": dict(type=_grid_value, metavar="LO:HI:N"),
    }

    def command(name, handler, flags, help):
        p = sub.add_parser(name, help=help)
        for flag in flags.split():
            p.add_argument(flag, **shared[flag])
        p.set_defaults(handler=handler)
        return p

    reads = "--input --resample --output --format"
    fits = reads + " --t --window --grid"
    p = command("ingest", _cmd_ingest, reads, "parse and resample prices")
    p.add_argument("--emit", choices=("prices", "displacements"),
                   default="displacements",
                   help="csv/structured payload (default: displacements)")

    p = command("estimate", _cmd_estimate, fits,
                "fit the inertial coefficient")
    p.add_argument("--stdin", action="store_true",
                   help="read displacements or prices from stdin")
    p.add_argument("--emit", choices=("table", "grid"), default="table",
                   help="csv payload (default: threshold table)")

    p = command("synth", _cmd_synth, "--output --format --t",
                "draw synthetic displacements")
    p.add_argument("--m", type=_positive_float, required=True)
    p.add_argument("--n", type=_count_value, default=100)
    p.add_argument("--seed", type=_seed_value, default=0)

    p = command("predict", _cmd_predict, "--output --format --t",
                "extreme move in price points")
    p.add_argument("--m-hat", type=_positive_float)
    p.add_argument("--prior-close", type=_positive_float)

    p = command("backtest", _cmd_backtest, fits, "crash-week bound check")
    p.add_argument("--crash-week", type=_date_value, metavar="YYYY-MM-DD")
    p.set_defaults(train_count=100)

    # last, so that no add_argument default overrides a config value
    for p in sub.choices.values():
        p.set_defaults(**config)
    return parser


def main(argv=None) -> int:
    try:
        # the config file is read first: its errors come before flag errors
        ns = build_parser(_load_config_file()).parse_args(argv)
        _emit(ns, ns.handler(ns))
        return 0
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, FloatingPointError, OverflowError,
            ZeroDivisionError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

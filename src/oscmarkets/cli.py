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
A flag's or config key's type only converts its text (a float, an int,
START:COUNT, LO:HI:N, a date) and hands the value to the rule the library
types apply to it (errors.positive, errors.at_least, errors.uint64,
GridSpec), so a flag's range is the library's own and a value out of it
is reported in the rule's words.

Exit codes: 0 success, 1 usage or configuration error, 2 data/validation
error, 3 numeric/domain failure.

Each command imports the modules it runs when it runs, so `ingest` never
loads or compiles the fit modules (at start-up, importing costs more than
the work of a small command, and more still where no bytecode cache is
written). `run` freezes the garbage collector's objects before it exits:
all of them live until exit anyway, so the collections of interpreter
shutdown would only walk them. Exit handlers, the flush of the standard
streams and the exit status are as Python gives them.

The estimate command accepts either raw prices (`date,close` header) or
ready-made displacements (`week_end,x_a,x_b,ratio` header) and detects
which by the header; `synth ... | oscmarkets estimate --stdin` therefore
composes, since comment lines are skipped by the parsers.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime as dt
import gc
import os
import stat
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

from .errors import (DataError, DomainError, OscMarketsError, at_least,
                     positive, uint64)
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

__all__ = ["main", "run"]

CONFIG_ENV = "OSC_MARKETS_CONFIG"


class UsageError(OscMarketsError):
    """Bad flags, bad flag values, or a bad config file."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on errors; route through our taxonomy
    def error(self, message):
        raise UsageError(message)


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise argparse.ArgumentTypeError(message)


def _parsed(convert, text, message: str = "{exc}"):
    """convert(text), or a flag error: `message` (by default the error's
    own words) formatted with `text` and the ValueError or DataError `exc`
    that convert raised."""
    try:
        return convert(text)
    except (ValueError, DataError) as exc:
        raise argparse.ArgumentTypeError(
            message.format(text=text, exc=exc)) from None


# what a flag error says when the flag's text is not of its type
_NOT_A = {float: "not a number: {text!r}", int: "not an integer: {text!r}"}


def _typed(convert, rule, *args, **kwargs):
    """A flag's type: its text as convert (float or int) reads it, then
    checked by rule(*args, value, **kwargs), one of the errors module's
    rules. A text that does not convert is a flag error from _NOT_A; a
    value the rule rejects, one in the rule's own words."""
    return lambda text: _parsed(partial(rule, *args, **kwargs),
                                _parsed(convert, text, _NOT_A[convert]))


def _window_value(text: str) -> tuple[int, int]:
    parts = text.split(":")
    _check(len(parts) == 2, f"window must be START:COUNT, got {text!r}")
    start, count = _parsed(lambda _: [int(p) for p in parts], text,
                           "window must be START:COUNT integers, got {text!r}")
    return _parsed(lambda _: (at_least("window START", start, 0),
                              at_least("window COUNT", count, 1)), text)


def _grid_value(text: str):
    from .estimate import GridSpec
    parts = text.split(":")
    _check(len(parts) == 3, f"grid must be LO:HI:N, got {text!r}")
    return _parsed(lambda _: GridSpec(lo=float(parts[0]), hi=float(parts[1]),
                                      n=int(parts[2])),
                   text, "bad grid {text!r}: {exc}")


def _grid_text(grid) -> str:
    """--grid as the `# config:` echo prints it: LO:HI:N, or auto:N."""
    from .estimate import DEFAULT_GRID_POINTS
    return (f"{grid.lo!r}:{grid.hi!r}:{grid.n}" if grid
            else f"auto:{DEFAULT_GRID_POINTS}")


def _date_value(text: str) -> dt.date:
    return _parsed(_iso_date, text, "dates are YYYY-MM-DD, got {text!r}")


# Every flag, by its name in the namespace and in the config file, with
# its add_argument options, in the order the `# config:` echo prints them.
# --emit's options differ by command, so it holds one set per command.
_FLAGS = {
    "input": dict(help="input CSV path, or - for stdin"),
    "output": dict(default="-", help="output path (default: stdout)"),
    "format": dict(choices=("text", "csv", "structured"), default="text"),
    "m": dict(type=_typed(float, positive, "m"), required=True),
    "m_hat": dict(type=_typed(float, positive, "m_hat")),
    "t": dict(type=_typed(float, positive, "t"), default=1.0),
    "window": dict(type=_window_value, metavar="START:COUNT",
                   help="weeks fitted (default: all; backtest 0:100)"),
    "grid": dict(type=_grid_value, metavar="LO:HI:N"),
    "crash_week": dict(type=_date_value, metavar="YYYY-MM-DD"),
    "resample": dict(choices=("none", "daily-to-weekly"), default="none"),
    "emit": {"ingest": dict(
                 choices=("prices", "displacements"), default="displacements",
                 help="csv/structured payload (default: displacements)"),
             "estimate": dict(choices=("table", "grid"), default="table",
                              help="csv payload (default: threshold table)")},
    "n": dict(type=_typed(int, at_least, "sample count", low=1), default=100),
    "seed": dict(type=_typed(int, uint64, "seed"), default=0),
    "prior_close": dict(type=_typed(float, positive, "prior_close")),
    "stdin": dict(action="store_true",
                  help="read displacements or prices from stdin"),
}

# each config key and the type function of the flag it stands in for;
# train_count, backtest's window length when --window is not given, has
# no flag
_CONFIG_TYPES = {"train_count": _typed(int, at_least, "train_count", low=1),
                 **{key: _FLAGS[key]["type"] for key in ("t", "grid", "seed",
                    "crash_week", "prior_close", "m_hat")}}


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


# how the text format prints each scalar result field: its format spec
# (unlisted fields print as str) and its label where that is not its name
_TEXT_FORMAT = {"m_hat": ".10g", "r2": ".6f", "t": "g", "prior_close": ".4f",
                "predicted_extreme_ratio": ".6f",
                "predicted_extreme_points": ".2f", "actual_points": ".2f",
                "actual_ratio": ".6f", "years_from_train_to_crash": ".1f"}
_TEXT_LABEL = {"asset_id": "asset"}
# how the `# config:` echo prints a flag's value where str does not (str
# is repr for a float and YYYY-MM-DD for a date)
_CONFIG_TEXT = {"window": lambda w: "%d:%d" % w if w else "all",
                "grid": _grid_text}


def _text_value(name: str, value) -> str:
    """A scalar field's value as text prints it; bools print yes or no."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    return format(value, _TEXT_FORMAT.get(name, ""))


def _warn_grid_edge(fit) -> None:
    """One stderr line when the EstimationResult's m_hat is the first or
    last grid candidate."""
    if fit.at_grid_edge:
        lo, hi = fit.grid.m[[0, -1]].tolist()
        print(f"warning: m_hat {_text_value('m_hat', fit.m_hat)} at the edge "
              f"of the search grid [{lo!r}, {hi!r}]", file=sys.stderr)


def _asset_id(path: str) -> str:
    """The label of the input at `path`: the file's stem, stdin for -."""
    return "stdin" if path == "-" else Path(path).stem


def _read_series(ns, parse):
    """parse(...) of the CSV at ns.input (- for stdin), labelled with the
    file's stem: the one place a command reads its input."""
    if ns.input is None:
        raise UsageError(f"{ns.command} needs --input PATH")
    stdin = ns.input == "-"
    if stdin and sys.stdin is None:
        raise DataError("cannot read standard input: it is closed")
    try:  # bytes from either source, so both decode and end lines alike
        with (contextlib.nullcontext(getattr(sys.stdin, "buffer", sys.stdin))
              if stdin else open(ns.input, "rb")) as fh:
            text = _as_text(fh)
    except OSError as exc:
        where = "standard input" if stdin else f"input {ns.input}"
        raise DataError(f"cannot read {where}: {exc}") from None
    return parse(text, resample=ns.resample == "daily-to-weekly",
                 asset_id=_asset_id(ns.input))


@contextlib.contextmanager
def _replacing(path: str):
    """A text stream into the file at `path`, which holds the bytes stdout
    gets in UTF-8 mode. A regular or new file (a symlink's target) is
    written to a temporary file beside it, renamed over it at the end with
    the old file's permission bits, so a failed write leaves it as it was;
    an error that names the temporary file is reported under `path`. A
    file that may not be opened to write is refused, as in place. A FIFO
    or a device is written in place."""
    target = os.path.realpath(path)
    text = dict(encoding="utf-8", errors="surrogateescape")
    if os.path.exists(target) and not os.path.isfile(target):
        with open(path, "w", **text) as out:
            yield out
        return
    tmp = f"{target}.{os.urandom(4).hex()}.tmp"
    try:  # a new file gets the bits open() gives
        with open(tmp, "x", **text) as out:
            try:
                yield out
                out.close()
                if os.path.exists(target):
                    open(path, "r+").close()  # fails on a read-only file
                    os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
                os.replace(tmp, target)
            except BaseException:
                os.remove(tmp)
                raise
    except OSError as exc:  # name the path given, not the random one
        if tmp in (exc.filename, exc.filename2):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _emit(ns, write) -> None:
    """write(out) once, into stdout or into the --output file. The file is
    opened only now, after the command has made and checked its result, so
    a failed command creates or truncates no file."""
    where = "standard output" if ns.output == "-" else f"output {ns.output}"
    if ns.output == "-" and sys.stdout is None:
        raise DataError(f"cannot write {where}: it is closed")
    try:  # a strict stdout rejects an undecodable byte of a file name
        with (contextlib.nullcontext(sys.stdout) if ns.output == "-" else
              _replacing(ns.output)) as out:
            write(out)
            out.flush()
    except (OSError, UnicodeEncodeError) as exc:
        if ns.output == "-" and isinstance(exc, OSError):  # so that the
            # flush at exit has nowhere to fail and prints nothing
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return  # the reader has all it wants: end quietly, exit 0
        raise DataError(f"cannot write {where}: {exc}") from None


def _csv_cell(value) -> str:
    """true or false for a bool, else str: repr for a float."""
    return str(value).lower() if isinstance(value, bool) else str(value)


def _render(ns, key: str, scalars: dict, text=None, tables=None,
            members=None, emit=None):
    """The writer of a command's output in ns.format: the one place that
    knows formats. The writer writes straight into the stream it is given.

    The configuration echo is `command`, then each flag the command takes
    but --stdin, in _FLAGS order, then `asset` when the command reads an
    input.
    `scalars` holds the command's scalar result fields, name -> value, in
    order. `tables` maps each table's name to its writer, table(out,
    json=...), which writes it as csv or as a JSON list through
    ingest._write_rows. `members` are further fields of structured output
    only, and `text` a thunk called only for text:

    structured: {"config": {...}, key: {**scalars, **members, **tables}}
        as indented JSON; json.dumps writes all but the tables, which are
        spliced in before the brace that closes key's object, so that
        object must hold a scalar or a member when there are tables.
    csv: the `# config:` line, then with no table the scalars as one
        header row and one value row; with tables, the scalars (if any)
        as one `# result: name=value ...` line, then the table named
        `emit` (by default the only one).
    text: the `# config:` line, then one line per scalar and per item of
        text(): a str as it is, and a (name, value) pair as `label: value`
        through _TEXT_LABEL and _text_value. With neither scalars nor text,
        text is csv.
    """
    # which flags the command takes comes from _COMMANDS: config values
    # are every subcommand's defaults, so the namespace cannot tell
    flags = _COMMANDS[ns.command][2].split()
    pairs = [("command", ns.command),
             *((name, _CONFIG_TEXT.get(name, str)(getattr(ns, name)))
               for name in _FLAGS if name in flags and name != "stdin"),
             *([("asset", _asset_id(ns.input))] if "input" in flags else [])]

    def write(out):
        if ns.format == "structured":
            import json
            head = json.dumps({"config": dict(pairs),
                               key: {**scalars, **(members or {})}}, indent=2)
            out.write(head[:-6])  # all but the closing "\n  }\n}"
            for name, table in (tables or {}).items():
                out.write(f',\n    "{name}": ')
                table(out, json=True)
            out.write(head[-6:] + "\n")
            return
        out.write(f"# config: {' '.join(f'{k}={v}' for k, v in pairs)}\n")
        if ns.format == "text" and (scalars or text):
            for item in [*scalars.items(), *(text() if text else ())]:
                out.write((item if isinstance(item, str) else
                           f"{_TEXT_LABEL.get(item[0], item[0])}: "
                           f"{_text_value(*item)}") + "\n")
        elif not tables:
            out.write(",".join(scalars) + "\n"
                      + ",".join(map(_csv_cell, scalars.values())) + "\n")
        else:
            if scalars:
                out.write("# result: " + " ".join(
                    f"{k}={_csv_cell(v)}" for k, v in scalars.items()) + "\n")
            tables[emit or next(iter(tables))](out, json=False)
    return write


def _cmd_ingest(ns):
    series = _read_series(ns, parse_prices)
    first, last = np.datetime_as_string(series.week_end[[0, -1]], unit="D")
    summary = [("asset", series.asset_id), ("unit", series.unit),
               ("points", len(series)), ("first_week", first),
               ("last_week", last), ("displacements", len(series) - 1)]
    if ns.emit == "prices":
        return _render(ns, "series", {}, lambda: summary,
                       {"points": partial(write_prices, series)},
                       {"asset_id": series.asset_id, "unit": series.unit})
    # built and checked before any output, whatever the format
    displacements = to_displacements(series)
    return _render(ns, "series", {}, lambda: summary,
                   {"entries": partial(write_displacements, displacements)},
                   {"asset_id": series.asset_id})


def _cmd_estimate(ns):
    from . import estimate as est
    if ns.stdin:
        if ns.input is not None:
            raise UsageError("give either --input or --stdin, not both")
        ns.input = "-"
    elif ns.input is None:
        raise UsageError("estimate needs --input PATH or --stdin")
    series = _read_series(ns, parse_series)
    if ns.window is not None:
        series = window(series, *ns.window)
    fit = est.fit_m_hat(series, t=ns.t, grid_spec=ns.grid)
    _warn_grid_edge(fit)
    rows, trace = fit.table, fit.grid
    return _render(
        ns, "result", {"m_hat": fit.m_hat, "r2": fit.r2,
                       "sample_size": fit.sample_size},
        lambda: [("thresholds", len(rows)), ("grid_evaluations", len(trace)),
                 "", f"{'X':>12}  {'rho':>10}  {'pr':>12}",
                 *(f"{x:>12.6e}  {rho:>10.6f}  {pr:>12.6e}"
                   for x, rho, pr in rows.tolist())],
        {"table": lambda fh, json: _write(fh, ("X", "rho", "pr"), rows.x,
                                          rows.rho, rows.pr, json=json),
         "grid": lambda fh, json: _write(fh, ("m_candidate", "r2"), trace.m,
                                         trace.r2, json=json)}, emit=ns.emit)


def _cmd_synth(ns):
    from .synth import SynthSpec, sample_displacements
    series = sample_displacements(SynthSpec(ns.m, ns.t, ns.n, ns.seed))
    # no text view: the displacement table IS the artifact, which keeps
    # `synth | estimate --stdin` composable in text and csv alike
    return _render(ns, "series", {}, tables={
        "entries": partial(write_displacements, series)},
        members={"asset_id": series.asset_id})


def _cmd_predict(ns):
    from .backtest import predict_extreme_points
    from .model import OscillatorParams, extreme_displacement
    if ns.m_hat is None:
        raise UsageError("predict needs --m-hat (flag or config file)")
    if ns.prior_close is None:
        raise UsageError("predict needs --prior-close (flag or config file)")
    ratio = extreme_displacement(OscillatorParams(m=ns.m_hat, t=ns.t))
    points = predict_extreme_points(ns.m_hat, ns.t, ns.prior_close)
    return _render(ns, "result", {
        "m_hat": ns.m_hat, "t": ns.t, "prior_close": ns.prior_close,
        "predicted_extreme_ratio": ratio, "predicted_extreme_points": points})


def _cmd_backtest(ns):
    from . import backtest as bt
    # a missing --input is reported first, a missing week before any read
    if ns.input is not None and ns.crash_week is None:
        raise UsageError("backtest needs --crash-week (flag or config file)")
    series = _read_series(ns, parse_prices)
    ns.window = ns.window or (0, ns.train_count)  # echoed as resolved
    config = bt.BacktestConfig(ns.crash_week, *ns.window, t=ns.t)
    r = bt.run_backtest(series, config, grid_spec=ns.grid)
    _warn_grid_edge(r.fit)
    return _render(ns, "result", {
        f.name: getattr(r, f.name) for f in fields(r) if f.name != "fit"})


_READS = "input resample output format"
# each command: its handler, its help line and its flags in --help order
_COMMANDS = {
    "ingest": (_cmd_ingest, "parse and resample prices", _READS + " emit"),
    "estimate": (_cmd_estimate, "fit the inertial coefficient",
                 _READS + " t window grid stdin emit"),
    "synth": (_cmd_synth, "draw synthetic displacements",
              "output format t m n seed"),
    "predict": (_cmd_predict, "extreme move in price points",
                "output format t m_hat prior_close"),
    "backtest": (_cmd_backtest, "crash-week bound check",
                 _READS + " t window grid crash_week"),
}


def build_parser(config: dict) -> argparse.ArgumentParser:
    """The CLI parser; `config` (typed config-file values) is every
    subcommand's defaults, so flags > config file > defaults."""
    parser = _Parser(prog="oscmarkets", description=(
        "Oscillator model of weekly price displacements: "
        "estimate inertial coefficients, bound extreme moves."))
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, about, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=about)
        for name in flags.split():
            options = _FLAGS[name]
            p.add_argument("--" + name.replace("_", "-"),
                           **options.get(command, options))
        # last, so that no add_argument default overrides a config value
        p.set_defaults(handler=handler, **{"train_count": 100, **config})
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
    code = main()
    # every object made so far lives until exit: frozen, finalization's
    # collections skip them; atexit handlers and the flush still run
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()

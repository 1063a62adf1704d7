"""Price data ingestion: CSV parsing, weekly resampling, displacement series.

Input is UTF-8 CSV (a leading byte-order mark is ignored) with a
`date,close` header (extra columns ignored). Daily data is resampled to
weekly bars by keeping the last available close of each ISO-8601 week
(Mon-Sun); weekly input passes through unchanged. Gaps are never filled:
a displacement simply spans the gap, since markets pick up where they
left off.

A series is a set of numpy columns: `week_end` as datetime64[D] and the
prices and ratios as float64. Each constructor validates its columns once,
vectorized, then marks them read-only, so a series that exists is valid.
Parsers read rows one at a time but hand whole columns to the
constructor; a column check that fails names the input line of the first
bad row.

Series are serializable to CSV with headers `date,close` and
`week_end,x_a,x_b,ratio`; floats are written with repr so a round trip
through text is exact.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from dataclasses import dataclass
from typing import IO, ClassVar, Union

import numpy as np

from .errors import DataError

__all__ = [
    "PriceSeries",
    "DisplacementSeries",
    "parse_prices",
    "parse_displacements",
    "to_displacements",
    "window",
    "write_prices",
    "write_displacements",
]

TextSource = Union[str, bytes, IO]

_DAY = "datetime64[D]"
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()


class _RowError(DataError):
    """A column check failed at row index `row` of the series."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _check(bad: np.ndarray, template: str, *columns: np.ndarray) -> None:
    """Raise _RowError at the first True row of `bad`, formatting
    `template` with that row's values from `columns`."""
    if bad.any():
        i = int(np.argmax(bad))
        raise _RowError(i, template.format(*(c[i].item() for c in columns)))


def _freeze(series, **dtypes) -> list[np.ndarray]:
    """Replace each named field by a read-only 1-D copy of that dtype."""
    out = []
    for name, dtype in dtypes.items():
        try:
            column = np.array(getattr(series, name), dtype=dtype)
        except (TypeError, ValueError) as exc:
            raise DataError(f"column {name}: {exc}") from None
        if column.ndim != 1 or (out and column.size != out[0].size):
            raise DataError("series columns must be 1-D and of equal length")
        column.flags.writeable = False
        object.__setattr__(series, name, column)
        out.append(column)
    return out


def _check_dates(week_end: np.ndarray) -> None:
    _check(np.isnat(week_end), "missing date")
    bad = np.flatnonzero(~(week_end[1:] > week_end[:-1]))
    if bad.size:
        i = int(bad[0]) + 1
        cur, prev = week_end[i].item(), week_end[i - 1].item()
        raise _RowError(i, f"duplicate date {cur}" if cur == prev
                        else f"date {cur} not after {prev}")


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """Weekly closes for one asset: strictly increasing dates, positive
    finite closes, at least two rows."""

    asset_id: str
    week_end: np.ndarray
    close: np.ndarray
    unit: ClassVar[str] = "1 trading week"

    def __post_init__(self):
        week_end, close = _freeze(self, week_end=_DAY, close=np.float64)
        if close.size < 2:
            raise DataError(
                f"price series needs at least 2 points, got {close.size}")
        _check(~np.isfinite(close), "non-finite close {!r}", close)
        _check(close <= 0.0, "non-positive close {}", close)
        _check_dates(week_end)

    def __len__(self) -> int:
        return self.close.size


@dataclass(frozen=True, eq=False)
class DisplacementSeries:
    """Dated weekly displacements: opening price x_a, closing price x_b
    and ratio = x_b/x_a - 1 per week.

    Price-derived series (to_displacements) additionally chain, each week
    opening at the prior week's close; synthetic series fabricate their
    endpoints, so chaining is a property of the derivation, not the type.
    """

    asset_id: str
    week_end: np.ndarray
    x_a: np.ndarray
    x_b: np.ndarray
    ratio: np.ndarray

    def __post_init__(self):
        week_end, x_a, x_b, ratio = _freeze(
            self, week_end=_DAY, x_a=np.float64, x_b=np.float64,
            ratio=np.float64)
        if not ratio.size:
            raise DataError("displacement series must not be empty")
        for name, column in (("x_a", x_a), ("x_b", x_b), ("ratio", ratio)):
            _check(~np.isfinite(column), name + " must be finite, got {!r}",
                   column)
        _check((x_a <= 0.0) | (x_b <= 0.0),
               "prices must be positive, got x_a={}, x_b={}", x_a, x_b)
        _check(ratio <= -1.0, "ratio must exceed -1, got {}", ratio)
        implied = x_b / x_a - 1.0
        tolerance = 1e-12 * np.maximum(1.0, np.abs(implied))
        _check(np.abs(ratio - implied) > tolerance,
               "ratio {} inconsistent with endpoints ({}, {}) implying {}",
               ratio, x_a, x_b, implied)
        _check_dates(week_end)

    def __len__(self) -> int:
        return self.ratio.size

    def ratios(self) -> np.ndarray:
        return self.ratio


def _as_text(source: TextSource) -> str:
    """The one decoding step for every input: UTF-8, BOM dropped."""
    try:
        if hasattr(source, "read"):
            source = source.read()
        if isinstance(source, bytes):
            source = source.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"input is not valid UTF-8: {exc}") from None
    return source.removeprefix("\ufeff")


def _skip(row) -> bool:
    """Blank lines and `#` comment lines (config echoes) carry no data."""
    if not any(cell.strip() for cell in row):
        return True
    return row[0].lstrip().startswith("#")


def _read_rows(text: str, required: tuple[str, ...]):
    """Yield (line_number, row_dict) for each non-blank CSV data row."""
    reader = csv.reader(io.StringIO(text))
    header = None
    for row in reader:
        if _skip(row):
            continue
        header = [cell.strip().lower() for cell in row]
        break
    if header is None:
        raise DataError("no rows: input is empty")
    idx = {}
    for name in required:
        if name not in header:
            raise DataError(f"missing required column {name!r} in header")
        idx[name] = header.index(name)
    n_any = False
    for row in reader:
        if _skip(row):
            continue
        if len(row) < len(header):
            raise DataError(
                f"line {reader.line_num}: expected {len(header)} fields, "
                f"got {len(row)}"
            )
        n_any = True
        yield reader.line_num, {k: row[i].strip() for k, i in idx.items()}
    if not n_any:
        raise DataError("no rows: header present but no data")


def _parse_day(lineno: int, text: str) -> int:
    """Days since 1970-01-01 of an ISO date."""
    try:
        return dt.date.fromisoformat(text).toordinal() - _EPOCH_ORDINAL
    except ValueError:
        raise DataError(f"line {lineno}: bad date {text!r}") from None


def _parse_float(lineno: int, name: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"line {lineno}: bad {name} {text!r}") from None
    if not math.isfinite(value):
        raise DataError(f"line {lineno}: non-finite {name} {text!r}")
    return value


def _parse(source: TextSource, cls, asset_id: str, names: tuple[str, ...]):
    """Build a `cls` series from CSV columns `names` (a date, then floats),
    naming the input line of a row that fails the column checks."""
    lines, days = [], []
    floats = [[] for _ in names[1:]]
    for lineno, cells in _read_rows(_as_text(source), names):
        lines.append(lineno)
        days.append(_parse_day(lineno, cells[names[0]]))
        for name, column in zip(names[1:], floats):
            column.append(_parse_float(lineno, name, cells[name]))
    try:
        return cls(asset_id, np.array(days, dtype=_DAY), *floats)
    except _RowError as exc:
        raise DataError(f"line {lines[exc.row]}: {exc}") from None


def parse_prices(source: TextSource, fmt: str = "weekly_csv",
                 asset_id: str = "asset") -> PriceSeries:
    """Parse `date,close` CSV into a weekly PriceSeries.

    fmt is "weekly_csv" (rows are already weekly bars) or "daily_csv"
    (rows are trading days, collapsed to the last close of each ISO week).
    Rows must be in strictly increasing date order either way.
    """
    if fmt not in ("weekly_csv", "daily_csv"):
        raise DataError(f"unknown price format {fmt!r}")
    series = _parse(source, PriceSeries, asset_id, ("date", "close"))
    if fmt == "daily_csv":
        # 1970-01-01 is a Thursday, so (days + 3) // 7 numbers the
        # Monday-to-Sunday weeks; with increasing dates these are ISO weeks
        week = (series.week_end.astype(np.int64) + 3) // 7
        keep = np.append(week[1:] != week[:-1], True)
        series = PriceSeries(asset_id, series.week_end[keep],
                             series.close[keep])
    return series


def to_displacements(series: PriceSeries) -> DisplacementSeries:
    """Weekly displacements x = close[i+1]/close[i] - 1, dated by the
    later week; each week opens at the prior week's close."""
    x_a, x_b = series.close[:-1], series.close[1:]
    return DisplacementSeries(series.asset_id, series.week_end[1:], x_a, x_b,
                              x_b / x_a - 1.0)


def window(series: DisplacementSeries, start_index: int,
           count: int) -> DisplacementSeries:
    """Contiguous sub-series of `count` entries starting at start_index."""
    n = len(series)
    if start_index < 0 or count < 1 or start_index + count > n:
        raise DataError(
            f"window [{start_index}, {start_index + count}) out of range "
            f"for series of {n} entries"
        )
    rows = slice(start_index, start_index + count)
    return DisplacementSeries(series.asset_id, series.week_end[rows],
                              series.x_a[rows], series.x_b[rows],
                              series.ratio[rows])


def parse_displacements(source: TextSource,
                        asset_id: str = "asset") -> DisplacementSeries:
    """Parse `week_end,x_a,x_b,ratio` CSV into a DisplacementSeries."""
    return _parse(source, DisplacementSeries, asset_id,
                  ("week_end", "x_a", "x_b", "ratio"))


def _write(fh: IO[str], header, *columns: np.ndarray) -> None:
    """The one CSV table writer: a header row, then one row per index of
    the columns, dates written as ISO days and floats with repr."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*(
        np.datetime_as_string(c, unit="D").tolist() if c.dtype.kind == "M"
        else map(repr, c.tolist()) for c in columns)))


def write_prices(series: PriceSeries, fh: IO[str]) -> None:
    _write(fh, ["date", "close"], series.week_end, series.close)


def write_displacements(series: DisplacementSeries, fh: IO[str]) -> None:
    _write(fh, ["week_end", "x_a", "x_b", "ratio"], series.week_end,
           series.x_a, series.x_b, series.ratio)

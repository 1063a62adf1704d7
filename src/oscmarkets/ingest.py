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
Parsers hand whole columns to the constructor; a column check that fails
names the input line of the first bad row. Every CRLF or lone CR reads
as LF. Plain text (no quote, no blank or comment line after the header,
every row exactly as wide as the header, `YYYY-MM-DD` dates and finite
numbers) is cut into whole columns at once. Anything else, and plain
text that fails a check, is read cell by cell; that reading defines a
valid cell, and the column pass must match it bit for bit. A date is
`YYYY-MM-DD` on every Python version.

Series are written as CSV with headers `date,close` and
`week_end,x_a,x_b,ratio`, dates as ISO days and floats with repr, so a
round trip through text is exact. `_write_rows`, the one table writer
(every CLI table goes through it, in csv and in structured output),
turns each column into cell text once, _ROWS rows at a time, and fills
one row template with it: for csv the cells joined with commas and the
rows with newlines, which are the bytes csv.writer would write, since no
such cell holds a comma, quote, CR or LF; for JSON one object per row, as
json.dumps(..., indent=2) writes it, dates quoted. A chained displacement
series, each week opening at the prior week's close as to_displacements
builds it, takes the reprs of its closes once for both price columns, in
either form.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
import re
from dataclasses import dataclass
from typing import IO, ClassVar, Union

import numpy as np

from .errors import DataError

__all__ = [
    "PriceSeries",
    "DisplacementSeries",
    "parse_prices",
    "parse_displacements",
    "parse_series",
    "to_displacements",
    "window",
    "write_prices",
    "write_displacements",
]

TextSource = Union[str, bytes, IO]

_DAY = "datetime64[D]"
# characters of text read or cut into cells at a time, so that only one
# chunk exists as a second copy or as str objects at once
_CHUNK = 1 << 18
# rows of a table turned into text and written at a time
_ROWS = 1 << 14


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
        column = getattr(series, name)
        try:
            if isinstance(column, np.ndarray) and column.dtype.kind == "S":
                # numpy's bytes -> datetime64 cast can crash on a bad date
                column = column.astype(str)
            column = np.array(column, dtype=dtype)
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
    header: ClassVar[tuple[str, ...]] = ("date", "close")

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
    header: ClassVar[tuple[str, ...]] = ("week_end", "x_a", "x_b", "ratio")

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
        with np.errstate(over="ignore"):  # an infinite implied is rejected
            implied = x_b / x_a - 1.0
        tolerance = 1e-12 * np.maximum(1.0, np.abs(implied))
        _check(~np.isfinite(implied) | (np.abs(ratio - implied) > tolerance),
               "ratio {} inconsistent with endpoints ({}, {}) implying {}",
               ratio, x_a, x_b, implied)
        _check_dates(week_end)

    def __len__(self) -> int:
        return self.ratio.size

    def ratios(self) -> np.ndarray:
        return self.ratio


def _as_text(source: TextSource) -> str:
    """The one decoding step for every input: UTF-8, BOM dropped, and
    CRLF and lone CR line ends (even inside a quoted cell) read as LF."""
    try:
        if hasattr(source, "read"):
            source = source.read()
        if isinstance(source, bytes):
            source = source.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"input is not valid UTF-8: {exc}") from None
    if "\r" in source:
        source = source.replace("\r\n", "\n").replace("\r", "\n")
    return source.removeprefix("\ufeff")


def _chunks(text: str, start: int):
    """text[start:] in slices of about _CHUNK characters, each but the last
    ending in a newline, so that only one slice exists as a copy at once."""
    while start < len(text):
        stop = text.find("\n", start + _CHUNK) + 1 or len(text)
        yield text[start:stop]
        start = stop


def _lines(text: str):
    """The lines of `text`, each with its newline, as io.StringIO(text)
    yields them, read from one of its _chunks at a time."""
    for chunk in _chunks(text, 0):
        yield from io.StringIO(chunk)


def _skip(row) -> bool:
    """Blank lines and `#` comment lines (config echoes) carry no data."""
    if not any(cell.strip() for cell in row):
        return True
    return row[0].lstrip().startswith("#")


# the one spelling of the date form: numpy and date.fromisoformat read
# it alike, and year 0, which numpy takes, is excluded. Each digit is
# spelled out: CPython 3.11 matches that about twice as fast as [0-9]{4}.
_ISO_DAY = re.compile(r"(?!0000)[0-9][0-9][0-9][0-9]-[0-9][0-9]-[0-9][0-9]")
# a column of such dates run together, each cell followed by a comma
_ISO_DAYS = re.compile(f"(?:{_ISO_DAY.pattern},)*")


def _iso_date(text: str) -> dt.date:
    """The date of `YYYY-MM-DD` text with a year after 0; ValueError for
    any other form, also those date.fromisoformat takes from Python 3.11
    on (`20010105`, `2001-W02-5`)."""
    if not _ISO_DAY.fullmatch(text):
        raise ValueError(f"not YYYY-MM-DD: {text!r}")
    return dt.date.fromisoformat(text)


def _parse_day(lineno: int, text: str) -> str:
    """`text`, checked to be an ISO date."""
    try:
        _iso_date(text)
    except ValueError:
        raise DataError(f"line {lineno}: bad date {text!r}") from None
    return text


def _parse_float(lineno: int, name: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"line {lineno}: bad {name} {text!r}") from None
    if not math.isfinite(value):
        raise DataError(f"line {lineno}: non-finite {name} {text!r}")
    return value


def _cell_columns(reader, width: int, idx: list[int], names):
    """(line numbers, dates, float columns...) of the data rows left in
    `reader`, which has just read a header of `width` fields, parsed cell
    by cell: the one definition of a valid cell."""
    lines, days = [], []
    floats = [[] for _ in names[1:]]
    for row in reader:
        if _skip(row):
            continue
        lineno = reader.line_num
        if len(row) < width:
            raise DataError(
                f"line {lineno}: expected {width} fields, got {len(row)}")
        day, *cells = [row[i].strip() for i in idx]
        lines.append(lineno)
        days.append(_parse_day(lineno, day))
        for name, column, cell in zip(names[1:], floats, cells):
            column.append(_parse_float(lineno, name, cell))
    if not lines:
        raise DataError("no rows: header present but no data")
    return lines, np.array(days, dtype=_DAY), *floats


def _plain_chunk(chunk: str, width: int, idx: list[int]):
    """The date and float columns of the lines of `chunk`, or None unless
    every line is plain (see _plain_columns)."""
    # surrogatepass: a lone surrogate (only a str passed to the library can
    # hold one) is left for float() or the date check to reject, as the
    # cell path does
    raw = np.frombuffer(chunk.encode("utf-8", "surrogatepass"), np.uint8)
    # commas per line, so that a short line and a long one cannot cancel
    ends = np.append(np.flatnonzero(raw == ord("\n")), raw.size)
    commas = np.searchsorted(np.flatnonzero(raw == ord(",")), ends)
    if (np.diff(commas, prepend=0) != width - 1).any():
        return None
    n = ends.size
    cells = chunk.replace("\n", ",").split(",")
    # a `#` first cell makes a comment line, whatever column it is
    if 0 not in idx and "#" in chunk and any(
            c.lstrip().startswith("#") for c in cells[::width]):
        return None
    columns = [cells[i::width] for i in idx]
    del cells
    if not _ISO_DAYS.fullmatch(",".join(columns[0]) + ","):
        return None
    try:
        columns[0] = np.array(columns[0], dtype=_DAY)
        for k in range(1, len(columns)):
            columns[k] = np.fromiter(map(float, columns[k]), np.float64, n)
    except ValueError:
        return None
    if not all(np.isfinite(c).all() for c in columns[1:]):
        return None
    return columns


def _plain_columns(text: str, header_line: int, width: int, idx: list[int]):
    """The columns _cell_columns would return for the rows after line
    `header_line` of `text`, cut whole per chunk (_chunks); None at
    the first chunk not wholly plain.

    `text` holds no quote, and no CR after _as_text, so its rows are its
    lines and its cells the text between commas. A plain row has exactly
    `width` cells, no `#` leading the first (a comment to _skip), at
    idx[0] a date _ISO_DAY matches, and at other idx finite numbers
    through float(), as the per-cell path reads them.
    """
    start = 0
    for _ in range(header_line):
        start = text.find("\n", start) + 1
        if not start:
            return None
    chunks = []
    for chunk in _chunks(text, start):
        columns = _plain_chunk(chunk.removesuffix("\n"), width, idx)
        if columns is None:
            return None
        chunks.append(columns)
    if not chunks:
        return None
    columns = [np.concatenate(c) for c in zip(*chunks)]
    return range(header_line + 1, header_line + 1 + columns[0].size), *columns


def _header(reader, classes):
    """Read the header row from `reader`: the first of `classes` whose
    `header` columns it names, its width, and the index of each column."""
    header = next((row for row in reader if not _skip(row)), None)
    if header is None:
        raise DataError("no rows: input is empty")
    header = [cell.strip().lower() for cell in header]
    cls = next((c for c in classes if set(c.header) <= set(header)), None)
    if cls is None:
        if len(classes) > 1:
            raise DataError("unrecognized input header: expected date,close "
                            "or week_end,x_a,x_b,ratio")
        missing = next(n for n in classes[0].header if n not in header)
        raise DataError(f"missing required column {missing!r} in header")
    return cls, len(header), [header.index(name) for name in cls.header]


def _parse(source: TextSource, asset_id: str, *classes):
    """Build a series of the first of `classes` that the header fits (its
    columns are a date, then floats), naming the input line of a row that
    fails the column checks."""
    text = _as_text(source)
    reader = csv.reader(_lines(text))
    try:
        cls, width, idx = _header(reader, classes)
        columns = None
        if '"' not in text:
            columns = _plain_columns(text, reader.line_num, width, idx)
        if columns is None:
            columns = _cell_columns(reader, width, idx, cls.header)
    except csv.Error as exc:  # such as a field over the csv module's limit
        raise DataError(f"line {reader.line_num}: {exc}") from None
    lines, *columns = columns
    try:
        return cls(asset_id, *columns)
    except _RowError as exc:
        raise DataError(f"line {lines[exc.row]}: {exc}") from None


def _weekly(series: PriceSeries) -> PriceSeries:
    """The last close of each ISO week (Monday to Sunday)."""
    # 1970-01-01 is a Thursday, so (days + 3) // 7 numbers the
    # Monday-to-Sunday weeks; with increasing dates these are ISO weeks
    week = (series.week_end.astype(np.int64) + 3) // 7
    keep = np.append(week[1:] != week[:-1], True)
    return PriceSeries(series.asset_id, series.week_end[keep],
                       series.close[keep])


def parse_prices(source: TextSource, *, resample: bool = False,
                 asset_id: str = "asset") -> PriceSeries:
    """Parse `date,close` CSV into a weekly PriceSeries.

    Rows are weekly bars, or with `resample` trading days, collapsed to
    the last close of each ISO week. Rows must be in strictly increasing
    date order either way.
    """
    series = _parse(source, asset_id, PriceSeries)
    return _weekly(series) if resample else series


def to_displacements(series: PriceSeries) -> DisplacementSeries:
    """Weekly displacements x = close[i+1]/close[i] - 1, dated by the
    later week; each week opens at the prior week's close."""
    x_a, x_b = series.close[:-1], series.close[1:]
    with np.errstate(over="ignore"):  # DisplacementSeries rejects inf
        return DisplacementSeries(series.asset_id, series.week_end[1:], x_a,
                                  x_b, x_b / x_a - 1.0)


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
    return _parse(source, asset_id, DisplacementSeries)


def parse_series(source: TextSource, *, resample: bool = False,
                 asset_id: str = "asset") -> DisplacementSeries:
    """Displacements from CSV of either schema, chosen by its header:
    `week_end,x_a,x_b,ratio` rows as they are, or `date,close` prices
    (resampled as parse_prices does) through to_displacements."""
    series = _parse(source, asset_id, DisplacementSeries, PriceSeries)
    if isinstance(series, PriceSeries):
        series = to_displacements(_weekly(series) if resample else series)
    return series


def _cells(column: np.ndarray) -> list[str]:
    """The CSV text of each value: ISO days for dates, repr for floats."""
    if column.dtype.kind == "M":
        return np.datetime_as_string(column, unit="D").tolist()
    return list(map(repr, column.tolist()))


def _write_rows(fh: IO[str], header, columns, cells, json=False) -> None:
    """The rows of a table, _ROWS at a time: one row per index of the
    `columns`, and cells(rows) the text of each column over the slice
    `rows`. The two forms differ only in the row template and in the text
    before, between and after the rows.

    csv: a header row, then the cells joined by commas and the rows by
    newlines. No cell holds a comma, quote, CR or LF, so these are the
    rows csv.writer would write.
    JSON: the list of one object per row, keyed by the header, that
    json.dumps(..., indent=2) writes as a member of a member of the top
    object: a date column's cells (ISO days) are strings, and the others
    (float reprs) numbers, as json writes finite floats."""
    head, row, sep, end = ",".join(header) + "\n", ",".join, "\n", "\n"
    if json:
        head, sep, end = "[", ",", "\n    ]"
        row = ("\n      {" + ",".join(f'\n        "{name}": ' + (
            '"%s"' if c.dtype.kind == "M" else "%s")
            for name, c in zip(header, columns)) + "\n      }").__mod__
    for start in range(0, columns[0].size, _ROWS):
        block = map(row, zip(*cells(slice(start, start + _ROWS))))
        fh.write((sep if start else head) + sep.join(block))
    # no rows: the csv header alone, or JSON's empty list []
    fh.write(end if columns[0].size else head + end.lstrip())


def _write(fh: IO[str], header, *columns: np.ndarray, json=False) -> None:
    """A header row, then one row per index of the columns, dates written
    as ISO days and floats with repr; with `json`, the same rows as a JSON
    list (see _write_rows)."""
    _write_rows(fh, header, columns,
                lambda rows: [_cells(c[rows]) for c in columns], json)


def write_prices(series: PriceSeries, fh: IO[str], json=False) -> None:
    _write(fh, PriceSeries.header, series.week_end, series.close, json=json)


def write_displacements(series: DisplacementSeries, fh: IO[str],
                        json=False) -> None:
    week_end, x_a, x_b, ratio = (series.week_end, series.x_a, series.x_b,
                                 series.ratio)
    # prices are positive, so equal values have equal bits and reprs
    if not np.array_equal(x_a[1:], x_b[:-1]):
        return _write(fh, series.header, week_end, x_a, x_b, ratio, json=json)
    # chained: each week opens at the prior close, so the reprs of the
    # closes serve both price columns
    closes = np.append(x_a[:1], x_b)

    def cells(rows):
        close = _cells(closes[rows.start:rows.stop + 1])
        return _cells(week_end[rows]), close[:-1], close[1:], _cells(
            ratio[rows])

    _write_rows(fh, series.header, (week_end, x_a, x_b, ratio), cells, json)

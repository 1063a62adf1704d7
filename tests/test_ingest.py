"""Ingestion: parsing, validation, resampling, windowing, round trips."""

import csv
import datetime as dt
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscmarkets import ingest
from oscmarkets.errors import DataError
from oscmarkets.synth import SynthSpec, sample_displacements
from oscmarkets.ingest import (
    DisplacementSeries,
    PriceSeries,
    parse_displacements,
    parse_prices,
    parse_series,
    to_displacements,
    window,
    write_displacements,
    write_prices,
)

WEEKLY_MIN = "date,close\n1980-06-20,100\n1980-06-27,110\n"


def weekly_csv(closes, start="2001-01-05"):
    day = dt.date.fromisoformat(start)
    lines = ["date,close"]
    for c in closes:
        lines.append(f"{day.isoformat()},{c!r}")
        day += dt.timedelta(days=7)
    return "\n".join(lines) + "\n"


def assert_same_series(a, b):
    """Same type, asset and columns, dates and floats bit for bit."""
    assert type(a) is type(b) and a.asset_id == b.asset_id
    names = (("week_end", "close") if isinstance(a, PriceSeries)
             else ("week_end", "x_a", "x_b", "ratio"))
    for name in names:
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), name


def increasing_days(min_size):
    """Strictly increasing datetime64[D] arrays that start in the last
    weeks of a random year, so most cross a year end and some an ISO
    week 53."""
    epoch = dt.date(1970, 1, 1).toordinal()
    starts = st.tuples(st.integers(1, 9998), st.integers(0, 30)).map(
        lambda p: dt.date(p[0], 12, 31).toordinal() - epoch - p[1])
    gaps = st.lists(st.integers(1, 9), min_size=min_size - 1, max_size=40)
    return st.tuples(starts, gaps).map(lambda p: np.array(
        p[0] + np.cumsum([0] + p[1]), dtype="datetime64[D]"))


class TestParsePrices:
    def test_minimal(self):
        s = parse_prices(WEEKLY_MIN)
        assert len(s) == 2
        assert s.week_end[0] == np.datetime64("1980-06-20")
        assert s.close[0] == 100.0
        assert s.unit == "1 trading week"

    def test_accepts_bytes_and_filelike(self):
        assert len(parse_prices(WEEKLY_MIN.encode())) == 2
        assert len(parse_prices(io.StringIO(WEEKLY_MIN))) == 2

    def test_byte_order_mark_ignored(self):
        plain = parse_prices(WEEKLY_MIN)
        for source in (b"\xef\xbb\xbf" + WEEKLY_MIN.encode(),
                       "\ufeff" + WEEKLY_MIN,
                       io.StringIO("\ufeff" + WEEKLY_MIN)):
            assert_same_series(parse_prices(source), plain)

    def test_invalid_utf8_rejected(self):
        with pytest.raises(DataError, match="UTF-8"):
            parse_prices(WEEKLY_MIN.encode() + b"\xff\n")

    def test_extra_columns_ignored(self):
        text = ("date,open,close,volume\n"
                "1980-06-20,99,100,123\n1980-06-27,101,110,456\n")
        s = parse_prices(text)
        assert s.close.tolist() == [100.0, 110.0]

    def test_empty_body(self):
        with pytest.raises(DataError, match="no rows"):
            parse_prices("")
        with pytest.raises(DataError, match="no rows"):
            parse_prices("date,close\n")

    def test_missing_column(self):
        with pytest.raises(DataError, match="close"):
            parse_prices("date,price\n1980-06-20,100\n")

    def test_malformed_row_reports_line(self):
        text = "date,close\n1980-06-20,100\n1980-06-27,ten\n"
        with pytest.raises(DataError, match="line 3"):
            parse_prices(text)
        text = "date,close\n1980-06-20,100\nJune 27,110\n"
        with pytest.raises(DataError, match="line 3"):
            parse_prices(text)

    def test_nonpositive_close(self):
        with pytest.raises(DataError, match="non-positive"):
            parse_prices("date,close\n1980-06-20,100\n1980-06-27,0\n")

    def test_duplicate_date(self):
        text = "date,close\n1980-06-20,100\n1980-06-20,110\n"
        with pytest.raises(DataError, match="duplicate"):
            parse_prices(text)

    def test_out_of_order(self):
        text = "date,close\n1980-06-27,100\n1980-06-20,110\n"
        with pytest.raises(DataError, match="not after"):
            parse_prices(text)

    def test_one_point_rejected(self):
        with pytest.raises(DataError, match="at least 2"):
            parse_prices("date,close\n1980-06-20,100\n")


class TestDailyResampling:
    def test_one_week_collapses_to_friday(self):
        text = ("date,close\n"
                "2001-01-01,10\n2001-01-02,11\n2001-01-03,12\n"
                "2001-01-04,13\n2001-01-05,14\n"
                "2001-01-08,20\n2001-01-09,21\n")
        s = parse_prices(text, resample=True)
        assert list(zip(s.week_end.tolist(), s.close.tolist())) == [
            (dt.date(2001, 1, 5), 14.0),
            (dt.date(2001, 1, 9), 21.0),
        ]

    def test_partial_week_keeps_last_trading_day(self):
        # Thursday is the last close of the first ISO week
        text = ("date,close\n"
                "2001-01-02,11\n2001-01-04,13\n"
                "2001-01-08,20\n2001-01-12,24\n")
        s = parse_prices(text, resample=True)
        assert s.week_end[0] == np.datetime64("2001-01-04")
        assert s.close[0] == 13.0

    def test_weekly_input_idempotent(self):
        text = weekly_csv([100.0, 101.5, 99.25, 103.0])
        direct = parse_prices(text)
        through = parse_prices(text, resample=True)
        assert_same_series(direct, through)

    def test_iso_week_boundary_sunday_monday(self):
        # Sunday 2001-01-07 is ISO week 1, Monday 2001-01-08 week 2
        text = "date,close\n2001-01-07,10\n2001-01-08,20\n"
        s = parse_prices(text, resample=True)
        assert len(s) == 2

    def test_iso_week_53_and_year_end(self):
        # 2004-12-27..2005-01-02 is ISO week 2004-W53; 2008-12-29 opens
        # ISO 2009-W01 while still in calendar 2008
        text = ("date,close\n"
                "2004-12-27,1\n2004-12-31,2\n2005-01-02,3\n2005-01-03,4\n"
                "2008-12-28,5\n2008-12-29,6\n2009-01-02,7\n")
        s = parse_prices(text, resample=True)
        assert s.close.tolist() == [3.0, 4.0, 5.0, 7.0]


class TestToDisplacements:
    def test_direct_arithmetic(self):
        s = parse_prices(weekly_csv([100.0, 110.0, 99.0]))
        d = to_displacements(s)
        assert d.ratios() == pytest.approx([0.10, -0.10], rel=1e-12)
        assert len(d) == len(s) - 1

    def test_constant_series(self):
        d = to_displacements(parse_prices(weekly_csv([50.0, 50.0, 50.0])))
        assert d.ratios().tolist() == [0.0, 0.0]

    def test_crash_week_ratio(self):
        d = to_displacements(parse_prices(weekly_csv([1099.23, 899.22])))
        assert d.ratios()[0] == pytest.approx(-0.1819546409759559, rel=1e-14)

    def test_dated_by_later_week(self):
        s = parse_prices(weekly_csv([100.0, 110.0], start="2001-01-05"))
        d = to_displacements(s)
        assert d.week_end[0] == np.datetime64("2001-01-12")

    def test_chaining_identity(self):
        d = to_displacements(parse_prices(weekly_csv(
            [100.0, 104.2, 101.7, 108.3, 95.0])))
        assert d.x_a[1:].tolist() == d.x_b[:-1].tolist()


class TestWindow:
    def make(self, n):
        return to_displacements(parse_prices(weekly_csv(
            [100.0 + i for i in range(n + 1)])))

    def test_first_hundred(self):
        d = self.make(150)
        w = window(d, 0, 100)
        assert len(w) == 100
        assert_same_series(w, DisplacementSeries(
            d.asset_id, d.week_end[:100], d.x_a[:100], d.x_b[:100],
            d.ratio[:100]))

    def test_identity(self):
        d = self.make(10)
        assert_same_series(window(d, 0, len(d)), d)

    def test_interior(self):
        d = self.make(10)
        w = window(d, 3, 4)
        assert_same_series(w, DisplacementSeries(
            d.asset_id, d.week_end[3:7], d.x_a[3:7], d.x_b[3:7],
            d.ratio[3:7]))

    @pytest.mark.parametrize("start, count", [(5, 10), (-1, 3), (0, 0),
                                              (0, 11)])
    def test_out_of_range(self, start, count):
        with pytest.raises(DataError):
            window(self.make(10), start, count)


class TestSeriesInvariants:
    def test_unchained_series_allowed(self):
        # synthetic series fabricate endpoints per entry, so the type
        # accepts them; chaining is guaranteed only by to_displacements
        good = to_displacements(parse_prices(weekly_csv([100.0, 110.0, 99.0])))
        s = DisplacementSeries("x", good.week_end, [100.0, 100.0],
                               [good.x_b[0], 90.0],
                               [good.ratio[0], 90.0 / 100.0 - 1.0])
        assert len(s) == 2

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty"):
            DisplacementSeries("x", [], [], [], [])

    def test_price_series_needs_increasing_dates(self):
        with pytest.raises(DataError, match="not after"):
            PriceSeries("x", ["2001-01-12", "2001-01-05"], [10.0, 11.0])
        with pytest.raises(DataError, match="duplicate"):
            DisplacementSeries("x", ["2001-01-05", "2001-01-05"], [1.0, 1.0],
                               [1.0, 1.0], [0.0, 0.0])

    def test_columns_must_match(self):
        with pytest.raises(DataError, match="equal length"):
            PriceSeries("x", ["2001-01-05", "2001-01-12"], [10.0])
        with pytest.raises(DataError, match="1-D"):
            PriceSeries("x", [["2001-01-05", "2001-01-12"]], [[1.0, 2.0]])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_price_series_needs_positive_finite_closes(self, bad):
        with pytest.raises(DataError, match="close"):
            PriceSeries("x", ["2001-01-05", "2001-01-12"], [10.0, bad])

    def test_columns_are_read_only_copies(self):
        close = np.array([10.0, 11.0])
        s = PriceSeries("x", ["2001-01-05", "2001-01-12"], close)
        close[0] = -1.0
        assert s.close[0] == 10.0
        with pytest.raises(ValueError):
            s.close[0] = -1.0
        with pytest.raises(ValueError):
            to_displacements(s).ratio[0] = 0.5


class TestRoundTrips:
    def test_closes_reconstructable_from_ratios(self):
        closes = [100.0, 104.25, 96.8, 121.77, 118.0, 119.5]
        d = to_displacements(parse_prices(weekly_csv(closes)))
        rebuilt = [closes[0]]
        for r in d.ratios():
            rebuilt.append(rebuilt[-1] * (1.0 + r))
        for got, want in zip(rebuilt, closes):
            assert abs(got - want) <= 1e-10 * want

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_price_csv_round_trip(self, data):
        days = data.draw(increasing_days(min_size=2))
        closes = data.draw(st.lists(
            st.floats(min_value=1e-300, max_value=1e300), min_size=len(days),
            max_size=len(days)))
        s = PriceSeries("asset", days, closes)
        buf = io.StringIO()
        write_prices(s, buf)
        assert_same_series(parse_prices(buf.getvalue()), s)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_displacement_csv_round_trip(self, data):
        days = data.draw(increasing_days(min_size=2))
        closes = data.draw(st.lists(
            st.floats(min_value=1e-3, max_value=1e6), min_size=len(days),
            max_size=len(days)))
        d = to_displacements(PriceSeries("asset", days, closes))
        buf = io.StringIO()
        write_displacements(d, buf)
        assert_same_series(parse_displacements(buf.getvalue()), d)

    def test_displacement_csv_header(self):
        d = to_displacements(parse_prices(WEEKLY_MIN))
        buf = io.StringIO()
        write_displacements(d, buf)
        assert buf.getvalue().splitlines()[0] == "week_end,x_a,x_b,ratio"

    def test_parse_displacements_rejects_inconsistent_ratio(self):
        text = ("week_end,x_a,x_b,ratio\n"
                "2001-01-12,100.0,110.0,0.2\n")
        with pytest.raises(DataError, match="line 2"):
            parse_displacements(text)


def reference_csv(header, *columns):
    """The table csv.writer writes from the same cells as ingest._write."""
    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*(
        np.datetime_as_string(c, unit="D").tolist() if c.dtype.kind == "M"
        else map(repr, c.tolist()) for c in columns)))
    return fh.getvalue()


EDGE_FLOATS = (0.0, -0.0, 5e-324, -2.2250738585072e-308, 1e16, 1e-7,
               1.7976931348623157e308, -1.7976931348623157e308)


@st.composite
def table_columns(draw):
    """1 to 4 equal-length columns, each of days (NaT among them) or of
    float64 values (edge values, inf and nan among them)."""
    n = draw(st.integers(0, 24))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            days = draw(st.lists(st.integers(-800_000, 3_000_000),
                                 min_size=n, max_size=n))
            column = np.array(days, dtype="datetime64[D]")
            if n and draw(st.booleans()):
                column[draw(st.integers(0, n - 1))] = np.datetime64("NaT")
        else:
            column = np.array(draw(st.lists(
                st.floats() | st.sampled_from(EDGE_FLOATS),
                min_size=n, max_size=n)), dtype=np.float64)
        columns.append(column)
    return columns


def written(write, *args):
    fh = io.StringIO()
    write(*args, fh)
    return fh.getvalue()


class TestWriterMatchesCsvModule:
    """_write's bytes against csv.writer over the same cells, with tables
    longer than _ROWS, so that every row count splits into chunks."""

    @settings(max_examples=40, deadline=None)
    @given(table_columns(), st.sampled_from((1, 3, ingest._ROWS)))
    def test_columns(self, columns, rows):
        header = [f"c{i}" for i in range(len(columns))]
        fh = io.StringIO()
        with mock.patch.object(ingest, "_ROWS", rows):
            ingest._write(fh, header, *columns)
        assert fh.getvalue() == reference_csv(header, *columns)

    @settings(max_examples=30, deadline=None)
    @given(st.data(), st.sampled_from((1, 3, ingest._ROWS)))
    def test_displacements(self, data, rows):
        days = data.draw(increasing_days(min_size=2))
        closes = data.draw(st.lists(
            st.floats(min_value=1e-3, max_value=1e6), min_size=len(days),
            max_size=len(days)))
        chained = to_displacements(PriceSeries("asset", days, closes))
        # one opening price moved by an ulp: past the first week, the
        # series no longer chains there
        k = data.draw(st.integers(0, len(chained) - 1))
        x_a = chained.x_a.copy()
        x_a[k] = np.nextafter(x_a[k], np.inf)
        broken = DisplacementSeries("asset", chained.week_end, x_a,
                                    chained.x_b, chained.x_b / x_a - 1.0)
        with mock.patch.object(ingest, "_ROWS", rows):
            for d in (chained, broken):
                assert written(write_displacements, d) == reference_csv(
                    DisplacementSeries.header, d.week_end, d.x_a, d.x_b,
                    d.ratio)

    def test_synthetic_displacements(self):
        d = sample_displacements(SynthSpec(m=977.73, n=300, seed=4))
        assert not np.array_equal(d.x_a[1:], d.x_b[:-1])
        assert written(write_displacements, d) == reference_csv(
            DisplacementSeries.header, d.week_end, d.x_a, d.x_b, d.ratio)

    def test_prices(self):
        s = parse_prices(weekly_csv([100.0, 104.25, 5e-324, 1e16]))
        assert written(write_prices, s) == reference_csv(
            PriceSeries.header, s.week_end, s.close)


class TestResamplerMatchesIsoCalendar:
    @settings(max_examples=200, deadline=None)
    @given(increasing_days(min_size=2))
    def test_keeps_last_day_of_each_iso_week(self, days):
        dates = days.tolist()
        weeks = [d.isocalendar()[:2] for d in dates]
        keep = [i for i in range(len(dates))
                if i + 1 == len(dates) or weeks[i + 1] != weeks[i]]
        if len(keep) < 2:
            return  # a single week is not a price series
        closes = np.arange(1.0, len(dates) + 1.0)
        text = "date,close\n" + "".join(
            f"{d.isoformat()},{c!r}\n" for d, c in zip(dates, closes.tolist()))
        s = parse_prices(text, resample=True)
        assert s.week_end.tolist() == [dates[i] for i in keep]
        assert s.close.tolist() == closes[keep].tolist()


def both_paths(text, *classes):
    """The columns of `text` from the column pass (None where it declines)
    and a thunk for those of the per-cell path, each called directly."""
    reader = csv.reader(ingest._lines(text))
    cls, width, idx = ingest._header(reader, classes or (PriceSeries,))
    fast = ingest._plain_columns(text, reader.line_num, width, idx)
    return fast, lambda: ingest._cell_columns(reader, width, idx, cls.header)


def assert_same_columns(fast, slow):
    """Line numbers equal, dates and floats bit for bit."""
    assert fast is not None
    assert list(fast[0]) == slow[0]
    for got, want in zip(fast[1:], slow[1:]):
        want = np.asarray(want, dtype=got.dtype)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def plain_csv(draw):
    """Plain CSV text of either schema: comment and blank lines before
    the header, header names in any case and order, extra columns (a `#`
    in the first makes a comment row), repr floats, and a final newline
    or none."""
    cls = draw(st.sampled_from((PriceSeries, DisplacementSeries)))
    names = list(cls.header) + draw(st.lists(
        st.sampled_from(("open", "volume", "note")), max_size=2))
    names = draw(st.permutations(names))
    days = np.datetime_as_string(draw(increasing_days(min_size=1)))
    rows = [",".join(draw(st.sampled_from((str.upper, str.title, str)))(n)
                     for n in names)]
    for day in days.tolist():
        cells = {n: repr(draw(FINITE)) for n in cls.header[1:]}
        cells[cls.header[0]] = day
        rows.append(",".join(cells.get(n, draw(st.sampled_from(
            ("", "x", "1.5", " 7 ", "#x", " #7", "\udcff")))) for n in names))
    head = draw(st.lists(st.sampled_from(("", "# config: m=1", "  # note",
                                          ",,", "#,a,b")), max_size=3))
    end = draw(st.sampled_from(("\n", "")))
    return cls, "\n".join(head + rows) + end


class TestColumnPass:
    """The whole-column pass against the per-cell reference."""

    @settings(max_examples=50, deadline=None)
    @given(plain_csv(), st.sampled_from((16, 64, ingest._CHUNK)))
    def test_matches_per_cell_path(self, case, chunk):
        cls, text = case
        with mock.patch.object(ingest, "_CHUNK", chunk):
            fast, slow = both_paths(text, cls)
        if fast is None:
            # the one form here the column pass leaves to the cell path
            assert any(line.lstrip().startswith("#")
                       for line in text.split("\n")[1:])
        else:
            assert_same_columns(fast, slow())

    @settings(max_examples=40, deadline=None)
    @given(st.text(st.sampled_from("ab,\n\r\"")), st.integers(1, 8))
    def test_lines_split_as_stringio(self, text, chunk):
        with mock.patch.object(ingest, "_CHUNK", chunk):
            assert list(ingest._lines(text)) == list(io.StringIO(text))

    def test_python_float_forms_taken_whole(self):
        text = "date,close\n2001-01-05,1_000\n2001-01-12, 12 \n"
        fast, slow = both_paths(text)
        assert_same_columns(fast, slow())
        assert fast[2].tolist() == [1000.0, 12.0]

    @pytest.mark.parametrize("body", [
        "2001-01-05,100\n\n2001-01-12,110\n",
        "2001-01-05,100\n# echo\n2001-01-12,110\n",
        "2001-01-05,100\n2001-01-12,110\n\n",
        "2001-01-05,100\n2001-01-12,110,7\n",
        " 2001-01-05,100\n2001-01-12,110\n",
    ])
    def test_declined_but_valid(self, body):
        # forms the per-cell path reads but the column pass leaves to it
        assert both_paths("date,close\n" + body)[0] is None
        assert parse_prices("date,close\n" + body).close.tolist() == [
            100.0, 110.0]

    def test_comment_row_in_extra_first_column(self):
        text = "ticker,date,close\nSPX,2001-01-05,100\n#SPX,2001-01-12,105\n" \
            " #SPX,2001-01-19,107\nSPX,2001-01-26,110\n"
        assert both_paths(text)[0] is None
        assert parse_prices(text).close.tolist() == [100.0, 110.0]

    def test_lone_surrogate(self):
        # a stray byte read from stdin under the surrogateescape handler
        text = "note,date,close\n\udcff,2001-01-05,100\nx,2001-01-12,110\n"
        fast, slow = both_paths(text)
        assert_same_columns(fast, slow())
        text = "date,close\n2001-01-05,100\n2001-01-12,1\udcff0\n"
        assert both_paths(text)[0] is None
        with pytest.raises(DataError) as exc:
            parse_prices(text)
        assert str(exc.value) == r"line 3: bad close '1\udcff0'"

    @pytest.mark.parametrize("text", [
        'date,close\n2001-01-05,"100"\n2001-01-12,110\n',
        "date,close\r\n2001-01-05,100\r\n2001-01-12,110\r\n",
    ])
    def test_quoted_and_crlf_read_per_cell(self, text):
        with mock.patch.object(ingest, "_plain_columns") as plain:
            assert parse_prices(text).close.tolist() == [100.0, 110.0]
        plain.assert_not_called()

    @pytest.mark.parametrize("body, message", [
        ("0000-01-07,100\n2001-01-12,110\n", "line 3: bad date '0000-01-07'"),
        ("2001-01-05,100\n2020-01,110\n", "line 4: bad date '2020-01'"),
        ("2001-01-05,100\n2001-02-30,110\n",
         "line 4: bad date '2001-02-30'"),
        # forms date.fromisoformat takes from Python 3.11 on
        ("20010105,100\n2001-01-12,110\n", "line 3: bad date '20010105'"),
        ("2001-W02-5,100\n2001-01-19,110\n",
         "line 3: bad date '2001-W02-5'"),
        ("2001-01-05,100\nNaT,110\n", "line 4: bad date 'NaT'"),
        ("2001-01-05,100\n2001-01-12\n", "line 4: expected 2 fields, got 1"),
        # the cells of these two lines, run together, would read as two
        # good rows: only a per-line count of commas tells them apart
        ("2001-01-05\n7,2001-01-12,110\n", "line 3: expected 2 fields, got 1"),
        ("2001-01-05,100\n2001-01-12,nan\n",
         "line 4: non-finite close 'nan'"),
        ("2001-01-05,inf\n2001-01-12,110\n",
         "line 3: non-finite close 'inf'"),
        ("2001-01-05,100\n2001-01-12,1e999\n",
         "line 4: non-finite close '1e999'"),
    ])
    def test_rejected_with_per_cell_message(self, body, message):
        text = "# echo\ndate,close\n" + body
        assert both_paths(text)[0] is None
        with pytest.raises(DataError) as exc:
            parse_prices(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("cls, text, message", [
        (PriceSeries, "2001-01-05,100\n2001-01-05,110\n",
         "line 4: duplicate date 2001-01-05"),
        (PriceSeries, "2001-01-05,100\n2001-01-12,-1\n",
         "line 4: non-positive close -1.0"),
        (DisplacementSeries, "2001-01-05,100,110,0.2\n",
         "line 3: ratio 0.2 inconsistent with endpoints (100.0, 110.0) "
         "implying 0.10000000000000009"),
        # x_b / x_a overflows: an infinite implied ratio matches no ratio
        (DisplacementSeries, "2001-01-05,1e-300,1e300,5.0\n",
         "line 3: ratio 5.0 inconsistent with endpoints (1e-300, 1e+300) "
         "implying inf"),
    ])
    def test_row_error_names_input_line(self, cls, text, message):
        text = "# echo\n" + ",".join(cls.header) + "\n" + text
        assert both_paths(text, cls)[0] is not None
        with pytest.raises(DataError) as exc:
            ingest._parse(text, "asset", cls)
        assert str(exc.value) == message


class TestParseSeries:
    def test_header_picks_schema(self):
        prices = weekly_csv([100.0, 110.0, 99.0])
        d = to_displacements(parse_prices(prices))
        assert_same_series(parse_series(prices), d)
        buf = io.StringIO()
        write_displacements(d, buf)
        assert_same_series(parse_series(buf.getvalue()), d)

    def test_resample(self):
        text = "date,close\n2001-01-01,10\n2001-01-05,14\n2001-01-08,20\n"
        assert parse_series(text, resample=True).ratio.tolist() == [
            20.0 / 14.0 - 1.0]

    @pytest.mark.parametrize("text, message", [
        ("", "no rows: input is empty"),
        ("date,price\n2001-01-05,100\n", "unrecognized input header"),
        ("week_end,x_a,x_b\n2001-01-05,1,2\n",
         "unrecognized input header")])
    def test_rejected(self, text, message):
        with pytest.raises(DataError, match=message):
            parse_series(text)

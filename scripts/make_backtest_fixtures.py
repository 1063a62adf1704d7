"""Generate the backtest price fixtures under tests/data/.

Training window: 100 ladder displacements at m0 = 900 whose empirical
survival matches the tail law exactly, chained into closes from 100.0.
The crash close two years later is sized off the FITTED coefficient:

  quiet fixture:  |crash move| = 0.64 * R(m_hat) * prior  -> ratio 1.5625
  crash fixture:  |crash move| = 1.10 * R(m_hat) * prior  -> violated

The committed fixtures are frozen inputs, made with an earlier fit. The
current fit resolves m_hat only to within its noise band, so against it
the quiet ratio holds 1.5625 to within that band, as
tests/test_backtest.py::test_quiet_fixture_not_violated checks, not
exactly. Do not rerun this to refresh them: it overwrites
tests/data/backtest_quiet.csv and backtest_crash.csv with a different
crash row (the quiet close 77.21673672170098 becomes 77.21673670823651),
which moves the CLI digest of scripts/digest.py.
"""

import datetime as dt
import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from oscmarkets.estimate import fit_m_hat
from oscmarkets.ingest import parse_prices, to_displacements
from oscmarkets.model import OscillatorParams, extreme_displacement
from oscmarkets.specfun import erfc_inv

M0 = 900.0
N = 100
START = dt.date(2001, 1, 5)
CRASH_GAP_DAYS = 731  # ~2.0 years after the last training week
DATA = pathlib.Path(__file__).resolve().parents[1] / "tests" / "data"


def ladder_ratios(m0, n, t=1.0):
    scale = math.sqrt(2.0 * t / m0)
    out = []
    for k in range(1, n + 1):
        u = (n - k + 1) / n
        mag = 0.0 if u == 1.0 else scale * erfc_inv(math.sqrt(u))
        out.append(mag if k % 2 else -mag)
    return out


def main():
    closes = [100.0]
    for r in ladder_ratios(M0, N):
        closes.append(closes[-1] * (1.0 + r))
    dates = [START + dt.timedelta(days=7 * i) for i in range(len(closes))]

    rows = "".join(f"{d.isoformat()},{c!r}\n" for d, c in zip(dates, closes))
    train_csv = "date,close\n" + rows
    series = parse_prices(train_csv, asset_id="fixture")
    fit = fit_m_hat(to_displacements(series))
    r_hat = extreme_displacement(OscillatorParams(m=fit.m_hat))
    print(f"fitted m_hat={fit.m_hat!r} r2={fit.r2!r} R={r_hat!r}")

    prior = closes[-1]
    crash_date = dates[-1] + dt.timedelta(days=CRASH_GAP_DAYS)
    for name, factor in (("backtest_quiet.csv", 0.64),
                         ("backtest_crash.csv", 1.10)):
        crash_close = prior * (1.0 - factor * r_hat)
        text = train_csv + f"{crash_date.isoformat()},{crash_close!r}\n"
        (DATA / name).write_text(text, encoding="utf-8")
        print(f"wrote {name}: crash close {crash_close!r}")


if __name__ == "__main__":
    main()

"""Print one SHA-256 digest of the CLI's output over a fixed command matrix.

Every command runs in-process through oscmarkets.cli.main: each subcommand
in each --format and --emit on the backtest fixtures of tests/data and on a
small daily price file written here, plus estimate --grid 10:100:50 and
5000:9000:50 (grid-edge hits that warn on stderr), a few failing commands
and one `synth | estimate --stdin` pipe. Last, a config file sets every
config key, and each subcommand runs under it in each --format with none
of the flags those keys stand for, then once with some overridden. The
digest covers repr((argv, exit code, stdout, stderr)) of every command in
order, so two source trees give the same digest exactly when the CLI
writes the same bytes and exits the same way on all of them.

The commands run in a temporary directory holding copies of the fixtures
under the same relative paths, so the `# config:` echo of each input path
does not depend on where the checkout lives. OPENBLAS_NUM_THREADS is set
to 1 unless already set.

The digest depends on the numpy and BLAS build and on the CPU (the SIMD
paths of exp and sqrt, the BLAS kernels), so it compares two commits on
one machine only; it is not a portable reference value.

    python scripts/cli_digest.py            # this checkout's src/
    python scripts/cli_digest.py OTHER/src  # another checkout's src/
"""

import datetime as dt
import hashlib
import io
import os
import pathlib
import random
import shutil
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ROOT / "src")
sys.path.insert(0, str(SRC.resolve()))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from oscmarkets import cli  # noqa: E402

FIXTURES = ("tests/data/backtest_quiet.csv", "tests/data/backtest_crash.csv")
DAILY = "daily.csv"
FORMATS = ("text", "csv", "structured")
FIRST_MONDAY = dt.date(2001, 1, 1)


def write_daily(path: pathlib.Path, weeks: int = 60) -> str:
    """Weekday closes over `weeks` ISO weeks; returns a crash-week date."""
    rng = random.Random(7)
    close, rows = 1000.0, []
    for day in range(7 * weeks):
        date = FIRST_MONDAY + dt.timedelta(days=day)
        if date.weekday() < 5:
            close *= 1.0 + rng.gauss(0.0, 0.01)
            rows.append(f"{date.isoformat()},{close:.2f}\n")
    path.write_text("date,close\n" + "".join(rows))
    # displacement k ends on the Friday of week k + 1
    return (FIRST_MONDAY + dt.timedelta(days=4, weeks=51)).isoformat()


def commands(crash_week: str):
    """(argv, stdin text or None, environment) of every command, in order."""
    quiet, crash = FIXTURES
    daily = ("--input", DAILY, "--resample", "daily-to-weekly")
    for fmt in FORMATS:
        f = ("--format", fmt)
        for emit in ("prices", "displacements"):
            for source in FIXTURES:
                yield ["ingest", "--input", source, *f, "--emit", emit]
            yield ["ingest", *daily, *f, "--emit", emit]
        for emit in ("table", "grid"):
            yield ["estimate", "--input", quiet, "--window", "0:100", *f,
                   "--emit", emit]
            yield ["estimate", *daily, *f, "--emit", emit]
        yield ["estimate", "--input", quiet, "--window", "0:100",
               "--grid", "10:100:50", *f]
        yield ["synth", "--m", "977.73", "--n", "50", "--seed", "3", *f]
        yield ["predict", "--m-hat", "977.73", "--prior-close", "1099.23",
               "--t", "2", *f]
        for source in FIXTURES:
            yield ["backtest", "--input", source, "--crash-week",
                   "2004-12-06", *f]
        yield ["backtest", *daily, "--window", "0:40", "--crash-week",
               crash_week, "--grid", "100:100000:300", *f]
    yield ["estimate", "--input", quiet, "--window", "0:100",
           "--grid", "5000:9000:50", "--emit", "grid", "--format", "csv"]
    yield ["backtest", "--input", crash, "--crash-week", "2004-12-06",
           "--grid", "10:100:50"]
    yield ["estimate", "--input", "no-such.csv"]
    yield ["estimate", "--stdin", "--input", quiet]
    yield ["predict", "--m-hat", "977.73"]
    yield ["synth", "--m", "0.1", "--n", "50"]
    yield ["backtest", "--input", quiet, "--window", "0:200",
           "--crash-week", "2004-12-06"]


def run(argv, stdin=None):
    """One in-process CLI run: (exit code, stdout, stderr)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        code = cli.main(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


def main() -> None:
    digest = hashlib.sha256()

    def record(argv, stdin=None):
        result = run(argv, stdin)
        digest.update(repr((argv, *result)).encode())
        return result

    cwd = os.getcwd()
    saved_config = os.environ.pop(cli.CONFIG_ENV, None)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            os.chdir(tmp)
            for name in FIXTURES:
                pathlib.Path(name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(ROOT / name, name)
            crash_week = write_daily(pathlib.Path(DAILY))
            for argv in commands(crash_week):
                record(argv)
            _, synth_out, _ = record(["synth", "--m", "977.73", "--n", "100",
                                      "--seed", "1"])
            for fmt in FORMATS:
                record(["estimate", "--stdin", "--format", fmt], synth_out)
            pathlib.Path("osc.cfg").write_text(
                "t = 2\ntrain_count = 80\ngrid = 100:5000:40\nseed = 5\n"
                "crash_week = 2004-12-06\nprior_close = 1099.23\n"
                "m_hat = 977.73\n")
            os.environ[cli.CONFIG_ENV] = "osc.cfg"
            for fmt in FORMATS:
                f = ("--format", fmt)
                record(["ingest", "--input", FIXTURES[0], *f])
                record(["estimate", "--input", FIXTURES[0], *f])
                record(["synth", "--m", "977.73", "--n", "50", *f])
                record(["predict", *f])
                record(["backtest", "--input", FIXTURES[1], *f])
            record(["backtest", "--input", FIXTURES[0], "--crash-week",
                    "2004-12-06", "--t", "1", "--window", "0:100",
                    "--format", "csv"])
        finally:
            os.environ.pop(cli.CONFIG_ENV, None)
            if saved_config is not None:
                os.environ[cli.CONFIG_ENV] = saved_config
            os.chdir(cwd)
    print(digest.hexdigest())


if __name__ == "__main__":
    main()

"""Command-line surface: pipelines, config layering, exit codes, echoes."""

import contextlib
import errno
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscmarkets
from oscmarkets.cli import CONFIG_ENV, _TEXT_LABEL, main

DATA = Path(__file__).parent / "data"
QUIET = DATA / "backtest_quiet.csv"
CRASH = DATA / "backtest_crash.csv"


@pytest.fixture(autouse=True)
def no_ambient_config(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV, raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ENTRY = ("-c", "from oscmarkets.cli import run; run()")


def child_env(unbuffered=False, **env):
    """The environment of a CLI child: no config file, this package on the
    path, and a block-buffered stdout unless `unbuffered`, whatever
    PYTHONUNBUFFERED the tests themselves run under."""
    child = {k: v for k, v in os.environ.items()
             if k not in (CONFIG_ENV, "PYTHONUNBUFFERED")}
    child["PYTHONPATH"] = str(Path(oscmarkets.__file__).parents[1])
    if unbuffered:
        child["PYTHONUNBUFFERED"] = "1"
    return {**child, **env}


def run_process(argv, closed=(), stdin=None, stdout=subprocess.PIPE,
                text=True, unbuffered=False, entry=ENTRY, **env):
    """Run the CLI in a fresh interpreter, with the file descriptors in
    `closed` closed and stdout buffered as child_env says; return (code,
    stdout, stderr), as bytes unless text, stdout None unless piped."""
    proc = subprocess.run(
        [sys.executable, *entry, *argv], env=child_env(unbuffered, **env),
        stdin=stdin, stdout=stdout, stderr=subprocess.PIPE, text=text,
        timeout=120, preexec_fn=(lambda: [os.close(fd) for fd in closed])
        if closed else None)
    return proc.returncode, proc.stdout, proc.stderr


def grab(text, key):
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"no {key!r} line in output:\n{text}")


class TestPredict:
    def test_spx_figure(self, capsys):
        code, out, err = run(capsys, "predict", "--m-hat", "977.73",
                             "--prior-close", "1099.23")
        assert code == 0 and err == ""
        assert out.startswith("# config: command=predict")
        assert float(grab(out, "predicted_extreme_points")) == pytest.approx(
            312.37, abs=0.05)

    def test_structured(self, capsys):
        code, out, _ = run(capsys, "predict", "--m-hat", "982.21",
                           "--prior-close", "10325.38",
                           "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["command"] == "predict"
        assert doc["result"]["predicted_extreme_points"] == pytest.approx(
            2927.51, abs=0.5)

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "predict", "--m-hat", "977.73",
                           "--prior-close", "1099.23", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == ("m_hat,t,prior_close,predicted_extreme_ratio,"
                            "predicted_extreme_points")
        assert float(lines[2].split(",")[-1]) == pytest.approx(312.37,
                                                               abs=0.05)

    @staticmethod
    def strict_json(text):
        def reject(constant):
            raise ValueError(f"not JSON: {constant}")
        return json.loads(text, parse_constant=reject)

    def test_bound_is_finite_json(self, capsys):
        code, out, _ = run(capsys, "predict", "--m-hat", "1e-300",
                           "--prior-close", "100", "--format", "structured")
        assert code == 0
        assert self.strict_json(out)["result"]["predicted_extreme_ratio"] \
            == pytest.approx(math.pi * math.sqrt(8e300), rel=1e-14)

    @pytest.mark.parametrize("argv, name", [
        (("--m-hat", "1e-320", "--prior-close", "100"),
         "extreme displacement R"),
        (("--m-hat", "1", "--t", "1e308", "--prior-close", "100"),
         "extreme displacement R"),
        (("--m-hat", "1e-300", "--prior-close", "1e300"),
         "predicted_extreme_points")])
    def test_overflowing_bound_is_numeric_error(self, capsys, argv, name):
        code, out, err = run(capsys, "predict", *argv,
                             "--format", "structured")
        assert (code, out) == (3, "")
        assert err == (f"numeric error: {name} must be finite and > 0, "
                       "got inf\n")

    def test_missing_flags_usage_error(self, capsys):
        code, _, err = run(capsys, "predict", "--m-hat", "977.73")
        assert code == 1
        assert "prior-close" in err

    PREDICT = ("predict", "--m-hat", "977.73", "--prior-close", "1099.23")

    # run()'s exit keeps every byte of a large piped output and each
    # exit status that main() returns
    @pytest.mark.parametrize("module, argv, status", [
        ("oscmarkets", PREDICT, 0),
        ("oscmarkets.cli", PREDICT, 0),
        ("oscmarkets", ("synth", "--m", "977.73", "--n", "200000",
                        "--seed", "1"), 0),
        ("oscmarkets", ("synth", "--m", "977.73", "--n", "0"), 1),
        ("oscmarkets", ("ingest", "--input", "no-such.csv"), 2),
        ("oscmarkets", ("predict", "--m-hat", "1e-300",
                        "--prior-close", "1e300"), 3)],
        ids=["oscmarkets", "oscmarkets.cli", "synth-200000", "exit-1",
             "exit-2", "exit-3"])
    def test_python_m(self, capsys, module, argv, status):
        code, out, err = run(capsys, *argv)
        assert code == status
        assert run_process(argv, entry=("-m", module), text=False) == (
            code, out.encode(), err.encode())


class TestEstimatePipelines:
    def test_prices_input_with_window(self, capsys):
        code, out, err = run(capsys, "estimate", "--input", str(QUIET),
                             "--window", "0:100")
        assert code == 0, err
        assert out.startswith("# config: command=estimate")
        assert float(grab(out, "m_hat")) == pytest.approx(900.0, rel=1e-3)
        assert float(grab(out, "r2")) >= 0.999999

    def test_synth_pipe_closed_loop(self, capsys, monkeypatch):
        # seed 1 is a representative draw; per-seed spread at N=100 is
        # wide, so the +-10% median claim is asserted in the acceptance
        # suite over 50 seeds rather than per seed here
        code, synth_out, _ = run(capsys, "synth", "--m", "977.73",
                                 "--n", "100", "--seed", "1")
        assert code == 0
        assert synth_out.startswith("# config: command=synth")
        monkeypatch.setattr("sys.stdin", io.StringIO(synth_out))
        code, out, err = run(capsys, "estimate", "--stdin")
        assert code == 0, err
        m_hat = float(grab(out, "m_hat"))
        assert abs(m_hat / 977.73 - 1.0) <= 0.10

    @pytest.mark.parametrize("text, message", [
        ("", "no rows: input is empty"),
        ("# only a comment\n\n", "no rows: input is empty"),
        ("date,price\n2001-01-05,100\n", "unrecognized input header: "
         "expected date,close or week_end,x_a,x_b,ratio")])
    def test_stdin_header_rejected(self, capsys, monkeypatch, text, message):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "estimate", "--stdin")
        assert (code, out, err) == (2, "", f"data error: {message}\n")

    def test_stdin_prices_match_file(self, capsys, monkeypatch):
        # the header alone picks the schema: prices on stdin fit as
        # they do from a file
        want = run(capsys, "estimate", "--input", str(QUIET), "--window",
                   "0:100", "--format", "csv")
        monkeypatch.setattr("sys.stdin", io.StringIO(QUIET.read_text()))
        got = run(capsys, "estimate", "--stdin", "--window", "0:100",
                  "--format", "csv")
        assert want[0] == got[0] == 0
        assert got[1].replace("input=-", "input=" + str(QUIET)).replace(
            "asset=stdin", "asset=" + QUIET.stem) == want[1]

    def test_stdin_and_input_conflict(self, capsys):
        code, _, err = run(capsys, "estimate", "--stdin", "--input",
                           str(QUIET))
        assert code == 1
        assert "either" in err

    def test_csv_emits_table(self, capsys):
        code, out, _ = run(capsys, "estimate", "--input", str(QUIET),
                           "--window", "0:100", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1].startswith("# result: m_hat=")
        assert lines[2] == "X,rho,pr"

    def test_csv_emits_grid(self, capsys):
        code, out, _ = run(capsys, "estimate", "--input", str(QUIET),
                           "--window", "0:100", "--format", "csv",
                           "--emit", "grid", "--grid", "500:1500:50")
        assert code == 0
        lines = out.splitlines()
        assert lines[2] == "m_candidate,r2"
        assert len(lines) > 50

    def test_structured(self, capsys):
        code, out, _ = run(capsys, "estimate", "--input", str(QUIET),
                           "--window", "0:100", "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["window"] == "0:100"
        assert doc["result"]["m_hat"] == pytest.approx(900.0, rel=1e-3)
        assert len(doc["result"]["table"]) == 99

    def test_reproducible_outputs(self, capsys, tmp_path):
        # identical invocations (same args, same files) are byte-identical
        target = tmp_path / "report.csv"
        renders = []
        for _ in range(2):
            code, _, _ = run(capsys, "estimate", "--input", str(QUIET),
                             "--window", "0:100", "--format", "csv",
                             "--output", str(target))
            assert code == 0
            renders.append(target.read_bytes())
        assert renders[0] == renders[1]


# criterion 5's N = 1000 fits at seeds 0-4: one line per fit, m and seed,
# then the repr of m_hat, r2, the threshold table and the trace
FIT_BITS = """
from oscmarkets.estimate import fit_m_hat
from oscmarkets.synth import SynthSpec, sample_displacements
for m in (355.92, 977.73, 2513.76):
    for seed in range(5):
        fit = fit_m_hat(sample_displacements(SynthSpec(m, n=1000, seed=seed)))
        print(m, seed, repr((float(fit.m_hat), float(fit.r2),
                             fit.table.tolist(), fit.grid.tolist())))
"""


class TestBlasThreads:
    """No fit bit depends on the BLAS kernel or thread count, so none may
    come from a BLAS routine: a child on the kernel OpenBLAS picks here,
    with one thread, and a child on its Haswell kernel, with two, print the
    same fits, and those equal the in-process fits. On a CPU where OpenBLAS
    picks Haswell anyway, only the thread count differs."""

    @pytest.fixture(scope="class")
    def outputs(self):
        children = [run_process([], entry=("-c", FIT_BITS), **env) for env in (
            {"OPENBLAS_NUM_THREADS": "1"},
            {"OPENBLAS_NUM_THREADS": "2", "OPENBLAS_CORETYPE": "Haswell"})]
        here = io.StringIO()
        with contextlib.redirect_stdout(here):
            exec(FIT_BITS, {})
        return children, here.getvalue()

    @pytest.mark.parametrize("m", ["355.92", "977.73", "2513.76"])
    def test_fit_bits_identical(self, outputs, m):
        children, here = outputs
        for code, _, err in children:
            assert code == 0, err
        fits = [[line for line in out.splitlines() if line.startswith(m + " ")]
                for out in (children[0][1], children[1][1], here)]
        assert [len(lines) for lines in fits] == [5, 5, 5]
        # the seeds whose fit differs in any bit between the three runs
        assert [seed for seed, *lines in zip(range(5), *fits)
                if len(set(lines)) > 1] == []


class TestGridEdgeWarning:
    """A fit clipped at the grid edge says so on stderr; stdout is as ever."""

    @pytest.fixture
    def sample(self, tmp_path):
        path = tmp_path / "s.csv"
        assert main(["synth", "--m", "977.73", "--n", "100", "--seed", "1",
                     "--output", str(path)]) == 0
        return str(path)

    def test_estimate_at_edge(self, capsys, sample):
        code, out, err = run(capsys, "estimate", "--input", sample,
                             "--grid", "10:100:50")
        assert code == 0
        assert grab(out, "m_hat") == "100"
        assert err == ("warning: m_hat 100 at the edge of the search "
                       "grid [10.0, 100.0]\n")

    def test_estimate_refined_inside_last_cell(self, capsys, tmp_path):
        # the grid argmax is the last candidate, but m_hat is not clipped
        path = tmp_path / "s4500.csv"
        assert main(["synth", "--m", "4500", "--n", "200", "--seed", "1",
                     "--output", str(path)]) == 0
        code, out, err = run(capsys, "estimate", "--input", str(path),
                             "--grid", "100:5000:7")
        assert (code, err) == (0, "")
        assert grab(out, "m_hat") == "4234.057808"

    def test_estimate_interior(self, capsys, sample):
        code, out, err = run(capsys, "estimate", "--input", sample,
                             "--grid", "100:5000:500")
        assert code == 0 and err == ""
        assert float(grab(out, "m_hat")) == pytest.approx(977.73, rel=0.25)

    def test_backtest_at_edge(self, capsys):
        argv = ("backtest", "--input", str(QUIET), "--crash-week",
                "2004-12-06")
        want = run(capsys, *argv)
        assert want[0] == 0 and want[2] == ""
        code, out, err = run(capsys, *argv, "--grid", "10:100:50")
        assert code == 0
        assert grab(out, "m_hat") == "100"
        assert err.startswith("warning: m_hat 100 at the edge")
        assert err.count("\n") == 1


class TestIngest:
    def test_text_summary(self, capsys):
        code, out, _ = run(capsys, "ingest", "--input", str(QUIET))
        assert code == 0
        assert grab(out, "points") == "102"
        assert grab(out, "displacements") == "101"

    def test_csv_displacements(self, capsys):
        code, out, _ = run(capsys, "ingest", "--input", str(QUIET),
                           "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == "week_end,x_a,x_b,ratio"
        assert len(lines) == 2 + 101

    def test_csv_prices_round_trip(self, capsys):
        code, out, _ = run(capsys, "ingest", "--input", str(QUIET),
                           "--format", "csv", "--emit", "prices")
        assert code == 0
        body = "\n".join(out.splitlines()[1:]) + "\n"
        assert body == QUIET.read_text()

    def test_daily_resample(self, capsys, tmp_path):
        daily = tmp_path / "daily.csv"
        daily.write_text("date,close\n2001-01-01,10\n2001-01-02,11\n"
                         "2001-01-05,14\n2001-01-08,20\n2001-01-09,21\n")
        code, out, _ = run(capsys, "ingest", "--input", str(daily),
                           "--resample", "daily-to-weekly")
        assert code == 0
        assert grab(out, "points") == "2"

    def test_asset_label_from_stem(self, capsys):
        code, out, _ = run(capsys, "ingest", "--input", str(QUIET))
        assert code == 0
        assert grab(out, "asset") == "backtest_quiet"

    @pytest.mark.parametrize("fmt", ["text", "csv", "structured"])
    def test_overflowing_ratio_fails_displacements_only(self, capsys,
                                                        tmp_path, fmt):
        # closes are valid prices, but their weekly ratio overflows a float
        prices = tmp_path / "prices.csv"
        prices.write_text("date,close\n2001-01-05,1e-300\n2001-01-12,1e300\n")
        argv = ("ingest", "--input", str(prices), "--format", fmt, "--emit")
        code, out, err = run(capsys, *argv, "prices")
        assert (code, err) == (0, "")
        assert ("points: 2" if fmt == "text" else "1e+300") in out
        code, out, err = run(capsys, *argv, "displacements")
        assert (code, out) == (2, "")
        assert err == "data error: non-finite ratio inf\n"

    @pytest.mark.parametrize("fmt", ["text", "csv", "structured"])
    @pytest.mark.parametrize("emit", ["prices", "displacements"])
    def test_one_row_fails_in_every_view(self, capsys, tmp_path, fmt, emit):
        # a price series holds at least two rows, so the text summary's
        # displacement count is never 0
        prices = tmp_path / "prices.csv"
        prices.write_text("date,close\n2001-01-05,100\n")
        code, out, err = run(capsys, "ingest", "--input", str(prices),
                             "--format", fmt, "--emit", emit)
        assert (code, out) == (2, "")
        assert err == ("data error: price series needs at least 2 points, "
                       "got 1\n")


class TestStreamedOutput:
    """Output goes straight to its destination as it is made, and only
    once the command has its whole result."""

    def test_structured_peak_tracks_output(self, monkeypatch):
        # the whole output never sits in memory, nor a copy of it
        class Sink:
            chars = 0

            def write(self, text):
                self.chars += len(text)

            def flush(self):
                pass

        sink = Sink()
        monkeypatch.setattr("sys.stdout", sink)
        tracemalloc.start()
        try:
            code = main(["synth", "--m", "977.73", "--n", "20000",
                         "--format", "structured"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and sink.chars > 2_000_000
        assert peak < 4 * sink.chars

    def test_structured_peak_below_output_in_small_blocks(self, monkeypatch):
        # in blocks of 64 rows, only the series and the sampler's working
        # arrays outweigh a block: the document is never built as objects
        class Sink:
            chars = 0

            def write(self, text):
                self.chars += len(text)

            def flush(self):
                pass

        monkeypatch.setattr("oscmarkets.ingest._ROWS", 64)
        argv = ["synth", "--m", "977.73", "--format", "structured"]
        # a first run, so that one-time allocations (caches filled on first
        # use) are not counted as this run's
        monkeypatch.setattr("sys.stdout", Sink())
        assert main([*argv, "--n", "20"]) == 0
        sink = Sink()
        monkeypatch.setattr("sys.stdout", sink)
        tracemalloc.start()
        try:
            code = main([*argv, "--n", "20000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and sink.chars > 2_000_000
        assert peak < sink.chars

    @pytest.mark.parametrize("existing", [b"kept\n\xff", None])
    def test_failed_command_keeps_output_file(self, capsys, tmp_path,
                                              existing):
        bad, output = tmp_path / "bad.csv", tmp_path / "out.txt"
        bad.write_text("date,close\n2001-01-05,ten\n")
        if existing is not None:
            output.write_bytes(existing)
        code, out, err = run(capsys, "estimate", "--input", str(bad),
                             "--output", str(output))
        assert (code, out) == (2, "") and err.startswith("data error: ")
        if existing is None:
            assert not output.exists()
        else:
            assert output.read_bytes() == existing


class TestStructuredTables:
    """Structured output, tables included, is exactly what
    json.dumps(..., indent=2) writes: when a table's rows split into
    blocks (of 1 and of 3 rows, and of the default size) and when a table
    holds one row, for the plain and the chained table writers."""

    @pytest.mark.parametrize("rows", [1, 3, None])
    @pytest.mark.parametrize("argv, sizes", [
        (("synth", "--m", "977.73", "--n", "50"), {"entries": 50}),
        (("synth", "--m", "977.73", "--n", "1"), {"entries": 1}),
        (("ingest", "--input", str(QUIET)), {"entries": 101}),
        (("ingest", "--input", str(QUIET), "--emit", "prices"),
         {"points": 102}),
        (("ingest", "--input", "two.csv"), {"entries": 1}),
        (("ingest", "--input", "two.csv", "--emit", "prices"),
         {"points": 2}),
        # the grid's length depends on the refinement: not checked
        (("estimate", "--input", str(QUIET)), {"table": 100, "grid": None})])
    def test_equals_json_dumps(self, capsys, monkeypatch, tmp_path, argv,
                               sizes, rows):
        monkeypatch.chdir(tmp_path)
        Path("two.csv").write_text("date,close\n2001-01-05,100\n"
                                   "2001-01-12,101.5\n")
        if rows is not None:
            monkeypatch.setattr("oscmarkets.ingest._ROWS", rows)
        code, out, err = run(capsys, *argv, "--format", "structured")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2) + "\n"
        body = doc["series" if argv[0] != "estimate" else "result"]
        lengths = {k: len(v) for k, v in body.items() if isinstance(v, list)}
        assert list(lengths) == list(sizes)
        assert all(lengths[k] == n for k, n in sizes.items() if n)


class TestAtomicOutputFile:
    """A regular or new --output file is written whole or not at all; a
    device is written in place. Each run is a child process."""

    SYNTH = ["synth", "--m", "977.73", "--n", "20000", "--format", "csv"]

    @pytest.mark.parametrize("existing", [b"kept\n\xff", None])
    def test_failed_write_keeps_output_file(self, tmp_path, existing):
        # past 100000 bytes every write fails with EFBIG
        output = tmp_path / "out.csv"
        if existing is not None:
            output.write_bytes(existing)
        _, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        proc = subprocess.run(
            [sys.executable, *ENTRY, *self.SYNTH, "--output", str(output)],
            env=child_env(), capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE,
                                                  (100000, hard)))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith(
            f"data error: cannot write output {output}: ")
        assert proc.stderr.count("\n") == 1
        assert list(tmp_path.iterdir()) == ([] if existing is None
                                            else [output])
        if existing is not None:
            assert output.read_bytes() == existing

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may write any file")
    def test_read_only_file_kept(self, tmp_path):
        # the directory is writable, so only a check can refuse the rename
        output = tmp_path / "out.csv"
        output.write_text("kept\n")
        output.chmod(0o444)
        code, out, err = run_process([*self.SYNTH, "--output", str(output)])
        assert (code, out) == (2, "")
        assert err == (f"data error: cannot write output {output}: "
                       f"[Errno 13] Permission denied: '{output}'\n")
        assert output.read_text() == "kept\n"
        assert list(tmp_path.iterdir()) == [output]

    def test_missing_directory_names_given_path(self, tmp_path):
        # the message names the path given, not the temporary file with
        # its random suffix, so it is the same from run to run
        output = tmp_path / "nodir" / "x.csv"
        argv = ["synth", "--m", "977.73", "--n", "20", "--output", str(output)]
        first, second = run_process(argv), run_process(argv)
        assert first == second
        assert first == (2, "", f"data error: cannot write output {output}: "
                         f"[Errno 2] No such file or directory: '{output}'\n")
        assert not output.parent.exists()

    @pytest.mark.parametrize("call", ["replace", "chmod"])
    def test_failed_rename_names_given_path(self, capsys, monkeypatch,
                                            tmp_path, call):
        # os.replace and os.chmod name the temporary file; the message
        # names the path given, so it is the same from run to run
        output = tmp_path / "out.csv"
        output.write_text("kept\n")

        def fail(src, *args, **kwargs):
            dst = args[0] if call == "replace" else None
            raise PermissionError(errno.EPERM, os.strerror(errno.EPERM), src,
                                  None, dst)

        monkeypatch.setattr(os, call, fail)
        argv = ["synth", "--m", "977.73", "--n", "20", "--output", str(output)]
        first, second = run(capsys, *argv), run(capsys, *argv)
        assert first == second == (
            2, "", f"data error: cannot write output {output}: "
            f"[Errno 1] Operation not permitted: '{output}'\n")
        assert output.read_text() == "kept\n"
        assert list(tmp_path.iterdir()) == [output]

    def test_device_written_in_place(self):
        assert run_process([*self.SYNTH, "--output", os.devnull]) == (
            0, "", "")

    def test_symlink_and_modes_kept(self, tmp_path):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("old\n")
        real.chmod(0o640)
        link.symlink_to(real.name)
        new, reference = tmp_path / "new.csv", tmp_path / "reference"
        reference.write_text("")  # the bits open() gives a new file
        for target in (link, new):
            assert run_process([*self.SYNTH, "--output", str(target)]) == (
                0, "", "")
        _, out, _ = run_process(self.SYNTH)
        assert link.is_symlink() and os.readlink(link) == real.name
        assert real.read_text().replace(f"output={link}", "output=-") == out
        assert new.read_text().replace(f"output={new}", "output=-") == out
        assert (real.stat().st_mode & 0o7777) == 0o640
        assert new.stat().st_mode == reference.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "link.csv", "new.csv", "real.csv", "reference"]


class TestConfigEcho:
    """The `# config:` echo holds `command`, then every flag the command
    takes but --stdin, in one fixed order, then `asset` when it reads an
    input; config-file keys reach only the commands with that flag."""

    ORDER = ("input output format m m_hat t window grid crash_week "
             "resample emit n seed prior_close").split()
    ARGV = {"ingest": ["--input", "backtest_quiet.csv"],
            "estimate": ["--input", "backtest_quiet.csv"],
            "synth": ["--m", "977.73", "--n", "50"],
            "predict": ["--m-hat", "977.73", "--prior-close", "1099.23"],
            "backtest": ["--input", "backtest_crash.csv", "--crash-week",
                         "2004-12-06"]}

    @pytest.mark.parametrize("configured", [False, True])
    @pytest.mark.parametrize("command", list(ARGV))
    def test_every_flag_echoed(self, capsys, tmp_path, monkeypatch, command,
                               configured):
        _, usage, _ = run(capsys, command, "--help")
        flags = {f.replace("-", "_") for f in re.findall(r"--([a-z-]+)",
                                                          usage)}
        flags -= {"help", "stdin"}
        assert flags <= set(self.ORDER)
        want = ["command", *(f for f in self.ORDER if f in flags),
                *(["asset"] if "input" in flags else [])]
        if configured:
            cfg = tmp_path / "osc.cfg"
            cfg.write_text("t = 2\ntrain_count = 80\ngrid = 100:5000:40\n"
                           "seed = 5\ncrash_week = 2004-12-06\n"
                           "prior_close = 1099.23\nm_hat = 977.73\n")
            monkeypatch.setenv(CONFIG_ENV, str(cfg))
        monkeypatch.chdir(DATA)
        for fmt in ("csv", "structured"):
            code, out, err = run(capsys, command, *self.ARGV[command],
                                 "--format", fmt)
            assert (code, err) == (0, "")
            if fmt == "csv":
                echo = out.splitlines()[0].removeprefix("# config: ")
                assert [item.split("=")[0] for item in echo.split()] == want
            else:
                assert list(json.loads(out)["config"]) == want


class TestBacktestCommand:
    ARGS = ("backtest", "--input", str(QUIET), "--crash-week", "2004-12-06")

    def test_quiet(self, capsys):
        code, out, err = run(capsys, *self.ARGS)
        assert code == 0, err
        assert grab(out, "violated") == "no"
        assert float(grab(out, "m_hat")) == pytest.approx(900.0, rel=1e-3)

    def test_crash_structured(self, capsys):
        code, out, _ = run(capsys, "backtest", "--input", str(CRASH),
                           "--crash-week", "2004-12-06",
                           "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["violated"] is True
        assert doc["config"]["crash_week"] == "2004-12-06"

    def test_csv_row(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[1].startswith("asset_id,m_hat,")
        assert ",false," in lines[2]

    def test_missing_crash_week(self, capsys):
        code, _, err = run(capsys, "backtest", "--input", str(QUIET))
        assert code == 1
        assert "crash-week" in err


class TestConfigFile:
    def test_file_supplies_predict_inputs(self, capsys, tmp_path,
                                          monkeypatch):
        cfg = tmp_path / "osc.cfg"
        cfg.write_text("# fit of the long sample\nm_hat = 977.73\n"
                       "prior_close = 1099.23\n")
        monkeypatch.setenv(CONFIG_ENV, str(cfg))
        code, out, _ = run(capsys, "predict")
        assert code == 0
        assert "m_hat=977.73" in out.splitlines()[0]
        assert float(grab(out, "predicted_extreme_points")) == pytest.approx(
            312.37, abs=0.05)

    def test_cli_overrides_file(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "osc.cfg"
        cfg.write_text("m_hat=977.73\nprior_close=1099.23\n")
        monkeypatch.setenv(CONFIG_ENV, str(cfg))
        code, out, _ = run(capsys, "predict", "--m-hat", "982.21")
        assert code == 0
        assert "m_hat=982.21" in out.splitlines()[0]

    def test_unknown_key_rejected(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "osc.cfg"
        cfg.write_text("m_hat=977.73\nwarp_factor=9\n")
        monkeypatch.setenv(CONFIG_ENV, str(cfg))
        code, _, err = run(capsys, "predict", "--prior-close", "100")
        assert code == 1
        assert "warp_factor" in err

    def test_repeated_key_rejected(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "osc.cfg"
        cfg.write_text("m_hat=977.73\nprior_close=1099.23\n# refit\n"
                       "m_hat = 500\n")
        monkeypatch.setenv(CONFIG_ENV, str(cfg))
        code, out, err = run(capsys, "predict")
        assert (code, out) == (1, "")
        assert err == (f"usage error: {cfg}:4: config key 'm_hat' already "
                       "set on line 1\n")

    def test_bad_syntax_rejected(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "osc.cfg"
        cfg.write_text("m_hat 977.73\n")
        monkeypatch.setenv(CONFIG_ENV, str(cfg))
        code, _, err = run(capsys, "predict", "--prior-close", "100")
        assert code == 1
        assert "key=value" in err

    @pytest.mark.parametrize("value, message", [("abc", "not an integer"),
                                                ("0", "must be >= 1")])
    def test_bad_train_count(self, capsys, tmp_path, monkeypatch, value,
                             message):
        cfg = tmp_path / "osc.cfg"
        cfg.write_text(f"train_count={value}\n")
        monkeypatch.setenv(CONFIG_ENV, str(cfg))
        code, out, err = run(capsys, "backtest", "--input", str(QUIET),
                             "--crash-week", "2004-12-06")
        assert code == 1 and out == ""
        assert err == f"usage error: config key train_count: {message}" + (
            f": {value!r}\n" if value == "abc" else f", got {value}\n")

    def test_every_key_checked_when_read(self, capsys, tmp_path,
                                         monkeypatch):
        # ingest takes no t, yet a bad t in the file is still an error
        cfg = tmp_path / "osc.cfg"
        cfg.write_text("t=abc\n")
        monkeypatch.setenv(CONFIG_ENV, str(cfg))
        code, out, err = run(capsys, "ingest", "--input", str(QUIET))
        assert (code, out) == (1, "")
        assert err == "usage error: config key t: not a number: 'abc'\n"

    @pytest.mark.parametrize("flags", [("--t", "-1"), ("--help",)])
    def test_config_error_before_flag_error(self, capsys, tmp_path,
                                            monkeypatch, flags):
        cfg = tmp_path / "osc.cfg"
        cfg.write_text("seed=-3\n")
        monkeypatch.setenv(CONFIG_ENV, str(cfg))
        code, out, err = run(capsys, "synth", "--m", "977.73", *flags)
        assert (code, out) == (1, "")
        assert err == ("usage error: config key seed: seed must fit in 64 "
                       "unsigned bits\n")

    def test_file_supplies_every_default(self, capsys, tmp_path,
                                         monkeypatch):
        cfg = tmp_path / "osc.cfg"
        cfg.write_text("t=2.0\ngrid=500:1500:50\ncrash_week=2004-12-06\n"
                       "train_count=80\n")
        monkeypatch.setenv(CONFIG_ENV, str(cfg))
        code, out, err = run(capsys, "backtest", "--input", str(QUIET))
        assert code == 0, err
        assert out.splitlines()[0].startswith(
            "# config: command=backtest input=" + str(QUIET)
            + " output=- format=text t=2.0 window=0:80 grid=500.0:1500.0:50 "
            "crash_week=2004-12-06")

    def test_missing_file_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(CONFIG_ENV, str(tmp_path / "absent.cfg"))
        code, _, err = run(capsys, "predict", "--m-hat", "1",
                           "--prior-close", "1")
        assert code == 1
        assert "config file" in err


class TestByteOrderMark:
    """A UTF-8 BOM in front of the header changes nothing."""

    @staticmethod
    def with_bom(tmp_path, source):
        path = tmp_path / source.name
        path.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
        return str(path)

    @pytest.mark.parametrize("argv", [
        ("ingest", "--format", "csv"),
        ("estimate", "--window", "0:100"),
        ("backtest", "--crash-week", "2004-12-06"),
    ])
    def test_input_file(self, capsys, tmp_path, argv):
        command, *rest = argv
        want = run(capsys, command, "--input", str(QUIET), *rest)
        got = run(capsys, command, "--input", self.with_bom(tmp_path, QUIET),
                  *rest)
        assert got[0] == 0 and got[2] == ""
        assert got[1].replace(str(tmp_path), str(DATA)) == want[1]

    def test_stdin(self, capsys, monkeypatch):
        _, synth_out, _ = run(capsys, "synth", "--m", "977.73", "--n", "100",
                              "--seed", "1")
        monkeypatch.setattr("sys.stdin", io.StringIO(synth_out))
        want = run(capsys, "estimate", "--stdin")
        monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + synth_out))
        got = run(capsys, "estimate", "--stdin")
        assert got[0] == 0 and got == want

    def test_config_file(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "osc.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfm_hat=977.73\nprior_close=1099.23\n")
        monkeypatch.setenv(CONFIG_ENV, str(cfg))
        code, out, err = run(capsys, "predict")
        assert code == 0, err
        assert "m_hat=977.73" in out.splitlines()[0]


class TestLineEnds:
    """LF, CRLF and lone-CR line ends read alike, from a file or stdin."""

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    @pytest.mark.parametrize("command", ["ingest", "estimate", "backtest"])
    def test_same_body_and_exit(self, capsys, tmp_path, monkeypatch,
                                command, newline):
        data = QUIET.read_bytes().replace(b"\n", newline)
        path = tmp_path / QUIET.name
        path.write_bytes(data)
        extra = ("--crash-week", "2004-12-06") if command == "backtest" else ()

        def body(*source):
            # the output without its config echo, which names the source,
            # and with backtest's asset column, the file stem or "stdin"
            code, out, err = run(capsys, command, *source, "--format", "csv",
                                 *extra)
            out = out.split("\n", 1)[-1].replace("\nstdin,", "\n")
            return code, out.replace(f"\n{QUIET.stem},", "\n"), err

        want = body("--input", str(QUIET))
        assert want[0] == 0 and want[2] == ""
        assert body("--input", str(path)) == want
        sources = [("--input", "-")]
        if command == "estimate":
            sources.append(("--stdin",))
        for source in sources:
            monkeypatch.setattr("sys.stdin",
                                io.TextIOWrapper(io.BytesIO(data)))
            assert body(*source) == want

    def test_bad_row_same_exit(self, capsys, tmp_path, monkeypatch):
        data = b"date,close\r2001-01-05,100\r2001-01-12,x\r"
        path = tmp_path / "cr.csv"
        path.write_bytes(data)
        want = run(capsys, "ingest", "--input", str(path))
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert run(capsys, "ingest", "--input", "-") == want
        assert want == (2, "", "data error: line 3: bad close 'x'\n")


class TestExitCodes:
    def test_usage_no_command(self, capsys):
        assert run(capsys, )[0] == 1

    @pytest.mark.parametrize("argv, message", [
        (["ingest"], "ingest needs --input PATH"),
        (["estimate"], "estimate needs --input PATH or --stdin"),
        (["backtest"], "backtest needs --input PATH"),
        (["backtest", "--crash-week", "2004-12-06"],
         "backtest needs --input PATH"),
        # the missing week is reported before the input is read
        (["backtest", "--input", "no-such.csv"],
         "backtest needs --crash-week (flag or config file)")])
    def test_usage_no_input(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"usage error: {message}\n")

    def test_usage_bad_flag_value(self, capsys):
        assert run(capsys, "estimate", "--input", str(QUIET),
                   "--t", "-1")[0] == 1

    @pytest.mark.parametrize("n, message", [
        ("0", "must be >= 1, got 0"), ("-5", "must be >= 1, got -5"),
        ("abc", "not an integer: 'abc'")])
    def test_usage_bad_synth_count(self, capsys, n, message):
        code, out, err = run(capsys, "synth", "--m", "977.73", "--n", n)
        assert (code, out) == (1, "")
        assert err == f"usage error: argument --n: {message}\n"

    @pytest.mark.parametrize("grid, message", [
        ("100:inf:50", "grid bounds must satisfy 0 < lo < hi < inf"),
        ("100:5000:10000000000000", "grid needs 2 to 1000000 candidates")])
    def test_usage_bad_grid(self, capsys, monkeypatch, tmp_path, grid,
                            message):
        # rejected both as a flag and as a config-file key
        code, out, err = run(capsys, "estimate", "--input", str(QUIET),
                             "--grid", grid)
        assert (code, out) == (1, "")
        assert message in err and err.count("\n") == 1
        cfg = tmp_path / "osc.cfg"
        cfg.write_text(f"grid = {grid}\n", encoding="utf-8")
        monkeypatch.setenv(CONFIG_ENV, str(cfg))
        code, out, err = run(capsys, "estimate", "--input", str(QUIET))
        assert (code, out) == (1, "")
        assert message in err and err.count("\n") == 1

    def test_numeric_huge_time(self, capsys):
        # a fresh process, so that a numpy RuntimeWarning would reach stderr
        code, out, err = run_process(["estimate", "--input", str(QUIET),
                                      "--t", "1e308"])
        assert (code, out) == (3, "")
        assert err == ("numeric error: t=1e+308 puts the auto-bracketed "
                       "grid out of range: [inf, inf]\n")
        code, out, err = run(capsys, "estimate", "--input", str(QUIET),
                             "--t", "1e300")
        assert (code, err) == (0, "") and "t=1e+300" in out

    def test_usage_bad_window(self, capsys):
        assert run(capsys, "estimate", "--input", str(QUIET),
                   "--window", "ten")[0] == 1

    @pytest.mark.parametrize("command, flag, value, message", [
        ("estimate", "window", "10", "window must be START:COUNT, got '10'"),
        ("estimate", "window", "1:2:3",
         "window must be START:COUNT, got '1:2:3'"),
        ("estimate", "window", "a:5",
         "window must be START:COUNT integers, got 'a:5'"),
        ("estimate", "window", "1.5:5",
         "window must be START:COUNT integers, got '1.5:5'"),
        ("estimate", "window", "-1:5",
         "window needs START >= 0 and COUNT >= 1, got '-1:5'"),
        ("estimate", "window", "0:0",
         "window needs START >= 0 and COUNT >= 1, got '0:0'"),
        ("estimate", "grid", "1:2", "grid must be LO:HI:N, got '1:2'"),
        ("estimate", "grid", "a:2:3",
         "bad grid 'a:2:3': could not convert string to float: 'a'"),
        ("estimate", "grid", "1:2:x",
         "bad grid '1:2:x': invalid literal for int() with base 10: 'x'"),
        ("estimate", "grid", "5:2:10",
         "bad grid '5:2:10': grid bounds must satisfy 0 < lo < hi < inf, "
         "got [5.0, 2.0]"),
        ("backtest", "crash-week", "2004/01/02",
         "dates are YYYY-MM-DD, got '2004/01/02'"),
        ("synth", "seed", "-1", "seed must fit in 64 unsigned bits"),
        ("synth", "seed", str(2 ** 64), "seed must fit in 64 unsigned bits"),
        ("synth", "seed", "abc", "not an integer: 'abc'"),
        ("synth", "n", "0", "must be >= 1, got 0"),
        ("synth", "n", "x", "not an integer: 'x'"),
        ("estimate", "t", "abc", "not a number: 'abc'"),
        ("estimate", "t", "-1", "must be finite and > 0: -1"),
        ("estimate", "t", "0", "must be finite and > 0: 0"),
        ("estimate", "t", "inf", "must be finite and > 0: inf"),
        ("estimate", "t", "nan", "must be finite and > 0: nan")])
    def test_usage_converter_message(self, capsys, command, flag, value,
                                     message):
        code, out, err = run(capsys, command, f"--{flag}={value}")
        assert (code, out) == (1, "")
        assert err == f"usage error: argument --{flag}: {message}\n"

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_data_error_missing_file(self, capsys):
        code, _, err = run(capsys, "estimate", "--input", "no-such.csv")
        assert code == 2
        assert "no-such.csv" in err

    def test_data_error_malformed(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,close\n2001-01-05,ten\n")
        code, _, err = run(capsys, "estimate", "--input", str(bad))
        assert code == 2
        assert "line 2" in err

    def test_data_error_degenerate_sample(self, capsys, tmp_path):
        flat = tmp_path / "flat.csv"
        rows = "".join(f"2001-0{1 + i // 4}-{1 + 7 * (i % 4):02d},100\n"
                       for i in range(12))
        flat.write_text("date,close\n" + rows)
        code, _, err = run(capsys, "estimate", "--input", str(flat))
        assert code == 2
        assert "degenerate" in err

    def test_data_error_closed_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", None)
        code, out, err = run(capsys, "estimate", "--stdin")
        assert code == 2 and out == ""
        assert err == "data error: cannot read standard input: it is closed\n"

    def test_data_error_stdin_read_fails(self, capsys, monkeypatch):
        class Broken(io.StringIO):
            def read(self, *args):
                raise OSError(5, "Input/output error")

        monkeypatch.setattr("sys.stdin", Broken())
        code, out, err = run(capsys, "estimate", "--stdin")
        assert code == 2 and out == ""
        assert err.startswith("data error: cannot read standard input: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("env", [{}, {"PYTHONIOENCODING": "latin-1"}])
    def test_data_error_invalid_utf8_stdin(self, tmp_path, env):
        # stdin is decoded as strictly as a file is, whatever the locale
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"date,close,note\n2001-01-05,100,\xff\n"
                        b"2001-01-12,101,ok\n2001-01-19,102,ok\n")
        want = run_process(["ingest", "--input", str(bad)], **env)
        with open(bad, "rb") as fh:
            got = run_process(["ingest", "--input", "-"], stdin=fh, **env)
        assert got == want
        assert want[:2] == (2, "") and want[2].count("\n") == 1
        assert want[2].startswith("data error: input is not valid UTF-8: ")

    def test_closed_stdin_process(self):
        code, out, err = run_process(["estimate", "--stdin"], closed=(0,))
        assert (code, out) == (2, "")
        assert err == "data error: cannot read standard input: it is closed\n"

    def test_closed_stdout_process(self):
        code, out, err = run_process(["predict", "--m-hat", "977.73",
                                      "--prior-close", "100"], closed=(1,))
        assert (code, out) == (2, "")
        assert err == ("data error: cannot write standard output: it is "
                       "closed\n")

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_reader_leaves_early_process(self, unbuffered):
        # `synth ... | head -c 100`: the reader has what it wants
        with subprocess.Popen(
                [sys.executable, *ENTRY, "synth", "--m", "977.73", "--n",
                 "20000", "--format", "csv"], env=child_env(unbuffered),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            head = proc.stdout.read(100)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert head.startswith(b"# config: command=synth")
        assert (code, err) == (0, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full device")
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_stdout_write_fails_process(self, unbuffered):
        # every write to /dev/full fails with ENOSPC
        with open("/dev/full", "w") as full:
            code, out, err = run_process(
                ["predict", "--m-hat", "977.73", "--prior-close", "1099.23"],
                stdout=full, unbuffered=unbuffered)
        assert (code, out) == (2, None)
        assert err.startswith("data error: cannot write standard output: ")
        assert err.count("\n") == 1

    @staticmethod
    def undecodable_input(tmp_path):
        """A price file whose name holds the byte 0xff, not valid UTF-8."""
        path = tmp_path / os.fsdecode(b"q\xff.csv")
        path.write_bytes(QUIET.read_bytes())
        return str(path)

    def test_undecodable_file_name_utf8_mode(self, tmp_path):
        # UTF-8 mode writes the byte back to stdout; --output holds the same
        name, output = self.undecodable_input(tmp_path), tmp_path / "out.txt"
        env = dict(PYTHONUTF8="1", PYTHONIOENCODING="")
        code, out, err = run_process(["ingest", "--input", name], text=False,
                                     **env)
        assert (code, err) == (0, b"") and b"q\xff" in out
        assert run_process(["ingest", "--input", name, "--output",
                            str(output)], text=False, **env) == (0, b"", b"")
        assert output.read_bytes() == out.replace(
            b"output=-", b"output=" + os.fsencode(output))

    def test_undecodable_file_name_strict_stdout(self, tmp_path):
        code, out, err = run_process(
            ["ingest", "--input", self.undecodable_input(tmp_path)],
            PYTHONIOENCODING="utf-8:strict")
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err.startswith("data error: cannot write standard output: ")

    def test_overflowing_tail_argument(self, capsys):
        # m / (2t) overflows at the top of the grid, where pr = 0 is the
        # limit; a numpy warning would fail the test
        code, out, err = run(capsys, "estimate", "--input", str(QUIET),
                             "--t", "1e-10", "--grid", "1e-9:1e308:2000")
        assert (code, err) == (0, "") and "r2: 1.000000" in out

    def test_data_error_overflowing_price_ratio(self, capsys, tmp_path):
        prices = tmp_path / "prices.csv"
        prices.write_text("date,close\n2001-01-05,1e-300\n2001-01-12,1e300\n")
        code, out, err = run(capsys, "estimate", "--input", str(prices))
        assert (code, out) == (2, "")
        assert err == "data error: non-finite ratio inf\n"

    def test_data_error_overflowing_implied_ratio(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(
            "week_end,x_a,x_b,ratio\n2001-01-05,1e-300,1e300,5.0\n"
            "2001-01-12,100,101,0.01\n"
            "2001-01-19,101,100,-0.00990099009900991\n"))
        code, out, err = run(capsys, "estimate", "--stdin")
        assert (code, out) == (2, "")
        assert err == ("data error: line 2: ratio 5.0 inconsistent with "
                       "endpoints (1e-300, 1e+300) implying inf\n")

    def test_numeric_error_every_curve_flat(self, capsys):
        code, out, err = run(capsys, "estimate", "--input", str(QUIET),
                             "--grid", "1e-300:1e-290:50")
        assert (code, out) == (3, "")
        assert err == "numeric error: no grid candidate fits the sample\n"

    @pytest.mark.parametrize("quote", ["", '"'])
    @pytest.mark.parametrize("argv", [
        ["ingest"], ["estimate"], ["backtest", "--crash-week", "2001-01-12"]])
    def test_data_error_field_over_csv_limit(self, capsys, tmp_path, argv,
                                             quote):
        # numbers that float() reads as 100, 0 and inf: with or without a
        # quote, a cell over the limit is the same error
        big = tmp_path / "big.csv"
        for cell in ("100." + "0" * 140_000, "0." + "0" * 140_000 + "1",
                     "1" * 140_000):
            big.write_text(f"date,close\n2001-01-05,100\n"
                           f"2001-01-12,{quote}{cell}{quote}\n")
            code, out, err = run(capsys, *argv, "--input", str(big))
            assert (code, out) == (2, "")
            assert err == ("data error: line 3: field larger than field "
                           "limit (131072)\n")

    @pytest.mark.parametrize("day", ["20040102", "2004-W01-5"])
    def test_usage_crash_week_not_iso_day(self, capsys, day):
        code, out, err = run(capsys, "backtest", "--input", str(QUIET),
                             "--crash-week", day)
        assert (code, out) == (1, "")
        assert err == ("usage error: argument --crash-week: dates are "
                       f"YYYY-MM-DD, got '{day}'\n")

    def test_numeric_error(self, capsys):
        code, _, err = run(capsys, "synth", "--m", "0.1", "--n", "50")
        assert code == 3
        assert "numeric error" in err


# run() under an atexit hook whose line, the last on stderr, names the
# oscmarkets submodules loaded, then whether json is
LOADED = ("-c", """
import atexit, sys
atexit.register(lambda: print(*sorted(
    name.split(".", 1)[1] for name in sys.modules
    if name.startswith("oscmarkets.")), "json" in sys.modules,
    file=sys.stderr))
from oscmarkets.cli import run
run()
""")
FIT_MODULES = "backtest cli errors estimate ingest model specfun"


class TestStartAndExit:
    """A command imports only the modules it runs, and run()'s exit still
    runs the atexit handlers."""

    @pytest.mark.parametrize("argv, loaded", [
        (("ingest", "--input", str(QUIET)), "cli errors ingest False"),
        (("synth", "--m", "977.73", "--n", "100", "--seed", "1"),
         "cli errors ingest specfun synth False"),
        (("estimate", "--input", str(QUIET), "--window", "0:100"),
         "cli errors estimate ingest specfun False"),
        (("predict", "--m-hat", "977.73", "--prior-close", "1099.23"),
         FIT_MODULES + " False"),
        (TestBacktestCommand.ARGS, FIT_MODULES + " False"),
        (("ingest", "--input", str(QUIET), "--format", "structured"),
         "cli errors ingest True")])
    def test_loads_only_its_modules(self, argv, loaded):
        code, _, err = run_process(argv, entry=LOADED)
        assert code == 0, err
        assert err.splitlines()[-1] == loaded


def run_strict(argv):
    """main(argv) in-process with every warning raised as an error:
    (exit code, stdout, stderr)."""
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdout, sys.stderr = saved


# finite positive values from the subnormal range to the largest doubles
EXTREME = st.one_of(st.integers(-320, 308).map(lambda e: 10.0 ** e),
                    st.floats(1e-320, 1e308))
PREFIXES = {1: "usage error: ", 2: "data error: ", 3: "numeric error: "}


def assert_documented(code, out, err, fmt):
    """A documented outcome: a result, with at most the grid-edge warning
    and strict JSON when structured, or one error line and no output."""
    assert code in (0, 1, 2, 3)
    if code:
        assert out == "" and err.count("\n") == 1
        assert err.startswith(PREFIXES[code]) and err.endswith("\n")
    else:
        assert err == "" or (err.startswith("warning: m_hat ")
                             and err.count("\n") == 1)
        if fmt == "structured":
            TestPredict.strict_json(out)


class TestExtremeFlagValues:
    """Extreme finite flag values end in a result or in one documented
    error line, with no warning and no traceback."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_documented_outcome(self, data):
        command = data.draw(st.sampled_from(
            ("estimate", "backtest", "predict", "synth")))

        def value():
            return repr(data.draw(EXTREME))

        if command == "estimate":
            argv = ["estimate", "--input", str(QUIET)]
        elif command == "backtest":
            argv = ["backtest", "--input", str(CRASH),
                    "--crash-week", "2004-12-06"]
        elif command == "predict":
            argv = ["predict", "--m-hat", value(), "--prior-close", value()]
        else:
            argv = ["synth", "--m", value(), "--n", "20"]
        if data.draw(st.booleans()):
            argv += ["--t", value()]
        if command in ("estimate", "backtest") and data.draw(st.booleans()):
            lo, hi = sorted((data.draw(EXTREME), data.draw(EXTREME)))
            n = data.draw(st.integers(2, 60))
            argv += ["--grid", f"{lo!r}:{hi!r}:{n}"]
        fmt = data.draw(st.sampled_from(("text", "csv", "structured")))
        code, out, err = run_strict(argv + ["--format", fmt])
        assert_documented(code, out, err, fmt)


class TestOneSpellingPerField:
    """Each scalar result field is spelled once: the structured result's
    scalar keys are the csv header (estimate: the `# result:` keys), and
    the text labels follow them in order through the label table."""

    @pytest.mark.parametrize("argv, text", [
        (("predict", "--m-hat", "977.73", "--prior-close", "1099.23"),
         ["m_hat: 977.73", "t: 1", "prior_close: 1099.2300",
          "predicted_extreme_ratio: 0.284175",
          "predicted_extreme_points: 312.37"]),
        (("backtest", "--input", str(CRASH), "--crash-week", "2004-12-06"),
         ["asset: backtest_crash", "m_hat: 899.9999416", "r2: 1.000000",
          "prior_close: 95.2779", "predicted_extreme_ratio: 0.296192",
          "predicted_extreme_points: 28.22", "actual_points: 31.04",
          "actual_ratio: 0.325811", "violated: yes",
          "years_from_train_to_crash: 2.0"]),
        (("estimate", "--input", str(QUIET), "--window", "0:100"),
         ["m_hat: 899.9999416", "r2: 1.000000", "sample_size: 100"])])
    def test_formats_agree(self, capsys, argv, text):
        outs = {}
        for fmt in ("structured", "csv", "text"):
            code, outs[fmt], err = run(capsys, *argv, "--format", fmt)
            assert (code, err) == (0, "")
        result = json.loads(outs["structured"])["result"]
        scalars = {k: v for k, v in result.items() if not isinstance(v, list)}
        csv_lines = outs["csv"].splitlines()
        if argv[0] == "estimate":
            assert csv_lines[1].startswith("# result: ")
            cells = dict(item.split("=") for item in
                         csv_lines[1].removeprefix("# result: ").split())
        else:
            cells = dict(zip(*(line.split(",") for line in csv_lines[1:3])))
        assert list(cells) == list(scalars)
        text_lines = outs["text"].splitlines()[1:1 + len(scalars)]
        assert text_lines == text
        assert [line.split(": ", 1)[0] for line in text_lines] == [
            _TEXT_LABEL.get(k, k) for k in scalars]
        for name, value in scalars.items():
            if isinstance(value, float):  # full precision off the text view
                assert float(cells[name]) == value


def _mutated(draw, lines):
    """The bytes of the CSV rows `lines` (header first) after up to three
    of the mutations a vendor file or a bad edit brings."""
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(1, len(lines) - 1))
        cells = lines[i].split(",")
        kind = draw(st.sampled_from(
            ("value", "date", "quote", "comment", "blank", "extra", "swap",
             "xff")))
        if kind == "value":
            cells[-1] = draw(st.sampled_from(
                ("0", "-1", "nan", "inf", "1e999", "1e-320", "1_000",
                 " 12 ", "")))
        elif kind == "date":
            cells[0] = draw(st.sampled_from(
                ("2001-02-30", "20010105", "2001-W01-5", "x", "")))
        elif kind == "quote":
            cells[-1] = f'"{cells[-1]}"'
        elif kind == "extra":
            cells.append("7")
        elif kind == "xff":
            cells[-1] += "\udcff"  # written back as the byte 0xff
        if kind == "comment":
            lines.insert(i, "# note")
        elif kind == "blank":
            lines.insert(i, "")
        elif kind == "swap":
            j = draw(st.integers(1, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[i] = ",".join(cells)
    ending = draw(st.sampled_from(("\n", "\r\n", "\r")))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + ending.join(lines) + ending).encode(
        "utf-8", "surrogateescape")


CONFIG_LINES = st.one_of(
    st.sampled_from(("t = 2", "t = 1e-300", "t = 0", "train_count = 80",
                     "train_count = 0", "grid = 100:5000:40",
                     "grid = 5:1:3", "seed = 5", "crash_week = 2004-12-06",
                     "crash_week = 2004-13-01", "prior_close = 1099.23",
                     "m_hat = 977.73", "# comment", "", "t", "= 1",
                     "colour = red")),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12))


class TestMutatedInputs:
    """Mutated CSVs and config files through `main` end in a result or in
    one documented error line, with no warning and no traceback."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        return tmp_path_factory.mktemp("mutated")

    @settings(max_examples=50, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_documented_outcome(self, files, data):
        source = data.draw(st.sampled_from((QUIET, CRASH)))
        csv_path, config = files / "prices.csv", files / "osc.cfg"
        csv_path.write_bytes(_mutated(data.draw,
                                      source.read_text().splitlines()))
        config.write_text("\n".join(data.draw(st.lists(CONFIG_LINES,
                                                       max_size=2))) + "\n",
                          encoding="utf-8")
        command = data.draw(st.sampled_from(("ingest", "estimate",
                                             "backtest")))
        argv = [command, "--input", str(csv_path)]
        if command == "backtest":
            argv += ["--crash-week", "2004-12-06"]
        fmt = data.draw(st.sampled_from(("text", "csv", "structured")))
        with pytest.MonkeyPatch.context() as mp:
            if data.draw(st.booleans()):
                mp.setenv(CONFIG_ENV, str(config))
            code, out, err = run_strict(argv + ["--format", fmt])
        assert_documented(code, out, err, fmt)

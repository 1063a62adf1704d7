"""Command-line surface: pipelines, config layering, exit codes, echoes."""

import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscmarkets
from oscmarkets.cli import CONFIG_ENV, main

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


def run_process(argv, close_stdin=False, stdin=None,
                entry=("-c", "from oscmarkets.cli import run; run()"), **env):
    """Run the CLI in a fresh interpreter; return (code, stdout, stderr)."""
    child_env = {k: v for k, v in os.environ.items() if k != CONFIG_ENV}
    child_env["PYTHONPATH"] = str(Path(oscmarkets.__file__).parents[1])
    child_env.update(env)
    proc = subprocess.run(
        [sys.executable, *entry, *argv], env=child_env, capture_output=True,
        text=True, timeout=120, stdin=stdin,
        preexec_fn=(lambda: os.close(0)) if close_stdin else None)
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

    @pytest.mark.parametrize("module", ["oscmarkets", "oscmarkets.cli"])
    def test_python_m(self, capsys, module):
        argv = ["predict", "--m-hat", "977.73", "--prior-close", "1099.23"]
        want = run(capsys, *argv)
        assert want[0] == 0
        assert run_process(argv, entry=("-m", module)) == want


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


class TestBlasThreads:
    """Grid output does not depend on the BLAS thread count."""

    @pytest.fixture(scope="class")
    def sample(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("threads") / "s.csv"
        assert main(["synth", "--m", "977.73", "--n", "1000", "--seed", "1",
                     "--output", str(path)]) == 0
        return str(path)

    @pytest.mark.parametrize("points", [2000, 2001, 1003])
    def test_grid_identical(self, capsys, sample, points):
        argv = ["estimate", "--input", sample, "--grid", f"100:5000:{points}",
                "--emit", "grid", "--format", "csv"]
        outs = [run_process(argv, OPENBLAS_NUM_THREADS=str(threads))
                for threads in (1, 2)]
        assert outs[0][0] == 0, outs[0][2]
        assert outs[0] == outs[1]
        assert run(capsys, *argv) == outs[0]


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
        assert grab(out, "m_hat") == "100.0000"
        assert err == ("warning: m_hat 100.0000 at the edge of the search "
                       "grid [10.0, 100.0]\n")

    def test_estimate_refined_inside_last_cell(self, capsys, tmp_path):
        # the grid argmax is the last candidate, but m_hat is not clipped
        path = tmp_path / "s4500.csv"
        assert main(["synth", "--m", "4500", "--n", "200", "--seed", "1",
                     "--output", str(path)]) == 0
        code, out, err = run(capsys, "estimate", "--input", str(path),
                             "--grid", "100:5000:7")
        assert (code, err) == (0, "")
        assert grab(out, "m_hat") == "4234.0577"

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
        assert grab(out, "m_hat") == "100.0000"
        assert err.startswith("warning: m_hat 100.0000 at the edge")
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
        code, out, err = run_process(["estimate", "--stdin"],
                                     close_stdin=True)
        assert (code, out) == (2, "")
        assert err == "data error: cannot read standard input: it is closed\n"

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
        assert err == "data error: ratio must be finite, got inf\n"

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
        big = tmp_path / "big.csv"
        big.write_text(f"date,close\n2001-01-05,100\n"
                       f"2001-01-12,{quote}{'1' * 140_000}{quote}\n")
        code, out, err = run(capsys, *argv, "--input", str(big))
        assert (code, out) == (2, "")
        assert err == ("data error: line 3: field larger than field limit "
                       "(131072)\n")

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
        assert code in (0, 1, 2, 3)
        if code:
            assert out == "" and err.count("\n") == 1
            assert err.startswith(PREFIXES[code]) and err.endswith("\n")
        else:
            assert err == "" or (err.startswith("warning: m_hat ")
                                 and err.count("\n") == 1)
            if fmt == "structured":
                TestPredict.strict_json(out)

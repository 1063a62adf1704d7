"""Run the repository's gates in order and report each one.

    python scripts/gates.py              # this checkout alone
    python scripts/gates.py --base REF   # and compare with commit REF

In order:

  1. tier1: the whole test suite (gate). It holds the guard against BLAS
     in the fit: tests/test_cli.py::TestBlasThreads compares fit bits
     between a child on the default OpenBLAS kernel with one thread and a
     child on the Haswell kernel with two, so this script sets no BLAS
     variable itself;
  2. tier1_no_avx512: the same with numpy's AVX-512 dispatch disabled,
     as on a CPU without AVX-512, where numpy's float64 exp and log may
     round differently (gate). The names to disable are read from the
     child numpy's own dispatch table (every AVX512* target and X86_V4,
     where each exists and is on), since numpy silently ignores a name it
     does not know; the gate fails if the child still reports any of them
     on;
  3. fit_digest and cli_digest: scripts/digest.py under each dispatch
     setting, the default and no-AVX512 (the names of step 2), one child
     per tree and setting, each step's line naming the targets it
     disabled: none on a CPU whose numpy reports no AVX-512 target, where
     both runs are the default. With --base, REF's src/ is digested too,
     by this checkout's script on this machine. Under each setting the
     two fit digests must be equal: a change must leave every fit
     bit-identical on both SIMD paths (gate). The head's CLI digest must
     be computed (gate); whether it equals REF's is reported, since a
     change may move the CLI's bytes knowingly, and says so;
  4. code_lines: scripts/count_code_lines.py totals. The head's count must
     run (gate); the totals are reported.
  5. cli_memory: the peak RSS in MB and the wall seconds of `synth --m
     977.73 --n 400000 --seed 1 --output FILE` in csv and in structured
     format, each run alone under a small launcher that reads its own
     RUSAGE_CHILDREN high-water mark, so the figure is that CLI process's
     and not pytest's, and times the child from spawn to exit. Both trees
     start alike: the head runs from a copy of src/ without __pycache__,
     as REF's export is, and every child runs with PYTHONDONTWRITEBYTECODE
     set, so each start-up compiles the package and none reads a cache
     that an earlier run wrote. The head's runs must succeed (gate); the
     figures, REF's too, are reported, not gated: one run each, so the
     seconds carry the host's noise.

numpy's dispatch is narrowed by setting NPY_DISABLE_CPU_FEATURES in the
child's environment only, which stands in for a CPU without those
targets; the default runs have it removed. REF's src/ is exported with
`git archive` into a temporary directory, so the checkout and its git
metadata are left as they were.

Each gate prints one line, then one JSON line sums them all up: each
gate's result, the digests, the code-line totals, the tier-1 counts and
the wall seconds each step took, counted from the end of the step before:
a cli_digest step reads the children its fit_digest step ran, so it shows
about none. The exit status is 1 when any gate fails.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the child's numpy prints the names of its AVX-512 dispatch targets, and
# of X86_V4 (the level that groups them), that it reports on, as JSON
AVX512 = """
import json
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath
print(json.dumps([name for name in umath.__cpu_dispatch__
                  if name.startswith(("AVX512", "X86_V4"))
                  and umath.__cpu_features__.get(name)]))
"""
# the one child of this launcher is a CLI run on the src/ tree in argv[1],
# writing no bytecode; it prints that child's peak RSS in MB and its wall
# seconds, or fails with it
LAUNCHER = """
import os, resource, subprocess, sys, time
start = time.perf_counter()
subprocess.run([sys.executable, "-m", "oscmarkets", *sys.argv[2:]],
               env=dict(os.environ, PYTHONPATH=sys.argv[1],
                        PYTHONDONTWRITEBYTECODE="1"), check=True)
print(round(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, 1),
      round(time.perf_counter() - start, 2))
"""


def python(args, disabled=()):
    """`python args` from the checkout's root with src/ on the path and
    numpy's dispatch targets `disabled` turned off: (exit code, output)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, ("src", os.environ.get("PYTHONPATH")))))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = ",".join(disabled)
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def pytest(args, disabled=()):
    code, out = python(
        ["-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", *args], disabled)
    lines = out.strip().splitlines()
    counts = {kind: int(n) for n, kind in re.findall(
        r"(\d+) (passed|failed|errors?|skipped|deselected)",
        lines[-1] if lines else "")}
    return {"ok": code == 0 and "passed" in counts, **counts}


def last_line(args, disabled=()):
    """The last output line of a script, or None if it failed."""
    code, out = python(args, disabled)
    lines = out.strip().splitlines()
    return lines[-1] if code == 0 and lines else None


def export_src(ref: str, dest: str) -> str:
    """REF's src/ written under dest; returns its path."""
    archive = subprocess.run(["git", "archive", ref, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return str(Path(dest) / "src")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", metavar="REF",
                        help="commit to compare the digests and counts with")
    args = parser.parse_args()
    start = end = time.perf_counter()
    report = {"base": args.base}

    def gate(name, result):
        """Record and print one step, timed from the end of the last."""
        nonlocal end
        now = time.perf_counter()
        report[name] = result = {**result, "seconds": round(now - end, 1)}
        end = now
        print(f"{'PASS' if result['ok'] else 'FAIL'} {name}: "
              + ", ".join(f"{k} {v}" for k, v in result.items() if k != "ok"),
              flush=True)

    gate("tier1", pytest([]))
    # a probe that fails disables nothing and leaves still_on null, which
    # fails the gate
    names = json.loads(last_line(["-c", AVX512]) or "[]")
    tier1 = pytest([], names)
    still_on = json.loads(last_line(["-c", AVX512], names) or "null")
    gate("tier1_no_avx512", {**tier1, "disabled": names,
                             "still_on": still_on,
                             "ok": tier1["ok"] and still_on == []})
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"head": []}
        if args.base:
            trees["base"] = [export_src(args.base, tmp)]
        # step-name suffix: the dispatch targets disabled
        for suffix, disabled in (("", []), ("_no_avx512", names)):
            lines = {tree: last_line(["scripts/digest.py", *src], disabled)
                     for tree, src in trees.items()}
            for key, must_match in (("fit", True), ("cli", False)):
                digests = {tree: line and json.loads(line)[key]
                           for tree, line in lines.items()}
                same = None not in digests.values() and len(
                    set(digests.values())) == 1
                # the head's digest must run; only the fit's must match
                gate(f"{key}_digest{suffix}", {
                    **digests, "disabled": disabled, "same": same,
                    "ok": same if must_match
                    else digests["head"] is not None})
        totals = {tree: last_line(["scripts/count_code_lines.py", *src])
                  for tree, src in trees.items()}
        gate("code_lines", {**{tree: line and int(line.split()[0])
                               for tree, line in totals.items()},
                            "ok": totals["head"] is not None})
        figures = {}
        # the head as REF is exported: no __pycache__ from the runs above
        head = Path(tmp) / "head" / "src"
        shutil.copytree(ROOT / "src", head,
                        ignore=shutil.ignore_patterns("__pycache__"))
        for tree, src in {**trees, "head": [str(head)]}.items():
            for fmt in ("csv", "structured"):
                line = last_line(
                    ["-c", LAUNCHER, *src, "synth", "--m",
                     "977.73", "--n", "400000", "--seed", "1", "--format",
                     fmt, "--output", str(Path(tmp) / f"{tree}.{fmt}")])
                mb, seconds = line.split() if line else (None, None)
                figures[f"{tree}_{fmt}_mb"] = mb and float(mb)
                figures[f"{tree}_{fmt}_s"] = seconds and float(seconds)
        gate("cli_memory", {**figures, "ok": None not in (
            figures["head_csv_mb"], figures["head_structured_mb"])})

    report["ok"] = ok = all(r["ok"] for r in report.values()
                            if isinstance(r, dict))
    report["seconds"] = round(time.perf_counter() - start, 1)
    print(json.dumps(report))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

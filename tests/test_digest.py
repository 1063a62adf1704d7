"""scripts/digest.py: the fit and CLI digests of a source tree are computed
from that tree's package or not at all."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tree_without_the_package_is_refused(tmp_path):
    # the checkout's src/ on PYTHONPATH, as scripts/gates.py runs every
    # child, would otherwise stand in for the empty tree
    src = ROOT / "src"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "digest.py"), str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert (f"imported oscmarkets from {src / 'oscmarkets' / '__init__.py'}"
            f", not from {tmp_path}") in proc.stderr

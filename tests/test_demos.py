"""Smoke test of the demos: each runs to completion as a subprocess.

Demo 03 (train and ablate) is left out to keep the suite's wall time
down: it trains for about 14 s.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("argv", [
    [sys.executable, "demos/01_graph_anatomy.py"],
    [sys.executable, "demos/02_autodiff_and_gradients.py"],
    ["sh", "demos/04_cli_walkthrough.sh"],
], ids=["01", "02", "04"])
def test_demo_exits_0(tmp_path, argv):
    # TMPDIR keeps demo 04's mktemp -d inside pytest's temporary directory
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               TMPDIR=str(tmp_path))
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr

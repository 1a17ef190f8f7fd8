"""Smoke test of the demos: each runs to completion as a subprocess.

Demo 03 (train and ablate) is left out to keep the suite's wall time
down: it trains for about 14 s.

These subprocess runs are the tests that run the package as installed.
In-process tests see the `Tensor` arithmetic that `conftest.py` sets from
`composed.py`; a fresh interpreter never imports it. So demo 02 (one fused
training step and its gradient check) and demo 04 (every subcommand of
the CLI, each in its own interpreter) catch a package path that still
needs a composed op.
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

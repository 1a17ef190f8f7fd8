"""Each benchmark workload runs once in the suite.

`bench/run.py` reports a workload only when its traced op fires every
expected span and its output passes the workload's own check. `bench/` is
outside the suite's testpaths, so this loads `bench/run.py` and
`bench/workloads.py` by path and runs, for each workload at one seed, one
traced op, the zero-call guard and that check: a change under `src/` that
would stop the benchmark or fail its check fails here too.
"""

import importlib.util
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run, tracing, workloads = load("run"), load("tracing"), load("workloads")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_and_passes_its_check(name, tmp_path, monkeypatch):
    # run.traced_pass imports the tracer as the top-level module `tracing`
    monkeypatch.setitem(sys.modules, "tracing", tracing)
    w = workloads.WORKLOADS[name]
    tracer, inputs, _, outcome = run.traced_pass(w, 11, str(tmp_path))
    tracer.check_fired(w.expected_spans)
    assert w.check(outcome, w.reference(inputs, outcome)) is None

"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

The repository's own suite does not collect this file (pytest's testpaths
is tests/). The count test runs one traced op per workload twice, about a
minute in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_counts_repeat_exactly(name, tmp_path):
    w = workloads.WORKLOADS[name]
    counts = []
    for _ in range(2):
        tracer, _, _, _ = run.traced_pass(w, 3, str(tmp_path))
        tracer.check_fired(w.expected_spans)
        derived = tracer.derive()
        counts.append({k: derived[k] for k in tracing.EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["graph.graphs"] > 0 and counts[0]["model.batches"] > 0
    if w.kind == "train":
        assert counts[0]["autodiff.tape_nodes_per_step"] > 0


def _package_functions():
    import tmeg.cli
    import tmeg.graph
    import tmeg.harness
    from tmeg.model import TmegModel
    return {**{f"{m.__name__}.{k}": v for m in (tmeg.cli, tmeg.graph, tmeg.harness)
               for k, v in vars(m).items() if callable(v)},
            **{f"TmegModel.{k}": v for k, v in vars(TmegModel).items()}}


def test_uninstall_restores_every_name():
    before = _package_functions()
    tracer = tracing.Tracer()
    tracer.install()
    assert _package_functions() != before
    tracer.uninstall()
    assert _package_functions() == before


def test_vanished_target_fails_install_and_restores(monkeypatch):
    before = _package_functions()
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("graph.gone", "tmeg.graph", "no_such_pass"),))
    with pytest.raises(tracing.TraceError, match="no_such_pass"):
        tracing.Tracer().install()
    assert _package_functions() == before


def test_zero_call_guard_names_the_silent_span():
    tracer = tracing.Tracer()
    with tracer.span("graph.assemble"):
        pass
    tracer.check_fired(["graph.assemble"])
    with pytest.raises(tracing.TraceError, match="graph.edge_based"):
        tracer.check_fired(["graph.assemble", "graph.edge_based"])


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [["harness.train", 0.0, 10.0, -1, "op"],
                    ["graph.assemble", 1.0, 4.0, 0, "op"],
                    ["graph.build_nodes", 1.5, 2.0, 1, "op"],
                    ["trace.hook", 4.0, 4.5, 0, "op"]]
    out = tracer.derive()
    assert out["harness.self_s"] == pytest.approx(6.5)
    assert out["graph.self_s"] == pytest.approx(3.0)
    assert out["graph.build_nodes_s"] == pytest.approx(0.5)
    assert out["trace.hooks_s"] == pytest.approx(0.5)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-uniform",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""

#!/usr/bin/env python3
"""Benchmark for tmeg's training and evaluation paths.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop, one client, one operation at a time, in this one
process, with BLAS pinned to BLAS_THREADS threads. Inputs are generated from
--seed; tmeg only receives the generated corpus, task file and checkpoint.

--trace 0 sets up several times, then repeats the workload's operation for
--seconds and reports the end-to-end metrics. --trace 1 runs the operation
once untraced and once with every tmeg layer wrapped in spans, checks that
both give the same output, and reports the per-layer metrics.

Progress goes to stderr. Stdout ends with the run's environment as one JSON
line, then the result {"correct", "attempted", "failed", "metrics"} as the
last line. Full records and span files go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# name -> unit; every --trace 0 run reports all of them
END_TO_END = {
    "setup_s": "s",
    "graphs_per_s": "graphs/s",
    "op_s_p50": "s",
    "peak_rss_mb": "MB",
    "loss": "nats",
}


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "commit": git_commit(ROOT),
        "src_sha256": src_digest(SRC),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": BLAS_THREADS},
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(w, seed: int, seconds: float, workdir: str):
    setup_times = []
    for i in range(w.setups):
        gc.collect()
        t0 = time.perf_counter()
        inputs = w.setup(seed, workdir)
        setup_times.append(time.perf_counter() - t0)
        log(f"setup {i + 1}/{w.setups}: {setup_times[-1]:.3f} s")

    walls, outcomes, attempted = [], [], 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        attempted += 1
        gc.collect()
        try:
            wall, outcome = w.op(inputs)
        except Exception:
            log(traceback.format_exc())
            continue
        walls.append(wall)
        outcomes.append(outcome)
        log(f"op {attempted}: {wall:.3f} s")
    if not outcomes:
        raise RuntimeError("every operation raised")
    rss = peak_rss_mb()  # before the checks, which build their own tapes

    reference = w.reference(inputs, outcomes[0])
    errors = [e for e in (w.check(o, reference) for o in outcomes) if e]
    for e in errors:
        log(f"check failed: {e}")
    graphs = w.graphs_per_op(inputs)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "graphs_per_s": statistics.median(graphs / t for t in walls),
        "op_s_p50": statistics.median(walls),
        "peak_rss_mb": rss,
        "loss": w.loss(outcomes[0], reference),
    }
    failed = attempted - len(outcomes) + len(errors)
    detail = {"setup_times_s": setup_times, "op_walls_s": walls,
              "graphs_per_op": graphs, "errors": errors}
    return attempted, failed, metrics, detail


def traced_pass(w, seed: int, workdir: str):
    """Set up and run one op with every tmeg target wrapped in spans."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            inputs = w.setup(seed, workdir, warm_up=False)
        tracer.run = "op"
        gc.collect()
        with tracer.span("bench.op"):
            wall, outcome = w.op(inputs)
    finally:
        tracer.uninstall()
    return tracer, inputs, wall, outcome


def run_traced(w, seed: int, workdir: str, spans_path: Path):
    from tracing import PER_LAYER, TraceError

    inputs = w.setup(seed, workdir)
    gc.collect()
    untraced_wall, untraced = w.op(inputs)
    log(f"untraced op: {untraced_wall:.3f} s")
    tracer, inputs, traced_wall, traced = traced_pass(w, seed, workdir)
    log(f"traced op: {traced_wall:.3f} s")
    tracer.write(spans_path)

    reference = w.reference(inputs, untraced)
    untraced_err = w.check(untraced, reference)
    traced_err = w.check(traced, reference)
    if traced_err is None and traced != untraced:
        traced_err = "traced and untraced runs gave different outputs"
    if traced_err is None:
        try:
            tracer.check_fired(w.expected_spans)
        except TraceError as exc:
            traced_err = str(exc)
    errors = [e for e in (untraced_err, traced_err) if e]
    for e in errors:
        log(f"check failed: {e}")

    derived = tracer.derive()
    derived["trace.untraced_s"] = untraced_wall
    derived["trace.traced_s"] = traced_wall
    derived["trace.overhead_s"] = traced_wall - untraced_wall
    metrics = {name: derived[name] for name, _ in PER_LAYER}
    detail = {"errors": errors, "spans_file": str(spans_path.relative_to(ROOT))}
    return 2, len(errors), metrics, detail


def main(argv=None) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "tmeg" / "__init__.py").is_file():
        log(f"tmeg sources not found at {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    # numpy loads here, after the BLAS thread count is pinned
    from tracing import PER_LAYER
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import tmeg
    if Path(tmeg.__file__).resolve().parent != SRC / "tmeg":
        log(f"imported tmeg from {tmeg.__file__}, not from {SRC}")
        return 2

    w = WORKLOADS[args.workload]
    env = environment()
    log(f"{w.name} seed {args.seed} trace {args.trace}: "
        f"BLAS {env['blas']['name']} x{BLAS_THREADS}, nproc {env['nproc']}")
    OUT.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.trace:
            attempted, failed, metrics, detail = run_traced(
                w, args.seed, workdir, OUT / f"spans-{stem}.jsonl")
        else:
            attempted, failed, metrics, detail = run_untraced(
                w, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = dict(PER_LAYER) if args.trace else END_TO_END
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    record = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env,
              "configs": w.configs(args.seed), "detail": detail, **result}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    for name, m in result["metrics"].items():
        log(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"environment": env, "workload": w.name, "seed": args.seed,
                      "configs": w.configs(args.seed)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

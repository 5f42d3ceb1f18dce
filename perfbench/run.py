"""Benchmark entry point: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload detect_bench --seed 1 --seconds 10 --trace 0

Run from the repository root (any directory works; paths are resolved
from this file).  The library is imported from ``src/`` next to this
directory; without it the script exits with code 2 and prints no result.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
span recorder and prints the per-layer metrics instead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run metadata, every metric and
the notes of the run go to ``perfbench/out/result-<workload>-<seed>-trace<t>.json``;
a traced run also writes its spans to ``perfbench/out/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
# The model's matrices are small: more BLAS threads than two only add noise.
BLAS_THREADS = max(1, min(2, NPROC or 1))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit():
    """Commit of the checkout, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    import subprocess
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest():
    """sha256 over the library's source files, a commit id that needs no git."""
    import hashlib
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lidardet").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lidardet" / "__init__.py").is_file():
        print(f"lidardet sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    import json
    import platform
    import resource
    import shutil

    import numpy as np

    import workloads
    from spans import Recorder, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    rec = Recorder() if args.trace else None
    try:
        if rec is not None:
            with rec:
                run = workloads.run_workload(workload, args.seed, args.seconds, work, rec)
        else:
            run = workloads.run_workload(workload, args.seed, args.seconds, work, rec)
        if not run.failed:
            run.gate(rec.funnel if rec is not None else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # ru_maxrss is in KiB on Linux
    run.e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    per_layer = layer_metrics(rec) if rec is not None else None
    metrics = per_layer if rec is not None else dict(run.e2e)
    if rec is not None:
        rec.write_jsonl(OUT / f"trace-{workload.name}-{args.seed}.jsonl")

    meta = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": NPROC, "blas_threads": BLAS_THREADS,
        "blas_env": {v: os.environ[v] for v in BLAS_ENV},
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "run_counts": getattr(run, "counts", {}),
        "attempted": run.attempted, "failed": run.failed,
        "fail_ratio": run.failed / max(run.attempted, 1),
        "notes": run.notes,
        "byte_counts": "computed from array sizes, not measured",
    }
    with open(OUT / f"result-{workload.name}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"meta": meta, "end_to_end": run.e2e,
                   "per_layer": per_layer},
                  fh, indent=1)

    print("meta " + json.dumps(meta))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:16.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

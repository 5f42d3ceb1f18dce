"""Run every workload once and print every metric by name, with its unit.

    python3 perfbench/report.py --seed 1            # end-to-end metrics
    python3 perfbench/report.py --seed 1 --trace    # per-layer metrics too

Each workload runs in its own process through ``run.py`` with the
``run_seconds`` of ``BENCHMARK.json``.  The table ends with each
workload's fail_ratio (failed / attempted operations, gate checks
included) and whether its outputs were correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run.py exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace", action="store_true", help="also print per-layer metrics")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    ok = True
    for w in bench["workloads"]:
        for trace in ((0, 1) if args.trace else (0,)):
            res = run_one(w["name"], args.seed, seconds, trace)
            print(f"\n== {w['name']} (seed {args.seed}, {seconds} s, trace {trace}): {w['why']}")
            for name, m in res["metrics"].items():
                print(f"  {name:48s} {m['value']:16.6g} {m['unit']}")
            ratio = res["failed"] / res["attempted"]
            print(f"  {'fail_ratio':48s} {ratio:16.6g} ratio "
                  f"({res['failed']}/{res['attempted']}), correct={res['correct']}")
            ok = ok and res["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

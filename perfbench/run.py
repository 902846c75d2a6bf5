#!/usr/bin/env python3
"""The ssrd benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {calibrate,price,mc_check} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
Steps:

1. Generate the seeded inputs under ``.perfbench/`` (not timed).
2. Start the workload's child once to warm the file cache and write
   bytecode, four times for set-up only, once to run the workload, and
   four more times for set-up only.  ``setup_s`` is the median of the nine
   times from starting a child to its ``READY`` line; taking them on both
   sides of the timed phase keeps one burst of machine load from moving
   the median.
3. The child runs and checks the ops (see child.py); this process turns
   its result into metrics.

Human-readable lines go first; the last line of stdout is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
A run that cannot check its outputs exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 4  # set-up-only starts on each side of the run
CHILD_TIMEOUT = 170.0


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _start_child(args, work: Path, env: dict, extra=()):
    """Start a child; return it with the seconds it took to print READY."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--work", str(work), "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        _stop(proc)
        raise RuntimeError(f"{args.workload} child failed during set-up (exit {proc.returncode})")
    return proc, ready


def _stop(proc, timeout: float = 10.0) -> int:
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs for the self-check; not comparable to full runs")
    ap.add_argument("--break-op", type=int, default=-1,
                    help="self-check only: corrupt this op's output before checking")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ssrd" / "__init__.py").is_file():
        print("error: run from the root of an ssrd checkout (src/ssrd not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    kind = WORKLOADS[args.workload]

    work = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    manifest = kind.generate(args.seed, work / "inputs", args.tiny)
    (work / "manifest.json").write_text(json.dumps(manifest))

    env = _child_env(root)

    def setup_only() -> float:
        proc, ready = _start_child(args, work, env, ["--setup-only"])
        if _stop(proc) != 0:
            raise RuntimeError("set-up-only child failed")
        return ready

    setup_only()  # warm-up, not counted
    setups = [setup_only() for _ in range(SETUP_SAMPLES)]
    extra = ["--break-op", str(args.break_op)] if args.break_op >= 0 else []
    proc, ready = _start_child(args, work, env, extra)
    setups.append(ready)
    if _stop(proc, CHILD_TIMEOUT) != 0:
        raise RuntimeError(f"{args.workload} child failed")
    setups += [setup_only() for _ in range(SETUP_SAMPLES)]
    result = json.loads((work / "result.json").read_text())

    walls = result["walls"]
    attempted, failed = result["attempted"], result["failed"]
    p50 = 1e3 * statistics.median(walls)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(walls)}  attempted {attempted}  failed {failed}")
    print(f"  fail_frac   {failed / attempted:.4f} 1")
    print(f"  setup_s     {statistics.median(setups):.4f} s  (median of {len(setups)} starts)")
    print(f"  op_ms_p50   {p50:.3f} ms  (n = {len(walls)})")
    if args.workload == "price" and len(walls) > 1:  # the one workload with 10+ ops above p90
        p90 = statistics.quantiles(walls, n=10, method="inclusive")[-1]
        print(f"  op_ms_p90   {1e3 * p90:.3f} ms  ({sum(w > p90 for w in walls)} samples above)")
    for k, v in result.get("failures", {}).items():
        print(f"  failed op {k}: {v}")

    if args.trace == 0:
        metrics = {
            "ops_per_s": {"value": len(walls) / result["wall"], "unit": "op/s"},
            "op_ms_p50": {"value": p50, "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    else:
        metrics = result["metrics"]
        print("  per-layer figures are per op; wait time is zero by construction "
              "(one thread, nothing queues)")
        print(f"  spans written to {work / 'spans.jsonl'}")
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["bad"] == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

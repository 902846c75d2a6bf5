"""One workload in one single-threaded process: set up, then run the ops.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.
The child prints ``READY`` on stdout once set-up is done (``import ssrd``
plus loading every generated input through the package loaders); run.py
times set-up from process start to that line.  With ``--setup-only`` the
child exits there.  Otherwise it runs the ops, checks every output and
writes ``result.json`` into the work directory.

Untraced (``--trace 0``): one untimed, unchecked warm-up op, then a fixed
number of ops, ``workload.n_ops(seconds)``, cycling through the generated
inputs; each op is timed on its own.  The count depends on ``--seconds``
and the workload only, never on the clock, so one seed always runs and
checks the same ops and ``attempted``/``failed`` repeat exactly.

Traced (``--trace 1``): after one untraced warm-up pass, the workload's
first ``trace_ops`` ops run as a group, alternately with every public ssrd
function wrapped and untraced, until ``--seconds`` have passed.  Repeating
whole groups makes every per-op count exact for a seed.  The traced minus
untraced wall time is the tracing overhead, and the untraced groups give
the process counters.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

import tracer as tracing
from workloads import BAD, WORKLOADS, Calibrate


def _rusage():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime, ru.ru_stime, ru.ru_minflt


def _run_ops(workload, indices, out_root: Path, tracer=None):
    """Run ops ``indices`` in order; return per-op outputs, errors and wall times."""
    outputs, errors, walls = {}, {}, []
    for i in indices:
        out_dir = out_root / f"op{i:05d}"
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outputs[i] = workload.op(i, out_dir)
            else:
                with tracer.root(i):
                    outputs[i] = workload.op(i, out_dir)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            errors[i] = f"{type(exc).__name__}: {exc}"
        walls.append(time.perf_counter() - t0)
    return outputs, errors, walls


def _check_all(workload, outputs, errors, out_root: Path) -> dict:
    """Map each failed op to (BAD or MISS, reason); an op that raised is BAD."""
    failed = {i: (BAD, reason) for i, reason in errors.items()}
    for i, out in outputs.items():
        verdict = workload.check(i, out, out_root / f"op{i:05d}")
        if verdict is not None:
            failed[i] = verdict
    return failed


def _timed(workload, n_ops: int, work: Path):
    _run_ops(workload, [0], work / "warmup")  # pays the cold start; not timed or checked
    start = time.perf_counter()
    outputs, errors, walls = _run_ops(workload, range(n_ops), work / "out")
    wall = time.perf_counter() - start
    return outputs, errors, walls, wall


def _layer_metrics(tracer, n_ops: int, untraced_wall: float, traced_wall: float,
                   rusage_delta, workload, outputs, out_root: Path) -> dict:
    self_t = tracer.self_times()
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for (name, *_), st in zip(tracer.spans, self_t):
        calls[name] += 1
        self_s[name] += st
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for mod, attr, stats, _ in tracing.TRACED:
        name = f"{mod}.{attr}"
        put(f"{name}.calls", calls[name] / n_ops, "count/op")
        put(f"{name}.self_s", self_s[name] / n_ops, "s/op")
        for stat in stats:
            put(f"{name}.{stat}", tracer.counts[f"{name}.{stat}"] / n_ops, "count/op")

    # Share of credit-step time spent inside spread_ladder.
    spans = tracer.spans
    in_cds = [False] * len(spans)
    cds_time = ladder_time = 0.0
    for k, (name, start, end, parent, _) in enumerate(spans):
        in_cds[k] = name == "calibrate.calibrate_cds" or (parent >= 0 and in_cds[parent])
        if name == "calibrate.calibrate_cds":
            cds_time += end - start
        elif name == "pricing.spread_ladder" and in_cds[k]:
            ladder_time += end - start
    put("calibrate.ladder_share", ladder_time / cds_time if cds_time else 0.0, "1")
    errs = []
    if isinstance(workload, Calibrate):
        errs = [workload.refit_error_bp(out_root / f"op{i:05d}") for i in outputs]
    put("calibrate.max_err_bp", max((e for e in errs if e is not None), default=0.0), "bp")
    mc_self = self_s["mc.mc_estimate"]
    put("mc.path_steps_per_s",
        tracer.counts["mc.mc_estimate.path_steps"] / mc_self if mc_self else 0.0, "1/s")

    user, sys_, minflt = rusage_delta
    put("proc.user_s", user / n_ops, "s/op")
    put("proc.sys_s", sys_ / n_ops, "s/op")
    put("proc.minflt", minflt / n_ops, "count/op")
    put("trace.overhead_s", (traced_wall - untraced_wall) / n_ops, "s/op")
    put("trace.overhead_pct", 100.0 * (traced_wall - untraced_wall) / untraced_wall, "%")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--break-op", type=int, default=-1,
                    help="self-check only: corrupt this op's output before checking")
    args = ap.parse_args(argv)
    work = Path(args.work)

    manifest = json.loads((work / "manifest.json").read_text())
    workload = WORKLOADS[args.workload](manifest)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    # The CLI prints every report; send it where a batch user would.
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())

    out_root = work / "out"
    result = {}
    if args.trace == 0:
        outputs, errors, walls, wall = _timed(workload, workload.n_ops(args.seconds), work)
        ru = resource.getrusage(resource.RUSAGE_SELF)
        result["walls"] = walls
        result["wall"] = wall
        result["peak_rss_mb"] = ru.ru_maxrss / 1024.0
    else:
        # One untraced pass first, so that neither side pays the cold start.
        group = list(range(workload.trace_ops))
        _run_ops(workload, group, work / "warmup")
        tracer = tracing.Tracer()
        outputs, errors, traced, replay, n = {}, {}, [], [], 0
        rusage_delta = [0.0, 0.0, 0]
        start = time.perf_counter()
        while n == 0 or time.perf_counter() - start < args.seconds:
            tracer.install()
            o, e, w = _run_ops(workload, group, out_root, tracer)
            tracer.uninstall()
            outputs.update(o)
            errors.update(e)
            traced += w
            ru0 = _rusage()
            replay += _run_ops(workload, group, work / "replay")[2]
            rusage_delta = [d + b - a for d, a, b in zip(rusage_delta, ru0, _rusage())]
            n += len(group)
        tracer.dump(work / "spans.jsonl")
        result["metrics"] = _layer_metrics(tracer, n, sum(replay), sum(traced), rusage_delta,
                                           workload, outputs, out_root)
        result["walls"] = replay

    if args.break_op in outputs:
        outputs[args.break_op] = _broken(outputs[args.break_op])
    failed = _check_all(workload, outputs, errors, out_root)
    result["attempted"] = len(outputs) + len(errors)
    result["failed"] = len(failed)
    result["bad"] = sum(kind == BAD for kind, _ in failed.values())
    result["failures"] = {str(k): f"{kind}: {why}" for k, (kind, why) in sorted(failed.items())}
    (work / "result.json").write_text(json.dumps(result))
    return 0


def _broken(output):
    """A deliberately wrong output: exit code 1 for CLI ops, NaN spreads for pricing."""
    if isinstance(output, tuple):
        spreads, q = output
        return [math.nan] * len(spreads), q
    return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Fast self-check of the benchmark itself, on tiny inputs.

    python3 perfbench/selfcheck.py      # from the root of an ssrd checkout

For every workload it asserts that:

* an untraced run prints every end-to-end metric of BENCHMARK.json, with
  its unit, and a traced run every per-layer metric;
* two untraced runs of one seed attempt and fail exactly the same number
  of ops;
* two traced runs of one seed give exactly the same integer counts
  (``calls``, ``n_eval``, ``iterations``, ``points``, ``path_steps``, ...);
* in the written spans, each op has one root span and the self times of
  an op's spans add up to its root span's duration;
* an output corrupted on purpose (``--break-op``) is counted as failed.

Takes about a minute.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
TINY_SECONDS = "2"
SEED = "7"


def _run(workload: str, trace: int, *extra) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", SEED,
           "--seconds", TINY_SECONDS, "--trace", str(trace), "--tiny", *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _check_metrics(result: dict, spec: list, label: str) -> None:
    names = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    assert set(got) == set(names), f"{label}: metric names differ: {set(got) ^ set(names)}"
    for name, unit in names.items():
        assert got[name]["unit"] == unit, f"{label}: {name} unit {got[name]['unit']} != {unit}"
        assert math.isfinite(got[name]["value"]), f"{label}: {name} is not finite"


def _check_spans(workload: str) -> int:
    path = Path.cwd() / ".perfbench" / f"{workload}-seed{SEED}-trace1" / "spans.jsonl"
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    roots = defaultdict(list)
    self_sum = defaultdict(float)
    for s in spans:
        if s["parent"] < 0:
            assert s["name"] == "bench.op", f"{workload}: span {s['name']} has no parent"
            roots[s["op"]].append(s["end"] - s["start"])
        self_sum[s["op"]] += s["self_s"]
    for op, durations in roots.items():
        total = sum(durations)
        assert abs(self_sum[op] - total) <= 1e-9 * max(1.0, total), (
            f"{workload}: op {op} self times sum to {self_sum[op]}, root spans to {total}")
    return len(spans)


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for workload in ("calibrate", "price", "mc_check"):
        plain = _run(workload, 0)
        _check_metrics(plain, spec["end_to_end"], f"{workload} untraced")
        assert plain["correct"] and plain["failed"] == 0, f"{workload}: failed {plain['failed']}"
        again = _run(workload, 0)
        assert (again["attempted"], again["failed"]) == (plain["attempted"], plain["failed"]), (
            f"{workload}: two runs of one seed attempted or failed different numbers of ops")

        first = _run(workload, 1)
        n_spans = _check_spans(workload)
        second = _run(workload, 1)
        _check_metrics(first, spec["per_layer"], f"{workload} traced")
        counts = [n for n, m in first["metrics"].items()
                  if m["unit"] == "count/op" and not n.startswith("proc.")]
        for name in counts:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            assert a == b, f"{workload}: {name} differs between runs of one seed: {a} != {b}"

        broken = _run(workload, 0, "--break-op", "0")
        assert broken["failed"] >= 1 and not broken["correct"], (
            f"{workload}: a corrupted output was not counted as failed")
        print(f"{workload}: ok ({len(counts)} counts repeat exactly, {n_spans} spans, "
              f"corrupted output counted: {broken['failed']}/{broken['attempted']} failed)")
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Every ssrd name the benchmark harness reaches for still exists.

The traced benchmark run wraps the functions listed in
``perfbench/tracer.py``'s ``TRACED`` by ``getattr``, and the workloads call
``ssrd.<name>(...)`` directly; a removed or renamed entry point would only
show up as a crash of the benchmark.  Both files are read, never changed.
"""

from __future__ import annotations

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import ssrd

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolve(dotted: str):
    obj = ssrd
    for part in dotted.split("."):
        if not hasattr(obj, part) and obj.__name__.startswith("ssrd"):
            importlib.import_module(f"{obj.__name__}.{part}")
        obj = getattr(obj, part)
    return obj


def _traced():
    spec = importlib.util.spec_from_file_location("_bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [f"{mod}.{attr}" for mod, attr, _, _ in module.TRACED]


def _workload_calls():
    text = (BENCH / "workloads.py").read_text(encoding="utf-8")
    return sorted(set(re.findall(r"\bssrd\.((?:\w+\.)*\w+)\(", text)))


def test_workload_scan_finds_the_cli_entry_point():
    assert "cli.main" in _workload_calls()


@pytest.mark.parametrize("dotted", _traced())
def test_traced_name_resolves(dotted):
    assert callable(_resolve(dotted))


@pytest.mark.parametrize("dotted", _workload_calls())
def test_workload_call_resolves(dotted):
    assert callable(_resolve(dotted))

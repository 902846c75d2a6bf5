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

import numpy as np
import pytest

import ssrd
import ssrd.cli
from conftest import (
    INTENSITY_SETS,
    MARKET_STRIP_TENORS,
    RATE_FIXTURE,
    intensity_leg_params,
    make_model,
)

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolve(dotted: str):
    obj = ssrd
    for part in dotted.split("."):
        if not hasattr(obj, part) and obj.__name__.startswith("ssrd"):
            importlib.import_module(f"{obj.__name__}.{part}")
        obj = getattr(obj, part)
    return obj


def _tracer_module():
    spec = importlib.util.spec_from_file_location("_bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced():
    return [f"{mod}.{attr}" for mod, attr, _, _ in _tracer_module().TRACED]


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


@pytest.mark.parametrize("dotted", ["pricing.price_cds", "pricing.LegValues",
                                    "expansion.v_expansion", "expansion.h_expansion",
                                    "simplex.nelder_mead", "simplex.Transform"])
def test_internal_name_lives_in_its_module_only(dotted):
    # The package namespace exports what scripts and workloads use; these
    # serve the library and the traced run, so they resolve at their module.
    name = dotted.split(".")[1]
    assert not hasattr(ssrd, name) and name not in ssrd.__all__
    assert callable(_resolve(dotted))


def test_expansion_integrals_share_one_grid():
    # A correlated order-2 ladder on the 11-quote strip at 32 nodes plus a
    # 24-point survival curve: one Gauss-Legendre grid per call keeps the
    # traced node count near the number of evaluation points times 32
    # (nested rules made it about 1.28M).
    config = ssrd.PricingConfig(roll="anniversary", order=2, quad_nodes=32)
    schedule = ssrd.build_schedule(None, max(MARKET_STRIP_TENORS), config)
    ends = [len(ssrd.build_schedule(None, t, config).times) for t in MARKET_STRIP_TENORS]
    ssrd.timeint._grid_cache.clear()  # so the ladder builds its grid
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        ssrd.pricing.spread_ladder(make_model("mid2", rho=0.5), schedule, ends, config)
        ssrd.survival_approx(intensity_leg_params("mid2"), 0.25 * np.arange(1, 25))
    finally:
        tracer.uninstall()
    assert 0 < tracer.counts["timeint.gauss_legendre.elems"] <= 20_000


def test_survival_curve_builds_no_grid():
    # The one-leg coefficients are closed forms in alpha * tau: no
    # Gauss-Legendre nodes for a 24-point survival curve (a 32-node running
    # grid when they were running integrals).
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        ssrd.survival_approx(intensity_leg_params("mid2"), 0.25 * np.arange(1, 25))
    finally:
        tracer.uninstall()
    called = [name for name, *_ in tracer.spans]
    assert called.count("expansion.survival_approx") == 1
    assert "timeint.gauss_legendre" not in called


def test_ladder_prices_on_the_coupon_grid_itself():
    # The expansion's running grid is laid over the coupon dates and its
    # nodes are the quadrature panels: 12 semiannual periods x 32 nodes, no
    # second grid over the panel nodes (which made 13,056 nodes).
    config = ssrd.PricingConfig(roll="anniversary", order=2, quad_nodes=32)
    schedule = ssrd.build_schedule(None, max(MARKET_STRIP_TENORS), config)
    ends = [len(ssrd.build_schedule(None, t, config).times) for t in MARKET_STRIP_TENORS]
    ssrd.timeint._grid_cache.clear()  # so the ladder builds its grid
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        ssrd.pricing.spread_ladder(make_model("mid2", rho=0.5), schedule, ends, config)
    finally:
        tracer.uninstall()
    assert tracer.counts["timeint.gauss_legendre.elems"] == len(schedule.times) * 32 == 384
    called = {name for name, *_ in tracer.spans}
    assert called.isdisjoint({"expansion.expansion_terms", "timeint.panel_nodes"})


def test_spread_curve_prices_off_grid_tenors_as_ladders():
    # 1.25y has a stub period, so it is not a prefix of the 2y grid: each
    # tenor is a one-quote ladder of its own, with no price_cds path.
    config = ssrd.PricingConfig(roll="anniversary")
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        ssrd.spread_curve(make_model("mid1"), [1.25, 2.0], config)
    finally:
        tracer.uninstall()
    called = [name for name, *_ in tracer.spans]
    assert "pricing.price_cds" not in called
    assert called.count("pricing.spread_ladder") == 2


def test_rate_fit_runs_without_the_simplex(monkeypatch):
    # Levenberg-Marquardt from five starts on the 7-pillar exact curve: about
    # 900 bond rows, a stage of the lock-step at a time, and no simplex call
    # (five simplex runs made 6,212).
    from test_calibrate import _exact_curve

    rows = 0
    bond = ssrd.calibrate.cir_bond

    def counting_bond(legs, *args):
        nonlocal rows
        rows += len(legs)
        return bond(legs, *args)

    monkeypatch.setattr(ssrd.calibrate, "cir_bond", counting_bond)
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        ssrd.calibrate.calibrate_rates(_exact_curve())
    finally:
        tracer.uninstall()
    called = [name for name, *_ in tracer.spans]
    assert "simplex.nelder_mead" not in called
    assert 0 < rows <= 1_500


def test_ladder_evaluates_each_closed_form_once():
    # A correlated order-1 ladder, the credit fit's inner loop: psi(-a, 0, t)
    # for both legs at every node and date in one call, theta read off it
    # (six psi and two theta calls when each moment took its own).
    config = ssrd.PricingConfig(roll="anniversary", order=1, quad_nodes=8)
    schedule = ssrd.build_schedule(None, max(MARKET_STRIP_TENORS), config)
    ends = [len(ssrd.build_schedule(None, t, config).times) for t in MARKET_STRIP_TENORS]
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        ssrd.pricing.spread_ladder(make_model("mid2", rho=0.5), schedule, ends, config)
    finally:
        tracer.uninstall()
    called = [name for name, *_ in tracer.spans]
    assert called.count("timeint.psi") == 1
    assert "timeint.theta" not in called


def test_mc_check_expands_once_for_all_tenors(tmp_path):
    # One expansion_terms, one survival_approx and one mc_estimate call
    # cover every tenor (two of each when each tenor took its own).
    params = tmp_path / "params.txt"
    values = {**RATE_FIXTURE, **INTENSITY_SETS["mid2"], "rho": 0.5}
    params.write_text("".join(f"{k}={v!r}\n" for k, v in values.items()))
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        code = ssrd.cli.main(["mc-check", "--params", str(params), "--tenors", "1,3",
                              "--paths", "200", "--step", "0.05"])
    finally:
        tracer.uninstall()
    assert code == 0
    called = [name for name, *_ in tracer.spans]
    assert called.count("expansion.expansion_terms") == 1
    assert called.count("expansion.survival_approx") == 1
    assert called.count("mc.mc_estimate") == 1
